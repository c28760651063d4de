"""Randomized law checking: a thousand seeded cases per algebraic law, plus
the abelian specialization of the full curved-model pipeline."""

import pytest

import properties as pr

CASES = 1000


def test_graded_ring_laws():
    pr.suite_graded_ring(CASES)


def test_differential_laws():
    pr.suite_differential(CASES)


def test_cartan_coherence():
    pr.suite_cartan(CASES)


def test_lie_bracket_jacobi():
    pr.suite_lie_jacobi(CASES)


def test_lie_validate_oracle():
    pr.suite_lie_validate(500)


def test_variational_invariance():
    pr.suite_el_invariance(CASES)


def test_mono_mul_oracle():
    pr.suite_mono_mul(CASES)


def test_de_rham_oracle():
    pr.suite_de_rham(CASES)


def test_trusted_sums():
    pr.suite_trusted_sums(CASES)


def test_long_monomial_oracles():
    pr.suite_long_monomials(CASES)


def test_rref_oracle():
    pr.suite_rref(CASES)


def test_rref_sympy_cross_check():
    pytest.importorskip("sympy")
    pr.suite_rref_sympy(50)


def test_even_sector_sympy_oracle():
    pytest.importorskip("sympy")
    pr.suite_even_sympy(50)


def test_maxwell_specializations(maxwell_model):
    pr.maxwell_specializations(maxwell_model)
