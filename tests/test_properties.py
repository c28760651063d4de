"""Seeded randomized checks of the kernel operations against oracles and
invariants.  The algebraic law suites and the abelian specialization of the
curved-model pipeline run once, under test_acceptance.py's criterion 7."""

import pytest

import properties as pr

CASES = 1000


def test_lie_validate_oracle():
    pr.suite_lie_validate(500)


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
