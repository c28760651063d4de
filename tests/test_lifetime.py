"""Object lifetimes: what a request builds is freed by reference counting.

A Space owns its generators, which point back weakly, and a JetModel owns
its fields D, D_a and s, whose rules hold the jet registry and never the
model, so neither forms a reference cycle.  These tests switch the cyclic
collector off and watch weak references die on `del`, and count what the
collector would still find after whole CLI requests.
"""

import contextlib
import gc
import json
import weakref

import pytest

from gpde.algebra import FIBER, GradedAlgebraError, Space
from gpde.cli import main
from gpde.jets import JetModel, check_bv_identities, check_descent
from gpde.parser import load_builtin
from gpde.reduction import form_universe, reduce_form


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _weak(*objs):
    return [weakref.ref(o) for o in objs]


def test_checks_free_model_space_and_jet_model():
    with collector_off():
        m = load_builtin("maxwell_weak")
        jm = JetModel(m)
        results = check_descent(jm) + check_bv_identities(jm)
        assert all(r.passed for r in results)
        refs = _weak(m, m.space, jm)
        del m, jm
        assert [r() for r in refs] == [None, None, None]


def test_reduction_frees_model_space_and_jet_model():
    with collector_off():
        m = load_builtin("maxwell_weak")
        jm = JetModel(m)
        top = jm.vertical_top()
        red = reduce_form(top, form_universe(top), s=jm.s)
        assert red.split_residual().is_zero()
        refs = _weak(m, m.space, jm)
        del m, jm, top, red
        assert [r() for r in refs] == [None, None, None]


def test_fields_outlive_their_jet_model():
    m = load_builtin("maxwell_weak")
    u = m.fiber_coords()[0]
    with collector_off():
        jm = JetModel(m)
        ref = weakref.ref(jm)
        s, D = jm.s, jm.D
        del jm
        assert ref() is None
    other = JetModel(m)
    _, g = other.jet(u, (0, 1), (2,))
    assert not s.coefficient(g).is_zero()
    assert s.coefficient(g) == other.s.coefficient(g)
    assert D.apply(g) == other.D.apply(g)


def test_generator_of_a_dropped_space_raises():
    with collector_off():
        space = Space("dropped")
        g = space.coordinate("u", FIBER, 0)
        assert g.space is space
        del space
        with pytest.raises(GradedAlgebraError, match="space of generator 'u' is gone"):
            g.space


def _garbage_after(requests, capsys) -> int:
    """The objects the cyclic collector finds after the given CLI requests,
    run with the collector off."""
    gc.collect()
    with collector_off():
        for argv in requests:
            main(argv)
        capsys.readouterr()
        return gc.collect()


# the first request of a process leaves one-time objects, such as the cached
# argument parser, for the collector; a warm-up request takes them
WARM_UP = [["check", "toy_dim0"]]


def test_text_requests_leave_no_cyclic_garbage(capsys):
    _garbage_after(WARM_UP, capsys)
    requests = [["report", "ym_weak"], ["reduce", "ym_weak", "--order", "3"]]
    assert _garbage_after(requests, capsys) == 0


def test_json_report_leaves_only_the_encoders_cycle(capsys):
    # json.dumps(..., indent=2) runs the pure-Python encoder, whose nested
    # closures form a cycle: 33 objects per call on CPython 3.11
    _garbage_after(WARM_UP, capsys)
    gc.collect()
    with collector_off():
        json.dumps({"model": "m", "checks": []}, indent=2)
        encoder = gc.collect()
    assert encoder > 0
    assert _garbage_after([["report", "maxwell_weak", "--format", "json"]], capsys) == encoder
