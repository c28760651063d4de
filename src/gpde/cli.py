"""Command line front end.

Every verb loads a model (a builtin name or a path to a model file), runs
its checks, prints a report and exits 0 exactly when all requested checks
passed.  On failure the failing checks are repeated on stderr, one per
line, prefixed with FAIL.  A usage error (an unknown model, a malformed
--at or --kill, a negative --order) prints one `gpde:` line on stderr and
exits 2.

Jets are made on demand, so no verb truncates them.  `reduce`, `descent`
and `bv-identities` still accept `--order`, which nothing reads but the
nonnegative check: the benchmark inputs under perfbench/ pass it, until the
benchmark revision (ROADMAP item 1) drops it from them.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import Generator, GradedAlgebraError, Poly, Scalar, rational
from .jets import JetModel, boundary_reduction, check_bv_identities, check_descent, ghost_sector
# action_density and generic_supersection are not called here (the verbs
# read JetModel.bv_top), but perfbench/spans.py times them under these names
from .jets import action_density, generic_supersection  # noqa: F401
from .model import Model, check_solution, solve_hamiltonian, standard_checks
from .parser import DslError, builtin_names, load_builtin, load_model
from .printing import equations, gen_text, poly_latex, poly_text
from .reduction import ReductionError, form_universe, reduce_form
from .report import CheckResult, Report


def _usage(message: str) -> SystemExit:
    """A usage error: the message on stderr, and the exit of code 2 to raise."""
    print(f"gpde: {message}", file=sys.stderr)
    return SystemExit(2)


@functools.cache
def _builtin_names() -> tuple:
    """The packaged model names, listed once per process: the package's
    data files do not change at run time."""
    return tuple(builtin_names())


def _load(ref: str) -> Model:
    if ref in _builtin_names():
        return load_builtin(ref)
    if os.path.exists(ref):
        return load_model(ref)
    raise _usage(f"no file {ref!r} and no builtin of that name "
                 f"(builtins: {', '.join(_builtin_names())})")


def _parse_point(spec: str, candidates: Dict[str, Generator]) -> Dict[Generator, Scalar]:
    point = {}
    # a name may hold commas, but only inside brackets: F[0,1]{1}[|], C{1}[|0,1]
    for item in re.split(r",(?![^\[]*\])", spec):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _usage(f"--at expects name=value pairs, got {item!r}")
        name, _, val = item.partition("=")
        g = candidates.get(name.strip())
        if g is None:
            raise _usage(f"unknown coordinate {name.strip()!r} in --at "
                         f"(known: {', '.join(sorted(candidates)) or 'none'})")
        if g in point:
            raise _usage(f"coordinate {name.strip()!r} given twice in --at")
        try:
            point[g] = rational(Fraction(val.strip()))
        except (ValueError, ZeroDivisionError):
            raise _usage(f"bad rational value {val.strip()!r} in --at")
    if not point:
        raise _usage(f"--at expects name=value pairs, got {spec!r}")
    return point


def _render(value, poly):
    """A report output as text: a Poly through poly, survivor equations
    joined by '; ', anything else unchanged."""
    if isinstance(value, Poly):
        return poly(value)
    if isinstance(value, list):
        return "; ".join(equations(value, poly))
    return value


# verbs ----------------------------------------------------------------


def _run_check(m: Model, args) -> Report:
    return Report(m.name, standard_checks(m))


def _run_hamiltonian(m: Model, args) -> Report:
    rep = Report(m.name)
    try:
        L = solve_hamiltonian(m)
    except GradedAlgebraError as e:
        return rep.add(CheckResult.refused("hamiltonian_exists", e))
    rep.checks += [CheckResult.of("hamiltonian_exists")] + check_solution(m, L)
    rep.outputs["hamiltonian"] = L
    return rep


def _run_descent(m: Model, args) -> Report:
    return Report(m.name, check_descent(JetModel(m)))


def _run_bv_identities(m: Model, args) -> Report:
    return Report(m.name, check_bv_identities(JetModel(m)))


def _run_bv_action(m: Model, args) -> Report:
    rep = Report(m.name)
    dens = JetModel(m).bv_top()
    if args.ghost is not None:
        dens = ghost_sector(dens, args.ghost)
        rep.outputs["ghost"] = args.ghost
    rep.add(CheckResult.of("bv_action", detail=f"{dens.num_terms()} terms"))
    rep.outputs["bv_action"] = dens
    return rep


def _run_reduce(m: Model, args) -> Report:
    rep = Report(m.name)
    if m.chi is None:
        rep.add(CheckResult.refused("reduction", "model has no presymplectic potential"))
        return rep
    if m.n == 0:
        form, universe, s = m.omega(), m.fiber_coords(), m.q
    else:
        jm = JetModel(m)
        form = jm.vertical_top()
        universe, s = form_universe(form), jm.s
    point = None
    if args.at is not None:
        names = {gen_text(g): g for mono in form.terms for g, _ in mono if g.fdeg == 0}
        names.update({gen_text(g): g for g in universe})
        point = _parse_point(args.at, names)
    if form.is_zero():
        return rep.add(CheckResult.refused("reduction", "vertical two-form has no top component"
                                           if m.n else "presymplectic two-form is zero"))
    try:
        red = reduce_form(form, universe, point=point, s=s)
    except ReductionError as e:
        return rep.add(CheckResult.refused("reduction", e))
    rep.add(CheckResult.of("reduction", red.split_residual(),
                           detail=f"kernel {len(red.kernel_vectors)}, "
                                  f"survivors {len(red.survivors)}"))
    rep.outputs["survivors"] = red.survivor_equations
    rep.outputs["reduced"] = red.reduced_form
    return rep


def _run_boundary(m: Model, args) -> Report:
    rep = Report(m.name)
    try:
        kill = [int(s) for s in args.kill.split(",") if s.strip() != ""]
    except ValueError:
        kill = []
    if not kill:
        raise _usage(f"--kill expects comma separated base directions, got {args.kill!r}")
    try:
        m.require_distinct_directions(kill, "to kill")
    except GradedAlgebraError as e:
        raise _usage(str(e))
    br = boundary_reduction(m, kill)
    for c in br.checks:
        rep.add(c)
    rep.outputs["survivors"] = br.reduced.survivor_equations
    rep.outputs["reduced"] = br.reduced.reduced_form
    try:
        rep.outputs["charge_integrand"] = br.jets.bv_top()
    except GradedAlgebraError as e:
        rep.add(CheckResult.refused("charge_integrand", e))
    return rep


def _run_report(m: Model, args) -> Report:
    rep = _run_check(m, args)
    if m.chi is None:
        return rep
    ham = _run_hamiltonian(m, args)
    rep.checks += ham.checks
    rep.outputs.update(ham.outputs)
    if not ham.outputs:
        return rep
    jm = JetModel(m)
    if m.n > 0:
        rep.checks += check_descent(jm) + check_bv_identities(jm)
    rep.outputs["bv_action"] = jm.bv_top()
    return rep


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call of the process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="gpde",
        description="symbolic checks for presymplectic gauge PDE models")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("model", help="builtin model name or path to a model file")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text", help="report rendering")
        return p

    def order(p):
        # accepted and checked, never read: see the module docstring
        p.add_argument("--order", type=int, default=0,
                       help="no effect: jets are made on demand, never truncated")

    verb("check", _run_check, "projection, nilpotency and presymplectic compatibility")
    verb("hamiltonian", _run_hamiltonian, "solve for the covariant hamiltonian and verify it")
    order(verb("descent", _run_descent, "descent tower on the vertical two-form"))
    order(verb("bv-identities", _run_bv_identities, "master identities on the jet prolongation"))
    p = verb("bv-action", _run_bv_action, "field-space action density from a generic section")
    p.add_argument("--ghost", type=int, default=None,
                   help="restrict the density to one ghost degree")
    p = verb("reduce", _run_reduce, "kernel reduction of the vertical two-form")
    order(p)
    p.add_argument("--at", default=None,
                   help="evaluation point, comma separated name=rational pairs")
    p = verb("boundary", _run_boundary, "restrict to a submanifold and reduce the boundary form")
    p.add_argument("--kill", required=True,
                   help="comma separated base directions to drop")
    verb("report", _run_report, "full check battery with hamiltonian and action outputs")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "order", 0) < 0:
        raise _usage(f"--order must be nonnegative, got {args.order}")
    try:
        m = _load(args.model)
    except DslError as e:
        for d in e.diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    try:
        rep = args.run(m, args)
    except GradedAlgebraError as e:
        rep = Report(m.name).add(CheckResult.refused(args.verb.replace("-", "_"), e))
    poly = poly_latex if args.format == "latex" else poly_text
    rep.outputs = {k: _render(v, poly) for k, v in rep.outputs.items()}
    if args.format == "json":
        print(rep.to_json())
    elif args.format == "latex":
        print(rep.to_latex())
    else:
        print(rep.to_text())
    if not rep.all_passed:
        for c in rep.checks:
            if not c.passed:
                print(f"FAIL {c.name} residual_terms={c.residual_terms} {c.detail}",
                      file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
