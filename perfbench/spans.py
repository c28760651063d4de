"""Spans around the benchmark's own calls into each gpde layer.

The tracer wraps, from outside the package, the layer functions that
`gpde.cli` reaches through its module attributes, the public `JetModel`
methods and the report renderers, so a traced request follows the same path
as an untraced one.  Spans (name, start, end, parent, request) stay in memory
and are written out once at the end.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# gpde.cli attribute -> span name
CLI_CALLS = {
    "load_model": "parser.parse",
    "load_builtin": "parser.parse",
    "standard_checks": "model.standard_checks",
    "solve_hamiltonian": "model.solve_hamiltonian",
    "check_solution": "model.check_solution",
    "check_descent": "jets.check_descent",
    "check_bv_identities": "jets.check_bv_identities",
    "reduce_form": "reduction.reduce_form",
    "boundary_reduction": "density.boundary_reduction",
    "action_density": "density.action_density",
    "generic_supersection": "density.generic_supersection",
    "poly_text": "printing.render",
}
JET_METHODS = ["chibar", "omegabar", "vertical_part", "lbar"]
RENDERERS = ["to_text", "to_json", "to_latex"]

# per-layer metric -> span names whose self time it sums
PIPELINE_TIMES = {
    "cli.self_s": ["cli"],
    "parser.parse_s": ["parser.parse"],
    "model.standard_checks_s": ["model.standard_checks"],
    "model.solve_hamiltonian_s": ["model.solve_hamiltonian"],
    "model.check_solution_s": ["model.check_solution"],
    "jets.chibar_s": ["jets.chibar"],
    "jets.omegabar_s": ["jets.omegabar"],
    "jets.vertical_part_s": ["jets.vertical_part"],
    "jets.lbar_s": ["jets.lbar"],
    "jets.check_descent_s": ["jets.check_descent"],
    "jets.check_bv_identities_s": ["jets.check_bv_identities"],
    "reduction.reduce_form_s": ["reduction.reduce_form"],
    "density.boundary_reduction_s": ["density.boundary_reduction"],
    "density.action_density_s": ["density.action_density"],
    "density.generic_supersection_s": ["density.generic_supersection"],
    "printing.render_s": ["printing.render"],
}
COUNTS = ["parser.calls", "jets.jet_coordinates", "jets.omegabar_terms",
          "space.generators", "reduction.kernel_dim"]
# kernel_api opens one span per call, named "<op>.small" or "<op>.large"
KERNEL_OPS = ["algebra.add", "algebra.accumulate", "algebra.mul", "algebra.mono_mul",
              "algebra.substitute", "algebra.derive", "algebra.lie_bracket",
              "cartan.de_rham", "cartan.interior", "cartan.apply",
              "reduction.rref", "reduction.nullspace"]


class Tracer:
    """Spans and counts of one traced pass; install() wraps the layer
    functions, uninstall() puts the originals back."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.stack = []
        self.request = None
        self.counts = defaultdict(int)
        self._models = []        # models loaded by the current request
        self._jets = {}          # its JetModels -> omegabar term count
        self._restore = []

    # spans ----------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def self_times(self):
        """Span name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)

    # requests -------------------------------------------------------------

    def start_request(self, request_id):
        self.request = request_id
        self._models, self._jets = [], {}

    def finish_request(self):
        """Add the counts of the request that just ended."""
        for m in self._models:
            self.counts["space.generators"] += len(m.space.generators())
        for jm, terms in self._jets.items():
            self.counts["jets.jet_coordinates"] += jm.registry_stats()["jet_coordinates"]
            self.counts["jets.omegabar_terms"] += terms
        self.request = None

    # installation ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from gpde import cli, jets, report

        def loaded(args, model):
            self.counts["parser.calls"] += 1
            self._models.append(model)

        def reduced(args, red):
            self.counts["reduction.kernel_dim"] += len(red.kernel_vectors)

        def bounded(args, br):
            self.counts["reduction.kernel_dim"] += len(br.reduced.kernel_vectors)

        def omegabar(args, form):
            self._jets[args[0]] = form.num_terms()

        hooks = {"load_model": loaded, "load_builtin": loaded,
                 "reduce_form": reduced, "boundary_reduction": bounded}
        self._patch(cli, "main", self.wrap("cli", cli.main))
        for attr, name in CLI_CALLS.items():
            self._patch(cli, attr, self.wrap(name, getattr(cli, attr), hooks.get(attr)))
        for meth in JET_METHODS:
            self._patch(jets.JetModel, meth, self.wrap(
                f"jets.{meth}", getattr(jets.JetModel, meth),
                omegabar if meth == "omegabar" else None))
        # a jet model that never computes omegabar still counts its coordinates
        init = jets.JetModel.__init__

        def jet_init(jm, *args, **kwargs):
            init(jm, *args, **kwargs)
            self._jets.setdefault(jm, 0)
        self._patch(jets.JetModel, "__init__", jet_init)
        for meth in RENDERERS:
            self._patch(report.Report, meth,
                        self.wrap("printing.render", getattr(report.Report, meth)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Every per-layer metric; a layer the run did not reach reads 0.
        Pipeline layers give summed self time, kernel calls the mean time
        per call of each size class."""
        selfs = self.self_times()
        out = {m: sum(selfs.get(n, 0.0) for n in names) for m, names in PIPELINE_TIMES.items()}
        out.update({c: self.counts[c] for c in COUNTS})
        total, calls = defaultdict(float), defaultdict(int)
        for name, t0, t1, _, _ in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
        for op in KERNEL_OPS:
            for cls in ("small", "large"):
                span = f"{op}.{cls}"
                out[f"{op}_s.{cls}"] = total[span] / calls[span] if calls[span] else 0.0
        return out
