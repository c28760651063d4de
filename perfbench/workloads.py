"""The three workloads: request cycles and their execution with a verdict gate.

ym_jets       one CLI verb per request on a fresh base-dim-4 su(2) variant
model_corpus  a seeded corpus of small and medium models, several verbs each
kernel_api    direct kernel calls on seeded graded polynomials and matrices
"""

from __future__ import annotations

import hashlib
import time

import inputs
from pipeline import gate, run_request


class Request:
    __slots__ = ("argv", "expect", "fmt")

    def __init__(self, argv, expect, fmt="text"):
        self.argv, self.expect, self.fmt = argv, expect, fmt


class Pipeline:
    """A stream of CLI requests; the printed reports of the first cycle go
    into one digest, so that it covers the same requests in every run."""

    def __init__(self, out_dir):
        self.models = out_dir / "models"
        self.models.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self.clock = time.perf_counter   # the loop may set a clock of its own
        self.digest = hashlib.sha256()
        self.reports = 0
        self.served = 0
        self.current = 0         # the cycle being served

    def write_model(self, name, source):
        path = self.models / f"{name}.gpde"
        path.write_text(source, encoding="utf-8")
        return str(path)

    def execute(self, request):
        tracer = self.tracer
        if tracer is not None:
            tracer.start_request(self.served)
        self.served += 1
        t0 = self.clock()
        try:
            code, out, err = run_request(request.argv)
        except Exception as e:  # a crash is a wrong verdict, the loop goes on
            return self.clock() - t0, f"{' '.join(request.argv)}: {e!r}"
        finally:
            latency = self.clock() - t0
            if tracer is not None:
                tracer.finish_request()
        if self.current == 0:
            self.digest.update(out.encode("utf-8"))
            self.reports += 1
        reason = gate(request.expect, code, out, err, request.fmt)
        return latency, None if reason is None else f"{' '.join(request.argv)}: {reason}"

    def finish(self):
        return []  # every request was gated as it returned

    def summary(self, emit):
        emit(f"  reports_digest     sha256:{self.digest.hexdigest()} over {self.reports} reports")


class YmJets(Pipeline):
    """A cycle is `report` then `reduce`, each on its own fresh variant."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        self.seed = seed

    def cycle(self, c):
        self.current = c
        out = []
        for i in range(c * len(inputs.YM_VERBS), (c + 1) * len(inputs.YM_VERBS)):
            name, source, argv, expect = inputs.ym_request(self.seed, i)
            out.append(Request([argv[0], self.write_model(name, source)] + argv[1:], expect))
        return out


class ModelCorpus(Pipeline):
    """A cycle is every verb on every corpus model.  Each cycle has the same
    shapes and verbs, on models with fresh seeded values."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        self.seed = seed

    def cycle(self, c):
        self.current = c
        requests = []
        for name, source, verbs in inputs.corpus_cycle(self.seed, c):
            path = self.write_model(name, source)
            for k, (verb, expect) in enumerate(verbs):
                # details such as the kernel size are only in the text report
                fmt = "text" if expect[2] or k % 2 == 0 else "json"
                requests.append(Request([verb[0], path] + verb[1:] + ["--format", fmt],
                                        expect, fmt))
        return requests


def fingerprint(result):
    """A cheap summary that must repeat on every call with the same input."""
    if hasattr(result, "terms"):
        return len(result.terms)
    if hasattr(result, "components"):
        return tuple(len(c.terms) for c in result.components)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], list):
        return tuple(result[1])        # rref: the pivot columns
    if isinstance(result, list):
        return len(result)             # nullspace: the kernel dimension
    return result                      # mono_mul: (sign, monomial) or None


class KernelApi:
    """One request is one kernel call; a cycle makes every call of the
    schedule once.  The result of each call's first run is checked against
    its identity once the loop is over; later runs of the same call must
    reproduce its fingerprint."""

    def __init__(self, seed, out_dir):
        from kernel import schedule

        self.tracer = None
        self.clock = time.perf_counter   # the loop may set a clock of its own
        self.calls = schedule(seed)
        self.first = {}

    def cycle(self, c):
        return range(len(self.calls))

    def execute(self, index):
        call = self.calls[index]
        tracer = self.tracer
        if tracer is not None:
            tracer.start_request(index)
            tracer.begin(f"{call.op}.{call.size_class}")
        t0 = self.clock()
        try:
            result = call.fn(*call.args)
        except Exception as e:  # a crash is a failed request, the loop goes on
            return self.clock() - t0, f"{call.op}: {e!r}"
        finally:
            latency = self.clock() - t0
            if tracer is not None:
                tracer.end()
        if index not in self.first:
            self.first[index] = result
        elif fingerprint(result) != fingerprint(self.first[index]):
            return latency, f"{call.op}: result differs from the first run's"
        return latency, None

    def finish(self):
        return [f"{self.calls[i].op}: result fails its identity check"
                for i, result in self.first.items() if not self.calls[i].check(result)]

    def summary(self, emit):
        emit(f"  kernel calls       {len(self.calls)} distinct, "
             f"{len(self.first)} identity-checked")


def make(name, seed, out_dir):
    return {"ym_jets": YmJets, "model_corpus": ModelCorpus,
            "kernel_api": KernelApi}[name](seed, out_dir)
