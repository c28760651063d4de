"""gpde benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload ym_jets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout: gpde is imported from ./src.  Each workload is a
closed loop with one client in one process that runs whole cycles of
requests; `--workload all` runs every workload in its own fresh process.
With --trace 0 the last line of stdout is one JSON object with the end-to-end
metrics over all the run's cycles; with --trace 1 it holds the
per-layer metrics of one cycle run untraced and then traced.  The exit code
is nonzero when any verdict or identity check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ["ym_jets", "model_corpus", "kernel_api"]
SETUP_SAMPLES = 15
# a run has at least this many cycles, so that no request's latency rests on
# one sample (a ym_jets cycle takes longer than a run's --seconds)
MIN_CYCLES = 2
# the import time, then the machine's speed right after it
SETUP_CODE = ("import time; t = time.perf_counter(); import gpde, gpde.cli; "
              "t = time.perf_counter() - t; import speed; "
              "print(t, speed.Speed.sample_once())")


def measure_setup():
    """Median import time of gpde over fresh interpreters, after one warm-up
    that writes the bytecode cache, each corrected for the machine's speed
    measured in the same interpreter (see speed.py); returns (corrected,
    raw)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    corrected, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            t, reference_s = map(float, done.stdout.split())
            corrected.append(t * REFERENCE_S / reference_s)
            raw.append(t)
    return statistics.median(corrected), statistics.median(raw)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, label); with ten or fewer samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of n={n} (fewer than 11 requests)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.2f} of n={n}"


def closed_loop(workload, seconds):
    """One client sends each request when the previous one has returned.
    The loop runs whole cycles of the workload until `seconds` have passed,
    and at least MIN_CYCLES.  A cycle's inputs are made before its clock
    starts.  Returns, for every cycle, its wall time and each request's
    (latency, CPU time, speed factor), all without the speed samples."""
    cycles, failures, timed = [], [], []
    with Speed() as speed:
        clock, cpu_clock = speed.clock, speed.cpu_clock
        workload.clock = clock
        start = clock()
        while len(cycles) < MIN_CYCLES or clock() - start < seconds:
            requests = list(workload.cycle(len(cycles)))
            t0 = clock()
            for request in requests:
                cpu0, begin = cpu_clock(), clock()
                latency, error = workload.execute(request)
                timed.append((begin, latency, cpu_clock() - cpu0))
                if error is not None:
                    failures.append(error)
            cycles.append(clock() - t0)
        workload.clock = time.perf_counter
    # the factors need the samples taken after each request
    per_cycle = len(timed) // len(cycles)
    records = [(latency, cpu, speed.factor(begin, begin + latency))
               for begin, latency, cpu in timed]
    return ([(wall, records[c * per_cycle:(c + 1) * per_cycle]) for c, wall in enumerate(cycles)],
            failures + workload.finish())


def run_untraced(workload, args, setup_s):
    """Every cycle has the same request mix.  Throughput and CPU time are
    totals over all cycles; each request of the mix gets the median of its
    latencies over the cycles, and the percentiles are taken over those.
    Times are corrected for the machine's speed (see speed.py); the printed
    lines give the raw figures beside them."""
    cycles, failures = closed_loop(workload, args.seconds)
    n = len(cycles[0][1])
    attempted = n * len(cycles)
    records = [r for _, rs in cycles for r in rs]

    def figures(correct):
        scale = (lambda r: r[2]) if correct else (lambda r: 1.0)
        walls = sum(wall * sum(r[0] * scale(r) for r in rs) / sum(r[0] for r in rs)
                    for wall, rs in cycles)
        per_request = [statistics.median(rs[i][0] * scale(rs[i]) for _, rs in cycles)
                       for i in range(n)]
        return {"throughput_rps": attempted / walls,
                "latency_p50_s": statistics.median(per_request),
                "latency_tail_s": tail(per_request),
                "cpu_per_request_s": sum(r[1] * scale(r) for r in records) / attempted}

    corrected, raw = figures(True), figures(False)
    corrected["latency_tail_s"], tail_label = corrected["latency_tail_s"]
    raw["latency_tail_s"] = raw["latency_tail_s"][0]
    metrics = {name: (value, "1/s" if name == "throughput_rps" else "s")
               for name, value in corrected.items()}
    metrics["setup_s"] = (setup_s[0], "s")
    raw["setup_s"] = setup_s[1]
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    walls = sorted(wall for wall, _ in cycles)
    factors = sorted(r[2] for r in records)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(cycles)} cycles of {n} requests, {walls[0]:.2f}-{walls[-1]:.2f} s each; "
          f"speed factors {factors[0]:.3f}-{factors[-1]:.3f}")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        if name == "latency_tail_s":
            note += f"  ({tail_label})"
        print(f"  {name:18s} {value:.6g} {unit}{note}")
    print(f"  {'error_rate':18s} {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)}/{attempted}, all cycles)")
    workload.summary(print)
    return attempted, failures, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_traced(workload, args):
    """One cycle untraced, then the same cycle traced; the per-layer metrics
    come from the traced pass, the overhead from comparing the two."""
    from spans import Tracer

    fixed = list(workload.cycle(0))
    t0 = time.perf_counter()
    failures = [e for e in (workload.execute(r)[1] for r in fixed) if e is not None]
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    t0 = time.perf_counter()
    failures += [e for e in (workload.execute(r)[1] for r in fixed) if e is not None]
    traced = time.perf_counter() - t0
    workload.tracer = None
    tracer.uninstall()
    failures += workload.finish()

    layers = tracer.metrics()
    layers["trace.overhead_frac"] = traced / untraced - 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    failures += same_work(args, {k: v for k, v in layers.items() if isinstance(v, int)})
    print(f"workload {args.workload}, seed {args.seed}: traced {len(fixed)} requests, "
          f"{traced:.2f} s traced, {untraced:.2f} s untraced")
    metrics = {}
    for name in sorted(layers):
        unit = "count" if isinstance(layers[name], int) else (
            "ratio" if name == "trace.overhead_frac" else "s")
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"  {name:36s} {layers[name]:.6g} {unit}")
    workload.summary(print)
    return 2 * len(fixed), failures, metrics


def same_work(args, counts):
    """Counts of an earlier traced run with the same seed must match exactly."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            return [f"counts differ from an earlier run with seed {args.seed}: "
                    f"{before} != {counts}"]
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return []


def run_all(args):
    """Every workload in its own process; one combined result line."""
    attempted, failed, correct, metrics = 0, 0, True, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode and not lines:
            return done.returncode
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and done.returncode == 0
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gpde" / "__init__.py").is_file():
        print(f"perfbench: no gpde sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT)
    if args.trace:
        attempted, failures, metrics = run_traced(workload, args)
    else:
        attempted, failures, metrics = run_untraced(workload, args, setup_s)
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
