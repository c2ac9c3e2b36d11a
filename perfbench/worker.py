"""Runs one workload in this process and prints its record as one JSON line.

Started by ``run.py``, which pins the BLAS thread count before NumPy loads
and reads this process's peak memory after it exits.  The record holds the
metric values, the per-case samples, the failures, the versions and, for a
traced run, every span.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import SELF_TIME_METRIC, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3            # setup_s is the median of at least this many set-ups
CASE_BUDGET_S = 100.0        # start no new case past this, so a run ends well inside 180 s


def import_vempb():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vempb
    import vempb.cli

    if Path(vempb.__file__).resolve().parent != src / "vempb":
        raise ImportError(f"vempb imported from {vempb.__file__}, not from {src}")
    return vempb


class Ledger:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn, *args):
        """Call ``fn``; an exception counts as a failed operation and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=4)}")
            return None

    def check(self, what: str, problems: list[str]) -> None:
        """A completed operation whose output failed a check counts as failed."""
        if problems:
            self.failed += 1
            self.failures += [f"{what}: {p}" for p in problems]


def count_mismatches(got: dict, want: dict, keys) -> list[str]:
    """Counts that differ from the run's first case: nondeterminism."""
    return [f"nondeterministic count {k}: {got.get(k, 0)} vs {want[k]}"
            for k in keys if got.get(k, 0) != want[k]]


def layer_metrics(tracer: Tracer, names: list[str], untraced_total_s: float):
    """Every per-layer metric of the traced case (layers it never called read 0),
    and the names the trace itself produced."""
    found = {SELF_TIME_METRIC.get(span, span + "_s"): t
             for span, t in tracer.self_times().items()}
    found.update(tracer.counts)
    found["trace.total_s"] = tracer.root_time()
    found["trace.overhead_s"] = found["trace.total_s"] - untraced_total_s
    unknown = set(found) - set(names)
    if unknown:
        raise KeyError(f"trace produced metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {n: found.get(n, 0) for n in names}, sorted(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one case")
    args = ap.parse_args(argv)

    vp = import_vempb()
    spec = json.loads((HERE / "spec.json").read_text())
    layer_names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    name, smoke = args.workload, args.smoke
    ledger = Ledger()
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=results) as tmp:

        def case(tracer=None):
            return workloads.run_case(vp, name, args.seed, smoke, tracer, Path(tmp))

        # untraced cases for --seconds: the end-to-end numbers come only from these
        cases, first = [], None
        start = time.perf_counter()
        while True:
            what = f"case {ledger.attempted}"
            gc.collect()     # start every case from a heap without the last case's garbage
            c = ledger.attempt(what, case)
            if c is not None:
                counts = c.counts()
                first = first or counts
                ledger.check(what, workloads.check_case(vp, name, c, spec, smoke)
                             + count_mismatches(counts, first, workloads.COUNT_KEYS))
                cases.append({"total_s": c.total_s, "setup_s": c.setup_s,
                              "solve_s": c.solve_s, **c.outputs, "counts": counts})
                del c
            elapsed = time.perf_counter() - start
            if smoke or elapsed >= args.seconds or elapsed >= CASE_BUDGET_S:
                break
        if not cases:
            print("\n".join(ledger.failures), file=sys.stderr)
            return 1

        setup_samples = [c["setup_s"] for c in cases]
        spans, produced = [], []
        if args.trace == 0:
            # repeat the set-up alone until setup_s is a median of several samples
            for _ in range(0 if smoke else SETUP_SAMPLES - len(setup_samples)):
                builders = workloads.mesh_builders(vp, name, args.seed, smoke)
                gc.collect()
                t0 = time.perf_counter()
                setups = ledger.attempt("setup", workloads.build, vp, builders)
                dt = time.perf_counter() - t0
                if setups is not None:
                    setup_samples.append(dt)
                    counts = workloads.setup_counts(setups)
                    ledger.check("setup", count_mismatches(counts, first, counts))
                    del setups
            metrics = {
                "total_s": statistics.median(c["total_s"] for c in cases),
                "setup_s": statistics.median(setup_samples),
                "solve_s": statistics.median(c["solve_s"] for c in cases),
            }
        else:
            tracer = Tracer()
            tracer.install(vp)
            gc.collect()
            try:
                with tracer.root(run=len(cases)):
                    traced = ledger.attempt("traced case", case, tracer)
            finally:
                tracer.uninstall()
            if traced is None:
                print("\n".join(ledger.failures), file=sys.stderr)
                return 1
            ledger.check("traced case", workloads.check_case(vp, name, traced, spec, smoke)
                         + count_mismatches(tracer.counts, first, workloads.COUNT_KEYS))
            del traced
            metrics, produced = layer_metrics(tracer, layer_names,
                                              statistics.median(c["total_s"] for c in cases))
            covered = sum(metrics[n] for n in layer_names
                          if n.endswith("_s") and n not in ("trace.total_s", "trace.overhead_s"))
            if abs(covered - metrics["trace.total_s"]) > 1e-9 * metrics["trace.total_s"]:
                ledger.check("trace", [f"self times sum to {covered!r}, "
                                       f"traced total is {metrics['trace.total_s']!r}"])
            spans = tracer.records()

    print(json.dumps({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": metrics,
        "cases": cases,
        "setup_samples": setup_samples,
        "spans": spans,
        "produced": produced,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "vempb": vp.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
