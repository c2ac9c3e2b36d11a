"""Benchmark launcher for vempb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload (see BENCHMARK.json) in a fresh worker process with the
BLAS thread count pinned, so all load comes from that one process and its
peak resident memory belongs to the workload.  Prints a summary, the
environment, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced case with ``--trace 1``.
The full record (samples, spans, environment) goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.

``--smoke`` runs every workload at tiny sizes through both paths and checks
that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
BLAS_THREADS = 1             # at most nproc: the workload is one process on one core
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vempb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run the workload in a child process; return its record, or None if it failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        print(f"error: {workload} worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def bench(spec: dict, workload: str, seed: int, seconds: float, trace: int,
          smoke: bool = False) -> dict | None:
    """Run one workload, write its record, print the summary and the result line."""
    record = run_worker(workload, seed, seconds, trace, smoke)
    if record is None:
        return None
    # the worker is the only child a benchmark run waits for, so this is its peak
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["metrics"]["peak_rss_mb"] = peak_kib * 1024 / 1e6
    record["env"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        **record.pop("versions"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1))

    for f in record["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    for c in record["cases"]:
        print(f"case total {c['total_s']:.3f} s  setup {c['setup_s']:.3f} s  "
              f"solve {c['solve_s']:.3f} s  e_l2 {c['e_l2']:.17g}  e_h1 {c['e_h1']:.17g}")
    print("env " + json.dumps(record["env"]))
    print(f"record {out.relative_to(ROOT)}")
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line))
    line["produced"] = record["produced"]
    return line


def smoke(spec: dict) -> int:
    """Every workload, tiny, untraced and traced: all metrics printed with units."""
    problems = []
    produced = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{workload} trace {trace}"
            line = bench(spec, workload, 0, 0, trace, smoke=True)
            if line is None:
                problems.append(f"{tag}: worker failed")
                continue
            if list(line["metrics"]) != [m["name"] for m in wanted]:
                problems.append(f"{tag}: metrics {list(line['metrics'])}")
            for m in wanted:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    problems.append(f"{tag}: bad metric {m['name']}: {got}")
            if not line["correct"]:
                problems.append(f"{tag}: {line['failed']} failed operations")
            produced.update(line["produced"])
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    if never:
        problems.append(f"per-layer metrics no workload's trace produced: {never}")
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vempb" / "__init__.py").is_file():
        print(f"error: no vempb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    line = bench(spec, args.workload, args.seed, args.seconds, args.trace)
    return 0 if line is not None else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)    # unwinds through run_worker, which kills the child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
