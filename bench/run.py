"""Benchmark of the mfrn package: training, transport solves, particle studies.

    python3 bench/run.py --workload {train,solver,particles} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (it needs ``src/mfrn`` and
``scenarios/``); it fails with exit code 2 anywhere else.  Every round of a
workload runs in a fresh interpreter (``bench/child.py``) with one thread for
the package, BLAS and OpenMP, one process at a time.

``--trace 0`` first starts ``SETUP_SAMPLES`` interpreters that only set up,
then runs whole rounds until ``--seconds`` have passed (at least one), and
reports medians over them: setup_s, wall_s (one pass of the round's parts),
peak_rss_mb, part1_s and part2_s (see README.md for what the parts are on each
workload).  ``--trace 1`` runs an untraced, a traced and an untraced round and
reports the per-layer metrics of the traced one, with the tracing overhead.

The last line of standard output is the result: correct, attempted, failed,
metrics.  The line before it holds the detail: provenance, every check with
its measured value, the noise-free counts, and the workload's metrics under
their descriptive names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import tracer
from child import planned_ops

T_RUN = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("train", "solver", "particles")
# Parts of a round in order; part1_s and part2_s are the first two.
PARTS = {
    "train": ("test1_identity", "test3_zero"),
    "solver": ("sweep", "probe"),
    "particles": ("convergence", "shift_scale"),
}
# Extra runs of a short part in an untraced round, so that it reads as a
# median of several samples; a traced round runs every part once.  The parts
# of train and solver (6-30 s each) are steady at reference speed from one
# sample, and repeating them would not fit 22 runs a workload in the time
# the whole benchmark may take.
REPEATS = {
    "train": {},
    "solver": {},
    "particles": {"shift_scale": 10},
}

# Descriptive name of each part's time in the detail line.
PART_NAMES = {
    "test1_identity": "run_s.test1_identity",
    "test3_zero": "run_s.test3_zero",
    "convergence": "run_s.convergence",
    "sweep": "sweep_s",
    "probe": "probe_s",
    "shift_scale": "run_s.shift_scale",
}
SETUP_SAMPLES = 5
# A run must end within 180 s; no child may outlive this share of it.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("MFRN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "child_env": {var: "1" for var in THREAD_VARS},
    }


def run_child(workload: str, seed: int, work_dir: str, tag: str, *,
              setup_only: bool = False, trace: bool = False,
              repeats: dict | None = None) -> dict | None:
    """One round (or one set-up) in a fresh interpreter; None if it died or
    would overrun the run's time budget."""
    timeout = RUN_BUDGET_S - (time.monotonic() - T_RUN)
    if timeout <= 0:
        print(f"{workload} round {tag} skipped: time budget spent", file=sys.stderr)
        return None
    spec = {
        "root": ROOT, "workload": workload, "seed": seed, "trace": trace,
        "setup_only": setup_only, "out": os.path.join(work_dir, tag),
        "repeats": repeats or {},
        "result": os.path.join(work_dir, f"{tag}.json"),
        "trace_file": os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"),
    }
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload} round {tag} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        sys.stderr.write(proc.stderr)
        print(f"{workload} round {tag} exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if not setup_only and (result["failed"] or not result["correct"]):
        sys.stderr.write(proc.stderr)
    result["trace_file"] = spec["trace_file"] if trace else None
    return result


def noise_free_counts(rounds: list[dict]) -> dict:
    """Outer iterations per training config; ``sets.py`` checks that they
    repeat across runs."""
    counts = rounds[0]["facts"].get("outer_iterations", {})
    return {f"outer_iterations.{k}": v for k, v in counts.items()}


def measure(workload: str, seed: int, seconds: float, work_dir: str):
    setups = [run_child(workload, seed, work_dir, f"setup{i}", setup_only=True)
              for i in range(SETUP_SAMPLES)]
    rounds, t0, last = [], time.monotonic(), 0.0
    while not rounds or time.monotonic() - t0 < seconds:
        if time.monotonic() - T_RUN + last > RUN_BUDGET_S:
            break                           # a whole round would not fit
        t1 = time.monotonic()
        rounds.append(run_child(workload, seed, work_dir, f"round{len(rounds)}",
                                repeats=REPEATS[workload]))
        last = time.monotonic() - t1
        shutil.rmtree(os.path.join(work_dir, f"round{len(rounds) - 1}"), ignore_errors=True)
    return setups, rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # a terminated run still kills and waits for its child and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile(os.path.join(ROOT, "src", "mfrn", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "scenarios"))):
        print(f"{ROOT} is not an mfrn source checkout (no src/mfrn or scenarios/)",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            detail, metrics, rounds = traced(args.workload, args.seed, work_dir)
        else:
            detail, metrics, rounds = untraced(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # a round whose process died is charged with every operation it planned
    plans = [planned_ops(args.workload, {} if args.trace else REPEATS[args.workload])] * len(rounds)
    attempted = sum(r["attempted"] if r else n for r, n in zip(rounds, plans))
    failed = sum(r["failed"] if r else n for r, n in zip(rounds, plans))
    correct = all(r["correct"] for r in rounds if r)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(),
        "checks": [r["checks"] for r in rounds if r],
    })
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float, work_dir: str):
    setups, rounds = measure(workload, seed, seconds, work_dir)
    done = [r for r in rounds if r]
    setup = [s["setup_s"] for s in setups + done if s]
    parts = PARTS[workload]
    med, raw = ({p: statistics.median(x for r in done for x in r[key][p]) for p in parts}
                if done else {} for key in ("parts", "parts_raw"))
    metrics = {}
    if setup:
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
    if done:
        metrics["wall_s"] = _metric(statistics.median(r["wall_s"] for r in done), "s")
        metrics["peak_rss_mb"] = _metric(
            statistics.median(r["facts"]["peak_rss_mb"] for r in done), "MiB")
        metrics["part1_s"] = _metric(med[parts[0]], "s")
        metrics["part2_s"] = _metric(med[parts[1]], "s")
    detail = {
        "rounds": len(rounds),
        "setup_samples": setup,
        "named": {PART_NAMES[p]: v for p, v in med.items()},
        "raw": {"setup_s": [s["setup_raw_s"] for s in setups + done if s],
                "wall_s": [r["wall_raw_s"] for r in done],
                **{PART_NAMES[p]: v for p, v in raw.items()}},
        "counts": noise_free_counts(done) if done else {},
        "facts": [r["facts"] for r in done],
    }
    return detail, metrics, rounds


def plain_round(workload: str, seed: int, work_dir: str, tag: str) -> dict | None:
    result = run_child(workload, seed, work_dir, tag)
    shutil.rmtree(os.path.join(work_dir, tag), ignore_errors=True)
    return result


def traced(workload: str, seed: int, work_dir: str):
    """Untraced, traced, untraced: the overhead is the traced wall time minus
    the mean of the two untraced ones, so that a drift of the machine's speed
    over the three rounds cancels to first order."""
    t0 = time.monotonic()
    before = plain_round(workload, seed, work_dir, "plain0")
    one_round = time.monotonic() - t0
    traced_round = run_child(workload, seed, work_dir, "traced", trace=True)
    rounds = [before, traced_round]
    # the second untraced round starts only if it fits the run's time budget
    if time.monotonic() - T_RUN + 1.5 * one_round < RUN_BUDGET_S:
        rounds.append(plain_round(workload, seed, work_dir, "plain1"))
    metrics, detail = {}, {"rounds": len(rounds)}
    if traced_round is None:
        detail["missing"] = sorted(layers.METRICS) + [layers.OVERHEAD[0]]
        return detail, metrics, rounds
    hot, wrapped, spans = tracer.load(traced_round["trace_file"])
    iterations = sum(traced_round["facts"].get("outer_iterations", {}).values())
    t = layers.Trace(hot, wrapped, spans, iterations)
    metrics, missing = layers.per_layer(t, workload)
    plain = [r["wall_raw_s"] for r in rounds if r is not traced_round and r is not None]
    if len(plain) == 2:
        overhead = traced_round["wall_raw_s"] - statistics.mean(plain)
        metrics[layers.OVERHEAD[0]] = _metric(overhead, layers.OVERHEAD[1])
    else:
        missing.append(layers.OVERHEAD[0])
    for name in missing:
        print(f"missing per-layer metric {name} on workload {workload}", file=sys.stderr)
    detail.update({
        "missing": missing,
        "not_applicable": sorted(n for n, m in layers.METRICS.items() if workload not in m[3]),
        # the overhead is resolved only where it exceeds the untraced rounds' difference
        "untraced_wall_s": plain,
        "traced_wall_s": traced_round["wall_raw_s"],
        "counts": {"outer_iterations": traced_round["facts"].get("outer_iterations", {}),
                   "parts": layers.part_counts(t)},
        "spans": len(spans),
        "trace_file": os.path.relpath(traced_round["trace_file"], ROOT),
    })
    return detail, metrics, rounds


if __name__ == "__main__":
    sys.exit(main())
