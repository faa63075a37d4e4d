"""Sets of benchmark runs: spread, repeatability of counts, and comparison.

    python3 bench/sets.py --out bench/out/set-a.json
    python3 bench/sets.py --traced 2 --first-seed 100 --out bench/out/set-b.json
    python3 bench/sets.py --compare bench/out/set-a.json bench/out/set-b.json

A set runs ``bench/run.py`` once per seed, ``RUNS`` seeds from ``--first-seed``
on, on every workload of BENCHMARK.json, exactly as its command does, one run
at a time.  For every end-to-end metric it reports the median and the spread, the distance
between the first and third quartiles as a share of the median, against the
metric's bound.  It checks that the share of failed operations and the
noise-free counts are the same in every run of the set, naming any count that
differs; ``--traced N`` adds N traced runs per workload, whose per-part solve,
trial, control-evaluation and speed-call counts must repeat too.  ``--compare``
checks a second set against a first: no end-to-end median worse by more than
its bound, the same failed share and the same counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run_set(bench: dict, first_seed: int, traced: int) -> dict:
    out = {}
    for w in (w["name"] for w in bench["workloads"]):
        res = {"runs": [], "traced": []}
        for i in range(RUNS):
            t0 = time.monotonic()
            detail, result = one_run(bench, w, first_seed + i, 0)
            res["runs"].append({"seed": first_seed + i, "result": result,
                                "counts": detail.get("counts", {}),
                                "elapsed_s": time.monotonic() - t0})
            print(w, first_seed + i, json.dumps(result["metrics"]), file=sys.stderr)
        for i in range(traced):
            t0 = time.monotonic()
            detail, result = one_run(bench, w, first_seed + i, 1)
            res["traced"].append({"seed": first_seed + i, "result": result,
                                  "counts": detail.get("counts", {}),
                                  "elapsed_s": time.monotonic() - t0})
        out[w] = res
    return out


def summarise(bench: dict, data: dict) -> tuple[dict, list[str]]:
    problems, summary = [], {}
    for w, res in data.items():
        runs = res["runs"]
        rows = {}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, sp = spread(vals)
            rows[m["name"]] = {"median": med, "spread": sp, "bound": m["bound"],
                               "min": min(vals), "max": max(vals)}
            if sp > m["bound"]:
                problems.append(f"{w}: spread of {m['name']} {sp:.3f} > bound {m['bound']}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        if len(shares) != 1:
            problems.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        problems += [f"{w}: {p}" for p in count_mismatches(runs) + count_mismatches(res["traced"])]
        summary[w] = {"metrics": rows, "failed_share": sorted(shares),
                      "correct": all(r["result"]["correct"] for r in runs),
                      "elapsed_s": [round(r["elapsed_s"], 1) for r in runs + res["traced"]]}
        if not summary[w]["correct"]:
            problems.append(f"{w}: a run reported incorrect outputs")
    return summary, problems


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def count_mismatches(runs: list[dict]) -> list[str]:
    if not runs:
        return []
    first = _flatten(runs[0]["counts"])
    out = []
    for r in runs[1:]:
        other = _flatten(r["counts"])
        for name in sorted(set(first) | set(other)):
            if first.get(name) != other.get(name):
                out.append(f"count {name}: {first.get(name)} (seed {runs[0]['seed']}) "
                           f"vs {other.get(name)} (seed {r['seed']})")
    return out


def compare(bench: dict, a: dict, b: dict) -> list[str]:
    problems = []
    for w in a["data"]:
        if w not in b["data"]:
            continue
        for m in bench["end_to_end"]:
            ma = a["summary"][w]["metrics"][m["name"]]["median"]
            mb = b["summary"][w]["metrics"][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"{w:9s} {m['name']:12s} {ma:10.4f} -> {mb:10.4f}  {worse:+.3f} "
                  f"(bound {m['bound']})")
            if worse > m["bound"]:
                problems.append(f"{w}: {m['name']} worse by {worse:.3f} > {m['bound']}")
        if a["summary"][w]["failed_share"] != b["summary"][w]["failed_share"]:
            problems.append(f"{w}: failed share differs between the sets")
        for kind in ("runs", "traced"):
            both = a["data"][w][kind][:1] + b["data"][w][kind][:1]
            problems += [f"{w}: {p}" for p in count_mismatches(both)]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", help="where to write the set as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = spec()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            problems = compare(bench, json.load(fa), json.load(fb))
    else:
        data = run_set(bench, args.first_seed, args.traced)
        summary, problems = summarise(bench, data)
        for w, s in summary.items():
            for name, row in s["metrics"].items():
                print(f"{w:9s} {name:12s} median {row['median']:10.4f} spread "
                      f"{row['spread']:.3f} (bound {row['bound']}) "
                      f"range {row['min']:.4f}..{row['max']:.4f}")
            print(f"{w:9s} seconds a run (untraced, then traced): {s['elapsed_s']}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"data": data, "summary": summary, "problems": problems}, fh, indent=1)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
