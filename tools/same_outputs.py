"""Check that two source trees produce byte-identical run artifacts.

    python3 tools/same_outputs.py BASE_SRC HEAD_SRC

Each argument is a checkout of this repository (or its ``src`` directory).
Every ``scenarios/*.json`` of HEAD_SRC is run with ``python -m mfrn run``
under both trees, the two runs of a config side by side, and every artifact
except ``manifest.json`` is compared byte for byte.  The two manifests are
compared as JSON without ``timings`` and ``out_dir``, the only keys that
differ between identical runs.  For each training config (one that writes
``iteration_log.csv``), ``python -m mfrn compare BASE_OUT HEAD_OUT`` runs
under both trees, and the two comparison CSVs are compared byte for byte.
The script prints the files that differ, and for each config the number of
"exceeded configured cfl" lines, of density warnings ("mass drift",
"below -1e-8") and of Python warnings (``<file>:<line>: <Name>Warning: ...``,
such as numpy's ``RankWarning``) each side printed on stderr.  For each
config whose ``summary.json`` differs it prints base -> head for
``iterations``, ``final_cost`` (with its relative change) and ``w1_final``,
what a change gated on a tolerance moved.  It exits 1 on any difference,
failed run, or config for which HEAD prints more of any of the three kinds
of line than BASE; 0 otherwise.  It also prints the line count of each tree's ``mfrn``
package (``wc -l`` summed over its ``*.py``), the other gate of a change that
should only simplify, and each module's base -> head beside it.  Standard
library only.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CFL_LINE = "exceeded configured cfl"
DENSITY_LINES = ("mass drift", "below -1e-8")
PY_WARNING = re.compile(r"^.+:\d+: [A-Za-z_]\w*Warning: ")  # warnings.formatwarning
SKIP = {"manifest.json"}
RUN_KEYS = ("timings", "out_dir")   # what differs between identical runs


def _package_dir(tree: Path) -> Path:
    """The directory that holds the ``mfrn`` package of a checkout."""
    for cand in (tree / "src", tree):
        if (cand / "mfrn" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"{tree}: no mfrn package in it or in its src/")


def _line_counts(src: Path) -> dict[str, int]:
    """Lines of each of the package's modules, as ``wc -l src/mfrn/*.py`` counts them."""
    return {p.stem: p.read_bytes().count(b"\n") for p in (src / "mfrn").glob("*.py")}


def line_report(base: Path, head: Path) -> str:
    """The two trees' package line totals, then each module's base -> head,
    a module only one tree has counting 0 lines in the other."""
    old, new = _line_counts(base), _line_counts(head)
    modules = ", ".join(f"{m} {old.get(m, 0)} -> {new.get(m, 0)}"
                        for m in sorted(old.keys() | new.keys()))
    return f"mfrn lines: base {sum(old.values())}, head {sum(new.values())} ({modules})"


def _start(src: Path, *args) -> subprocess.Popen:
    """``python -m mfrn *args`` with the package of ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, "-m", "mfrn", *map(str, args)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _manifest(out: Path) -> dict | None:
    """The run's manifest without the keys that differ between identical runs."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        return None
    for key in RUN_KEYS:
        manifest.pop(key, None)
    return manifest


def _moved(outs: dict[str, Path]) -> str:
    """base -> head of the summary fields a training change moves."""
    summaries = {side: json.loads((out / "summary.json").read_text())
                 for side, out in outs.items()}
    moved = []
    for key in ("iterations", "final_cost", "w1_final"):
        base, head = (summaries[side].get(key) for side in ("base", "head"))
        if base is None and head is None:
            continue
        text = f"{key} {base!r} -> {head!r}"
        if key == "final_cost" and isinstance(base, float) and isinstance(head, float) and base:
            text += f" ({(head - base) / abs(base):+.2e} relative)"
        moved.append(text)
    return "; ".join(moved)


def stderr_counts(err: str) -> tuple[int, int, int]:
    """The cfl, density and Python warning lines of a run's stderr."""
    lines = err.splitlines()
    return (sum(CFL_LINE in line for line in lines),
            sum(any(d in line for d in DENSITY_LINES) for line in lines),
            sum(bool(PY_WARNING.match(line)) for line in lines))


def _artifacts(out: Path) -> set[str]:
    return {p.name for p in out.iterdir() if p.is_file() and p.name not in SKIP}


def compare(base: Path, head: Path, configs: list[Path], work: Path) -> int:
    """Run every config under both trees; returns the number of differences."""
    srcs = {"base": _package_dir(base), "head": _package_dir(head)}
    print(line_report(srcs["base"], srcs["head"]), flush=True)
    bad = 0
    for config in configs:
        outs = {side: work / side / config.stem for side in srcs}
        procs = {side: _start(src, "run", "--config", config, "--out", outs[side])
                 for side, src in srcs.items()}
        cfl, density, warned = {}, {}, {}
        for side, proc in procs.items():
            _, err = proc.communicate()
            cfl[side], density[side], warned[side] = stderr_counts(err)
            if proc.returncode != 0:
                bad += 1
                print(f"{config.name}: {side} run exited {proc.returncode}\n{err}")
        names = {side: _artifacts(out) if out.is_dir() else set()
                 for side, out in outs.items()}
        for name in sorted(names["base"] ^ names["head"]):
            bad += 1
            print(f"{config.name}: {name} written by one side only")
        same = 0
        for name in sorted(names["base"] & names["head"]):
            if filecmp.cmp(outs["base"] / name, outs["head"] / name, shallow=False):
                same += 1
            else:
                bad += 1
                print(f"{config.name}: {name} differs")
                if name == "summary.json":
                    print(f"{config.name}: {_moved(outs)}")
        manifests = {side: _manifest(out) for side, out in outs.items()}
        if manifests["base"] is None or manifests["base"] != manifests["head"]:
            bad += 1
            print(f"{config.name}: manifests differ beyond {', '.join(RUN_KEYS)}")
        compared = ""
        if "iteration_log.csv" in names["base"] | names["head"]:
            cmps = {side: work / f"{config.stem}.compare.{side}.csv" for side in srcs}
            for side, src in srcs.items():
                proc = _start(src, "compare", outs["base"], outs["head"], "--out", cmps[side])
                _, err = proc.communicate()
                if proc.returncode != 0:
                    bad += 1
                    print(f"{config.name}: {side} compare exited {proc.returncode}\n{err}")
            if not all(p.is_file() for p in cmps.values()) or not filecmp.cmp(
                    cmps["base"], cmps["head"], shallow=False):
                bad += 1
                print(f"{config.name}: compare CSVs differ")
            else:
                compared = "; compare CSVs identical"
        for kind, counts in (("cfl", cfl), ("density", density), ("Python", warned)):
            if counts["head"] > counts["base"]:
                bad += 1
                print(f"{config.name}: head logs more {kind} warnings than base")
        print(f"{config.name}: {same} identical file(s); "
              f"'{CFL_LINE}' lines base {cfl['base']}, head {cfl['head']}; "
              f"density warnings base {density['base']}, head {density['head']}; "
              f"Python warnings base {warned['base']}, head {warned['head']}{compared}",
              flush=True)
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (Path(a).resolve() for a in argv)
    root = head if (head / "scenarios").is_dir() else head.parent
    configs = sorted((root / "scenarios").glob("*.json"))
    if not configs:
        print(f"no scenarios/*.json under {root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        bad = compare(base, head, configs, Path(work))
    print(f"{len(configs)} config(s): "
          + ("all artifacts byte-identical" if not bad else f"{bad} difference(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
