"""Check that two source trees produce byte-identical run artifacts.

    python3 tools/same_outputs.py BASE_SRC HEAD_SRC

Each argument is a checkout of this repository (or its ``src`` directory).
Every ``scenarios/*.json`` of HEAD_SRC is run with ``python -m mfrn run``
under both trees, the two runs of a config side by side, and every artifact
except ``manifest.json`` (which records timings and the output path) is
compared byte for byte.  The script prints the files that differ, and for
each config the number of "exceeded configured cfl" lines and of density
warnings ("mass drift", "below -1e-8") each side logged on stderr.  It exits
1 on any difference, failed run, or config for which HEAD logs more of
either kind of line than BASE; 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CFL_LINE = "exceeded configured cfl"
DENSITY_LINES = ("mass drift", "below -1e-8")
SKIP = {"manifest.json"}


def _package_dir(tree: Path) -> Path:
    """The directory that holds the ``mfrn`` package of a checkout."""
    for cand in (tree / "src", tree):
        if (cand / "mfrn" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"{tree}: no mfrn package in it or in its src/")


def _start(src: Path, config: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, "-m", "mfrn", "run", "--config", str(config), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _artifacts(out: Path) -> set[str]:
    return {p.name for p in out.iterdir() if p.is_file() and p.name not in SKIP}


def compare(base: Path, head: Path, configs: list[Path], work: Path) -> int:
    """Run every config under both trees; returns the number of differences."""
    srcs = {"base": _package_dir(base), "head": _package_dir(head)}
    bad = 0
    for config in configs:
        outs = {side: work / side / config.stem for side in srcs}
        procs = {side: _start(src, config, outs[side]) for side, src in srcs.items()}
        cfl, density = {}, {}
        for side, proc in procs.items():
            _, err = proc.communicate()
            cfl[side] = sum(CFL_LINE in line for line in err.splitlines())
            density[side] = sum(any(d in line for d in DENSITY_LINES)
                                for line in err.splitlines())
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
        for kind, counts in (("cfl", cfl), ("density", density)):
            if counts["head"] > counts["base"]:
                bad += 1
                print(f"{config.name}: head logs more {kind} warnings than base")
        print(f"{config.name}: {same} identical file(s); "
              f"'{CFL_LINE}' lines base {cfl['base']}, head {cfl['head']}; "
              f"density warnings base {density['base']}, head {density['head']}", flush=True)
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
