"""Check that two source trees produce byte-identical run artifacts.

    python3 tools/same_outputs.py BASE_SRC HEAD_SRC [--added NAME[:KEY,...]] ...

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
should only simplify, and each module's base -> head beside it.

A change that only adds output declares each addition with ``--added``
(repeatable), and everything undeclared is still compared as above:

- ``summary.json:gradient_gap`` is a JSON key, dotted for nesting, as in
  ``manifest.json:provenance.git_sha``.  HEAD must have it and BASE must
  not; it is dropped from HEAD and the rest must equal BASE, key order
  included (floats are written by repr, so equality is exact);
- ``iteration_log.csv:worst_cfl`` is a CSV column, by its header.  HEAD must
  have it and BASE must not; it is dropped from HEAD and the rest must match
  BASE byte for byte;
- a bare ``trace.jsonl`` is a file that only HEAD writes.

Several keys of one file go after one colon, comma-separated.  Each declared
value is printed per config: a scalar in full, a column or list as its count
and its first and last values, a file as its size.  A declared addition that
BASE has too is a difference, and so is one that no config produced, so a
misspelled declaration cannot pass.  Standard library only.
"""

from __future__ import annotations

import argparse
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
MANIFEST = "manifest.json"   # compared as JSON, without RUN_KEYS
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


def parse_added(specs: list[str]) -> dict[str, list[str]]:
    """``--added`` specs as {file name: its declared keys or columns}, an empty
    list declaring a file that only HEAD writes."""
    added: dict[str, list[str]] = {}
    for spec in specs:
        name, colon, keys = spec.partition(":")
        keys = keys.split(",") if colon else []
        if (not name or "" in keys or (keys and not name.endswith((".json", ".csv")))
                or (name in added and not (keys and added[name]))):
            raise ValueError(f"--added {spec!r}: expected FILE, FILE.json:KEY[,KEY...] "
                             f"or FILE.csv:COLUMN[,COLUMN...], a file bare or keyed, not both")
        added[name] = added.get(name, []) + keys
    return added


def unproduced(added: dict[str, list[str]], produced) -> list[str]:
    """The declared additions, as NAME:KEY or a bare NAME, that no config produced."""
    declared = [f"{name}:{key}" for name, keys in added.items() for key in keys]
    declared += [name for name, keys in added.items() if not keys]
    return [decl for decl in declared if decl not in produced]


def _shown(value) -> str:
    """A declared value as printed: a scalar in full, a list as its count and ends."""
    if isinstance(value, list):
        return f"{len(value)} values, first {value[0]}, last {value[-1]}" if value else "0 values"
    return json.dumps(value)


def _pop(obj, dotted: str) -> tuple[bool, object]:
    """Remove a dotted key from a parsed JSON object: (True, its value), or
    (False, None) when the object lacks it."""
    *path, last = dotted.split(".")
    for key in path:
        obj = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(obj, dict) and last in obj:
        return True, obj.pop(last)
    return False, None


def _without_columns(text: str, columns: list[int]) -> str:
    """A comma-separated file's text without the columns at those indices."""
    return "\n".join(",".join(f for i, f in enumerate(line.split(",")) if i not in columns)
                     for line in text.split("\n"))


def compare_file(name: str, base: Path, head: Path, keys: list[str]
                 ) -> tuple[bool, list[str], dict[str, str]]:
    """Whether HEAD's file equals BASE's once the declared keys or columns are
    dropped from HEAD, the declarations that BASE has too, and each declared
    value HEAD holds.  A manifest is compared without RUN_KEYS; any other
    file with no declaration byte for byte."""
    wrong, shown = [], {}
    if name.endswith(".json") and (keys or name == MANIFEST):
        try:
            objs = [json.loads(path.read_text()) for path in (base, head)]
        except (OSError, ValueError):
            return False, wrong, shown
        if name == MANIFEST:
            for key in RUN_KEYS:
                for obj in objs:
                    _pop(obj, key)
        for key in keys:
            (in_base, _), (in_head, value) = (_pop(obj, key) for obj in objs)
            if in_base:
                wrong.append(f"{name}:{key} is declared as added, but base writes it too")
            elif in_head:
                shown[f"{name}:{key}"] = _shown(value)
        return json.dumps(objs[0]) == json.dumps(objs[1]), wrong, shown
    if name.endswith(".csv") and keys:
        base_text, head_text = base.read_text(), head.read_text()
        headers = [text.split("\n", 1)[0].split(",") for text in (base_text, head_text)]
        drop = []
        for key in keys:
            if key in headers[0]:
                wrong.append(f"{name}:{key} is declared as added, but base writes it too")
            elif key in headers[1]:
                i = headers[1].index(key)
                drop.append(i)
                shown[f"{name}:{key}"] = _shown(
                    [line.split(",")[i] for line in head_text.split("\n")[1:] if line])
        return _without_columns(head_text, drop) == base_text, wrong, shown
    return filecmp.cmp(base, head, shallow=False), wrong, shown


def compare_outputs(base: Path, head: Path, added: dict[str, list[str]]
                    ) -> tuple[int, list[str], dict[str, str]]:
    """Compare two output directories of one config: the number of files that
    match, each difference, and each declared value HEAD holds."""
    names = {side: {p.name for p in out.iterdir() if p.is_file()} if out.is_dir() else set()
             for side, out in (("base", base), ("head", head))}
    wrong, shown = [], {}
    for name in sorted(n for n, keys in added.items() if not keys):
        if name in names["base"]:
            wrong.append(f"{name} is declared as added, but base writes it too")
        elif name in names["head"]:
            shown[name] = f"{(head / name).stat().st_size} bytes"
        names["base"].discard(name)
        names["head"].discard(name)
    wrong += [f"{name} written by one side only"
              for name in sorted(names["base"] ^ names["head"]) if name != MANIFEST]
    same = 0
    for name in sorted(names["base"] & names["head"] - {MANIFEST}) + [MANIFEST]:
        equal, declared_wrong, declared = compare_file(
            name, base / name, head / name, added.get(name, []))
        wrong += declared_wrong
        shown.update(declared)
        if name == MANIFEST:
            if not equal:
                wrong.append(f"manifests differ beyond {', '.join(RUN_KEYS)}")
        elif equal:
            same += 1
        else:
            wrong.append(f"{name} differs")
    return same, wrong, shown


def compare(base: Path, head: Path, configs: list[Path], work: Path,
            added: dict[str, list[str]]) -> int:
    """Run every config under both trees; returns the number of differences."""
    srcs = {"base": _package_dir(base), "head": _package_dir(head)}
    print(line_report(srcs["base"], srcs["head"]), flush=True)
    bad = 0
    produced = set()
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
        same, wrong, shown = compare_outputs(outs["base"], outs["head"], added)
        bad += len(wrong)
        for line in wrong:
            print(f"{config.name}: {line}")
            if line == "summary.json differs":
                print(f"{config.name}: {_moved(outs)}")
        compared = ""
        if (outs["base"] / "iteration_log.csv").is_file() or (
                outs["head"] / "iteration_log.csv").is_file():
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
        for decl, text in sorted(shown.items()):
            print(f"{config.name}: added {decl}: {text}")
        produced |= shown.keys()
    for decl in unproduced(added, produced):
        bad += 1
        print(f"--added {decl}: no config produced it")
    return bad


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="same_outputs.py", description=__doc__.strip().splitlines()[0])
    parser.add_argument("base", type=Path, help="the checkout to compare against")
    parser.add_argument("head", type=Path, help="the checkout whose scenarios run")
    parser.add_argument("--added", action="append", default=[], metavar="NAME[:KEY,...]",
                        help="an output only HEAD writes (repeatable)")
    args = parser.parse_args(argv)
    try:
        added = parse_added(args.added)
    except ValueError as e:
        parser.error(str(e))
    base, head = args.base.resolve(), args.head.resolve()
    root = head if (head / "scenarios").is_dir() else head.parent
    configs = sorted((root / "scenarios").glob("*.json"))
    if not configs:
        print(f"no scenarios/*.json under {root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        bad = compare(base, head, configs, Path(work), added)
    print(f"{len(configs)} config(s): "
          + ("all artifacts byte-identical" if not bad else f"{bad} difference(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
