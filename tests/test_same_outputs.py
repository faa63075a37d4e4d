"""The stderr line counts, the package line report and the declared additions
(``--added``) of tools/same_outputs.py."""

import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


class RankWarning(UserWarning):
    pass


def test_counts_each_kind_of_stderr_line():
    err = "".join([
        warnings.formatwarning("Polyfit may be poorly conditioned", RankWarning,
                               "/pkg/scenarios.py", 212, "slope = fit()"),
        "transport solve exceeded configured cfl=0.9 (worst step CFL number 0.95); "
        "still inside the hard stability margin 1\n",
        "forward solve mass drift 1.000e-06 (net of boundary outflow) exceeds 1e-08\n",
        "forward solve produced cell average -2.000e-08 below -1e-8\n",
        # a config error and a traceback's last line are no warnings
        "cfg.json:3: seed must be an integer, got 1.5\n",
        "ValueError: TimeGrid needs t_final > 0\n",
    ])
    assert same_outputs.stderr_counts(err) == (1, 2, 1)


def test_a_warning_python_prints_is_counted():
    proc = subprocess.run(
        [sys.executable, "-c", "import warnings; warnings.warn('w', RuntimeWarning)"],
        capture_output=True, text=True, check=True)
    assert same_outputs.stderr_counts(proc.stderr) == (0, 0, 1)
    assert same_outputs.stderr_counts("") == (0, 0, 0)


def test_line_report_gives_the_totals_and_each_module(tmp_path):
    modules = {"base": {"__init__": "a\n", "core": "a\nb\nc\n", "gone": "a\n"},
               "head": {"__init__": "a\n", "core": "a\n", "new": "a\nb\n"}}
    for side, files in modules.items():
        (tmp_path / side / "mfrn").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / side / "mfrn" / f"{name}.py").write_text(text)
    (tmp_path / "base" / "mfrn" / "notes.txt").write_text("not\ncounted\n")
    assert same_outputs.line_report(tmp_path / "base", tmp_path / "head") == (
        "mfrn lines: base 5, head 4 (__init__ 1 -> 1, core 3 -> 1, gone 1 -> 0, new 0 -> 2)")


# --- declared additions (--added) -------------------------------------------

BASE_FILES = {
    "summary.json": {"iterations": 5, "final_cost": 0.1617, "w1_final": 0.0103},
    "manifest.json": {"config": {"seed": 42}, "provenance": {"python": "3.11"},
                      "timings": {"train": 0.3}, "out_dir": "base"},
    "iteration_log.csv": "iter,cost,e_k\n0,0.5,\n1,0.25,0.1\n",
    "f0.csv": "t,x_center,value\n0.0,-1.0,0.5\n",
}


def _tree(root: Path, files: dict) -> Path:
    root.mkdir(parents=True)
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content, indent=2)
        (root / name).write_text(text)
    return root


def _outputs(tmp_path, **changed):
    """A base output directory and a head one that differs by ``changed``."""
    return (_tree(tmp_path / "base", BASE_FILES),
            _tree(tmp_path / "head", {**BASE_FILES, **changed}))


ADDED_ALL = {
    "summary.json": {"iterations": 5, "gradient_gap": 3.5e-4, "final_cost": 0.1617,
                     "w1_final": 0.0103},
    "manifest.json": {"config": {"seed": 42}, "provenance": {"python": "3.11", "git_sha": "abc"},
                      "timings": {"train": 0.4}, "out_dir": "head"},
    "iteration_log.csv": "iter,cost,worst_cfl,e_k\n0,0.5,0.31,\n1,0.25,0.44,0.1\n",
    "trace.jsonl": '{"span": "train"}\n',
}
DECLARED = ["summary.json:gradient_gap", "manifest.json:provenance.git_sha",
            "iteration_log.csv:worst_cfl", "trace.jsonl"]


def test_parse_added_collects_each_files_keys():
    assert same_outputs.parse_added([]) == {}
    added = same_outputs.parse_added(["summary.json:a,b.c", "trace.jsonl", "summary.json:d",
                                      "iteration_log.csv:worst_cfl"])
    assert added == {"summary.json": ["a", "b.c", "d"], "trace.jsonl": [],
                     "iteration_log.csv": ["worst_cfl"]}
    assert same_outputs.unproduced(added, {"summary.json:b.c"}) == [
        "summary.json:a", "summary.json:d", "iteration_log.csv:worst_cfl", "trace.jsonl"]
    for bad in [[""], [":a"], ["summary.json:"], ["summary.json:a,,b"], ["trace.jsonl:key"],
                ["summary.json", "summary.json:a"], ["summary.json:a", "summary.json"]]:
        with pytest.raises(ValueError, match="--added"):
            same_outputs.parse_added(bad)


def test_an_addition_passes_only_when_declared(tmp_path):
    base, head = _outputs(tmp_path, **ADDED_ALL)
    same, wrong, shown = same_outputs.compare_outputs(base, head, {})
    assert (same, wrong) == (1, ["trace.jsonl written by one side only",
                                 "iteration_log.csv differs", "summary.json differs",
                                 "manifests differ beyond timings, out_dir"])
    added = same_outputs.parse_added(DECLARED)
    same, wrong, shown = same_outputs.compare_outputs(base, head, added)
    assert (same, wrong) == (3, [])
    assert shown == {"summary.json:gradient_gap": "0.00035",
                     "manifest.json:provenance.git_sha": '"abc"',
                     "iteration_log.csv:worst_cfl": "2 values, first 0.31, last 0.44",
                     "trace.jsonl": "18 bytes"}
    assert same_outputs.unproduced(added, shown.keys()) == []


def test_a_changed_value_fails_beside_a_declared_key(tmp_path):
    summary = {**ADDED_ALL["summary.json"], "final_cost": 0.1618}
    base, head = _outputs(tmp_path, **{"summary.json": summary})
    _, wrong, shown = same_outputs.compare_outputs(
        base, head, same_outputs.parse_added(["summary.json:gradient_gap"]))
    assert wrong == ["summary.json differs"]
    assert shown == {"summary.json:gradient_gap": "0.00035"}
    # so does a key moved in the order, since the rest is compared with its order
    moved = dict(reversed(list(ADDED_ALL["summary.json"].items())))
    base, head = _outputs(tmp_path / "order", **{"summary.json": moved})
    _, wrong, _ = same_outputs.compare_outputs(
        base, head, same_outputs.parse_added(["summary.json:gradient_gap"]))
    assert wrong == ["summary.json differs"]


def test_a_declaration_no_output_has_or_base_has_too_fails(tmp_path):
    base, head = _outputs(tmp_path)
    added = same_outputs.parse_added(["summary.json:gradinet_gap", "trace.jsonl",
                                      "iteration_log.csv:worst_cfl"])
    same, wrong, shown = same_outputs.compare_outputs(base, head, added)
    assert (same, wrong, shown) == (3, [], {})
    assert same_outputs.unproduced(added, shown.keys()) == [
        "summary.json:gradinet_gap", "iteration_log.csv:worst_cfl", "trace.jsonl"]
    # a declared key or column that base writes too is no addition
    _, wrong, _ = same_outputs.compare_outputs(
        base, head, same_outputs.parse_added(["summary.json:w1_final", "iteration_log.csv:e_k",
                                              "f0.csv"]))
    assert wrong == ["f0.csv is declared as added, but base writes it too",
                     "iteration_log.csv:e_k is declared as added, but base writes it too",
                     "summary.json:w1_final is declared as added, but base writes it too"]


def test_an_added_column_passes_and_a_reordered_one_fails(tmp_path):
    added = same_outputs.parse_added(["iteration_log.csv:worst_cfl"])
    for case, (log, wrong) in enumerate([("iter,cost,e_k,worst_cfl\n0,0.5,,0.31\n1,0.25,0.1,0.44\n", []),
                       ("worst_cfl,iter,cost,e_k\n0.31,0,0.5,\n0.44,1,0.25,0.1\n", []),
                       ("iter,e_k,cost,worst_cfl\n0,,0.5,0.31\n1,0.1,0.25,0.44\n",
                        ["iteration_log.csv differs"]),
                       ("iter,cost,e_k,worst_cfl\n0,0.5,,0.31\n1,0.26,0.1,0.44\n",
                        ["iteration_log.csv differs"])]):
        base, head = _outputs(tmp_path / str(case), **{"iteration_log.csv": log})
        _, got, shown = same_outputs.compare_outputs(base, head, added)
        assert got == wrong, log
        assert shown == {"iteration_log.csv:worst_cfl": "2 values, first 0.31, last 0.44"}


def test_a_tree_against_itself_differs_only_by_an_unproduced_addition(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "shift_identity.json").write_text(
        (root / "scenarios" / "shift_identity.json").read_text())
    (tmp_path / "src").symlink_to(root / "src")
    assert same_outputs.main([str(tmp_path), str(tmp_path),
                              "--added", "summary.json:gradient_gap"]) == 1
    out = capsys.readouterr().out
    assert "shift_identity.json: 5 identical file(s)" in out
    assert "--added summary.json:gradient_gap: no config produced it" in out
    assert out.endswith("1 config(s): 1 difference(s)\n")
