"""The stderr line counts and the package line report of tools/same_outputs.py."""

import importlib.util
import subprocess
import sys
import warnings
from pathlib import Path

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
