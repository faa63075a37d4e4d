"""Every public function, class and method of the package has a caller.

The scan parses ``src/mfrn/*.py`` and the benchmark's non-test files with
``ast`` (nothing is imported) and matches by name: a public top-level
function or class, or a public method, counts as used when its name occurs
as a name, an attribute or a dotted entry-point string in package code other
than ``__init__.py``, or in ``bench/``.  Tests do not count: code that only
tests reach belongs in the tests.  The few objects kept for the paper's sake
without a caller are listed below with their reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfrn"
BENCH = ROOT / "bench"

KEPT_WITHOUT_CALLER = {
    "particle.resnet_forward": "the discrete ResNet the mean-field limit starts from",
    "measures.steady_state_support": "the paper's long-time concentration points",
    "optim.identity_closed_form": "the paper's closed-form stationary controls",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _public_definitions() -> list[str]:
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name.startswith("__"):
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def _referenced_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    refs = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                refs.update(node.value.split("."))  # e.g. "fvm.DriftSpec.speed"
    return refs


def test_every_public_definition_has_a_caller():
    refs = _referenced_names()
    unused = [name for name in _public_definitions()
              if name.rsplit(".", 1)[-1] not in refs and name not in KEPT_WITHOUT_CALLER]
    assert unused == [], f"public definitions that only tests reach: {unused}"


def test_kept_list_is_current():
    # every kept name still exists and still has no caller, so the list
    # shrinks as soon as one of them gains a caller
    defined = set(_public_definitions())
    refs = _referenced_names()
    assert sorted(set(KEPT_WITHOUT_CALLER) - defined) == []
    assert sorted(n for n in KEPT_WITHOUT_CALLER if n.rsplit(".", 1)[-1] in refs) == []
