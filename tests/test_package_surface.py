"""Every public function, class and method of the package has a caller.

The scan parses ``src/mfrn/*.py`` and the benchmark's non-test files with
``ast`` (nothing is imported) and matches by name: a public top-level
function or class, or a public method, counts as used when its name occurs
as a name, an attribute or a dotted entry-point string in package code other
than ``__init__.py``, or in ``bench/``.  A name that occurs only as the type
argument of ``isinstance`` is not a caller: a branch for a type that nothing
builds is dead code.  Tests do not count: code that only tests reach belongs
in the tests.  The few objects kept for the paper's sake
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
    "optim.identity_w_root": "the paper's stationary weight equation (criterion 8)",
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


def _isinstance_types(tree: ast.AST) -> set[int]:
    """The ids of the nodes that are the type argument of an ``isinstance``
    call, or an element of a tuple there."""
    types = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            arg = node.args[1]
            types.update(map(id, arg.elts if isinstance(arg, ast.Tuple) else [arg]))
    return types


def _referenced_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    refs = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        type_args = _isinstance_types(tree)
        for node in ast.walk(tree):
            if id(node) in type_args:
                continue
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
