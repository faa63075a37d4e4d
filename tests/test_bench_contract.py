"""The package keeps every entry point the benchmark in ``bench/`` reads.

The benchmark's tracer wraps public functions and methods of ``mfrn`` by name
and reads call arguments by parameter name; its per-layer metrics are computed
from those spans.  A renamed or privatised entry point, a renamed parameter,
or a solver path that stops going through them makes the metrics go missing.
These tests read the benchmark's sources as text (nothing there is imported
or written) and check the package against them.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from mfrn import optim
from mfrn.core import Activation, ControlPath, RunConfig, TimeGrid
from mfrn.fvm import _BLOCK_DOUBLES, _block_steps, DriftSpec, Grid1D, project_initial
from mfrn.optim import TargetMeasure, gauss_seidel_train
from mfrn.scenarios import gaussian_density

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise KeyError(f"bench assigns no {name}")


LAYERS = ast.literal_eval(_assigned(_tree("child.py"), "LAYERS"))
_ENTRY = re.compile(rf"^(?:{'|'.join(LAYERS)})\.[A-Za-z_][\w.]*$")


def _entry_points(*files):
    """Every "<layer>.<name>" string in the files, except the metric names
    (the keys of layers.METRICS, trace.overhead_s and f-string pieces)."""
    found = set()
    for name in files:
        tree = _tree(name)
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                skip.update(map(id, ast.walk(node)))
        if name == "layers.py":
            skip.update(id(k) for k in _assigned(tree, "METRICS").keys)
            skip.add(id(_assigned(tree, "OVERHEAD").elts[0]))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in skip and _ENTRY.match(node.value)):
                found.add(node.value)
    return sorted(found)


def _attr_reads():
    """tracer.ATTRS as {entry point: argument names its extractor reads}."""
    tree = _tree("tracer.py")
    keys = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            keys[fn.name] = {
                n.slice.value for n in ast.walk(fn)
                if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
            }
    attrs = _assigned(tree, "ATTRS")
    return {k.value: keys[v.id] for k, v in zip(attrs.keys, attrs.values)}


ENTRY_POINTS = _entry_points("layers.py", "tracer.py")
ATTR_READS = _attr_reads()


def _resolve(qualname):
    """The function a traced name wraps, checked the way the tracer finds it:
    public, and defined in its layer's module or on a class defined there."""
    layer, *path = qualname.split(".")
    mod = importlib.import_module(f"mfrn.{layer}")
    assert all(not part.startswith("_") for part in path), qualname
    owner = mod
    for part in path[:-1]:
        owner = vars(owner)[part]
        assert inspect.isclass(owner) and owner.__module__ == mod.__name__, qualname
    obj = vars(owner)[path[-1]]
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    assert inspect.isfunction(obj), f"{qualname} is not a function or method"
    if owner is mod:
        assert obj.__module__ == mod.__name__, f"{qualname} is imported, not defined there"
    return obj


def test_the_benchmark_names_its_entry_points():
    # the metrics the benchmark reports rest on at least these
    for name in ("fvm.solve_transport", "core.ControlPath.eval_w", "core.ControlPath.eval_b",
                 "fvm.DriftSpec.speed", "fvm.llf_flux", "optim.gauss_seidel_train",
                 "optim.reduced_cost", "optim.control_gradient", "particle.ode_integrate",
                 "cli.main", "cli.load_config", "scenarios.run_scenario",
                 "measures.wasserstein1", "measures.particles_to_density",
                 "scenarios.sample_from_density", "scenarios.Scenario.target_field"):
        assert name in ENTRY_POINTS, name
    assert set(ATTR_READS) == {"fvm.solve_transport", "particle.ode_integrate"}


@pytest.mark.parametrize("qualname", ENTRY_POINTS)
def test_entry_point_is_public_in_the_package(qualname):
    _resolve(qualname)


@pytest.mark.parametrize("qualname", sorted(ATTR_READS))
def test_traced_arguments_bind_by_name(qualname):
    params = inspect.signature(_resolve(qualname)).parameters
    for arg in ATTR_READS[qualname]:
        assert arg in params, f"{qualname} has no parameter {arg!r}"
        assert params[arg].kind in (params[arg].POSITIONAL_OR_KEYWORD,
                                    params[arg].KEYWORD_ONLY), (qualname, arg)


def test_training_goes_through_the_traced_entry_points(monkeypatch):
    """Every row a solve advances (the forward row, the adjoint row of a
    paired sweep, and each row of a final-field sweep) reads the controls
    through DriftSpec.speed and ControlPath.eval_w/eval_b.  Each paired sweep
    of a line search (its first trial, and the step it takes after the
    final-field sweeps of its other trials) is a reduced_cost call made
    inside gauss_seidel_train."""
    calls = {"sweeps": 0, "batches": []}

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ControlPath, "eval_w", "eval_w")
    count(ControlPath, "eval_b", "eval_b")
    count(DriftSpec, "speed", "speed")
    count(optim, "reduced_cost", "costs")
    solve, batch = optim.solve_transport, optim.solve_final_fields

    def counted_solve(*args, **kwargs):
        assert kwargs.get("adjoint") is not None  # training makes no lone solve
        calls["sweeps"] += 1
        return solve(*args, **kwargs)

    def counted_batch(f0, drifts, *args, **kwargs):
        calls["batches"].append(len(drifts))
        return batch(f0, drifts, *args, **kwargs)

    monkeypatch.setattr(optim, "solve_transport", counted_solve)
    monkeypatch.setattr(optim, "solve_final_fields", counted_batch)
    grid = Grid1D(-2.0, 3.0, 40)
    tg = TimeGrid.from_step(1.0, 5e-2)
    f0 = project_initial(gaussian_density(0.3, 0.25), grid)
    cfg = RunConfig(gamma_w=1e-3, gamma_b=1e-3, tol=1e-4, max_armijo=10, cfl=0.45,
                    domain=(-2.0, 3.0), n_cells=40, dimension=1)
    state = gauss_seidel_train(f0, TargetMeasure(1.0, 1.01), ControlPath.zero(tg),
                               Activation("sigmoid"), cfg, max_outer=8)
    # this run backtracks twice: one search takes a trial of its first
    # batch, the last takes none, after solving its second batch too
    assert state.iteration == 5
    assert calls["batches"] == [3, 3, 6]
    # the first iterate's sweep is the one that is not a reduced_cost call
    assert calls["costs"] == calls["sweeps"] - 1 == state.iteration + 1
    # a sweep of one or two rows reads its speeds one block of steps at a
    # time, and the 20 steps of 41 edges fit in one block; a sweep of more
    # rows shares the budget of two rows, so its blocks are shorter
    n_edges = grid.n_cells + 1
    assert tg.n_steps * n_edges <= _BLOCK_DOUBLES
    reads = 2 * calls["sweeps"]
    for rows in calls["batches"]:
        block = _block_steps(n_edges, rows)
        assert block == {3: 33, 6: 16}[rows]  # 3 or 6 rows of 41 edges
        reads += rows * -(-tg.n_steps // block)
    assert calls["speed"] == reads
    assert calls["eval_w"] == calls["eval_b"] == calls["speed"]
    assert np.isfinite(state.cost_history).all()


def _calls_into_the_package():
    """Every call in bench/child.py of a "<layer>.<name>" callable, and every
    rnd.op(<layer>.<name>, ...) call, as (line, qualname, positional count,
    keyword names, whether a *args or **kwargs makes the count a floor)."""
    found = []
    for node in ast.walk(_tree("child.py")):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if ast.unparse(func) == "rnd.op" and args:
            func, args = args[0], args[1:]
        name = ast.unparse(func)
        parts = name.split(".")
        # a dotted name only: core.ControlPath(...).pinned() is a method of
        # the result, whose ControlPath call is found on its own
        if parts[0] not in LAYERS or not all(p.isidentifier() for p in parts):
            continue
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        open_ended = (any(isinstance(a, ast.Starred) for a in args)
                      or len(keywords) < len(node.keywords))
        positional = sum(not isinstance(a, ast.Starred) for a in args)
        found.append((node.lineno, name, positional, keywords, open_ended))
    return sorted(found)


BENCH_CALLS = _calls_into_the_package()


def test_the_benchmark_calls_into_the_package():
    # the calls whose arguments the benchmark's solver workload depends on
    keywords = {(name, tuple(kw)) for _, name, _, kw, _ in BENCH_CALLS}
    for call in (("fvm.solve_transport", ("cfl", "limit_positive")),
                 ("fvm.DriftSpec", ("time_reversed",)),
                 ("optim.TargetMeasure", ("mean", "second_moment")),
                 ("core.RunConfig", ("gamma_w", "gamma_b", "tol", "max_armijo", "cfl",
                                     "domain", "n_cells", "dimension"))):
        assert call in keywords, call
    assert {name for _, name, *_ in BENCH_CALLS} >= {
        "optim.reduced_cost", "optim.control_gradient", "optim.adjoint_initial",
        "core.TimeGrid.from_step", "core.ControlPath.constant", "cli.main"}


@pytest.mark.parametrize("qualname", sorted({name for _, name, *_ in BENCH_CALLS}))
def test_the_benchmark_calls_bind(qualname):
    """Each call the benchmark makes binds to the package's signature by its
    positional count and keyword names; otherwise the benchmark counts the
    TypeError as a failed operation."""
    layer, *path = qualname.split(".")
    target = importlib.import_module(f"mfrn.{layer}")
    for part in path:
        target = getattr(target, part)
    sig = inspect.signature(target)
    for line, name, positional, keywords, open_ended in BENCH_CALLS:
        if name != qualname:
            continue
        bind = sig.bind_partial if open_ended else sig.bind
        try:
            bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench/child.py line {line}: {qualname}{sig} does not take "
                        f"{positional} positional argument(s) and keywords {keywords}: {exc}")
