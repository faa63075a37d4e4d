"""Command-line front end: run a scenario from a JSON config, compare runs.

Everything a run produces lands in one output directory: a manifest (written
before any solver output), CSV artifacts with one header line each, and a
summary record.  Exit codes are the only status channel: 0 success, 2 invalid
config, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import re
import sys
import time

import numpy as np

from . import __version__
from .fvm import CFLViolationError, DensityField
from .optim import SolverDivergenceError
from .scenarios import (
    ConvergenceReport,
    ExactControlReport,
    Scenario,
    TrainingReport,
    run_scenario,
    scenario_from_config,
    scenario_to_config,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3

_SNAPSHOT_FRACTIONS = (0.25, 0.5, 0.75)


class ConfigError(Exception):
    def __init__(self, message: str, line: int = 1):
        super().__init__(message)
        self.line = line


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# a JSON string (a key when a colon follows) or a bracket
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[\[{\]}]')


def _key_line(text: str, key: str) -> int:
    """The line of the dotted key in the JSON text, or of its deepest parent
    there when the key itself is absent; 1 for no key."""
    want, path, best, line = key.split("."), [], 0, 1
    for m in _JSON_TOKEN.finditer(text):
        if m.group() in ("[", "{"):
            path.append(None)
        elif m.group() in ("]", "}"):
            path.pop()
        elif m.group(2):
            path[-1] = json.loads(m.group(1))
            if len(path) > best and path == want[:len(path)]:
                best, line = len(path), text.count("\n", 0, m.start()) + 1
    return line


def load_config(path: str, activation: str | None = None,
                seed: int | None = None) -> tuple[Scenario, bytes]:
    """The config file's scenario, with each override that is not None applied
    after the file is read, and its bytes; a ConfigError names any error's line."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    text = raw.decode("utf-8", errors="replace")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        sc = scenario_from_config(data)
        if activation is not None:
            sc = dataclasses.replace(sc, activation=activation)
        if seed is not None:
            sc = dataclasses.replace(sc, seed=seed)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e), line=_key_line(text, getattr(e, "key", ""))) from e
    return sc, raw


def _write_csv(path: str, header: str, *columns) -> None:
    """Write the header line, then one line per row of the columns.

    A column is one string for every row or a sequence of values (an array
    among them); a number is written by `_fmt`, None as an empty field and a
    string as it is."""
    cells = [itertools.repeat(c) if isinstance(c, str)
             else ["" if v is None else v if isinstance(v, str) else _fmt(v) for v in c]
             for c in columns]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_fields(out_dir: str, report, controls, f_final: DensityField,
                 snapshots) -> None:
    """Write controls.csv, f0.csv, target.csv, f_final.csv and each snapshot
    (file name, field, t)."""
    sc = report.scenario
    _write_csv(os.path.join(out_dir, "controls.csv"), "t,w,b",
               controls.grid.nodes, controls.w, controls.b)
    for name, field, t in (("f0.csv", report.f0, 0.0),
                           ("target.csv", report.target_field, sc.t_final),
                           ("f_final.csv", f_final, sc.t_final), *snapshots):
        _write_csv(os.path.join(out_dir, name), "t,x_center,value",
                   _fmt(t), field.grid.centers, field.averages)


def _emit_training(out_dir: str, report: TrainingReport) -> dict:
    sc = report.scenario
    state = report.state
    _write_csv(os.path.join(out_dir, "iteration_log.csv"),
               "k,cost,e_k,rho_star,max_gw,max_gb",
               range(len(state.cost_history)), state.cost_history,
               *([None, *h] for h in (state.rel_error_history, state.rho_history,
                                      state.grad_w_max_history, state.grad_b_max_history)))
    traj = state.trajectory
    n = len(traj) - 1
    snapshots = []
    for frac in _SNAPSHOT_FRACTIONS:
        k = round(frac * n)
        snapshots.append((f"f_t{frac:.2f}.csv", traj[k], k * sc.dt))
    _emit_fields(out_dir, report, state.controls, traj[-1], snapshots)
    return {
        "final_cost": state.cost_history[-1],
        "w1_final": report.w1_final,
        "iterations": state.iteration,
        "converged": state.converged,
        "final_rel_error": (
            state.rel_error_history[-1] if state.iteration else None
        ),
        "mean_f_T": report.mean_f_T,
        "var_f_T": report.var_f_T,
        "mean_target": report.mean_target,
        "var_target": report.var_target,
    }


def _emit_exact(out_dir: str, report: ExactControlReport) -> dict:
    _emit_fields(out_dir, report, report.controls, report.f_T, ())
    return {
        "final_cost": None,
        "w1_final": report.w1,
        "iterations": 0,
        "converged": None,
    }


def _emit_convergence(out_dir: str, report: ConvergenceReport) -> dict:
    seed_cols = ",".join(f"w1_seed{i}" for i in range(len(report.w1_by_seed)))
    _write_csv(os.path.join(out_dir, "convergence.csv"), f"M,w1_mean,{seed_cols}",
               report.M_list, report.w1_mean, *report.w1_by_seed)
    return {
        "slope": report.slope,
        "M_list": list(report.M_list),
        "w1_mean": [float(v) for v in report.w1_mean],
    }


def cmd_run(args: argparse.Namespace) -> int:
    try:
        sc, raw = load_config(args.config, args.activation, args.seed)
    except ConfigError as e:
        print(f"{args.config}:{e.line}: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    manifest = {
        "scenario": sc.name,
        "activation": sc.activation,
        "seed": sc.seed,
        "config": scenario_to_config(sc),
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "out_dir": os.path.abspath(args.out),
        "timings": {},
        "provenance": {
            "mfrn": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": 1,
        },
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_json(manifest_path, manifest)
    except OSError as e:
        print(f"cannot write output directory: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    t0 = time.perf_counter()
    try:
        report = run_scenario(sc)
    except (SolverDivergenceError, CFLViolationError) as e:
        print(f"solver diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as e:
        # scenario-level infeasibility (e.g. an initial density with no mass
        # on the grid) is a config problem, found late
        print(f"{args.config}:1: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    wall = time.perf_counter() - t0

    if isinstance(report, TrainingReport):
        summary = _emit_training(args.out, report)
    elif isinstance(report, ExactControlReport):
        summary = _emit_exact(args.out, report)
    else:
        summary = _emit_convergence(args.out, report)
    _write_json(os.path.join(args.out, "summary.json"),
                {"scenario": sc.name, "activation": sc.activation, **summary})
    _write_json(manifest_path, {**manifest, "timings": {**report.timings, "total": wall}})
    print(f"run complete: {args.out}")
    return EXIT_OK


def _load_run_dir(path: str) -> tuple[dict, list, list]:
    """A run's config, and its iteration log and controls as rows of (first
    field's text, {column: float, or None where empty}).

    A missing manifest or controls.csv raises OSError; a manifest that is not
    JSON or holds no run config, a CSV without a header line or without the
    columns compare aligns, or a malformed CSV row, raises ValueError naming
    the file."""
    man_path = os.path.join(path, "manifest.json")
    with open(man_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:  # JSONDecodeError, or bytes that are not text
            raise ValueError(f"{man_path}: not valid JSON: {e}") from None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    if not (isinstance(config, dict) and isinstance(config.get("run"), dict)
            and "dt" in config and "t_final" in config):
        raise ValueError(f"{man_path}: not a run manifest (needs config with run, dt, t_final)")

    def read_csv(p, columns):
        rows = []
        header = None
        with open(p) as fh:
            for n, line in enumerate(fh, start=1):
                fields = line.strip().split(",")
                try:
                    if not line.endswith("\n"):
                        raise ValueError("the last line has no newline")
                    if n == 1:
                        header = fields
                        missing = [key for key in columns if key not in header]
                        if missing:
                            raise ValueError(f"the header lacks {', '.join(missing)}")
                    elif line.strip():
                        if len(fields) != len(header):
                            raise ValueError(f"{len(fields)} fields, the header has {len(header)}")
                        rows.append((fields[0], {key: float(v) if v else None
                                                 for key, v in zip(header, fields)}))
                except ValueError as e:
                    raise ValueError(f"{p}:{n}: {e}") from None
        if header is None:
            raise ValueError(f"{p}: empty, no header line")
        return rows

    log = os.path.join(path, "iteration_log.csv")
    return (config, read_csv(log, ("cost", "e_k")) if os.path.exists(log) else [],
            read_csv(os.path.join(path, "controls.csv"), ("w", "b")))


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        cfg_a, iters_a, ctr_a = _load_run_dir(args.dir_a)
        cfg_b, iters_b, ctr_b = _load_run_dir(args.dir_b)
    except (OSError, ValueError) as e:
        print(f"cannot load run directory: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    for key in ("n_cells", "domain"):
        va, vb = cfg_a["run"].get(key), cfg_b["run"].get(key)
        if va != vb:
            print(f"mismatched grids: {key} {va} vs {vb}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    if (cfg_a["dt"], cfg_a["t_final"]) != (cfg_b["dt"], cfg_b["t_final"]):
        print("mismatched grids: time discretization differs", file=sys.stderr)
        return EXIT_BAD_CONFIG

    # an iteration row has no w or b, a control row no cost or e_k
    rows = []
    for kind, a, b in (("iteration", iters_a, iters_b), ("control", ctr_a, ctr_b)):
        for k in range(max(len(a), len(b))):
            (idx_a, ra), (idx_b, rb) = (r[k] if k < len(r) else (None, {}) for r in (a, b))
            row = [kind, idx_b if idx_a is None else idx_a]
            for key in ("cost", "e_k", "w", "b"):
                va, vb = ra.get(key), rb.get(key)
                row += (None,) * 3 if va is None or vb is None else (va, vb, vb - va)
            rows.append(row)
    try:
        _write_csv(args.out, "kind,idx,cost_a,cost_b,cost_delta,e_a,e_b,e_delta,"
                   "w_a,w_b,w_delta,b_a,b_b,b_delta", *zip(*rows))
    except OSError as e:
        print(f"cannot write comparison: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"comparison written: {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfrn",
        description="Mean-field network training scenarios: run and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a JSON config")
    p_run.add_argument("--config", required=True, help="scenario config path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
    p_run.add_argument("--activation", default=None,
                       help="override the config's activation")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="align two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--out", required=True, help="comparison CSV path")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)

