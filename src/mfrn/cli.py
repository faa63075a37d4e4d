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


def load_config(path: str) -> tuple[Scenario, bytes]:
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
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e), line=_key_line(text, getattr(e, "key", ""))) from e
    return sc, raw


def _write_manifest(out_dir: str, sc: Scenario, config_raw: bytes,
                    timings: dict | None) -> None:
    manifest = {
        "scenario": sc.name,
        "activation": sc.activation,
        "seed": sc.seed,
        "config": scenario_to_config(sc),
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "out_dir": os.path.abspath(out_dir),
        "timings": timings or {},
        "provenance": {
            "mfrn": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": 1,
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_field(path: str, field: DensityField, t: float) -> None:
    with open(path, "w") as fh:
        fh.write("t,x_center,value\n")
        ts = _fmt(t)
        for x, v in zip(field.grid.centers, field.averages):
            fh.write(f"{ts},{_fmt(x)},{_fmt(v)}\n")


def _write_controls(path: str, controls) -> None:
    with open(path, "w") as fh:
        fh.write("t,w,b\n")
        for t, w, b in zip(controls.grid.nodes, controls.w, controls.b):
            fh.write(f"{_fmt(t)},{_fmt(w)},{_fmt(b)}\n")


def _write_iteration_log(path: str, state) -> None:
    with open(path, "w") as fh:
        fh.write("k,cost,e_k,rho_star,max_gw,max_gb\n")
        for k, cost in enumerate(state.cost_history):
            if k == 0:
                fh.write(f"0,{_fmt(cost)},,,,\n")
            else:
                i = k - 1
                fh.write(
                    f"{k},{_fmt(cost)},{_fmt(state.rel_error_history[i])},"
                    f"{_fmt(state.rho_history[i])},"
                    f"{_fmt(state.grad_w_max_history[i])},"
                    f"{_fmt(state.grad_b_max_history[i])}\n"
                )


def _write_summary(out_dir: str, payload: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_training(out_dir: str, report: TrainingReport) -> None:
    sc = report.scenario
    state = report.state
    _write_iteration_log(os.path.join(out_dir, "iteration_log.csv"), state)
    _write_controls(os.path.join(out_dir, "controls.csv"), state.controls)
    _write_field(os.path.join(out_dir, "f0.csv"), report.f0, 0.0)
    _write_field(os.path.join(out_dir, "target.csv"), report.target_field,
                 sc.t_final)
    traj = state.trajectory
    _write_field(os.path.join(out_dir, "f_final.csv"), traj[-1], sc.t_final)
    n = len(traj) - 1
    for frac in _SNAPSHOT_FRACTIONS:
        k = round(frac * n)
        _write_field(os.path.join(out_dir, f"f_t{frac:.2f}.csv"), traj[k], k * sc.dt)
    _write_summary(out_dir, {
        "scenario": sc.name,
        "activation": sc.activation,
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
    })


def _emit_exact(out_dir: str, report: ExactControlReport) -> None:
    sc = report.scenario
    _write_controls(os.path.join(out_dir, "controls.csv"), report.controls)
    _write_field(os.path.join(out_dir, "f0.csv"), report.f0, 0.0)
    _write_field(os.path.join(out_dir, "target.csv"), report.target_field,
                 sc.t_final)
    _write_field(os.path.join(out_dir, "f_final.csv"), report.f_T, sc.t_final)
    _write_summary(out_dir, {
        "scenario": sc.name,
        "activation": sc.activation,
        "final_cost": None,
        "w1_final": report.w1,
        "iterations": 0,
        "converged": None,
    })


def _emit_convergence(out_dir: str, report: ConvergenceReport) -> None:
    sc = report.scenario
    n_seeds = report.w1_by_seed.shape[0]
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
        seed_cols = ",".join(f"w1_seed{i}" for i in range(n_seeds))
        fh.write(f"M,w1_mean,{seed_cols}\n")
        for j, M in enumerate(report.M_list):
            row = ",".join(_fmt(report.w1_by_seed[i, j])
                           for i in range(n_seeds))
            fh.write(f"{M},{_fmt(report.w1_mean[j])},{row}\n")
    _write_summary(out_dir, {
        "scenario": sc.name,
        "activation": sc.activation,
        "slope": report.slope,
        "M_list": list(report.M_list),
        "w1_mean": [float(v) for v in report.w1_mean],
    })


def cmd_run(args: argparse.Namespace) -> int:
    try:
        sc, raw = load_config(args.config)
        try:
            if args.activation is not None:
                sc = dataclasses.replace(sc, activation=args.activation)
            if args.seed is not None:
                sc = dataclasses.replace(sc, seed=args.seed)
        except ValueError as e:
            text = raw.decode("utf-8", errors="replace")
            raise ConfigError(str(e), line=_key_line(text, getattr(e, "key", ""))) from e
    except ConfigError as e:
        print(f"{args.config}:{e.line}: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args.out, sc, raw, timings=None)
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
        _emit_training(args.out, report)
    elif isinstance(report, ExactControlReport):
        _emit_exact(args.out, report)
    else:
        _emit_convergence(args.out, report)
    _write_manifest(args.out, sc, raw, timings={**report.timings, "total": wall})
    print(f"run complete: {args.out}")
    return EXIT_OK


def _load_run_dir(path: str) -> tuple[dict, list[dict], list[dict]]:
    """A run's config and its iteration log and controls as rows of strings.

    A missing file raises OSError; a manifest that is not JSON or holds no
    run config, or a CSV value that is not a number, raises ValueError naming
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

    def read_csv(name):
        p = os.path.join(path, name)
        if not os.path.exists(p):
            return []
        rows = []
        with open(p) as fh:
            header = fh.readline().strip().split(",")
            for n, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = dict(zip(header, line.strip().split(",")))
                try:
                    for v in filter(None, row.values()):
                        float(v)
                except ValueError as e:
                    raise ValueError(f"{p}:{n}: {e}") from None
                rows.append(row)
        return rows

    return config, read_csv("iteration_log.csv"), read_csv("controls.csv")


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        cfg_a, iters_a, ctr_a = _load_run_dir(args.dir_a)
        cfg_b, iters_b, ctr_b = _load_run_dir(args.dir_b)
    except (OSError, ValueError) as e:
        print(f"cannot load run directory: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    for key in ("n_cells", "domain"):
        va = cfg_a["run"].get(key)
        vb = cfg_b["run"].get(key)
        if va != vb:
            print(f"mismatched grids: {key} {va} vs {vb}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    if (cfg_a["dt"], cfg_a["t_final"]) != (cfg_b["dt"], cfg_b["t_final"]):
        print("mismatched grids: time discretization differs", file=sys.stderr)
        return EXIT_BAD_CONFIG

    def delta(ra, rb, key):
        if ra is None or rb is None or not ra.get(key) or not rb.get(key):
            return "", "", ""
        va, vb = float(ra[key]), float(rb[key])
        return _fmt(va), _fmt(vb), _fmt(vb - va)

    lines = ["kind,idx,cost_a,cost_b,cost_delta,e_a,e_b,e_delta,"
             "w_a,w_b,w_delta,b_a,b_b,b_delta"]
    for k in range(max(len(iters_a), len(iters_b))):
        ra = iters_a[k] if k < len(iters_a) else None
        rb = iters_b[k] if k < len(iters_b) else None
        ca, cb, cd = delta(ra, rb, "cost")
        ea, eb, ed = delta(ra, rb, "e_k")
        idx = ra["k"] if ra else rb["k"]
        lines.append(f"iteration,{idx},{ca},{cb},{cd},{ea},{eb},{ed},,,,,,")
    for k in range(max(len(ctr_a), len(ctr_b))):
        ra = ctr_a[k] if k < len(ctr_a) else None
        rb = ctr_b[k] if k < len(ctr_b) else None
        wa, wb, wd = delta(ra, rb, "w")
        ba, bb, bd = delta(ra, rb, "b")
        idx = ra["t"] if ra else rb["t"]
        lines.append(f"control,{idx},,,,,,,{wa},{wb},{wd},{ba},{bb},{bd}")

    try:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
