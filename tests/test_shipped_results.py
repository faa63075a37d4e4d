"""The answers of the shipped configs, pinned in tests/shipped_results.json.

For each training config the file holds the outer iterations, whether the
last line search took no step (rho = 0), the final cost and W1 to the
target; for the convergence study, the mean W1 at each ensemble size and
the log-log slope.  The session fixtures compute them, so the check costs
next to nothing beyond the runs other tests share.  Integers and flags must
match exactly, floats within RTOL.

After a change that moves an answer on purpose, regenerate the file from
the repository root with

    PYTHONPATH=src python3 tests/test_shipped_results.py
"""

import json
import math
from pathlib import Path

LEDGER = Path(__file__).resolve().with_name("shipped_results.json")
TRAINING = ("test1_identity", "test1_tanh", "test1_sigmoid", "test2", "test3_zero",
            "test3_linear")
RTOL = 1e-12


def training_answers(report) -> dict:
    state = report.state
    return {"iterations": state.iteration,
            "no_step": bool(len(state.rho_history) and state.rho_history[-1] == 0.0),
            "final_cost": float(state.cost_history[-1]),
            "w1_final": float(report.w1_final)}


def convergence_answers(report) -> dict:
    return {"M_list": [int(m) for m in report.M_list],
            "w1_mean": [float(v) for v in report.w1_mean],
            "slope": float(report.slope)}


def mismatches(pinned, now, where: str = "") -> list[str]:
    """Where now differs from pinned: a float beyond RTOL, any other value at all."""
    if isinstance(pinned, dict) and isinstance(now, dict) and pinned.keys() == now.keys():
        return [m for k in pinned for m in mismatches(pinned[k], now[k], f"{where}.{k}")]
    if isinstance(pinned, list) and isinstance(now, list) and len(pinned) == len(now):
        return [m for i, (p, n) in enumerate(zip(pinned, now))
                for m in mismatches(p, n, f"{where}[{i}]")]
    if type(pinned) is type(now) and (
            pinned == now or type(now) is float and math.isclose(now, pinned, rel_tol=RTOL)):
        return []
    return [f"{where.lstrip('.') or 'the ledger'}: pinned {pinned!r}, now {now!r}"]


def test_the_shipped_configs_give_the_pinned_answers(request):
    now = {name: training_answers(request.getfixturevalue(f"{name}_report"))
           for name in TRAINING}
    now["convergence"] = convergence_answers(request.getfixturevalue("convergence_report"))
    assert mismatches(json.loads(LEDGER.read_text()), now) == []


def test_a_float_moves_within_the_tolerance_and_nothing_else_does():
    pinned = {"a": {"iterations": 5, "no_step": True, "cost": 0.25, "w1": [1.0, 2.0]}}
    assert mismatches(pinned, json.loads(json.dumps(pinned))) == []
    near = {"a": {"iterations": 5, "no_step": True, "cost": 0.25 * (1 + 1e-13),
                  "w1": [1.0, 2.0]}}
    assert mismatches(pinned, near) == []
    for moved, says in (({"iterations": 6}, "a.iterations"), ({"no_step": 1}, "a.no_step"),
                        ({"cost": 0.25 * (1 + 1e-11)}, "a.cost"), ({"w1": [1.0]}, "a.w1"),
                        ({"w1": [1.0, 2.0 + 1e-9]}, "a.w1[1]")):
        assert [m.split(":")[0] for m in mismatches(pinned, {"a": {**pinned["a"], **moved}})] \
            == [says]
    assert mismatches(pinned, {"b": pinned["a"]}) == [
        f"the ledger: pinned {pinned!r}, now {({'b': pinned['a']})!r}"]


if __name__ == "__main__":
    from conftest import shipped

    from mfrn.scenarios import run_convergence_study, run_training

    ledger = {name: training_answers(run_training(shipped(name))) for name in TRAINING}
    ledger["convergence"] = convergence_answers(run_convergence_study(shipped("convergence")))
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
