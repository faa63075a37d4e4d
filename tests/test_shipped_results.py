"""The answers of the shipped configs, pinned in tests/shipped_results.json.

For each training config the file holds the outer iterations, whether the
last line search took no step (rho = 0), the final cost, W1 to the target,
the final field's mean and variance, the trained max |w| and the last
entries of the projected-gradient histories; for the convergence study, the
mean W1 at each ensemble size and the log-log slope; for the two
exact-control configs, W1 to the target.  The session fixtures compute the
training and convergence answers, so the check costs next to nothing beyond
the runs other tests share; the exact-control runs take about 0.1 s.
Integers and flags must match exactly, floats within RTOL.

After a change that moves an answer on purpose, regenerate the file from
the repository root with

    PYTHONPATH=src python3 tests/test_shipped_results.py
"""

import json
import math
from pathlib import Path

from conftest import shipped

from mfrn.scenarios import run_exact_control

LEDGER = Path(__file__).resolve().with_name("shipped_results.json")
TRAINING = ("test1_identity", "test1_tanh", "test1_sigmoid", "test2", "test3_zero",
            "test3_linear")
EXACT = ("shift_identity", "scale")
RTOL = 1e-12


def training_answers(report) -> dict:
    state = report.state
    return {"iterations": state.iteration,
            "no_step": bool(len(state.rho_history) and state.rho_history[-1] == 0.0),
            "final_cost": float(state.cost_history[-1]),
            "w1_final": float(report.w1_final),
            "mean_f_T": float(report.mean_f_T),
            "var_f_T": float(report.var_f_T),
            "max_abs_w": float(max(abs(state.controls.w))),
            "grad_w_max_last": float(state.grad_w_max_history[-1]),
            "grad_b_max_last": float(state.grad_b_max_history[-1])}


def convergence_answers(report) -> dict:
    return {"M_list": [int(m) for m in report.M_list],
            "w1_mean": [float(v) for v in report.w1_mean],
            "slope": float(report.slope)}


def exact_answers(name: str) -> dict:
    return {"w1": float(run_exact_control(shipped(name)).w1)}


def answers(report_of) -> dict:
    """The ledger's answers, from report_of(name), the report of a training or
    the convergence config."""
    now = {name: training_answers(report_of(name)) for name in TRAINING}
    now["convergence"] = convergence_answers(report_of("convergence"))
    now.update({name: exact_answers(name) for name in EXACT})
    return now


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
    now = answers(lambda name: request.getfixturevalue(f"{name}_report"))
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
    from mfrn.scenarios import run_convergence_study, run_training

    ledger = answers(lambda name: (run_convergence_study if name == "convergence"
                                   else run_training)(shipped(name)))
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
