"""The benchmark's own tests: each output check passes on real ``qwalk``
output and rejects a perturbed copy of it.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q

The workloads run here at small sizes, in process, so the file takes a
few seconds.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qwalk.cli  # noqa: E402
from oracle1d import Walk1D  # noqa: E402
from workloads import IsocheckDense, Run2DCross, Sweep2DPhases  # noqa: E402


def run(workload, tmp_path: Path, seed: int = 3) -> Path:
    argv = workload.prepare(seed, tmp_path)
    assert qwalk.cli.main(argv) == 0
    out = tmp_path / "out"
    assert workload.check(out) == []
    return out


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path: Path, change) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    change(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def test_oracle_hadamard_walk_first_steps():
    # Two steps from (1, i)/sqrt(2) by hand: p_1 = (1/2, 0, 1/2) on
    # sites -1, 0, 1, and p_2(0) = 1/2.
    w = Walk1D(2, 0.0, (1 / math.sqrt(2), 1j / math.sqrt(2)))
    assert w.origin == pytest.approx([1.0, 0.0, 0.5], abs=1e-15)
    assert w.variance[1] == pytest.approx(1.0, abs=1e-15)
    assert sum(w.final) == pytest.approx(1.0, abs=1e-15)


def test_oracle_matches_scalar_expansion_with_defect():
    # Site-by-site expansion with scalar arithmetic, written apart from
    # Walk1D: coin, phase of the source site, shift.
    steps, phi, coin0 = 30, 0.7 * math.pi, (0.6, 0.8j)
    h = 1 / math.sqrt(2)
    amps = {(0, 0): coin0[0], (0, 1): coin0[1]}
    for _ in range(steps):
        nxt = {}
        for (x, c), a in amps.items():
            f = complex(math.cos(phi), math.sin(phi)) if x == 0 else 1.0
            for cp in (0, 1):
                key = (x + 1 - 2 * cp, cp)
                nxt[key] = nxt.get(key, 0) + f * h * (-1 if c == cp == 1 else 1) * a
        amps = nxt
    p = [0.0] * (2 * steps + 1)
    for (x, _c), a in amps.items():
        p[x + steps] += abs(a) ** 2
    assert list(Walk1D(steps, phi, coin0).final) == pytest.approx(p, abs=1e-14)


def test_oracle_phase_pi_localizes():
    coin0 = (1 / math.sqrt(2), 1j / math.sqrt(2))
    assert Walk1D(60, math.pi, coin0).origin[-1] > 30 * Walk1D(60, 0.0, coin0).origin[-1]


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda d: d["per_step"][3].update(recurrence=d["per_step"][3]["recurrence"] + 1e-9), "recurrence"),
        (lambda d: d["per_step"][5].update(variance_x=d["per_step"][5]["variance_x"] * (1 + 1e-8)), "variance_x"),
        (lambda d: d["per_step"][5].update(variance_y=d["per_step"][5]["variance_y"] * (1 + 1e-8)), "variance_y"),
        (lambda d: d["per_step"][0].update(norm_residual=1e-9), "norm_residual"),
        (lambda d: d["per_step"].pop(), "per_step"),
        (lambda d: d["final"].update(recurrence=0.0), "final"),
        (lambda d: d["config"]["defect"].update(phi=0.0), "config echo"),
    ],
)
def test_run_check_rejects_perturbed_summary(tmp_path, perturb, message):
    workload = Run2DCross(steps=40)
    out = run(workload, tmp_path)
    edit_json(out / "summary.json", perturb)
    problems = workload.check(out)
    assert problems and any(message in p for p in problems)


def test_run_check_rejects_unlocalized_walk(tmp_path):
    # The free walk (phi = 0) matches its own oracle but is not localized.
    workload = Run2DCross(steps=40, phi="pi:0")
    assert qwalk.cli.main(workload.prepare(3, tmp_path)) == 0
    assert any("not localized" in p for p in workload.check(tmp_path / "out"))


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda rows: rows[40].__setitem__(2, str(float(rows[40][2]) + 1e-9)), "max |p"),
        (lambda rows: rows.__setitem__(slice(40, 42), rows[41:39:-1]), "row-major"),
        (lambda rows: rows.pop(), "rows"),
    ],
)
def test_run_check_rejects_perturbed_distribution(tmp_path, perturb, message):
    workload = Run2DCross(steps=40)
    out = run(workload, tmp_path)
    edit_csv(out / "distribution.csv", perturb)
    problems = workload.check(out)
    assert problems and any(message in p for p in problems)


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda rows: rows[2].__setitem__(2, str(float(rows[2][2]) + 1e-9)), "recurrence"),
        (lambda rows: rows[12].__setitem__(3, str(float(rows[12][3]) * (1 + 1e-8))), "variance_x"),
        (lambda rows: rows[12].__setitem__(4, str(float(rows[12][4]) * (1 + 1e-8))), "variance_y"),
        (lambda rows: rows.__setitem__(slice(1, 3), rows[2:0:-1]), "grid order"),
        (lambda rows: rows.pop(), "rows"),
    ],
)
def test_sweep_check_rejects_perturbed_table(tmp_path, perturb, message):
    workload = Sweep2DPhases(steps=10, threads=1)
    out = run(workload, tmp_path)
    edit_csv(out / "sweep.csv", perturb)
    problems = workload.check(out)
    assert problems and any(message in p for p in problems)


def test_sweep_check_uses_the_free_walk_on_x_for_line_y(tmp_path):
    # Swapping a cross_xy row's numbers into the line_y row of the same
    # phase must fail: the x axis of a line_y walk is free.
    workload = Sweep2DPhases(steps=10, threads=1)
    out = run(workload, tmp_path)
    edit_csv(out / "sweep.csv", lambda rows: rows[18].__setitem__(slice(2, 5), rows[9][2:5]))
    assert workload.check(out)


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda d: d.update(translation_deviation=1e-17), "translation_deviation"),
        (lambda d: d.update(max_trial_deviation=5e-324), "max_trial_deviation"),
        (lambda d: d["named_coin_deviations"].update(hadamard_pair=1e-16), "hadamard_pair"),
        (lambda d: d.update(passed=False), "passed"),
        (lambda d: d.update(seed=d["seed"] + 1), "echoes"),
        (lambda d: d["decomposition_claims"]["separable"].update(confirmed=False), "separable"),
        (
            lambda d: d["decomposition_claims"]["entangled"].update(
                finding="matches fractional_swap(tau) exactly"
            ),
            "finding",
        ),
        (
            lambda d: d["decomposition_claims"]["tau_zero_bracket"].update(equals_identity=True),
            "identity",
        ),
    ],
)
def test_isocheck_check_rejects_perturbed_report(tmp_path, perturb, message):
    workload = IsocheckDense(halfwidth=2, trials=3)
    out = run(workload, tmp_path, seed=11)
    edit_json(out / "isocheck.json", perturb)
    problems = workload.check(out)
    assert problems and any(message in p for p in problems)


def test_checks_reject_missing_output(tmp_path):
    for workload in (Run2DCross(steps=4), Sweep2DPhases(steps=4, threads=1), IsocheckDense(2, 2)):
        workload.prepare(1, tmp_path)
        assert workload.check(tmp_path / "missing")
