"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (visible with ``pytest -s`` or in the -v test list).
"""

import time

import numpy as np
import pytest

from qwalk.analysis import distribution, marginal, recurrence_probability, variance
from qwalk.coins import hadamard, tensor
from qwalk.evolution import DefectMap, WalkSpec, evolve
from qwalk.isomorphism import (
    check_decomposition_claims,
    check_translation_equivalence,
    random_shared_coin,
    verify_isomorphism,
)

from oracles import brute_force_walk_1d, distribution_1d

H2 = tensor(hadamard(), hadamard())
PHI_GRID = (np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)


def _passfail(criterion, detail, checks):
    try:
        checks()
    except AssertionError:
        print(f"[acceptance] criterion {criterion}: FAIL ({detail})")
        raise
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def _final_state(spec):
    final = spec.initial_state()
    residuals = []
    for report in evolve(spec):
        final = report.state
        residuals.append(report.norm_residual)
    return final, residuals


@pytest.fixture(scope="module")
def cross_runs():
    """Final states and per-step norm residuals of the phase-grid runs."""
    runs = {}
    for phi in PHI_GRID:
        runs[phi] = _final_state(WalkSpec(2, 10, H2, DefectMap.cross_xy(phi)))
    return runs


@pytest.fixture(scope="module")
def line_runs():
    runs = {}
    for phi in PHI_GRID:
        runs[phi] = _final_state(WalkSpec(2, 10, H2, DefectMap.line_y(phi)))
    return runs


@pytest.fixture(scope="module")
def homogeneous_run():
    return _final_state(WalkSpec(2, 10, H2))


@pytest.fixture(scope="module")
def t500_worst_residual():
    """Per-step norm residuals of the desk-scale run (slow: ~1 min)."""
    worst = 0.0
    for report in evolve(WalkSpec(2, 500, H2)):
        worst = max(worst, report.norm_residual)
    return worst


def test_criterion_1_main_localization(cross_runs):
    def checks():
        t0 = time.perf_counter()
        final, _ = _final_state(WalkSpec(2, 10, H2, DefectMap.cross_xy(np.pi)))
        elapsed = time.perf_counter() - t0
        p = recurrence_probability(distribution(final))
        assert abs(p - 0.441) <= 0.005, f"P10(0,0) = {p}"
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"

    _passfail(1, "cross defect phi=pi gives P10(0,0) = 0.441 +/- 0.005 in < 1 s", checks)


def test_criterion_2_monotone_localization(cross_runs):
    def checks():
        values = [
            recurrence_probability(distribution(cross_runs[phi][0]))
            for phi in PHI_GRID
        ]
        assert all(a < b for a, b in zip(values, values[1:])), values

    _passfail(2, "P10(0,0) strictly increasing over phi grid", checks)


def test_criterion_3_line_defect_anisotropy(line_runs, homogeneous_run):
    def checks():
        homogeneous_var_x = variance(distribution(homogeneous_run[0]), "x")
        var_y = {
            phi: variance(distribution(state), "y")
            for phi, (state, _) in line_runs.items()
        }
        assert var_y[np.pi] < 10.0, var_y
        for phi, (state, _) in line_runs.items():
            vx = variance(distribution(state), "x")
            assert abs(vx - homogeneous_var_x) < 1e-12, (phi, vx)
        assert var_y[np.pi / 4] > var_y[np.pi / 2], var_y

    _passfail(
        3,
        "line defect: Var_y(pi) < 10, Var_x untouched to 1e-12, "
        "Var_y(pi/4) > Var_y(pi/2)",
        checks,
    )


def test_criterion_4_factorization(homogeneous_run):
    def checks():
        p = distribution(homogeneous_run[0])
        px = marginal(p, "x").probs
        py = marginal(p, "y").probs
        dev = np.abs(p.probs - np.outer(px, py)).max()
        assert dev < 1e-12, dev

    _passfail(4, "homogeneous walk factorizes into 1D marginals < 1e-12", checks)


def test_criterion_5_isomorphism_suite():
    def checks():
        rng = np.random.default_rng(2024)
        worst = 0.0
        for L in (1, 2, 3):
            assert check_translation_equivalence(L) == 0.0
            for _ in range(50):
                dev = verify_isomorphism(L, random_shared_coin(rng))
                worst = max(worst, dev)
        assert worst < 1e-12, worst

    _passfail(
        5,
        "150 random shared coins at L in {1,2,3}: max deviation < 1e-12, "
        "translation equality exact",
        checks,
    )


def test_criterion_6_normalization(
    cross_runs, line_runs, homogeneous_run, t500_worst_residual
):
    def checks():
        worst = 0.0
        for _, residuals in (
            list(cross_runs.values()) + list(line_runs.values()) + [homogeneous_run]
        ):
            worst = max(worst, max(residuals))
        # plus the 1D oracle run and the 500-step desk-scale run
        _, res1d = _final_state(WalkSpec(1, 2, hadamard(), initial_coin=[1, 0]))
        worst = max(worst, max(res1d), t500_worst_residual)
        assert worst < 1e-12, worst

    _passfail(6, "norm residual < 1e-12 at every step of every run", checks)


def test_criterion_7_small_instance_oracle():
    def checks():
        final, _ = _final_state(WalkSpec(1, 2, hadamard(), initial_coin=[1, 0]))
        p = distribution(final)
        assert abs(p.at(-2) - 0.25) < 1e-12
        assert abs(p.at(0) - 0.5) < 1e-12
        assert abs(p.at(2) - 0.25) < 1e-12
        assert p.at(-1) == 0.0 and p.at(1) == 0.0
        oracle = distribution_1d(brute_force_walk_1d(2, hadamard(), [1, 0]), 2)
        assert np.abs(p.probs - oracle).max() < 1e-12

    _passfail(7, "1D Hadamard t=2 gives {1/4, 1/2, 1/4} per brute-force oracle", checks)


def test_criterion_8_desk_scale_performance():
    def checks():
        from qwalk.evolution import run_walk

        spec = WalkSpec(2, 500, H2)
        t0 = time.perf_counter()
        final = run_walk(spec)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
        assert abs(np.linalg.norm(final.amplitudes) - 1.0) < 1e-12
        assert final.amplitudes.size == 4 * 1001**2

    _passfail(8, "2D homogeneous walk, t=500 (~4e6 amplitudes) in < 60 s", checks)


def test_criterion_9_decomposition_claims():
    def checks():
        report = check_decomposition_claims(trials=100, seed=11)
        assert report["separable"]["max_deviation"] < 1e-12
        finding = report["entangled"]["finding"]
        assert finding in (
            "matches fractional_swap(tau) exactly",
            "matches fractional_swap(tau) up to a global phase",
            "matches -(Z x Z) @ fractional_swap(tau) exactly",
        ), finding
        # the definitive finding, recorded in the README
        assert finding == "matches -(Z x Z) @ fractional_swap(tau) exactly"

    _passfail(
        9,
        "separable claim < 1e-12 over 100 trials; shared-coin point matches "
        "-(Z x Z) * fractional_swap exactly",
        checks,
    )
