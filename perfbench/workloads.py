"""The benchmark's workloads: the ``qwalk`` command line each one runs, the
inputs it derives from the seed, and the checks its outputs must pass.

Every check compares against a computation made apart from ``src/`` (the
1D reference in ``oracle1d.py``) or against a property the method must
have.  The Hadamard pair, a product initial coin state and a ``cross_xy``
or ``line_y`` defect all factorize across the axes, so every 2D output is
a product of two independent 1D walks, one per axis.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from oracle1d import Walk1D

# |csv - reference| on probabilities: the CSV keeps 12 significant digits
# and the largest probability is below 1, so rounding stays under 5e-13.
PROB_ATOL = 1e-12
# Variances reach ~1e4 on these lattices; relative to that.
VAR_RTOL = 1e-10
NORM_RESIDUAL_MAX = 1e-10
# The localized P(origin) must exceed the free walk's by this factor.
LOCALIZATION_FACTOR = 1000.0


def angle(token: str) -> float:
    """Radians of a ``pi:<x>`` token, the way the README defines it."""
    return float(token[3:]) * math.pi


def random_coin_pair(seed: int) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Two random unit coin states, one per axis, from the seed."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(2):
        theta, psi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        phase = complex(math.cos(psi), math.sin(psi))
        states.append((complex(math.cos(theta / 2)), phase * math.sin(theta / 2)))
    return states[0], states[1]


def product_coin(a, b) -> list[list[float]]:
    """The 2D initial coin a (x) b in the README's ``[re, im]`` list form,
    ordered 00, 01, 10, 11 with the first bit steering x."""
    return [[(a[c] * b[d]).real, (a[c] * b[d]).imag] for c in (0, 1) for d in (0, 1)]


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(abs(reference), 1.0)


class Run2DCross:
    """``qwalk run``: 2D Hadamard pair, ``cross_xy(pi)``, default halfwidth."""

    name = "run2d_cross"

    def __init__(self, steps: int = 200, phi: str = "pi:1"):
        self.steps = steps
        self.phi = phi

    def prepare(self, seed: int, work: Path) -> list[str]:
        a, b = random_coin_pair(seed)
        cfg = {
            "dimensionality": 2,
            "steps": self.steps,
            "coin": "hadamard",
            "defect": {"kind": "cross_xy", "phi": self.phi},
            "initial": {"position": [0, 0], "coin": product_coin(a, b)},
        }
        (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        phi = angle(self.phi)
        self.walks = (Walk1D(self.steps, phi, a), Walk1D(self.steps, phi, b))
        self.free = (Walk1D(self.steps, 0.0, a), Walk1D(self.steps, 0.0, b))
        return ["run", "--config", str(work / "config.json"), "--out", str(work / "out")]

    def check(self, out: Path) -> list[str]:
        wx, wy = self.walks
        problems = []
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            per_step = summary["per_step"]
            if [s["step"] for s in per_step] != list(range(1, self.steps + 1)):
                problems.append("summary.json: per_step does not list steps 1..T in order")
                return problems
            for s in per_step:
                t = s["step"]
                if abs(s["recurrence"] - wx.origin[t] * wy.origin[t]) > PROB_ATOL:
                    problems.append(f"summary.json: recurrence at step {t} is {s['recurrence']!r}")
                if not _close(s["variance_x"], wx.variance[t], VAR_RTOL):
                    problems.append(f"summary.json: variance_x at step {t} is {s['variance_x']!r}")
                if not _close(s["variance_y"], wy.variance[t], VAR_RTOL):
                    problems.append(f"summary.json: variance_y at step {t} is {s['variance_y']!r}")
                if not s["norm_residual"] < NORM_RESIDUAL_MAX:
                    problems.append(f"summary.json: norm_residual at step {t} is {s['norm_residual']!r}")
            final = summary["final"]
            if final["recurrence"] != per_step[-1]["recurrence"]:
                problems.append("summary.json: final recurrence differs from the last step")
            free = self.free[0].origin[-1] * self.free[1].origin[-1]
            if not final["recurrence"] > LOCALIZATION_FACTOR * free:
                problems.append(
                    f"summary.json: P(origin)={final['recurrence']!r} is not localized "
                    f"(free walk {free:.3e})"
                )
            echo = summary["config"]
            if echo["steps"] != self.steps or echo["defect"] != {
                "kind": "cross_xy",
                "phi": angle(self.phi),
            }:
                problems.append("summary.json: config echo does not match the run")
            problems += self._check_distribution(out / "distribution.csv")
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            problems.append(f"unreadable output: {type(e).__name__}: {e}")
        return problems

    def _check_distribution(self, path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        n = 2 * self.steps + 1
        if lines[0] != "x,y,p" or len(lines) != n * n + 1:
            return [f"distribution.csv: expected header x,y,p and {n * n} rows"]
        table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        sites = np.arange(-self.steps, self.steps + 1, dtype=np.float64)
        if not (
            np.array_equal(table[:, 0], np.repeat(sites, n))
            and np.array_equal(table[:, 1], np.tile(sites, n))
        ):
            return ["distribution.csv: sites are not in row-major order"]
        reference = np.outer(self.walks[0].final, self.walks[1].final).ravel()
        worst = float(np.abs(table[:, 2] - reference).max())
        if not worst <= PROB_ATOL:
            return [f"distribution.csv: max |p - p_x p_y| = {worst:.3e}"]
        return []


class Sweep2DPhases:
    """``qwalk sweep``: 2D, 9 phases x {cross_xy, line_y}, threads = nproc."""

    name = "sweep2d_phases"
    kinds = ("cross_xy", "line_y")
    phis = tuple(f"pi:{k / 8:g}" for k in range(9))

    # 90 steps rather than 120, so that a 35 s run holds enough operations
    # for a steady median (perfbench/README.md, "Workloads").
    def __init__(self, steps: int = 90, threads: int | None = None):
        self.steps = steps
        self.threads = threads or len(os.sched_getaffinity(0))

    def prepare(self, seed: int, work: Path) -> list[str]:
        a, b = random_coin_pair(seed)
        cfg = {
            "dimensionality": 2,
            "steps": self.steps,
            "coin": "hadamard",
            "initial": {"position": [0, 0], "coin": product_coin(a, b)},
            "sweep": {"phi": list(self.phis), "defect": list(self.kinds)},
        }
        (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        walks = {
            phi: (Walk1D(self.steps, angle(phi), a), Walk1D(self.steps, angle(phi), b))
            for phi in self.phis
        }
        free_x = Walk1D(self.steps, 0.0, a)
        self.expected = []
        for kind in self.kinds:
            for phi in self.phis:
                wx, wy = walks[phi]
                if kind == "line_y":
                    wx = free_x
                self.expected.append(
                    (kind, phi, wx.origin[-1] * wy.origin[-1], wx.variance[-1], wy.variance[-1])
                )
        return [
            "sweep", "--config", str(work / "config.json"), "--out", str(work / "out"),
            "--threads", str(self.threads),
        ]

    def check(self, out: Path) -> list[str]:
        try:
            with open(out / "sweep.csv", newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
            if rows[0] != ["defect", "phi", "recurrence", "variance_x", "variance_y"]:
                return ["sweep.csv: unexpected header"]
            if len(rows) - 1 != len(self.expected):
                return [f"sweep.csv: {len(rows) - 1} rows, expected {len(self.expected)}"]
            problems = []
            for row, (kind, phi, rec, var_x, var_y) in zip(rows[1:], self.expected):
                if row[:2] != [kind, phi]:
                    problems.append(f"sweep.csv: row {row[:2]} out of grid order, expected {[kind, phi]}")
                    continue
                if abs(float(row[2]) - rec) > PROB_ATOL:
                    problems.append(f"sweep.csv: {kind} {phi} recurrence {row[2]}, expected {rec!r}")
                if not _close(float(row[3]), var_x, VAR_RTOL):
                    problems.append(f"sweep.csv: {kind} {phi} variance_x {row[3]}, expected {var_x!r}")
                if not _close(float(row[4]), var_y, VAR_RTOL):
                    problems.append(f"sweep.csv: {kind} {phi} variance_y {row[4]}, expected {var_y!r}")
            return problems
        except (OSError, ValueError, IndexError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]


class IsocheckDense:
    """``qwalk isocheck -L 8 --trials 50 --seed SEED``."""

    name = "isocheck_dense"
    finding = "matches -(Z x Z) @ fractional_swap(tau) exactly"

    def __init__(self, halfwidth: int = 8, trials: int = 50):
        self.halfwidth = halfwidth
        self.trials = trials

    def prepare(self, seed: int, work: Path) -> list[str]:
        self.seed = seed
        return [
            "isocheck", "-L", str(self.halfwidth), "--trials", str(self.trials),
            "--seed", str(seed), "--out", str(work / "out"),
        ]

    def check(self, out: Path) -> list[str]:
        try:
            report = json.loads((out / "isocheck.json").read_text(encoding="utf-8"))
            problems = []
            echo = (report["halfwidth"], report["trials"], report["seed"])
            if echo != (self.halfwidth, self.trials, self.seed):
                problems.append(f"isocheck.json: echoes {echo}")
            if report["passed"] is not True:
                problems.append("isocheck.json: passed is not true")
            # On the odd periodic lattice the two operators are the same
            # matrix entry by entry, so every deviation is exactly zero.
            deviations = {
                "translation_deviation": report["translation_deviation"],
                "max_trial_deviation": report["max_trial_deviation"],
                "max_deviation": report["max_deviation"],
                **report["named_coin_deviations"],
            }
            problems += [
                f"isocheck.json: {key} = {value!r}, not exactly 0.0"
                for key, value in deviations.items()
                if value != 0.0
            ]
            claims = report["decomposition_claims"]
            if claims["separable"]["confirmed"] is not True:
                problems.append("isocheck.json: separable point not confirmed")
            if claims["entangled"]["finding"] != self.finding:
                problems.append(f"isocheck.json: finding is {claims['entangled']['finding']!r}")
            if claims["tau_zero_bracket"]["equals_identity"] is not False:
                problems.append("isocheck.json: the tau=0 bracket is reported as the identity")
            return problems
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]


WORKLOADS = {w.name: w for w in (Run2DCross, Sweep2DPhases, IsocheckDense)}
