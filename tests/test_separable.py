"""``qwalk run``/``sweep`` step a separable 2D walk as two 1D walks.

A product coin A(x)B, a defect phase g(x)h(y) and a product start a(x)b
give exactly the product of a 1D walk along x and one along y.  These tests
hold which configs take that path, that everything else keeps the 2D
kernel, and how close the product's outputs are to the kernel's and to the
extended-precision reference (README "Numerical contracts").
"""

import json
from dataclasses import fields

import numpy as np
import pytest

import qwalk.cli
import qwalk.evolution
from qwalk.analysis import distribution, summarize
from qwalk.cli import _RANK1_TOL, _spec, _walked, main, write_distribution_csv
from qwalk.coins import hadamard, su2_from_angles, tensor
from qwalk.evolution import DefectMap, WalkSpec, _Stack, _Stepper, evolve

from oracles import extended_hadamard_probs

EPS = np.finfo(np.float64).eps


@pytest.fixture
def kernels(monkeypatch):
    """The dimensionality of every walk that takes a step, once a walk and step:
    ``cone_step`` steps a stack of open walks, ``step`` one periodic walk."""
    seen = []

    def watch(kernel, walks):
        def watched(self, *args, **kwargs):
            seen.extend([self.dim] * walks(*args))
            return kernel(self, *args, **kwargs)
        return watched

    monkeypatch.setattr(_Stepper, "cone_step",
                        watch(_Stepper.cone_step, lambda stack: len(stack.amplitudes)))
    monkeypatch.setattr(_Stepper, "step", watch(_Stepper.step, lambda state, moves: 1))
    return seen


def _pairs(v):
    return [[z.real, z.imag] for z in map(complex, v)]


def _product_start(seed):
    """A random product a(x)b as JSON [re, im] pairs, rounded as a config is."""
    rng = np.random.default_rng(seed)
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return json.loads(json.dumps(_pairs(np.kron(a, b))))


def _near_product(det):
    """A unit start whose [c, d] table is diag(sqrt(1 - det^2), det)."""
    return _pairs([np.sqrt(1.0 - det * det), 0.0, 0.0, det])


def _run(tmp_path, command="run", **cfg):
    cfg = {"dimensionality": 2, "steps": 6, "out_dir": str(tmp_path / "out"), **cfg}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(tmp_path / "cfg.json")]) == 0


SEPARABLE_COINS = ["hadamard", "identity",
                   {"kind": "tensor", "first": {"kind": "su2", "theta": 0.4, "psi": 1.0},
                    "second": "hadamard"}]
SEPARABLE_DEFECTS = ["none", {"kind": "line_y", "phi": "pi:0.5"}, {"kind": "cross_xy", "phi": 1.1}]


@pytest.mark.parametrize("start", ["symmetric", "product"])
@pytest.mark.parametrize("defect", SEPARABLE_DEFECTS, ids=["none", "line_y", "cross_xy"])
@pytest.mark.parametrize("coin", SEPARABLE_COINS, ids=["hadamard", "identity", "tensor"])
def test_a_separable_walk_never_steps_the_2d_kernel(tmp_path, kernels, coin, defect, start):
    initial = {"coin": "symmetric" if start == "symmetric" else _product_start(5)}
    _run(tmp_path, coin=coin, defect=defect, initial=initial, emit_per_step=True)
    assert kernels and set(kernels) == {1}


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_a_separable_sweep_never_steps_the_2d_kernel(tmp_path, kernels, boundary):
    _run(tmp_path, "sweep", boundary=boundary, halfwidth=6, initial={"coin": _product_start(6)},
         sweep={"phi": ["pi:0.5", 2.0], "defect": ["none", "line_y", "cross_xy"]})
    assert kernels and set(kernels) == {1}


SWAP = {"kind": "fractional_swap", "tau": 0.5}
BELL = _pairs(np.array([1, 0, 0, 1]) / np.sqrt(2))
NOT_PRODUCTS = {
    "fractional-swap": {"coin": SWAP, "defect": {"kind": "cross_xy", "phi": 1.0}},
    "2d-point": {"defect": {"kind": "point", "phi": "pi:1"}},
    "custom": {"defect": {"kind": "custom", "table": {"0,0": 1.0, "1,-1": 0.5}}},
    "entangled-start": {"defect": "line_y", "initial": {"coin": BELL}},
    "start-above-rank-1-tol": {"defect": "cross_xy",
                               "initial": {"coin": _near_product(2 * _RANK1_TOL)}},
}


@pytest.mark.parametrize("name", NOT_PRODUCTS)
def test_a_run_that_is_not_a_product_steps_the_2d_kernel(tmp_path, kernels, name):
    _run(tmp_path, **NOT_PRODUCTS[name])
    assert kernels and set(kernels) == {2}


@pytest.mark.parametrize(
    "cfg",
    [{"coin": SWAP, "sweep": {"phi": [1.0], "defect": ["none", "line_y", "cross_xy"]}},
     {"sweep": {"phi": [1.0, "pi:1"], "defect": ["point"]}},
     {"initial": {"coin": BELL}, "sweep": {"phi": [1.0], "defect": ["line_y", "cross_xy"]}}],
    ids=["fractional-swap", "2d-point", "entangled-start"],
)
def test_a_sweep_that_is_not_a_product_steps_the_2d_kernel(tmp_path, kernels, cfg):
    _run(tmp_path, "sweep", **cfg)
    assert kernels and set(kernels) == {2}


def test_the_rank_1_tolerance_holds_on_both_sides(tmp_path, kernels):
    for det, dim in ((0.5 * _RANK1_TOL, 1), (2 * _RANK1_TOL, 2)):
        _run(tmp_path, defect={"kind": "cross_xy", "phi": 1.0},
             initial={"coin": _near_product(det)})
        assert kernels and set(kernels) == {dim}, det
        kernels.clear()


# A sweep steps each distinct walk once: (config, walks stepped, their
# dimensionality).  Under line_y the x factor is the free walk, and the y
# factor is cross_xy's at the same phase; a none point takes no phase; -0.0
# and 0.0 are two walks.
MEMO_SWEEPS = {
    "sweep2d-phases": ({"initial": {"coin": _product_start(7)},
                        "sweep": {"phi": [f"pi:{k / 8:g}" for k in range(9)],
                                  "defect": ["cross_xy", "line_y"]}}, 19, 1),
    "none": ({"initial": {"coin": _product_start(7)},
              "sweep": {"phi": ["pi:0.25", "pi:1", 2.0], "defect": ["none"]}}, 2, 1),
    "periodic": ({"boundary": "periodic", "halfwidth": 6, "initial": {"coin": _product_start(8)},
                  "sweep": {"phi": ["pi:0.5", 2.0], "defect": ["none", "line_y", "cross_xy"]}},
                 6, 1),
    "fractional-swap": ({"coin": SWAP, "sweep": {"phi": ["pi:0.25", "pi:1", 0.0, -0.0],
                                                 "defect": ["none", "point"]}}, 5, 2),
}


@pytest.mark.parametrize("name", MEMO_SWEEPS)
def test_a_sweep_steps_each_distinct_walk_once(tmp_path, kernels, name):
    cfg, walks, dim = MEMO_SWEEPS[name]
    t = 8
    _run(tmp_path, "sweep", steps=t, **cfg)
    assert kernels == [dim] * (walks * t)
    # Each row is the bytes of its point swept on its own.
    lines = []
    for kind in cfg["sweep"]["defect"]:
        for phi in cfg["sweep"]["phi"]:
            one = tmp_path / "one"
            assert main(["sweep", "--config", str(tmp_path / "cfg.json"), "--defect", kind,
                         "--phi", str(phi), "--out", str(one)]) == 0
            header, row = (one / "sweep.csv").read_bytes().splitlines(keepends=True)
            lines.append(row)
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == header + b"".join(lines)


def test_a_sweep_whose_stacked_walk_drifts_exits_2_and_writes_no_rows(tmp_path, monkeypatch,
                                                                       capsys):
    # One walk of a stack takes a NaN at step 3; the stack's own check stops
    # the sweep there, before any row is written.
    stepped = _Stepper.cone_step

    def drifting(self, stack):
        stepped(self, stack)
        if len(stack.amplitudes) > 1 and stack.amplitudes.shape[1] == 4:  # after step 3
            stack.amplitudes[1, 0, 0] = np.nan

    monkeypatch.setattr(_Stepper, "cone_step", drifting)
    cfg = {"dimensionality": 2, "steps": 6, "out_dir": str(tmp_path / "out"),
           "sweep": {"phi": ["pi:0.5", "pi:1"], "defect": ["cross_xy", "line_y"]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "norm residual nan at step 3 exceeds 1e-10" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


# For each init field of WalkSpec, a walk that differs from BASE in it: the
# defect by the sign of a zero phase.  A 2D walk needs a 4x4 coin, a
# 4-component start and a 2D position too.
BASE = {"dimensionality": 1, "steps": 3, "coin": hadamard(), "defect": DefectMap.point(0.0),
        "initial_position": 0, "initial_coin": [0.6, 0.8j], "boundary": "open", "halfwidth": 5}
OTHER = {
    "dimensionality": {"dimensionality": 2, "coin": tensor(hadamard(), hadamard()),
                       "initial_position": (0, 0), "initial_coin": [0.5, 0.5, 0.5, 0.5]},
    "steps": {"steps": 2},
    "coin": {"coin": su2_from_angles(0.4, 1.0, 0.0)},
    "defect": {"defect": DefectMap.point(-0.0)},
    "initial_position": {"initial_position": 1},
    "initial_coin": {"initial_coin": [0.8, 0.6j]},
    "boundary": {"boundary": "periodic"},
    "halfwidth": {"halfwidth": 6},
}


def _memo_steps(memo, monkeypatch):
    """The walks that ``_walked`` steps for the walks of a sweep's ``memo``,
    stack by stack, and its results."""
    stepped = []

    def stack(specs):
        stepped.extend(specs)
        return _Stack(specs)

    monkeypatch.setattr(qwalk.evolution, "_Stack", stack)
    return stepped, _walked(list(memo.values()))


def test_a_sweep_memo_keys_a_walk_by_every_init_field_of_its_spec(monkeypatch):
    names = [f.name for f in fields(WalkSpec) if f.init]
    assert sorted(OTHER) == sorted(names)  # a new field needs a case here
    for name in names:
        memo = {}
        walks = [BASE, {**BASE, **OTHER[name]}] * 2
        base, other, *again = (_spec(memo, **values) for values in walks)
        assert again == [base, other] and base is not other, name  # specs compare by identity
        stepped, results = _memo_steps(memo, monkeypatch)
        assert sorted(map(id, stepped)) == sorted(map(id, (base, other))), name
        # Each walk's results are its own, as if it were stepped alone.
        for walk in (base, other):
            norms, summary = results[walk]
            alone = list(evolve(walk))
            assert norms.tolist() == [r.norm_sq for r in alone], name
            assert summary == summarize(walk.steps, alone[-1].grid), name
    # Equal walks built apart, from fresh arrays, are one walk, stepped once.
    memo = {}
    fresh = [_spec(memo, **{**BASE, "coin": hadamard(), "initial_coin": np.array([0.6, 0.8j])})
             for _ in range(2)]
    stepped, results = _memo_steps(memo, monkeypatch)
    assert fresh[0] is fresh[1] and stepped == fresh[:1] and list(results) == fresh[:1]


def test_a_sweep_builds_each_distinct_walk_once(tmp_path, monkeypatch):
    # The benchmark's grid: 9 phases x {cross_xy, line_y} of a separable walk
    # is 19 distinct 1D walks (x: 9 point phases and none; y: 9 point phases),
    # each built once, beside the base spec, and stepped once.
    built, stepped = [], []
    init = WalkSpec.__post_init__

    def counted(self):
        init(self)
        built.append(self)

    def stack(specs):
        stepped.extend(specs)
        return _Stack(specs)

    monkeypatch.setattr(WalkSpec, "__post_init__", counted)
    monkeypatch.setattr(qwalk.evolution, "_Stack", stack)
    start = [[0.48, 0], [0.36, 0], [0, 0.64], [0, 0.48]]  # a product of two unequal starts
    _run(tmp_path, "sweep", steps=8, initial={"coin": start},
         sweep={"phi": [f"pi:{k / 8:g}" for k in range(9)], "defect": ["cross_xy", "line_y"]})
    assert len(built) == 1 + 19
    assert [w.dimensionality for w in built] == [2] + [1] * 19
    assert sorted(map(id, stepped)) == sorted(map(id, built[1:]))
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 1 + 18


def _printed(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, -1]


def _units(a, b):
    """|a - b| over the values b prints (not as 0), in units of their 12th
    significant digit; a prints 0 where b does."""
    assert np.array_equal(a > 0, b > 0)
    shown = b > 0
    return np.abs(a - b)[shown] / 10.0 ** (np.floor(np.log10(b[shown])) - 11), b[shown]


@pytest.mark.parametrize(
    "start",
    [_product_start(5), _near_product(0.5 * _RANK1_TOL), _pairs(np.kron([0, 1j], [0.6, 0.8]))],
    ids=["random-product", "inside-the-rank-1-tol", "first-row-zero"],
)
def test_a_factored_start_runs_the_walk_it_names(tmp_path, start):
    # An su2(x)hadamard coin under line_y tells the axes apart; the 2D
    # kernel on the same spec is the reference.
    t, coin = 40, tensor(su2_from_angles(0.4, 1.0, 0.0), hadamard())
    _run(tmp_path, steps=t, coin={"kind": "tensor", "first": {"kind": "su2", "theta": 0.4,
                                                              "psi": 1.0}},
         defect={"kind": "line_y", "phi": 1.0}, initial={"coin": start})
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["per_step"]
    spec = WalkSpec(2, t, coin, DefectMap.line_y(1.0), initial_coin=[complex(*p) for p in start])
    for step, report in zip(summary, evolve(spec), strict=True):
        s = summarize(report.step, report.grid)
        assert step["recurrence"] == pytest.approx(s.recurrence, rel=1e-12, abs=1e-15)
        assert step["variance_x"] == pytest.approx(s.variance_x, rel=1e-12)
        assert step["variance_y"] == pytest.approx(s.variance_y, rel=1e-12)
    write_distribution_csv(tmp_path / "kernel.csv", distribution(report.grid))
    moved, _ = _units(_printed(tmp_path / "out" / "distribution.csv"),
                      _printed(tmp_path / "kernel.csv"))
    assert moved.max() < 1.01  # the last digit at most


def test_a_product_norm_residual_past_the_tolerance_exits_2(tmp_path, monkeypatch, capsys):
    # Each factor passes its own step's check; the product's is checked too,
    # by the library's check, here given twice the product's norm.
    products = []

    def doubled(norms, steps):
        products.append((np.asarray(norms).tolist(), np.asarray(steps).tolist()))
        return qwalk.evolution._residual(2.0 * np.asarray(norms), steps)

    def product(phi):  # each step's nx * ny of the two 1D walks
        spec = WalkSpec(2, 3, tensor(hadamard(), hadamard()), DefectMap.cross_xy(phi))
        fx, fy = (list(evolve(w)) for w in qwalk.cli._factors(spec, "hadamard", {})(spec.defect))
        return [x.norm_sq * y.norm_sq for x, y in zip(fx, fy, strict=True)]

    monkeypatch.setattr(qwalk.cli, "_residual", doubled)
    _run(tmp_path, steps=0, defect="cross_xy", sweep={"phi": [1.0]})  # writes the config
    # run checks the product step by step and stops at the first; sweep checks
    # all of a point's steps at once and names the first.
    for command, checked in (("run", (product(0.0)[0], 1)), ("sweep", (product(1.0), [1, 2, 3]))):
        assert main([command, "--config", str(tmp_path / "cfg.json"), "--steps", "3"]) == 2
        assert "norm residual 1.000e+00 at step 1 exceeds 1e-10" in capsys.readouterr().err
        assert products == [checked]
        products.clear()


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
def test_separable_outputs_agree_with_the_kernel_and_are_at_least_as_close_to_exact(tmp_path):
    # The paper's run at t = 200: the Hadamard pair under cross_xy(pi) from
    # the symmetric start.  The CLI takes the product of two 1D walks; the
    # library's evolve steps the 2D kernel.  They agree to rounding, and
    # against the extended-precision product of two 1D walks the CLI's
    # printed probabilities, recurrences and variances are at least as close.
    t = 200
    _run(tmp_path, steps=t, defect={"kind": "cross_xy", "phi": "pi:1"})
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["per_step"]
    cli_csv = tmp_path / "out" / "distribution.csv"

    spec = WalkSpec(2, t, tensor(hadamard(), hadamard()), DefectMap.cross_xy(np.pi))
    kernel = []
    for report in evolve(spec):
        kernel.append((summarize(report.step, report.grid), report.norm_residual))
    write_distribution_csv(tmp_path / "kernel.csv", distribution(report.grid))

    q = extended_hadamard_probs(t, np.pi)
    exact = np.multiply.outer(q, q).ravel()
    printed = {"cli": _printed(cli_csv), "kernel": _printed(tmp_path / "kernel.csv")}
    # The contract: one unit in the 12th digit from p = 1e-9 up, where the
    # kernel settles 11 digits; below, where it settles 10, up to its own
    # error (measured: 2 units, at two sites near p = 4e-11).
    moved, shown_kernel = _units(printed["cli"], printed["kernel"])
    assert moved[shown_kernel >= 1e-9].max() < 1.01
    assert moved.max() < 100
    shown = printed["kernel"] > 0
    unit = np.longdouble(10) ** (np.floor(np.log10(exact[shown])) - 11)
    error = {k: np.abs(p[shown] - exact[shown]) / unit for k, p in printed.items()}
    assert error["cli"].max() <= error["kernel"].max()
    assert error["cli"].max() < 1  # 11 of the 12 digits settled

    x = np.arange(-t, t + 1, dtype=np.longdouble)
    worst = {"cli": [0.0, 0.0], "kernel": [0.0, 0.0]}
    factors = zip(*map(evolve, qwalk.cli._factors(spec, "hadamard", {})(spec.defect)))
    for step, (s, residual), (fx, fy) in zip(summary, kernel, factors, strict=True):
        assert step["norm_residual"] == abs(1.0 - fx.norm_sq * fy.norm_sq)
        n = step["step"]
        qn = extended_hadamard_probs(n, np.pi)
        xs = x[t - n: t + n + 1]
        var = (xs**2 * qn).sum() - (xs * qn).sum() ** 2
        rec = qn[n] ** 2
        assert step["recurrence"] == pytest.approx(s.recurrence, rel=1e-13, abs=1e-15)
        for key in ("variance_x", "variance_y"):
            assert step[key] == pytest.approx(getattr(s, key), rel=1e-12)
        assert step["norm_residual"] <= 4 * n * EPS and residual <= 4 * n * EPS
        for name, (r, vx, vy) in (("cli", (step["recurrence"], step["variance_x"],
                                           step["variance_y"])),
                                  ("kernel", (s.recurrence, s.variance_x, s.variance_y))):
            worst[name][0] = max(worst[name][0], float(abs(r - rec)))
            worst[name][1] = max(worst[name][1], float(max(abs(vx - var), abs(vy - var)) / var))
    assert worst["cli"][0] <= worst["kernel"][0]
    assert worst["cli"][1] <= worst["kernel"][1]
