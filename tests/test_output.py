"""Byte identity of the output layer against its csv.writer form.

``reference_write_distribution_csv`` below is the earlier, per-site
``csv.writer`` implementation of ``qwalk.cli.write_distribution_csv``,
kept verbatim as the reference for the row-wise writer.  ``_site_probs``
is held bitwise to the plain ``(np.abs(a) ** 2).sum(axis=-1)``.
"""

import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import cli
from qwalk.analysis import Distribution, _site_probs, summarize
from qwalk.cli import main, write_distribution_csv
from qwalk.coins import CoinField, fractional_swap, hadamard, random_su2, tensor
from qwalk.evolution import DefectMap, WalkSpec, evolve
from qwalk.statespace import SublatticeState, WalkerState


def _format_prob(p: float) -> str:
    # Output-side clamp only; internal values are never touched.
    if p < 1e-15:
        p = 0.0
    return f"{p:.12g}"


def reference_write_distribution_csv(path: Path, dist: Distribution) -> None:
    sites = dist.positions()
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        if dist.dimensionality == 1:
            w.writerow(["x", "p"])
            for i, x in enumerate(sites):
                w.writerow([x, _format_prob(float(dist.probs[i]))])
        else:
            w.writerow(["x", "y", "p"])
            for i, x in enumerate(sites):
                for j, y in enumerate(sites):
                    w.writerow([x, y, _format_prob(float(dist.probs[i, j]))])


# Values where the formatting changes: the clamp's edge from both sides,
# subnormals, and 1e-5, where ".12g" switches to exponent form.
EDGES = [
    0.0,
    1e-15,
    float(np.nextafter(1e-15, 0)),
    float(np.nextafter(1e-15, 1)),
    5e-324,
    2.5e-310,
    1e-5,
    float(np.nextafter(1e-5, 0)),
    1e-4,
    0.1,
    1.0 / 3.0,
]


def _bytes_equal(tmp_path, dist):
    write_distribution_csv(tmp_path / "fast.csv", dist)
    reference_write_distribution_csv(tmp_path / "ref.csv", dist)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    return fast


def _table(values, filler_at, dim, halfwidth):
    """A valid probability table holding ``values`` exactly: the site at
    ``filler_at`` takes what is left of the unit total."""
    n = 2 * halfwidth + 1
    flat = np.zeros(n**dim)
    rest = [i for i in range(flat.size) if i != filler_at % flat.size]
    flat[rest] = values[: len(rest)]
    flat[filler_at % flat.size] = 1.0 - flat.sum()
    return Distribution(flat.reshape((n,) * dim), halfwidth)


@pytest.mark.parametrize("dim", [1, 2])
def test_writer_matches_csv_writer_on_every_edge_value(tmp_path, dim):
    # The edge values, each at a site of its own, then 1.0 with only
    # values that leave the total within tolerance.
    halfwidth = 6 if dim == 1 else 2
    dist = _table(EDGES + [0.0] * 25, 0, dim, halfwidth)
    text = _bytes_equal(tmp_path, dist).decode()
    assert ",1e-15\r\n" in text and ",1e-05\r\n" in text
    tiny = [v for v in EDGES if v <= 1e-15]
    n = 2 * halfwidth + 1
    probs = np.zeros((n,) * dim)
    probs.flat[: len(tiny) + 1] = [1.0] + tiny
    text = _bytes_equal(tmp_path, Distribution(probs, halfwidth)).decode()
    assert ",1\r\n" in text


@st.composite
def tables(draw):
    dim = draw(st.sampled_from([1, 2]))
    halfwidth = draw(st.integers(0, 3))
    size = (2 * halfwidth + 1) ** dim
    entry = st.one_of(st.sampled_from([v for v in EDGES if v < 1e-3]), st.floats(0.0, 1e-3))
    values = draw(st.lists(entry, min_size=size, max_size=size))
    return _table(values, draw(st.integers(0, size - 1)), dim, halfwidth)


@given(tables())
@settings(max_examples=200, deadline=None)
def test_writer_matches_csv_writer_on_random_tables(tmp_path_factory, dist):
    _bytes_equal(tmp_path_factory.mktemp("csv"), dist)


@pytest.mark.parametrize(
    "cfg",
    [
        {"dimensionality": 2, "steps": 6, "defect": {"kind": "cross_xy", "phi": "pi:1"}},
        {"dimensionality": 1, "steps": 7, "defect": {"kind": "point", "phi": 0.9}},
        {
            "dimensionality": 2,
            "steps": 4,
            "halfwidth": 6,
            "boundary": "periodic",
            "coin": {"kind": "fractional_swap", "tau": 0.3},
            "defect": {"kind": "custom", "table": {"1,-1": 0.4, "0,0": "pi:0.5"}},
            "initial": {"position": [1, 2], "coin": "symmetric"},
        },
    ],
    ids=["2d-cross", "1d-point", "2d-periodic-custom"],
)
def test_run_csvs_match_csv_writer(tmp_path, monkeypatch, cfg):
    # distribution.csv and every step_NNNN.csv, against the same run
    # written through the reference writer.
    def run(out):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "emit_per_step": True, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        return sorted(out.glob("*.csv"))

    fast = run(tmp_path / "fast")
    monkeypatch.setattr(cli, "write_distribution_csv", reference_write_distribution_csv)
    ref = run(tmp_path / "ref")
    assert [p.name for p in fast] == [p.name for p in ref]
    assert len(fast) == cfg["steps"] + 1
    for a, b in zip(fast, ref):
        assert a.read_bytes() == b.read_bytes(), a.name


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_site_probs_is_bitwise_the_axis_sum_on_random_states(dim):
    rng = np.random.default_rng(dim)
    k = 2 * dim
    for halfwidth in (1, 2, 7, 40):
        shape = (2 * halfwidth + 1,) * dim + (k,)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps *= 10.0 ** rng.uniform(-8, 0, size=shape)
        state = WalkerState(dim, halfwidth, amps)
        expected = (np.abs(amps) ** 2).sum(axis=-1)
        assert _bitwise_equal(_site_probs(state.amplitudes), expected)


@pytest.mark.parametrize("dim", [1, 2])
def test_site_probs_is_bitwise_the_axis_sum_on_coin_field_walks(dim):
    rng = np.random.default_rng(10 + dim)
    if dim == 1:
        field = CoinField(1, hadamard(), {0: random_su2(rng), -3: random_su2(rng)})
    else:
        h2 = tensor(hadamard(), hadamard())
        field = CoinField(2, h2, {(0, 0): fractional_swap(0.3), (2, -2): fractional_swap(0.7)})
    for boundary in ("open", "periodic"):
        spec = WalkSpec(dim, 12, field, DefectMap.point(0.6), boundary=boundary)
        for report in evolve(spec):
            for state in (report.grid, report.state):
                expected = (np.abs(state.amplitudes) ** 2).sum(axis=-1)
                assert _bitwise_equal(_site_probs(state.amplitudes), expected)


def _amplitudes(rng, shape):
    # Exact zeros, subnormals and magnitudes near 1e-150 and 1e+150, whose
    # squares underflow to subnormals or zero and reach 1e+300.
    mags = rng.choice([0.0, 5e-324, 3e-310, 1e-160, 1e-150, 1e-5, 1.0, 1e150, 3e150],
                      size=shape)
    amps = mags * (rng.uniform(0.5, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape))
    amps[rng.random(shape) < 0.2] = 0.0
    return amps


@pytest.mark.parametrize("dim", [1, 2])
def test_site_probs_is_bitwise_the_axis_sum_on_extreme_magnitudes(dim):
    rng = np.random.default_rng(20 + dim)
    k = 2 * dim
    for halfwidth in (1, 3, 20):
        amps = _amplitudes(rng, (2 * halfwidth + 1,) * dim + (k,))
        planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(amps, -1, 0)), 0, -1)
        for state, contiguous in (
            # C order: each coin plane is a strided view.
            (WalkerState(dim, halfwidth, amps.copy()), False),
            # Coin-major planes, as the light-cone kernel stores them.
            (SublatticeState(dim, 2 * halfwidth, (-2 * halfwidth,) * dim, planar), True),
        ):
            assert np.moveaxis(state.amplitudes, -1, 0)[1].flags.c_contiguous is contiguous
            before = state.amplitudes.tobytes()
            got = _site_probs(state.amplitudes)
            assert _bitwise_equal(got, (np.abs(amps) ** 2).sum(axis=-1))
            assert state.amplitudes.tobytes() == before
        if halfwidth == 20:
            assert (got == 0.0).any() and (got > 1e299).any()
            assert ((got > 0.0) & (got < np.finfo(float).tiny)).any()


def test_site_probs_adds_the_coin_planes_in_order_not_as_a_reduce():
    # p = (1, e/4, e/4, e/4) with e = 2^-52, the spacing of floats at 1: ((p0 +
    # p1) + p2) + p3 stays 1.0, each quarter spacing rounding away, while p0 +
    # ((p1 + p2) + p3), the association of a pairwise reduce's short inner
    # loop, is 1 + 3e/4, which rounds up.  Both forms of _site_probs, the plane
    # loop and the whole array in a complex scratch (on coin-major planes, as
    # the light cone stores them), must give the first.
    amps = np.zeros((1, 3, 3, 4), dtype=np.complex128)
    amps[0, 1, 2] = [1.0, 2.0**-27, 1j * 2.0**-27, -(2.0**-27)]
    p = np.abs(amps) ** 2
    assert (p[..., 0] + ((p[..., 1] + p[..., 2]) + p[..., 3]))[0, 1, 2] == 1.0 + 2.0**-52
    expected = ((p[..., 0] + p[..., 1]) + p[..., 2]) + p[..., 3]
    assert expected[0, 1, 2] == 1.0
    planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(amps, -1, 1)), 1, -1)
    scratch = np.full(amps.size, np.nan, dtype=np.complex128)
    for a in (amps, planar):
        assert _bitwise_equal(_site_probs(a), expected)
        assert _bitwise_equal(_site_probs(a, scratch), expected)
        assert np.shares_memory(_site_probs(a, scratch), scratch)


def test_summarize_peaks_at_two_site_arrays():
    # The final grid of a 200-step 2D walk has N = 201^2 sites; summarize
    # holds at most the site probabilities and one scratch plane (2N floats),
    # where the whole-array |a|^2 and plane sums took 1.54 MB.
    spec = WalkSpec(2, 200, tensor(hadamard(), hadamard()), DefectMap.cross_xy(np.pi))
    grid = None
    for report in evolve(spec):
        grid = report.grid
    assert isinstance(grid, SublatticeState) and grid.amplitudes.shape == (201, 201, 4)
    expected = summarize(200, grid)
    tracemalloc.start()
    try:
        summary = summarize(200, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary == expected
    assert peak <= 1.1 * 2 * 201**2 * 8


@pytest.mark.parametrize(
    "dim, halfwidth, fill",
    [(2, 3, "zero-rows"), (2, 2, "full-rows"), (1, 9, "full-rows"), (1, 9, "floor"),
     (2, 3, "floor")],
)
def test_writer_matches_csv_writer_on_zero_full_and_floor_rows(tmp_path, dim, halfwidth, fill):
    n = 2 * halfwidth + 1
    probs = np.zeros((n,) * dim)
    if fill == "zero-rows":
        # Every x-row but the middle one is all zero.
        probs[halfwidth] = 1.0 / n
    elif fill == "full-rows":
        probs[...] = np.arange(1, probs.size + 1).reshape(probs.shape)
        probs /= probs.sum()
    else:
        # Exactly the print floor at every odd site, the largest value below
        # it at every fourth; the first site holds the rest.
        below = float(np.nextafter(cli._PRINT_FLOOR, 0))
        flat = probs.reshape(-1)
        flat[1::2] = cli._PRINT_FLOOR
        flat[2::4] = below
        flat[0] = 1.0 - flat.sum()
    text = _bytes_equal(tmp_path, Distribution(probs, halfwidth)).decode()
    assert text.count("\r\n") == n**dim + 1
    if fill == "floor":
        assert ",1e-15\r\n" in text and ",0\r\n" in text


# Golden bytes: the sha256 of whole output files, pinned from the outputs of
# the per-walk summaries that the stacked ones replaced, and for the
# isochecks from the block comparison that the entry-only deviation
# replaced, so that any change that moves one byte of them fails here.
# summary.json is hashed with its timing_seconds value replaced by 0; the two
# run summaries were pinned again when the step guard's norm became each
# walk's sum of its site probabilities, which moved only norm_residual bits
# (every CSV and every other summary field kept its bytes).  The
# hashes hold for a BLAS whose complex GEMM rounds as numpy's bundled
# OpenBLAS does on x86-64; a kernel that rounds otherwise moves them, as
# "What a kernel change may move" in the README says.
_PRODUCT_START = [[0.676141407574784, 0.0], [0.14774265090944072, -0.04939443143144383],
                  [0.6680143649511013, -0.2149013289227512],
                  [0.1302675493331909, -0.09575849228941713]]
GOLDEN = {
    # run2d_cross at 60 steps, from the benchmark's seed-1 product start:
    # two 1D walks stepped as one stack.
    "product-run": ("run", {
        "dimensionality": 2, "steps": 60, "coin": "hadamard",
        "defect": {"kind": "cross_xy", "phi": "pi:1"},
        "initial": {"position": [0, 0], "coin": _PRODUCT_START},
    }, {
        "distribution.csv": "f61346fc26fa420014e1fc460e0d2940af60764a76565c153975386019ba19fe",
        "summary.json": "b33b831d8fa62428224202fb0638282fcd689fe4e65ab93fce1ba885d621a9a5",
    }),
    # A coin that is not a product: the 2D kernel.
    "kernel-run": ("run", {
        "dimensionality": 2, "steps": 40, "coin": {"kind": "fractional_swap", "tau": 0.5},
        "defect": {"kind": "point", "phi": "pi:1"},
    }, {
        "distribution.csv": "f748a2d19b36dc932a13438676b68ea9834b4615a2c5739a5e5a19a5b32e3bef",
        "summary.json": "7f9dc3cb063e237e2fd4bed69bc96fdebeff7850dca735c84a61dbbf8a6fae0d",
    }),
    "sweep": ("sweep", {
        "dimensionality": 2, "steps": 30,
        "sweep": {"phi": ["pi:0", "pi:0.5", "pi:1", 2.5], "defect": ["cross_xy", "line_y"]},
    }, {
        "sweep.csv": "ce48a69d8ad23f5e1ecf2f3c1b23293528d0fc66698028d866701dac2e421a6b",
    }),
    # isocheck_dense: the claims' matrix products round with the BLAS.
    "isocheck": ("isocheck", {"halfwidth": 8, "trials": 50, "seed": 1}, {
        "isocheck.json": "5cb9f8c7c46774b77f08efd9d9e019b1a0fe4075bc30d59c419f7cb1a7bc6f21",
    }),
    "default-isocheck": ("isocheck", {}, {
        "isocheck.json": "711b25c00982556086602567ac733d0b5507dd4f21e971657323ccaec60e3b6a",
    }),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_keep_their_pinned_bytes(tmp_path, name):
    command, cfg, digests = GOLDEN[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "out")}))
    assert main([command, "--config", str(cfg_path)]) == 0
    got = {}
    for path in sorted((tmp_path / "out").iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            data, n = re.subn(rb'"timing_seconds": [^\n]*', b'"timing_seconds": 0', data)
            assert n == 1
        got[path.name] = hashlib.sha256(data).hexdigest()
    assert got == digests
