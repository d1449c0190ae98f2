"""The light-cone kernel's coin planes and reused output buffers.

``reference_cone_step`` below is the earlier ``_Stepper.cone_step``, which
stored the grid interleaved as ``(m, ..., k)`` and allocated a fresh output
every step, kept as the reference for the planar kernel (its coin mix now
called as a stack of one): every step must give the same amplitudes bit
for bit.
"""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from qwalk.coins import CoinField, fractional_swap, hadamard, random_su2, tensor
from qwalk.evolution import DefectMap, WalkSpec, _Stepper, evolve
from qwalk.statespace import SublatticeState

H = hadamard()
H2 = tensor(H, H)


def reference_cone_step(self, grid, scratch):
    a = grid.amplitudes
    out = scratch[: a.size].reshape((1,) + a.shape)
    m = self._mixed(a[None], grid.sites(), (self.applier,), out)[0]
    n = a.shape[0]
    out = np.empty((n + 1,) * self.dim + a.shape[-1:], dtype=np.complex128)
    for c, move in enumerate(self.moves):
        offsets = [(1 + s) // 2 for s in move]
        out[tuple(slice(o, n + o) for o in offsets) + (c,)] = m[..., c]
        for axis, o in enumerate(offsets):
            out[(slice(None),) * axis + ((1 - o) * n, Ellipsis, c)] = 0
    first = tuple(f - 1 for f in grid.first)
    return SublatticeState(self.dim, self.halfwidth, first, out)


def reference_grids(spec):
    d = spec.dimensionality
    stepper = _Stepper(d, spec.halfwidth, spec.coin, spec.defect)
    grid = spec.initial_grid()
    scratch = np.empty(max(spec.steps, 1) ** d * 2 * d, dtype=np.complex128)
    for _ in range(spec.steps):
        grid = reference_cone_step(stepper, grid, scratch)
        yield grid


def haar_u4(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


COINS_2D = {
    "hadamard-pair": H2,
    "fractional-swap": fractional_swap(0.3),
    "random-u4": haar_u4(5),
    "coin-field": CoinField(
        2, H2, {(1, 1): fractional_swap(0.3), (-2, 3): haar_u4(6), (0, 0): np.eye(4)}
    ),
}
COINS_1D = {
    "hadamard": H,
    "random-su2": random_su2(np.random.default_rng(7)),
    "coin-field": CoinField(1, H, {1: random_su2(np.random.default_rng(8)), -3: np.eye(2)}),
}
DEFECTS_2D = {
    "none": DefectMap.none(),
    "line_y": DefectMap.line_y(0.7),
    "cross_xy": DefectMap.cross_xy(np.pi),
    "point": DefectMap.point(1.3),
    "custom": DefectMap.custom({(0, 1): 0.4, (-1, 3): -2.0, (2, 2): 1.0}),
}
DEFECTS_1D = {
    "none": DefectMap.none(),
    "point": DefectMap.point(1.3),
    "custom": DefectMap.custom({0: 0.4, -1: -2.0, 3: 1.0}),
}
CASES = [
    pytest.param(2, coin, defect, id=f"2d-{cn}-{dn}")
    for (cn, coin), (dn, defect) in itertools.product(COINS_2D.items(), DEFECTS_2D.items())
] + [
    pytest.param(1, coin, defect, id=f"1d-{cn}-{dn}")
    for (cn, coin), (dn, defect) in itertools.product(COINS_1D.items(), DEFECTS_1D.items())
]


@pytest.mark.parametrize("dim, coin, defect", CASES)
@pytest.mark.parametrize("start", ["origin", "off-centre"])
def test_planar_kernel_is_bitwise_the_interleaved_kernel(dim, coin, defect, start):
    position = None if start == "origin" else (1 if dim == 1 else (1, -2))
    spec = WalkSpec(dim, 60, coin, defect, initial_position=position, halfwidth=70)
    for report, ref in zip(evolve(spec), reference_grids(spec), strict=True):
        assert report.grid.first == ref.first
        assert np.array_equal(report.grid.amplitudes, ref.amplitudes)


@pytest.mark.parametrize("hold", [False, True], ids=["dropped", "held"])
@pytest.mark.parametrize("dim", [1, 2])
def test_cone_grids_are_stored_as_contiguous_coin_planes(dim, hold):
    spec = WalkSpec(dim, 20, H if dim == 1 else H2, DefectMap.point(0.5))
    held = []
    for report in evolve(spec):
        amps = report.grid.amplitudes
        assert amps.shape == (report.step + 1,) * dim + (2 * dim,)
        assert np.moveaxis(amps, -1, 0).flags.c_contiguous
        if hold:
            held.append(report)


# What a caller keeps of each report; None keeps nothing.
KEEPERS = {
    "every-other-report": lambda r: r if r.step % 2 else None,
    "grid": lambda r: r.grid,
    "view": lambda r: r.grid.amplitudes[..., 0],
    "every-third-view": lambda r: r.grid.amplitudes[..., 1] if r.step % 3 == 0 else None,
}


def _amplitudes(kept):
    if isinstance(kept, np.ndarray):
        return kept
    return kept.amplitudes if isinstance(kept, SublatticeState) else kept.grid.amplitudes


@pytest.mark.parametrize("keep", KEEPERS.values(), ids=KEEPERS.keys())
@pytest.mark.parametrize("dim", [1, 2])
def test_reused_buffers_never_overwrite_what_a_caller_holds(dim, keep):
    spec = WalkSpec(dim, 40, H if dim == 1 else H2, DefectMap.point(0.9))
    everything = list(evolve(spec))
    kept = {}
    for report in evolve(spec):
        if (held := keep(report)) is not None:
            kept[report.step] = held
    assert kept
    for step, held in kept.items():
        full = keep(everything[step - 1])
        assert np.array_equal(_amplitudes(held), _amplitudes(full))


def test_a_loop_that_drops_its_reports_reuses_the_output_buffers():
    spec = WalkSpec(2, 50, H2, DefectMap.cross_xy(np.pi))
    pointers = {r.grid.amplitudes.__array_interface__["data"][0] for r in evolve(spec)}
    assert len(pointers) <= 3


def _own_bytes(report):
    """A report's own objects: itself, its fields' values (but the small ints
    the interpreter shares) and the headers, not the data, of its amplitudes'
    array and of the array that owns the data."""
    owner = report.amplitudes if report.amplitudes.base is None else report.amplitudes.base
    fields = [v for v in vars(report).values() if not isinstance(v, int)]
    objects = [report, vars(report), *fields, *report.first]
    return sum(map(sys.getsizeof, objects)) + sys.getsizeof(owner) - owner.nbytes


def test_holding_every_report_costs_at_most_two_final_grids_more():
    # Held reports keep every step's grid: (t+1)^2 sites of 4 components,
    # a fresh array a step, or for the first two steps one of the two
    # buffers of the final grid's size (counted in both terms).  Stepping
    # also holds the coin-mix scratch, and each report its own objects.  The
    # small tuples and slices a step frees stay traced in CPython's bounded
    # free lists: about 40 kB when this test runs first in its process,
    # about 9 kB after the other tests here warmed them; ``slack`` allows that.
    steps, item = 120, np.dtype(np.complex128).itemsize
    grids = sum((t + 1) ** 2 * 4 * item for t in range(1, steps + 1))
    final_grid = (steps + 1) ** 2 * 4 * item
    scratch = steps**2 * 4 * item  # the last step's coin mix
    slack = 48 * 1024
    spec = WalkSpec(2, steps, H2, DefectMap.cross_xy(np.pi))
    tracemalloc.start()
    try:
        reports = list(evolve(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == steps and grids == 38_263_040
    assert peak <= grids + 2 * final_grid + scratch + sum(map(_own_bytes, reports)) + slack
