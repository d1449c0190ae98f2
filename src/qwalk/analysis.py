"""Observables over walker states: position distributions, marginals,
1-norm discrepancy, axis variances, recurrence probability, and the
classical random-walk baseline.

``distribution`` and ``summarize`` accept a dense :class:`WalkerState` or
a light-cone :class:`SublatticeState`; the latter is summarized on its own
grid, from the explicit lattice coordinates of its sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .statespace import SublatticeState, WalkerState, _integer, _site_index

__all__ = [
    "Distribution",
    "WalkSummary",
    "distribution",
    "l1_distance",
    "marginal",
    "variance",
    "recurrence_probability",
    "classical_rw_distribution",
    "summarize",
    "summarize_stack",
]

_SUM_TOL = 1e-10


def _check_probs(p: NDArray[np.float64]) -> None:
    # The min, then the sum, each test written so that NaN fails it; a NaN
    # is not called negative.
    if not (low := p.min()) >= 0.0:
        raise ValueError("probability is NaN" if np.isnan(low) else f"negative probability {low}")
    if not abs((total := p.sum()) - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class Distribution:
    """Nonnegative probability table over lattice sites -L..L (per axis)."""

    probs: NDArray[np.float64]
    halfwidth: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        L = _integer(self.halfwidth, "halfwidth")
        if p.shape not in ((2 * L + 1,), (2 * L + 1,) * 2):
            raise ValueError(f"probability table shape {p.shape} does not match halfwidth {L}")
        _check_probs(p)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "halfwidth", L)

    @property
    def dimensionality(self) -> int:
        return self.probs.ndim

    def positions(self) -> NDArray[np.int64]:
        """Lattice coordinates -L..L along one axis."""
        return np.arange(-self.halfwidth, self.halfwidth + 1)

    def at(self, *position: int) -> float:
        """Probability of one site; a site off the lattice raises IndexError."""
        site = _site_index(position, self.halfwidth, self.dimensionality, "position")
        return float(self.probs[site])


@dataclass
class WalkSummary:
    """Per-step observables: origin probability and axis variances."""

    step: int
    recurrence: float
    variance_x: float
    variance_y: float | None = None


def _site_probs(amplitudes: NDArray[np.complex128],
                scratch: NDArray[np.complex128] | None = None) -> NDArray[np.float64]:
    # One coin plane (the last axis) at a time, added as ((p0 + p1) + p2) +
    # p3: the bits of (abs(a) ** 2).sum(axis=-1), in two site-sized arrays (p
    # and a scratch plane), fresh or the head of a free complex ``scratch``.  A
    # plane is a contiguous block of a light-cone grid and a strided view of
    # a dense state; both are read in place.
    shape = amplitudes.shape[:-1]
    p, tmp = ((np.empty(shape), np.empty(shape)) if scratch is None
              else scratch.view(np.float64)[: 2 * math.prod(shape)].reshape(2, *shape))
    np.square(np.abs(amplitudes[..., 0], out=p), out=p)
    for c in range(1, amplitudes.shape[-1]):
        p += np.square(np.abs(amplitudes[..., c], out=tmp), out=tmp)
    return p


def distribution(state: WalkerState | SublatticeState) -> Distribution:
    """Position distribution P = sum over coin components of |amplitude|^2,
    over the whole (2L+1)^d lattice."""
    return _placed(_site_probs(state.amplitudes), state)


def _placed(p: NDArray[np.float64], state: WalkerState | SublatticeState) -> Distribution:
    """The site probabilities ``p`` of ``state``'s sites on its whole lattice, checked."""
    if not isinstance(state, SublatticeState):
        return Distribution(p, state.halfwidth)
    full = np.zeros((2 * state.halfwidth + 1,) * state.dimensionality)
    full[state.sites()] = p
    return Distribution(full, state.halfwidth)


def l1_distance(p: Distribution, q: Distribution) -> float:
    """Half the total absolute difference between two distributions.

    0 for identical distributions, 1 for disjoint support.  Lattices of
    different halfwidth are aligned by zero-padding the smaller one.
    """
    if p.dimensionality != q.dimensionality:
        raise ValueError("cannot compare distributions of different dimensionality")
    L = max(p.halfwidth, q.halfwidth)
    diff = np.pad(p.probs, L - p.halfwidth) - np.pad(q.probs, L - q.halfwidth)
    # Rounding can take the sum for disjoint supports one ulp past 1.
    return min(1.0, float(0.5 * np.abs(diff).sum()))


def _axis_index(axis: int | str) -> int:
    if axis in (0, "x"):
        return 0
    if axis in (1, "y"):
        return 1
    raise ValueError(f"axis must be 'x'/'y' (or 0/1), got {axis!r}")


def marginal(p: Distribution, axis: int | str) -> Distribution:
    """Marginal of a 2D distribution along one axis."""
    if p.dimensionality != 2:
        raise ValueError("marginal expects a 2D distribution")
    keep = _axis_index(axis)
    return Distribution(p.probs.sum(axis=1 - keep), p.halfwidth)


def variance(p: Distribution, axis: int | str | None = None) -> float:
    """Position variance about the mean, along ``axis`` for 2D input."""
    if p.dimensionality == 2:
        if axis is None:
            raise ValueError("2D distribution requires an axis")
        p = marginal(p, axis)
    return _variance(p.positions(), p.probs[None])[0]


def _variance(sites: NDArray[np.int64], probs: NDArray[np.float64]) -> list[float]:
    # Per row of probs (W, sites): sums along the row, then float - float**2, in
    # coordinates from the middle of the row's own nonzero sites (an open walk's
    # start, until its cone's edge probabilities underflow to 0): far walks keep
    # their digits, and a stacked walk the bits it gets alone.
    on = probs != 0
    lo, hi = on.argmax(axis=-1), on.shape[-1] - 1 - on[:, ::-1].argmax(axis=-1)
    xs = (sites - (sites[lo] + sites[hi])[:, None] // 2).astype(np.float64)
    means = np.add.reduce(xs * probs, axis=-1).tolist()
    return [t - mean**2 for t, mean in zip(np.add.reduce(xs**2 * probs, axis=-1).tolist(), means)]


def recurrence_probability(p: Distribution) -> float:
    """Probability at the origin site (0, 0) of a 2D distribution."""
    if p.dimensionality != 2:
        raise ValueError("recurrence_probability expects a 2D distribution")
    return p.at(0, 0)


def classical_rw_distribution(t: int) -> Distribution:
    """Symmetric classical random walk after t unit steps.

    P(x) = C(t, (t+x)/2) / 2^t on sites with x = t (mod 2), zero elsewhere;
    variance is exactly t.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    probs = np.zeros(2 * t + 1)
    probs[::2] = [math.comb(t, j) / 2**t for j in range(t + 1)]  # x = 2j - t
    return Distribution(probs, t)


def summarize_stack(step: int, probs: NDArray[np.float64],
                    coordinates: tuple[NDArray[np.int64], ...]) -> list[WalkSummary]:
    """The WalkSummary of each walk of a stack, from its site probabilities
    ``probs`` (W, sites...) on the sites of ``coordinates``, the lattice
    coordinates of each axis, in one pass: each walk gets the bits it gets
    alone.  ``probs`` are taken as checked: the step guard's norm is their sum."""
    at = [np.nonzero(xs == 0)[0] for xs in coordinates]  # the origin, if a site
    recs = probs[(slice(None), *at)][:, 0].tolist() if all(map(len, at)) else [0.0] * len(probs)
    if len(coordinates) == 1:
        var_x, var_y = _variance(coordinates[0], probs), [None] * len(probs)
    else:  # the marginals: sums along the contiguous last axis, then down the columns
        var_x = _variance(coordinates[0], probs.sum(axis=-1))
        var_y = _variance(coordinates[1], probs.sum(axis=-2))
    return [WalkSummary(step, *values) for values in zip(recs, var_x, var_y)]


def summarize(step: int, state: WalkerState | SublatticeState) -> WalkSummary:
    """WalkSummary for a state: origin probability and variances; the
    stack of one of :func:`summarize_stack`, on the sites the state stores,
    so a light-cone grid is summarized without building the full lattice.
    Its probabilities are checked first: a NaN or a sum off 1 raises."""
    axes = tuple(state.coordinates(a) for a in range(state.dimensionality))
    _check_probs(p := _site_probs(state.amplitudes[None]))
    return summarize_stack(step, p, axes)[0]
