"""Walker state space: dense amplitude storage, whose C-order flattening
is the packed basis, and the light-cone sublattice.

Conventions, frozen here and relied on by the matrix builders and tests:

* Lattice sites run ``x = -L..L`` per axis for halfwidth ``L``.  The
  amplitude array axes are ``(x, coin)`` in 1D and ``(x, y, coin)`` in 2D,
  positions before coin.
* The 2D coin pair ``(c, d)`` is flattened to ``k = 2*c + d``, ordered
  ``00, 01, 10, 11`` (first bit steers x, second steers y).
* Packed indices are the C-order flattening of those axes, so an
  amplitude array's ``ravel()`` is the packed vector:
  ``pack(x, c) = (x + L)*2 + c`` and
  ``pack(x, y, c, d) = ((x + L)*(2L+1) + (y + L))*4 + 2*c + d``.

State dimensions are ``2*(2L+1)`` in 1D and ``4*(2L+1)**2`` in 2D.

A walker started on one site moves every coordinate by +-1 per step, so
after t steps its amplitude lives on the sites x = x0 + t (mod 2) per axis
inside the light cone: a dense (t+1)^d grid with lattice spacing 2,
stored compactly as a :class:`SublatticeState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "NORM_TOL",
    "WalkerState",
    "SublatticeState",
    "state_dimension",
    "localized_state",
    "symmetric_coin",
    "as_coin_state",
]

# Unit-norm tolerance: double precision leaves this much headroom over
# 10..1000 unitary steps.
NORM_TOL = 1e-12


def _integer(value: object, what: str) -> int:
    # bool is an int subclass, and int() would truncate 0.7 to 0 silently.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _dimensionality(value: object) -> int:
    d = _integer(value, "dimensionality")
    if d not in (1, 2):
        raise ValueError(f"dimensionality must be 1 or 2, got {d}")
    return d


def _halfwidth(value: object) -> int:
    L = _integer(value, "halfwidth")
    if L < 1:
        raise ValueError(f"halfwidth must be >= 1, got {L}")
    return L


def _coordinates(site: object, dimensionality: int, what: str) -> tuple[int, ...]:
    """The integer coordinates of a site, not placed on any lattice: an int,
    or a tuple, list or array of ``dimensionality`` ints (either in 1D).  A
    bool, a fraction or a wrong count raises ValueError."""
    coords = site.tolist() if isinstance(site, np.ndarray) else site
    coords = tuple(coords) if isinstance(coords, (tuple, list)) else (coords,)
    if len(coords) != dimensionality:
        raise ValueError(f"{what} must have {dimensionality} coordinates, got {site!r}")
    return tuple(_integer(v, what) for v in coords)


def _site_index(site: object, halfwidth: int, dimensionality: int, what: str) -> tuple[int, ...]:
    """Array index ``(x + L, ...)`` of a site of the lattice [-L, L]^d; a
    site off it, checked in Python ints, raises IndexError."""
    coords = _coordinates(site, dimensionality, what)
    if max(map(abs, coords)) > halfwidth:
        raise IndexError(f"{what} {site} outside [-{halfwidth}, {halfwidth}]^{dimensionality}")
    return tuple(v + halfwidth for v in coords)


def _sites_index(sites: Collection, halfwidth: int, dimensionality: int, what: str) -> NDArray:
    """:func:`_site_index` of each site, shape (P, d); a halfwidth too large
    for int64 indices, or a site listed twice (in 1D as x and as (x,)), raises ValueError."""
    if 2 * halfwidth + 1 > np.iinfo(np.int64).max:
        raise ValueError(f"halfwidth {halfwidth} is too large: lattice indices must fit int64")
    rows = [_site_index(s, halfwidth, dimensionality, what) for s in sites]
    if len(set(rows)) < len(rows):
        raise ValueError(f"{what} repeated: {[s for s, r in zip(sites, rows) if rows.count(r) > 1]}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), dimensionality)


def state_dimension(dimensionality: int, halfwidth: int) -> int:
    """Total Hilbert-space dimension: 2(2L+1) in 1D, 4(2L+1)^2 in 2D."""
    d = _dimensionality(dimensionality)
    return 2 * d * (2 * _halfwidth(halfwidth) + 1) ** d


@dataclass
class WalkerState:
    """Dense complex amplitude table over the (position x coin) basis.

    ``amplitudes`` has shape ``(2L+1, 2)`` in 1D and ``(2L+1, 2L+1, 4)``
    in 2D.  The flattened C-order view of the array is exactly the packed
    vector (see module docstring).  Instances constructed by the library
    are unit-norm.
    """

    dimensionality: int
    halfwidth: int
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        d = self.dimensionality = _dimensionality(self.dimensionality)
        self.halfwidth = _halfwidth(self.halfwidth)
        expected = (2 * self.halfwidth + 1,) * d + (2 * d,)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != expected:
            raise ValueError(f"amplitude table has shape {amps.shape}, expected {expected}")
        self.amplitudes = amps

    def packed(self) -> NDArray[np.complex128]:
        """Amplitudes as a flat vector in packed-index order (a copy)."""
        return self.amplitudes.reshape(-1).copy()

    def expand(self) -> "WalkerState":
        """The dense state itself, as :meth:`SublatticeState.expand` gives one."""
        return self

    def coordinates(self, axis: int) -> NDArray[np.int64]:
        """Lattice coordinates of the array entries along ``axis``: -L..L."""
        return np.arange(-self.halfwidth, self.halfwidth + 1)


@dataclass
class SublatticeState:
    """Amplitudes on a square grid of lattice sites spaced 2 apart.

    ``amplitudes`` has shape ``(m, 2)`` in 1D and ``(m, m, 4)`` in 2D;
    entry ``i`` along axis ``a`` is the lattice site ``first[a] + 2*i``.
    Every other site of the ``(2L+1)^d`` lattice has amplitude 0.  The
    grid must lie inside the lattice.  ``amplitudes`` may be a coin-major
    view that is not C-contiguous: the light-cone kernel stores planes.
    """

    dimensionality: int
    halfwidth: int
    first: tuple[int, ...]
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        d = self.dimensionality = _dimensionality(self.dimensionality)
        L = self.halfwidth = _halfwidth(self.halfwidth)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        m = amps.shape[0] if amps.ndim else 0
        if m < 1 or amps.shape != (m,) * d + (2 * d,):
            raise ValueError(f"sublattice table has shape {amps.shape}, "
                             f"expected {(m,) * d + (2 * d,)}")
        self.first = _coordinates(self.first, d, "first")
        if any(f < -L or f + 2 * (m - 1) > L for f in self.first):
            raise IndexError(f"sublattice from {self.first} with {m} sites per axis "
                             f"leaves [-{L}, {L}]^{d}")
        self.amplitudes = amps

    def coordinates(self, axis: int) -> NDArray[np.int64]:
        """Lattice coordinates of the array entries along ``axis``."""
        return self.first[axis] + 2 * np.arange(self.amplitudes.shape[axis])

    def sites(self) -> tuple[slice, ...]:
        """Index of the grid's sites in a dense ``(2L+1)^d`` lattice array."""
        L = self.halfwidth
        m = self.amplitudes.shape[0]
        return tuple(slice(f + L, f + L + 2 * m - 1, 2) for f in self.first)

    def expand(self) -> WalkerState:
        """The same amplitudes as a dense :class:`WalkerState`."""
        n = 2 * self.halfwidth + 1
        k = self.amplitudes.shape[-1]
        amps = np.zeros((n,) * self.dimensionality + (k,), dtype=np.complex128)
        amps[self.sites()] = self.amplitudes
        return WalkerState(self.dimensionality, self.halfwidth, amps)


def as_coin_state(coin: Sequence[complex], dimensionality: int) -> NDArray[np.complex128]:
    """Validate a coin-state vector: length 2 (1D) or 4 (2D), unit norm."""
    vec = np.asarray(coin, dtype=np.complex128).reshape(-1)
    want = 2 * _dimensionality(dimensionality)
    if vec.shape != (want,):
        raise ValueError(f"coin state must have {want} components for a "
                         f"{dimensionality}D walk, got shape {vec.shape}")
    # Written so that a NaN norm fails the test.
    if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:
        raise ValueError(f"coin state is not unit-norm: |coin| = {np.linalg.norm(vec)}")
    return vec


def symmetric_coin(dimensionality: int) -> NDArray[np.complex128]:
    """The balanced coin state (1, i)/sqrt(2), tensored with itself in 2D.

    Produces left/right (and up/down) symmetric distributions under the
    Hadamard coin.
    """
    s = np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0)
    return s if _dimensionality(dimensionality) == 1 else np.kron(s, s)


def localized_state(
    dimensionality: int,
    halfwidth: int,
    origin: int | tuple[int, int],
    coin: Sequence[complex],
) -> WalkerState:
    """Build a walker wholly localized at ``origin`` with the given coin state.

    Parameters
    ----------
    dimensionality : 1 or 2
    halfwidth : int
        Lattice halfwidth L >= 1; sites span -L..L per axis.
    origin : int or (int, int)
        Starting site, integer coordinates (ValueError otherwise); must
        lie within [-L, L] per axis (IndexError otherwise).
    coin : sequence of complex
        Unit-norm coin vector (2 components in 1D, 4 in 2D).

    Returns
    -------
    WalkerState
        Unit-norm state with all amplitude at ``origin``.
    """
    d, L = _dimensionality(dimensionality), _halfwidth(halfwidth)
    vec = as_coin_state(coin, d)
    amps = np.zeros((2 * L + 1,) * d + vec.shape, dtype=np.complex128)
    amps[_site_index(origin, L, d, "origin")] = vec
    return WalkerState(d, L, amps)
