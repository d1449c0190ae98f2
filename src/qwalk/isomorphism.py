"""Equivalence of two coin-sharing 1D walkers and one 2D walker.

Two 1D walkers with a shared 4x4 coin step simultaneously: walker one
moves by +/-1 in x, walker two by +/-1 in y.  A single 2D walker with the
same coin takes unit steps along one axis per step, the axis and sign
selected by the coin pair.  The two step operators are *identical
matrices* after relabeling positions with the pair map

    (x, y)  ->  (x + y, x - y).

The pair map doubles coordinate ranges and fixes parity on the infinite
lattice, so on finite lattices the relabeling needs a normalization.  On
the periodic lattice of odd size n = 2L+1 the map is a lattice
automorphism once composed with halving (2 is invertible mod n, with
2^{-1} = (n+1)/2), giving the label bijection

    (x, y)  ->  (2^{-1} (x + y) mod n,  2^{-1} (x - y) mod n).

Under this bijection the simultaneous two-walker shift maps exactly onto
unit axis moves: coin (0,0) -> x+1, (0,1) -> y+1, (1,0) -> y-1,
(1,1) -> x-1.  The verification here is numeric and exact.  Each step
operator is one table of per-site blocks phase * coin and one move-target
table: column (s, c) holds block column c of site s, its component c'
on the site that component c' of s moves to.  The single walker's blocks
are the two walkers' carried to the 2D sites, so after relabeling the
two operators hold the same entries and differ only in where they put
them.  The check is the largest modulus among the entries put on
different sites: the dense max |U_two - P^T U_2d P|, without building a
dense operator.  The move tables and the pair map decide where entries
land, the coin and phases which entries are nonzero.  No command builds
a dense operator, yet the dense builders stay public, as the reference of:

* :func:`build_two_walker_matrix`, :func:`transformed_step_matrix` and
  :meth:`BasisPermutation.conjugate` give the dense max |U_two - P^T U_2d
  P| that the tests hold the column check to, and the benchmark's tracer
  wraps each by name.
* :meth:`BasisPermutation.matrix` is the explicit P that the tests hold
  :meth:`~BasisPermutation.conjugate` to.

The scatter and the move tables are checked on their own against the
independent brute-force walk of the test oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .analysis import Distribution
from .coins import (
    IDENTITY2,
    IDENTITY4,
    PAULI_Z,
    CoinField,
    as_coin_field,  # unused here; perfbench/spans.py WRAPPED patches it
    fractional_swap,
    random_su2,
    su4_compose,
    tensor,
)
from .evolution import (
    _DIAGONAL_MOVES,
    DefectMap,
    WalkSpec,
    _guarded,
    _site_blocks,
    _Stack,
    _step_matrix,
    _Stepper,
    _targets,
    build_step_matrix,
)
from .statespace import WalkerState, _halfwidth, _site_index

__all__ = [
    "coordinate_forward",
    "BasisPermutation",
    "build_two_walker_matrix",
    "transformed_step_matrix",
    "transform_defect",
    "verify_isomorphism",
    "check_translation_equivalence",
    "check_decomposition_claims",
    "random_shared_coin",
    "axis_walk_state",
    "map_two_walker_distribution",
]

PairMap = Callable[[int, int], tuple[int, int]]


def coordinate_forward(x: int, y: int) -> tuple[int, int]:
    """The pair map (x, y) -> (x+y, x-y).

    Image coordinates always share parity (their sum 2x is even); on
    [-L, L]^2 the image lies in the even-parity sublattice of [-2L, 2L]^2.
    """
    return x + y, x - y


@dataclass(frozen=True)
class BasisPermutation:
    """Relabeling of the two-walker packed basis onto the 2D packed basis.

    ``indices[j]`` is the 2D packed index of two-walker packed index j;
    coin labels pass through unchanged.  Built from a pair map normalized
    to the odd periodic lattice (see module docstring), so it is a true
    permutation: exactly one 1 per row and column of :meth:`matrix`.
    :meth:`build` returns ``indices`` read-only, so that one instance can
    be shared.
    """

    halfwidth: int
    indices: NDArray[np.int64]

    @classmethod
    def build(cls, halfwidth: int, pair_map: PairMap | None = None) -> "BasisPermutation":
        """Permutation for the given halfwidth.

        ``pair_map`` defaults to :func:`coordinate_forward`; its output is
        normalized by the mod-n halving, so passing a deliberately wrong
        map yields a valid permutation that fails the equivalence checks.
        """
        L = _halfwidth(halfwidth)
        n = 2 * L + 1
        inv2 = (n + 1) // 2
        fwd = pair_map or coordinate_forward
        images = [fwd(x, y) for x in range(-L, L + 1) for y in range(-L, L + 1)]
        # Array indices of the halved images, wrapped onto the lattice.
        X, Y = (inv2 * np.array(images, dtype=np.int64).T + L) % n
        idx = ((X * n + Y)[:, None] * 4 + np.arange(4)).ravel()
        if np.bincount(idx).max() > 1:
            raise ValueError("pair map does not induce a bijection on the lattice")
        idx.flags.writeable = False
        return cls(L, idx)

    def matrix(self) -> NDArray[np.int64]:
        """Explicit permutation matrix (integer 0/1)."""
        dim = self.indices.size
        P = np.zeros((dim, dim), dtype=np.int64)
        P[self.indices, np.arange(dim)] = 1
        return P

    def conjugate(self, matrix_2d: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """P^dagger M P: express a 2D-basis operator in the two-walker basis."""
        return matrix_2d[np.ix_(self.indices, self.indices)]

    def site_image(self, x: int, y: int) -> tuple[int, int]:
        """2D site carrying the two-walker site (x, y)."""
        L = self.halfwidth
        n = 2 * L + 1
        i, j = _site_index((x, y), L, 2, "site")
        k = self.indices[(i * n + j) * 4] // 4
        return k // n - L, k % n - L

    @functools.cached_property
    def _meet(self) -> NDArray[np.bool_]:
        """``[c', s]``: whether entry c' of column (s, c) sits on one site for both
        walkers (see :func:`_deviation`); coin-independent, so built once."""
        tau, shape = self.indices[::4] // 4, (2 * self.halfwidth + 1,) * 2
        site_2d = np.argsort(tau)[_targets(shape, _AXIS_MOVES)[:, tau]]
        return _targets(shape, _DIAGONAL_MOVES[2]) == site_2d


@functools.lru_cache(maxsize=4)
def _permutation(halfwidth: int) -> BasisPermutation:
    """The pair map's permutation, built once per halfwidth (an isocheck
    uses one halfwidth for every check)."""
    return BasisPermutation.build(halfwidth)


def build_two_walker_matrix(
    halfwidth: int,
    coin4: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
) -> NDArray[np.complex128]:
    """One joint step of two 1D walkers sharing a 4x4 coin.

    The shared coin acts on the (c, d) pair, then each walker shifts by
    its own coin bit, periodic on [-L, L].  This is the same operator as
    the single-step 2D walk matrix, which is exactly the point of the
    equivalence.
    """
    return build_step_matrix(2, halfwidth, coin4, defect)


# Post-coin index k = 2c + d -> unit axis move of the single 2D walker.
_AXIS_MOVES = ((1, 0), (0, 1), (0, -1), (-1, 0))


def transformed_step_matrix(
    halfwidth: int,
    coin4: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
) -> NDArray[np.complex128]:
    """One step of the single 2D walker with unit axis moves, periodic.

    ``defect`` here is a phase table over the *2D* coordinates (use
    :func:`transform_defect` to carry a two-walker defect across).  A
    site-dependent ``CoinField`` is likewise keyed by 2D coordinates.
    """
    return _step_matrix(_Stepper(2, halfwidth, coin4, defect), _AXIS_MOVES)


def transform_defect(defect: DefectMap | None, halfwidth: int) -> DefectMap:
    """Carry a two-walker defect to the 2D side of the equivalence.

    Positions move with the basis permutation; a line defect on y = 0
    becomes a phase table along the image of that line (the diagonal,
    up to the lattice normalization).  The table is in radians, so a 2D
    operator built from it matches the carried blocks only to rounding.
    """
    if defect is None or defect.kind == "none":
        return DefectMap.none()
    L = halfwidth
    grid = _carried(defect.phase_grid(L, 2), L)
    sites = np.argwhere(grid != 1.0).tolist()
    return DefectMap.custom({(x - L, y - L): float(np.angle(grid[x, y])) for x, y in sites})


def _carried(table: NDArray, halfwidth: int) -> NDArray:
    """A per-site array of the two walkers, shape (2L+1, 2L+1, ...), with
    each entry moved to the 2D site that carries it."""
    site = _permutation(halfwidth).indices[::4] // 4
    return table.reshape(site.size, -1)[np.argsort(site)].reshape(table.shape)


def _deviation(
    halfwidth: int,
    coin4: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None,
    pair_map: PairMap | None = None,
) -> float:
    """max |U_two - P^T U_2d P|, with U_2d's blocks the two walkers' carried
    across P; no dense operator is built.

    Column (s, c) of either operator holds block column c of site s, one
    entry per output component c'.  The two walkers put it at site
    ``_targets[c', s]``; the relabeled 2D walker, with tau the site map of
    ``pair_map``, at tau^-1(``_targets[c', tau(s)]``).  Where the sites agree
    the entries cancel, elsewhere each meets a zero: the result is the
    largest modulus among the entries put on different sites
    (:attr:`BasisPermutation._meet`, built once per instance).  A NaN or
    infinite block gives NaN.
    """
    stepper = _Stepper(2, halfwidth, coin4, defect)
    blocks, L = _site_blocks(stepper), stepper.halfwidth
    perm = _permutation(L) if pair_map is None else BasisPermutation.build(L, pair_map)
    # [s, c', c] -> [c', s, c], beside the [c', s] sites; 0 * NaN keeps a NaN.
    moduli = np.abs(blocks.reshape(-1, 4, 4)).transpose(1, 0, 2)
    return float((moduli * ~perm._meet[..., None]).max())


def verify_isomorphism(
    halfwidth: int,
    coin4: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
) -> float:
    """Max elementwise deviation between the two-walker step matrix and the
    permutation-conjugated 2D step matrix.

    Exactly 0.0 for any shared coin, ``CoinField`` and finite defect: under
    the pair map every entry lands on the same site for both operators.
    The coin is still checked unitary, and it decides which entries are
    nonzero, the measure of a misplaced one; a NaN phase gives NaN.
    """
    return _deviation(halfwidth, coin4, defect)


def check_translation_equivalence(
    halfwidth: int, pair_map: PairMap | None = None
) -> float:
    """Compare the two shift operators (identity coin) as permutation
    matrices after relabeling; 0.0 means exact equality."""
    return _deviation(halfwidth, IDENTITY4, None, pair_map)


def random_shared_coin(rng: np.random.Generator) -> NDArray[np.complex128]:
    """Random shared coin: a tensor product, a fractional swap, or a
    product of both."""
    kind = rng.integers(3)
    if kind == 1:
        return fractional_swap(float(rng.uniform(0.0, 1.0)))
    product = tensor(*random_su2(rng, (2,)))
    return product if kind == 0 else product @ fractional_swap(float(rng.uniform(0.0, 1.0)))


def _best_global_phase_deviation(
    a: NDArray[np.complex128], b: NDArray[np.complex128]
) -> float:
    """min over unit phases w of max |a - w b|."""
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-30:
        return float(np.abs(a).max())
    w = overlap / abs(overlap)
    return float(np.abs(a - w * b).max())


def check_decomposition_claims(
    trials: int = 100,
    seed: int = 7,
    taus: NDArray[np.float64] | None = None,
    tol: float = 1e-12,
) -> dict:
    """Numerically probe two parameter points of the three-swap composition.

    Separable point: with all swap exponents zero the composition equals
    (u1 v1) (x) (u2 v2); checked over random unitary factors.

    Shared-coin point: ``su4_compose(1,1,1,1, tau, -1, -1)`` is compared
    against ``fractional_swap(tau)`` exactly, up to a global phase, and up
    to a fixed -(Z (x) Z) factor.  (Algebraically the bracket evaluates to
    -(Z (x) Z) fractional_swap(tau); the check reports, it does not
    assume.)  The report is informational: findings, not pass/fail.

    The separable trials are one stack, bit for bit a per-trial loop's.
    ``trials`` < 1 and empty or non-finite ``taus`` raise ValueError.
    """
    if trials < 1 or (taus is not None and not (np.size(taus) and np.isfinite(taus).all())):
        raise ValueError(f"need trials >= 1 and non-empty finite taus, got {trials}, {taus!r}")
    rng = np.random.default_rng(seed)
    u1, u2, v1, v2 = np.moveaxis(random_su2(rng, (trials, 4)), 1, 0)
    composed = su4_compose(u1, u2, v1, v2, 0.0, 0.0, 0.0)
    sep_max = float(np.abs(composed - tensor(u1 @ v1, u2 @ v2)).max())

    if taus is None:
        taus = np.concatenate([np.linspace(0.0, 1.0, 11), rng.uniform(0, 1, 5)])
    zz, ones = -tensor(PAULI_Z, PAULI_Z), (IDENTITY2,) * 4
    composed = np.array([su4_compose(*ones, float(t), -1.0, -1.0) for t in taus])
    target = np.array([fractional_swap(float(t)) for t in taus])
    dev_exact = float(np.abs(composed - target).max())  # np.max, unlike max(), keeps a NaN
    dev_phase = float(np.max([_best_global_phase_deviation(*ct) for ct in zip(composed, target)]))
    dev_zz = float(np.abs(composed - zz @ target).max())

    if dev_exact <= tol:
        finding = "matches fractional_swap(tau) exactly"
    elif dev_phase <= tol:
        finding = "matches fractional_swap(tau) up to a global phase"
    elif dev_zz <= tol:
        finding = "matches -(Z x Z) @ fractional_swap(tau) exactly"
    else:
        finding = "matches none of the three candidates"

    bracket_at_zero = su4_compose(*ones, 0.0, -1.0, -1.0)
    dev_identity = float(np.abs(bracket_at_zero - IDENTITY4).max())

    return {
        "separable": {
            "trials": trials,
            "max_deviation": sep_max,
            "confirmed": sep_max <= tol,
        },
        "entangled": {
            "taus": [float(t) for t in taus],
            "max_deviation_exact": dev_exact,
            "max_deviation_global_phase": dev_phase,
            "max_deviation_zz_factor": dev_zz,
            "finding": finding,
        },
        "tau_zero_bracket": {
            "deviation_from_identity": dev_identity,
            "equals_identity": dev_identity <= tol,
        },
    }


def axis_walk_state(
    steps: int,
    coin4: NDArray[np.complex128],
    initial_coin,
    halfwidth: int | None = None,
) -> WalkerState:
    """State of the unit-axis-move 2D walk after ``steps`` steps from the
    origin, open boundary.

    This is the transformed side of the equivalence at state-vector level;
    the plain 2D walk in :mod:`qwalk.evolution` moves diagonally instead.
    ``steps``, ``halfwidth`` and ``initial_coin`` are checked by
    :class:`WalkSpec`, and the norm of every step as in ``evolve``.  A
    unit move goes one site a step, so the open spec's light cone keeps
    the full-lattice step from ever wrapping.
    """
    spec = WalkSpec(2, steps, coin4, initial_coin=initial_coin, halfwidth=halfwidth)
    stack = _Stack([spec], _AXIS_MOVES)
    for _ in _guarded([stack], spec.steps):
        pass
    return stack.grids[0]


def map_two_walker_distribution(dist: Distribution) -> Distribution:
    """Push a two-walker position distribution through the pair map.

    Output site (X, Y) = ((x+y)/2, (x-y)/2) on the same halfwidth; the
    simultaneous shifts keep x and y of equal parity for origin-started
    walks, so on the support the halving is exact: the site permutation.
    """
    if dist.dimensionality != 2:
        raise ValueError("expected a 2D joint distribution")
    L = dist.halfwidth
    x = dist.positions()
    odd = np.argwhere((np.add.outer(x, x) % 2 == 1) & (dist.probs != 0.0)) - L
    if odd.size:
        raise ValueError(
            f"probability on odd-parity site {tuple(odd[0].tolist())}; "
            "not an origin-started two-walker distribution"
        )
    return Distribution(_carried(dist.probs, L), L)
