"""Multi-step walk evolution with position-dependent phase defects, plus
dense step-matrix builders for small lattices.

Step structure, fixed across the package:

1. coin unitary on the coin subspace at each site,
2. multiplication by the defect phase of the *source* site,
3. coin-conditioned shift.

Steps 1 and 2 commute (the phase is diagonal in position, the coin acts
only on the coin subspace); applying the phase before or after the shift
does not, and the source-site choice is part of the contract.

Shift convention: coin bit 0 moves its axis by +1, coin bit 1 by -1; the
first coin bit steers x, the second steers y.  ``_DIAGONAL_MOVES`` writes
this down once, as the displacement of each coin index, and both shifts
read it: :meth:`_Stack.advance`, which steps every walk, on the full
lattice or the light cone, and the dense step matrix.  The unit-axis
walk of :mod:`qwalk.isomorphism` runs the same code with its own table.

Boundaries are a property of the walk: :class:`WalkSpec` checks it, and
the walk's :class:`_Stack` picks the lattice it steps by it.  An
``"open"`` walk needs halfwidth >= max|start| + steps, so its light cone
never leaves the lattice; :class:`WalkSpec` rejects any other.
``"periodic"`` identifies site L+1 with -L per axis and exists mainly for
matrix-level checks at small halfwidth.  The operator itself knows no
boundary: the full-lattice shift and the dense step matrix wrap
periodically, which an open walk never reaches.

Multi-step evolution of an open-boundary walk steps only the sites that
can hold amplitude.  Every step moves each coordinate by +-1, so after t
steps from (x0, y0) amplitude lives only on x = x0 + t, y = y0 + t
(mod 2) inside the cone: a dense (t+1)^d grid of sites spaced 2 apart (a
:class:`SublatticeState`, a quarter of the (2t+1)^2 cone window in 2D).
Walks step as stacks of such grids (:class:`_Stack`, driven by
:func:`_guarded`; :func:`evolve` steps a stack of one) in a fixed number
of numpy calls, whatever the walk count: one GEMM of every walk by its own
coin; one ``einsum`` of every walk's listed coin sites and one multiply of
its site-table phases, gathered once as (walk, site) rows, and one per defect
line (x = 0, y = 0) of the walks that carry it; and a shift that writes each
component as one block of its contiguous (t+2)^d plane, at offset 0 or 1,
into one of two buffers of the final stack's size that take turns (one is
reused once no report, grid or view refers to it, else a fresh array).
The site probabilities then fill the coin mix's scratch, free after the
shift, in one abs, one square and k - 1 plane adds: each walk's norm is
the pairwise sum of its row, which no BLAS thread count moves, and the
summaries read the same rows (``analysis.summarize_stack``).  Cost and
memory per step are O(W (t+1)^d) for W walks, independent of the
halfwidth; a report's grid and dense ``state`` are built only when asked
for.  Periodic walks, and walks given a move table, step the full
lattice, each by its own coin and phase; the commands step such a walk alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Iterator, Literal, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .analysis import _site_probs
from .coins import CoinField, as_coin_field
from .statespace import (SublatticeState, WalkerState, _coordinates, _dimensionality, _halfwidth,
                         _integer, _sites_index, as_coin_state, localized_state, state_dimension,
                         symmetric_coin)

__all__ = ["Boundary", "DefectMap", "WalkSpec", "StepReport", "evolve", "run_walk",
           "build_step_matrix", "MAX_MATRIX_DIM", "STEP_NORM_TOL"]

Boundary = Literal["open", "periodic"]

# A step whose norm drifts past this indicates a broken operator, not noise.
STEP_NORM_TOL = 1e-10

# Dense step matrices are capped at this total dimension.
MAX_MATRIX_DIM = 16384
# The most walks a stack holds, three grids of final size each (190 kB at 2000 steps in 1D).
MAX_STACK = 32

# Coin index -> displacement per axis, by dimensionality; 2D coin indices
# are k = 2c + d.
_Moves = Sequence[tuple[int, ...]]
_DIAGONAL_MOVES: dict[int, _Moves] = {1: ((1,), (-1,)), 2: ((1, 1), (1, -1), (-1, 1), (-1, -1))}


@dataclass(frozen=True)
class DefectMap:
    """Position -> unit-modulus phase factor; encodes the lattice disorder.

    Variants
    --------
    none
        Factor 1 everywhere.
    line_y(phi)
        Factor e^{i phi} on the line y = 0 (2D only).
    cross_xy(phi)
        Factor e^{i phi} on each of the lines x = 0 and y = 0; the origin
        sits on both and picks up e^{2 i phi}.  (2D only.)
    point(phi)
        Factor e^{i phi} at the origin site only.
    custom(table)
        Explicit phase table in radians: ``{x: phase}`` for 1D,
        ``{(x, y): phase}`` for 2D; unlisted sites get phase 0.
    """

    kind: Literal["none", "line_y", "cross_xy", "point", "custom"]
    phi: float = 0.0
    table: Mapping[int, float] | Mapping[tuple[int, int], float] | None = None

    @classmethod
    def none(cls) -> "DefectMap":
        return cls("none")

    @classmethod
    def line_y(cls, phi: float) -> "DefectMap":
        return cls("line_y", float(phi))

    @classmethod
    def cross_xy(cls, phi: float) -> "DefectMap":
        return cls("cross_xy", float(phi))

    @classmethod
    def point(cls, phi: float) -> "DefectMap":
        return cls("point", float(phi))

    @classmethod
    def custom(cls, table: Mapping[int, float] | Mapping[tuple[int, int], float]) -> "DefectMap":
        return cls("custom", 0.0, dict(table))

    def validate(self, dimensionality: int) -> None:
        if self.kind in ("line_y", "cross_xy") and dimensionality != 2:
            raise ValueError(f"defect {self.kind!r} is only defined for 2D walks")
        for key in self.table or {}:
            _coordinates(key, dimensionality, "custom defect site")

    def phase_grid(self, halfwidth: int, dimensionality: int) -> NDArray[np.complex128] | None:
        """Dense per-site phase factors, or None when trivially 1."""
        return _phase_grid(_walk_phase(self, halfwidth, dimensionality), halfwidth, dimensionality)


def _gathered(parts: Sequence[tuple]) -> tuple:
    """Each walk's site data, lattice array indices (P, d) and values (P, ...) with
    no site listed twice, as one table: a walk column, the indices, the values."""
    walk = np.repeat(np.arange(len(parts)), [len(values) for _, values in parts])
    return (walk, *map(np.concatenate, zip(*parts)))


def _on_sites(table: tuple, sites: tuple[slice, ...], n: int) -> tuple[tuple, NDArray]:
    """The rows of a :func:`_gathered` table on the array of ``sites``: their index
    (walk, positions...) into a stack (W, sites..., k) of such arrays, and values."""
    walk, index, values = table
    keep, pos = True, []
    for i, s in zip(index.T, sites):
        start, stop, stride = s.indices(n)
        q, r = np.divmod(i - start, stride)
        keep = keep & (r == 0) & (i >= start) & (i < stop)
        pos.append(q)
    keep = np.flatnonzero(keep)
    return (walk[keep], *(q[keep] for q in pos)), values[keep]


def _walk_phase(defect: DefectMap | None, halfwidth: int, dimensionality: int) -> tuple:
    """A walk's defect as phase data: (axis, factor) of each line where coordinate
    ``axis`` is 0 (line_y: y = 0; cross_xy: x = 0, then y = 0; a 1D point: x = 0),
    then a site table (custom, a 2D point): lattice array indices (P, d), factors."""
    L, table, lines = _halfwidth(halfwidth), {}, ()
    if defect is not None and defect.kind != "none":
        defect.validate(dimensionality)
        if defect.kind == "custom" or defect.kind == "point" and dimensionality == 2:
            table = (defect.table or {}) if defect.kind == "custom" else {(0, 0): defect.phi}
        else:
            axes = {"line_y": (1,), "cross_xy": (0, 1), "point": (0,)}[defect.kind]
            lines = tuple((axis, np.exp(1j * defect.phi)) for axis in axes)
    index = _sites_index(table, L, dimensionality, "custom defect site")
    return lines, index, np.array([np.exp(1j * t) for t in table.values()], np.complex128)


def _phases(phases: Sequence[tuple], dimensionality: int) -> tuple[list, tuple]:
    """A stack's phases, gathered once: per axis with a line, the walks' factors
    as a column and which walks carry it (True if all; a walk without it is never
    multiplied, as 1 * z can flip a zero's sign); then the :func:`_gathered` site tables."""
    lines, shape = [], (-1,) + (1,) * dimensionality
    for axis in range(dimensionality):
        carried = {i: f for i, phase in enumerate(phases) for a, f in phase[0] if a == axis}
        if carried:
            rows = [i in carried for i in range(len(phases))]
            column = np.reshape([carried.get(i, 1) for i in range(len(phases))], shape)
            lines.append((axis, column, all(rows) or np.reshape(rows, shape)))
    return lines, _gathered([phase[1:] for phase in phases])


def _phase(m: NDArray[np.complex128], sites: tuple[slice, ...], halfwidth: int,
           lines: list, table: tuple) -> None:
    """Multiply a stack ``m`` (W, sites..., k) on ``sites`` of the lattice array in place by its
    :func:`_phases`, one multiply each: the site table's rows on ``sites``, then a view per line
    through coordinate 0 (x, then y: the origin takes f * f).  Everything else is bitwise untouched."""
    n = 2 * halfwidth + 1
    if len(table[0]):
        idx, factors = _on_sites(table, sites, n)
        m[idx] *= factors[:, None]
    for axis, column, where in lines:
        start, _, stride = sites[axis].indices(n)
        q, r = divmod(halfwidth - start, stride)  # the array index of coordinate 0
        if r == 0 and 0 <= q < m.shape[axis + 1]:
            line = m[(slice(None),) * (axis + 1) + (q,)]
            np.multiply(line, column, out=line, where=where)


def _phase_grid(phase: tuple, halfwidth: int, dimensionality: int) -> NDArray[np.complex128] | None:
    """``phase`` at every site of the dense lattice array (ones, a stack of one), or None."""
    if not (phase[0] or len(phase[2])):
        return None
    grid = np.ones((1,) + (2 * halfwidth + 1,) * dimensionality + (1,), dtype=np.complex128)
    _phase(grid, (slice(None),) * dimensionality, halfwidth, *_phases([phase], dimensionality))
    return grid[0, ..., 0]


class _Stepper:
    """One walk operator, checked once: coin field, defect phase, lattice.

    :meth:`_Stack.advance` mixes by the field's default coin, then its
    listed sites by their own, then multiplies by ``phase``; the dense step
    matrices take the same coins and phase.  Building one checks the
    lattice, coins and every listed site.
    """

    def __init__(self, dimensionality: int, halfwidth: int,
                 coin: NDArray[np.complex128] | CoinField, defect: DefectMap | None):
        d = self.dim = _dimensionality(dimensionality)
        L = self.halfwidth = _halfwidth(halfwidth)
        self.field = as_coin_field(coin, d)
        coins = np.array(list(self.field.table.values()), np.complex128).reshape(-1, 2 * d, 2 * d)
        self.coin_sites = _sites_index(self.field.table, L, d, "coin site"), coins
        self.phase = _walk_phase(defect, L, d)


class _Stack:
    """The walks ``specs``, of one boundary, steps, halfwidth and start, stepped as one, each
    by its own coin and phase (all their coin sites, and site phases, one :func:`_gathered`
    table each): amplitudes stacked (W, sites..., k) on the full lattice if the walks are
    periodic or ``moves`` is given, else on the light-cone grid from ``first``.  ``probs`` (W,
    sites...) weigh the grids as they stand, in ``scratch`` if not None."""

    def __init__(self, specs: Sequence[WalkSpec], moves: _Moves | None = None):
        self.specs = specs
        spec, d = specs[0], specs[0].dimensionality
        steppers = [s._stepper for s in specs]
        # Every site of each walk is mixed by its default coin, one GEMM a step for the stack.
        self.coins = np.stack([s.field.default.T for s in steppers])
        self.sited = _gathered([s.coin_sites for s in steppers])
        self.lines, self.table = _phases([s.phase for s in steppers], d)
        self.moves = moves or (_DIAGONAL_MOVES[d] if spec.boundary == "periodic" else None)
        if self.moves:  # the full lattice
            self.first, self.scratch = None, None
            self.amplitudes = np.stack([s.initial_state().amplitudes for s in specs])
        else:  # the scratch holds the coin mix's 2d t^d complex a walk, then 2d (t+1)^d floats
            t, w, each = spec.steps, len(specs), slice(None)
            self.buffers = [np.empty(w * 2 * d * (t + 1) ** d, np.complex128) for _ in "01"]
            self.scratch = np.empty(w * d * max(2 * max(t, 1) ** d, (t + 1) ** d), np.complex128)
            self.unheld = sys.getrefcount(self.buffers[0])
            # Per coin component: its plane in the (W, k, sites...) stack one site longer per
            # axis, at offset (1 + move) // 2 along each, and the rows it leaves empty.
            self.puts = [((each, c, *(slice(o, None if o else -1) for o in offsets)),
                          [(each, c, *[each] * axis, o - 1) for axis, o in enumerate(offsets)])
                         for c, offsets in enumerate((np.add(_DIAGONAL_MOVES[d], 1) // 2).tolist())]
            self.order = (0, *range(2, d + 2), 1)  # (W, k, sites...) as (W, sites..., k)
            self.first = spec.initial_grid().first
            self.amplitudes = np.stack([s.initial_grid().amplitudes for s in specs])
        self.probs = _site_probs(self.amplitudes, self.scratch)  # what a sweep of 0 steps reads

    def advance(self) -> None:
        """One step of every walk: its coins, then its source-site phase,
        then the shift.  On the full lattice component c rolls by
        ``moves[c]``.  On the light cone grids of n sites per axis give n +
        1, each walk's coin planes written to a stack buffer that CPython's
        reference count (numpy's signal for eliding temporaries) says
        nothing else refers to, else to a fresh array.  A move of +1 takes
        site ``first + 2i`` to ``(first - 1) + 2(i + 1)``, so along each axis
        a component lands in its plane at offset ``(1 + move) // 2``: 1 for
        a +1 move, 0 for -1; the one row it leaves empty is zeroed, as a
        reused buffer holds old amplitudes."""
        a, L = self.amplitudes, self.specs[0].halfwidth
        d, (w, n), k = a.ndim - 2, a.shape[:2], a.shape[-1]
        if self.moves:
            sites, flat = (slice(None),) * d, None
        else:
            sites = tuple(slice(f + L, f + L + 2 * n - 1, 2) for f in self.first)  # of every walk
            flat = self.scratch[: a.size].reshape(w, -1, k)
        m = np.matmul(a.reshape(w, -1, k), self.coins, out=flat).reshape(a.shape)
        if len(self.sited[0]):  # each walk's own coin sites, from the amplitudes before the mix
            idx, coins = _on_sites(self.sited, sites, 2 * L + 1)
            m[idx] = np.einsum("pij,pj->pi", coins, a[idx])
        _phase(m, sites, L, self.lines, self.table)
        if self.moves:
            self.amplitudes = np.stack([np.roll(m[..., c], move, axis=tuple(range(1, d + 1)))
                                        for c, move in enumerate(self.moves)], axis=-1)
            return
        free = [i for i in (0, 1) if sys.getrefcount(self.buffers[i]) == self.unheld]
        size = w * k * (n + 1) ** d
        buf = self.buffers[free[0]][:size] if free else np.empty(size, complex)
        out = buf.reshape(w, k, *(n + 1,) * d)
        for c, (put, empty) in enumerate(self.puts):
            out[put] = m[..., c]
            for row in empty:
                out[row] = 0
        self.first = tuple(f - 1 for f in self.first)
        self.amplitudes = out.transpose(self.order)

    @property
    def coordinates(self) -> tuple[NDArray[np.int64], ...]:
        """The lattice coordinates of the grids' sites by axis: the lattice's if ``first`` is None."""
        a, L = self.amplitudes, self.specs[0].halfwidth
        if self.first is None:
            return (np.arange(-L, L + 1),) * (a.ndim - 2)
        return tuple(np.arange(f, f + 2 * a.shape[1] - 1, 2) for f in self.first)

    @property
    def grids(self) -> list[WalkerState | SublatticeState]:
        return [_grid(a, self.specs[0].halfwidth, self.first) for a in self.amplitudes]


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """Complete walk configuration; an accepted spec runs to its last step.

    ``halfwidth`` defaults to ``max(steps, 1)``.  ``boundary`` is
    ``"open"`` or ``"periodic"``; the spec checks it.  An
    open-boundary walk needs ``max|start| + steps <= halfwidth``, so its
    light cone stays on the lattice; the coins and every coin and defect
    site are checked by building the walk's stepper, which :func:`evolve`
    runs.  ``initial_coin`` defaults to the symmetric coin state, kept as
    the checked vector, and ``initial_position`` to the origin.  The spec
    is frozen and compares and hashes by identity; ``dataclasses.replace``
    checks the new spec, keeping ``halfwidth``.
    """

    dimensionality: int
    steps: int
    coin: NDArray[np.complex128] | CoinField
    defect: DefectMap = field(default_factory=DefectMap.none)
    initial_position: int | tuple[int, int] | None = None
    initial_coin: Sequence[complex] | None = None
    boundary: Boundary = "open"
    halfwidth: int | None = None
    _stepper: _Stepper = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = _dimensionality(self.dimensionality)
        steps = _integer(self.steps, "steps")
        if steps < 0:
            raise ValueError(f"steps must be a nonnegative integer, got {steps}")
        L = _halfwidth(max(steps, 1) if self.halfwidth is None else self.halfwidth)
        pos = (0,) * d if self.initial_position is None else self.initial_position
        start = _coordinates(pos, d, "initial_position")
        reach = max(map(abs, start))  # a Python int: int64 would overflow
        if reach > L:
            raise ValueError(f"initial_position {pos!r} outside [-{L}, {L}]^{d}")
        if self.boundary == "open" and reach + steps > L:
            raise ValueError(f"open boundary needs halfwidth >= max|start| + steps = "
                             f"{reach + steps}, got {L}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        coin = symmetric_coin(d) if self.initial_coin is None else self.initial_coin
        put = partial(object.__setattr__, self)  # frozen: set once, when checked
        put("dimensionality", d)
        put("steps", steps)
        put("halfwidth", L)
        put("initial_position", start[0] if d == 1 else start)
        put("_stepper", _Stepper(d, L, self.coin, self.defect))
        put("initial_coin", as_coin_state(coin, d).copy())  # the caller's array may change

    def __reduce__(self):  # pickle and copy rebuild the stepper, checking again
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def initial_state(self) -> WalkerState:
        d, L = self.dimensionality, self.halfwidth
        return localized_state(d, L, self.initial_position, self.initial_coin)  # type: ignore[arg-type]

    def initial_grid(self) -> WalkerState | SublatticeState:
        """The state the kernel steps from: the start site as a one-site
        light-cone grid on the open boundary, the dense state if periodic."""
        if self.boundary == "periodic":
            return self.initial_state()
        d = self.dimensionality
        coin = np.reshape(self.initial_coin, (1,) * d + (2 * d,))
        return SublatticeState(d, self.halfwidth, self.initial_position, coin)  # type: ignore[arg-type]


@dataclass
class StepReport:
    """Post-step snapshot: 1-based step index, |1 - sum|a|^2|, the sum
    itself, ``norm_sq``, the pairwise sum of the walk's site probabilities,
    and the walk's ``amplitudes`` (sites..., k) as the kernel keeps them, on
    the grid from ``first`` of the lattice of ``halfwidth``.

    ``grid`` holds those amplitudes: a :class:`SublatticeState` on the open
    boundary (from ``first``), a dense :class:`WalkerState` on the periodic
    one (``first`` None); ``grid.coordinates(axis)`` are its sites' lattice
    coordinates.  ``state`` is always the dense :class:`WalkerState` of the
    spec's halfwidth.  Both are built on first access and cached."""

    step: int
    norm_residual: float
    norm_sq: float
    amplitudes: NDArray[np.complex128] = field(repr=False, compare=False)
    halfwidth: int
    first: tuple[int, ...] | None

    @cached_property
    def grid(self) -> WalkerState | SublatticeState:
        return _grid(self.amplitudes, self.halfwidth, self.first)

    @cached_property
    def state(self) -> WalkerState:
        return self.grid.expand()


def _grid(a: NDArray, L: int, first: tuple[int, ...] | None) -> WalkerState | SublatticeState:
    """One walk's amplitudes as its grid from ``first``, or (None) as the dense state."""
    return SublatticeState(a.ndim - 1, L, first, a) if first else WalkerState(a.ndim - 1, L, a)


def evolve(spec: WalkSpec) -> Iterator[StepReport]:
    """Run the walk, yielding one report per step (lazily).

    A report's arrays are never overwritten while anything refers to them
    (the report, its grid or a view), so holding on to reports is safe;
    materialize with ``list(evolve(spec))`` for small runs.  Raises
    RuntimeError if the per-step norm residual ever exceeds 1e-10 (or is
    NaN), which would indicate a broken step operator.
    """
    stack = _Stack([spec])  # a stack of one, stepped as the commands step theirs
    for i, (norms,) in enumerate(_guarded([stack], spec.steps), start=1):
        (n,) = norms.tolist()
        yield StepReport(i, abs(1.0 - n), n, stack.amplitudes[0], spec.halfwidth, stack.first)


def _stacks(walks: Sequence[WalkSpec]) -> Iterator[_Stack]:
    """``walks`` in :class:`_Stack` form, each built when reached, up to
    ``MAX_STACK`` walks a stack: open 1D walks that share steps, halfwidth
    and start (whatever their coins, start coins and defects); every other
    walk alone."""
    groups: dict = {}
    for i, w in enumerate(walks):
        shared = (w.steps, w.halfwidth, w.initial_position)
        stackable = w.dimensionality == 1 and w.boundary == "open"
        groups.setdefault(shared if stackable else i, []).append(w)
    return (_Stack(g[j: j + MAX_STACK]) for g in groups.values()
            for j in range(0, len(g), MAX_STACK))


def _guarded(stacks: list[_Stack], steps: int) -> Iterator[list[NDArray[np.float64]]]:
    """Step ``stacks`` ``steps`` times; after each, set each stack's ``probs`` and yield
    its norms, each walk's pairwise row sum of them, checked by :func:`_residual`."""
    for i in range(1, steps + 1):
        norms = []
        for stack in stacks:
            stack.advance()
            stack.probs = _site_probs(stack.amplitudes, stack.scratch)
            norms.append(np.add.reduce(stack.probs.reshape(len(stack.probs), -1), axis=1))
            _residual(norms[-1], i)
        yield norms


def _residual(norms: NDArray[np.float64] | float, steps: NDArray[np.int64] | int) -> NDArray:
    """|1 - norms|, each a walk's norm or a product walk's (|1 - nx*ny|) after
    its step of ``steps``.  The one norm check: the first above ``STEP_NORM_TOL``
    (or NaN) raises; :func:`_guarded` and the CLI's product walks call it."""
    r = np.abs(1.0 - np.asarray(norms))
    if not r.max(initial=0.0) <= STEP_NORM_TOL:  # written so that NaN fails too
        i = np.argmax(~(r <= STEP_NORM_TOL))
        step = np.broadcast_to(steps, r.shape).flat[i]
        raise RuntimeError(f"norm residual {r.flat[i]:.3e} at step {step} exceeds {STEP_NORM_TOL}")
    return r


def run_walk(spec: WalkSpec) -> WalkerState:
    """Run the walk and return only the final (dense) state."""
    grid = spec.initial_grid()
    for report in evolve(spec):
        grid = report.grid
    return grid.expand()


def build_step_matrix(dimensionality: int, halfwidth: int, coin: NDArray[np.complex128] | CoinField,
                      defect: DefectMap | None = None) -> NDArray[np.complex128]:
    """Dense unitary matrix of one step on the packed basis, periodic on
    the lattice: truncating shifts at an open edge would not give a
    unitary matrix.  Total dimension is capped at ``MAX_MATRIX_DIM``.
    """
    stepper = _Stepper(dimensionality, halfwidth, coin, defect)
    return _step_matrix(stepper, _DIAGONAL_MOVES[stepper.dim])


def _step_matrix(stepper: _Stepper, moves: _Moves) -> NDArray[np.complex128]:
    """Dense periodic step matrix of ``stepper``'s walk with coin component
    c moving by ``moves[c]``: column (s, c) holds ``blocks[s][:, c]``, its
    entry c' at row (``_targets[c', s]``, c')."""
    blocks = _site_blocks(stepper)
    target = _targets(blocks.shape[: stepper.dim], moves)
    k, sites = target.shape
    U = np.zeros((sites, k, sites, k), dtype=np.complex128)
    s, c = np.arange(sites)[:, None, None], np.arange(k)
    U[target.T[..., None], c[:, None], s, c] = blocks.reshape(sites, k, k)
    return U.reshape(sites * k, sites * k)


def _site_blocks(stepper: _Stepper) -> NDArray[np.complex128]:
    """phase(site) * coin(site) for every site, shape (2L+1,)*d + (k, k);
    a step matrix above ``MAX_MATRIX_DIM`` is refused before allocating."""
    blocks = stepper.field.stacked(_capped(stepper.dim, stepper.halfwidth))
    grid = _phase_grid(stepper.phase, stepper.halfwidth, stepper.dim)
    return blocks if grid is None else grid[..., None, None] * blocks


def _capped(dimensionality: int, halfwidth: int) -> int:
    """``halfwidth``, checked, if its step matrix fits ``MAX_MATRIX_DIM``, else ValueError."""
    dim_total = state_dimension(dimensionality, L := _halfwidth(halfwidth))
    if dim_total > MAX_MATRIX_DIM:
        raise ValueError(f"step matrix dimension {dim_total} exceeds cap {MAX_MATRIX_DIM}")
    return L


def _targets(shape: tuple[int, ...], moves: _Moves) -> NDArray[np.int64]:
    """``[c, s]``: flat index of the site that coin component c of site s
    moves to, periodic on the lattice of ``shape``."""
    sites = np.indices(shape).reshape(len(shape), 1, -1)
    return np.ravel_multi_index(sites + np.transpose(moves)[..., None], shape, mode="wrap")
