"""Single-step and multi-step walk evolution with position-dependent
phase defects, plus dense step-matrix builders for small lattices.

Step structure, fixed across the package:

1. coin unitary on the coin subspace at each site,
2. multiplication by the defect phase of the *source* site,
3. coin-conditioned shift.

Steps 1 and 2 commute (the phase is diagonal in position, the coin acts
only on the coin subspace); applying the phase before or after the shift
does not, and the source-site choice is part of the contract.

Shift convention: coin bit 0 moves its axis by +1, coin bit 1 by -1; the
first coin bit steers x, the second steers y.

Boundaries: ``"open"`` requires halfwidth >= steps so an origin-started
walker never touches the edge (a step that would push amplitude past the
edge raises IndexError).  ``"periodic"`` identifies site L+1 with -L per
axis and exists mainly for matrix-level checks at small halfwidth.

Multi-step evolution of an open-boundary walk whose light cone stays on
the lattice steps only the sites that can hold amplitude.  Every step
moves each coordinate by +-1, so after t steps from (x0, y0) amplitude
lives only on x = x0 + t, y = y0 + t (mod 2) inside the cone: a dense
(t+1)^d grid of sites spaced 2 apart (a :class:`SublatticeState`, a
quarter of the (2t+1)^2 cone window in 2D).  Each step is one coin GEMM
over that grid, the phase on the grid rows/columns that lie on the
defect, a shift that writes each coin component into the (t+2)^d output
at offset 0 or 1, and one ``vdot`` for the norm.  Cost and memory per
step are O((t+1)^d), independent of the halfwidth; the dense lattice
state is built only when a caller asks for ``StepReport.state``.  The
periodic boundary and starts whose cone leaves the lattice step the full
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Literal, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .coins import CoinField, as_coin_field
from .statespace import (
    SublatticeState,
    WalkerState,
    as_coin_state,
    localized_state,
    state_dimension,
    symmetric_coin,
)

__all__ = [
    "Boundary",
    "DefectMap",
    "WalkSpec",
    "StepReport",
    "apply_step_1d",
    "apply_step_2d",
    "evolve",
    "run_walk",
    "build_step_matrix",
    "MAX_MATRIX_DIM",
    "STEP_NORM_TOL",
]

Boundary = Literal["open", "periodic"]

# A step whose norm drifts past this indicates a broken operator, not noise.
STEP_NORM_TOL = 1e-10

# Dense step matrices are capped at this total dimension.
MAX_MATRIX_DIM = 16384


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
    def custom(
        cls, table: Mapping[int, float] | Mapping[tuple[int, int], float]
    ) -> "DefectMap":
        return cls("custom", 0.0, dict(table))

    def validate(self, dimensionality: int) -> None:
        if self.kind in ("line_y", "cross_xy") and dimensionality != 2:
            raise ValueError(f"defect {self.kind!r} is only defined for 2D walks")
        if self.kind == "custom":
            for key in self.table or {}:
                if dimensionality == 1 and not isinstance(key, (int, np.integer)):
                    raise ValueError(f"1D custom defect key must be an int, got {key!r}")
                if dimensionality == 2 and (
                    not isinstance(key, tuple) or len(key) != 2
                ):
                    raise ValueError(
                        f"2D custom defect key must be an (x, y) tuple, got {key!r}"
                    )

    def phase_grid(
        self, halfwidth: int, dimensionality: int
    ) -> NDArray[np.complex128] | None:
        """Dense per-site phase factors, or None when trivially 1."""
        self.validate(dimensionality)
        L = halfwidth
        n = 2 * L + 1
        if self.kind == "none":
            return None
        f = np.exp(1j * self.phi)
        if dimensionality == 1:
            grid = np.ones(n, dtype=np.complex128)
            if self.kind == "point":
                grid[L] = f
            elif self.kind == "custom":
                for x, theta in (self.table or {}).items():  # type: ignore[union-attr]
                    if abs(int(x)) > L:
                        raise IndexError(f"custom defect site x={x} outside [-{L}, {L}]")
                    grid[int(x) + L] = np.exp(1j * theta)
            else:
                raise ValueError(f"defect {self.kind!r} is only defined for 2D walks")
            return grid
        grid2 = np.ones((n, n), dtype=np.complex128)
        if self.kind == "line_y":
            grid2[:, L] *= f
        elif self.kind == "cross_xy":
            grid2[L, :] *= f
            grid2[:, L] *= f
        elif self.kind == "point":
            grid2[L, L] = f
        elif self.kind == "custom":
            for key, theta in (self.table or {}).items():
                x, y = key  # type: ignore[misc]
                if abs(x) > L or abs(y) > L:
                    raise IndexError(f"custom defect site {key} outside [-{L}, {L}]^2")
                grid2[x + L, y + L] = np.exp(1j * theta)
        return grid2


# A phase applier multiplies the post-coin array in place by the phase of
# each source site.  ``sites`` indexes the array's sites in a dense
# (2L+1)^d lattice array (all of it, or the light-cone sublattice), so one
# applier serves both kernels; line/cross/point defects touch only their
# slices, keeping everything else bitwise untouched.
_Applier = Callable[[NDArray[np.complex128], tuple[slice, ...]], None]


def _phase_applier(
    defect: DefectMap | None, halfwidth: int, dimensionality: int
) -> _Applier | None:
    if defect is None or defect.kind == "none":
        return None
    defect.validate(dimensionality)
    L = halfwidth
    n = 2 * L + 1
    if defect.kind == "custom":
        grid = defect.phase_grid(L, dimensionality)
        assert grid is not None

        def apply_custom(m, sites):
            m *= grid[sites][..., None]
        return apply_custom

    def zero_index(sites, axis):
        # Array index of the lattice coordinate 0 along ``axis``, if present.
        rows = range(n)[sites[axis]]
        return rows.index(L) if L in rows else None

    f = np.exp(1j * defect.phi)
    if defect.kind == "point":
        def apply_point(m, sites):
            idx = tuple(zero_index(sites, a) for a in range(dimensionality))
            if None not in idx:
                m[idx] *= f
        return apply_point
    # line_y: the line y = 0; cross_xy: x = 0, then y = 0.
    axes = (1,) if defect.kind == "line_y" else (0, 1)

    def apply_lines(m, sites):
        for axis in axes:
            i = zero_index(sites, axis)
            if i is not None:
                m[(slice(None),) * axis + (i,)] *= f
    return apply_lines


class _Stepper:
    """Single-step kernel: coin mix, defect phase, shift.

    ``step`` advances a dense state on the full lattice (open or periodic
    boundary); ``cone_step`` advances a :class:`SublatticeState`.
    """

    def __init__(
        self,
        dimensionality: int,
        halfwidth: int,
        coin: NDArray[np.complex128] | CoinField,
        defect: DefectMap | None,
        boundary: Boundary,
    ):
        if boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
        self.dim = dimensionality
        self.halfwidth = halfwidth
        self.boundary = boundary
        fld = as_coin_field(coin, dimensionality)
        # Uniform coins go through one GEMM; per-site fields use einsum.
        self.coin_t: NDArray[np.complex128] | None = (
            fld.default.T.copy() if fld.is_uniform else None
        )
        self.stacked: NDArray[np.complex128] | None = (
            None if fld.is_uniform else fld.stacked(halfwidth)
        )
        self.applier = _phase_applier(defect, halfwidth, dimensionality)

    def _mixed(
        self,
        amps: NDArray[np.complex128],
        sites: tuple[slice, ...],
        out: NDArray[np.complex128] | None = None,
    ) -> NDArray[np.complex128]:
        """Coin, then source-site phase, on the lattice sites ``sites``."""
        if self.coin_t is not None:
            k = amps.shape[-1]
            flat = None if out is None else out.reshape(-1, k)
            mixed = np.matmul(amps.reshape(-1, k), self.coin_t, out=flat)
            mixed = mixed.reshape(amps.shape)
        else:
            mixed = np.einsum("...ij,...j->...i", self.stacked[sites], amps, out=out)
        if self.applier is not None:
            self.applier(mixed, sites)
        return mixed

    def step(self, state: WalkerState) -> WalkerState:
        m = self._mixed(state.amplitudes, (slice(None),) * self.dim)
        shifted = self._shift_1d(m) if self.dim == 1 else self._shift_2d(m)
        return WalkerState(self.dim, self.halfwidth, shifted)

    def cone_step(
        self, grid: SublatticeState, scratch: NDArray[np.complex128]
    ) -> SublatticeState:
        """One step of a sublattice grid of m sites per axis, giving m + 1.

        ``scratch`` holds at least ``grid.amplitudes.size`` entries.  Coin
        bit 0 moves site ``first + 2i`` to ``(first - 1) + 2(i + 1)``, so
        each component lands in the output at offset 1 (bit 0) or 0
        (bit 1) per axis; the one row it leaves empty is zeroed.
        """
        a = grid.amplitudes
        m = self._mixed(a, grid.sites(), scratch[: a.size].reshape(a.shape))
        n = a.shape[0]
        out = np.empty((n + 1,) * self.dim + a.shape[-1:], dtype=np.complex128)
        for c in range(a.shape[-1]):
            bits = (c,) if self.dim == 1 else (c >> 1, c & 1)
            out[tuple(slice(1 - b, n + 1 - b) for b in bits) + (c,)] = m[..., c]
            for axis, b in enumerate(bits):
                out[(slice(None),) * axis + (n if b else 0, Ellipsis, c)] = 0
        first = tuple(f - 1 for f in grid.first)
        return SublatticeState(self.dim, self.halfwidth, first, out)

    def _shift_1d(self, m: NDArray[np.complex128]) -> NDArray[np.complex128]:
        if self.boundary == "periodic":
            out = np.empty_like(m)
            out[:, 0] = np.roll(m[:, 0], 1)
            out[:, 1] = np.roll(m[:, 1], -1)
            return out
        if m[-1, 0] != 0 or m[0, 1] != 0:
            raise IndexError(
                "step would shift amplitude past the open lattice edge; "
                "use halfwidth >= steps"
            )
        out = np.zeros_like(m)
        out[1:, 0] = m[:-1, 0]
        out[:-1, 1] = m[1:, 1]
        return out

    def _shift_2d(self, m: NDArray[np.complex128]) -> NDArray[np.complex128]:
        if self.boundary == "periodic":
            out = np.empty_like(m)
            out[:, :, 0] = np.roll(m[:, :, 0], (1, 1), axis=(0, 1))
            out[:, :, 1] = np.roll(m[:, :, 1], (1, -1), axis=(0, 1))
            out[:, :, 2] = np.roll(m[:, :, 2], (-1, 1), axis=(0, 1))
            out[:, :, 3] = np.roll(m[:, :, 3], (-1, -1), axis=(0, 1))
            return out
        edges = (
            np.any(m[-1, :, 0]) or np.any(m[:, -1, 0])
            or np.any(m[-1, :, 1]) or np.any(m[:, 0, 1])
            or np.any(m[0, :, 2]) or np.any(m[:, -1, 2])
            or np.any(m[0, :, 3]) or np.any(m[:, 0, 3])
        )
        if edges:
            raise IndexError(
                "step would shift amplitude past the open lattice edge; "
                "use halfwidth >= steps"
            )
        out = np.zeros_like(m)
        out[1:, 1:, 0] = m[:-1, :-1, 0]   # (c,d)=(0,0): x+1, y+1
        out[1:, :-1, 1] = m[:-1, 1:, 1]   # (0,1): x+1, y-1
        out[:-1, 1:, 2] = m[1:, :-1, 2]   # (1,0): x-1, y+1
        out[:-1, :-1, 3] = m[1:, 1:, 3]   # (1,1): x-1, y-1
        return out


def apply_step_1d(
    state: WalkerState,
    coin: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
    boundary: Boundary = "open",
) -> WalkerState:
    """One step of the 1D walk: coin, source-site phase, conditional shift."""
    if state.dimensionality != 1:
        raise ValueError("apply_step_1d expects a 1D state")
    return _Stepper(1, state.halfwidth, coin, defect, boundary).step(state)


def apply_step_2d(
    state: WalkerState,
    coin: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
    boundary: Boundary = "open",
) -> WalkerState:
    """One step of the 2D walk: coin, source-site phase, conditional shift."""
    if state.dimensionality != 2:
        raise ValueError("apply_step_2d expects a 2D state")
    return _Stepper(2, state.halfwidth, coin, defect, boundary).step(state)


@dataclass
class WalkSpec:
    """Complete walk configuration.

    ``halfwidth`` defaults to ``max(steps, 1)`` so an open-boundary walker
    never reaches the edge.  ``initial_coin`` defaults to the symmetric
    coin state; ``initial_position`` to the origin.
    """

    dimensionality: int
    steps: int
    coin: NDArray[np.complex128] | CoinField
    defect: DefectMap = field(default_factory=DefectMap.none)
    initial_position: int | tuple[int, int] | None = None
    initial_coin: Sequence[complex] | None = None
    boundary: Boundary = "open"
    halfwidth: int | None = None

    def __post_init__(self) -> None:
        if self.dimensionality not in (1, 2):
            raise ValueError(f"dimensionality must be 1 or 2, got {self.dimensionality!r}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 0:
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        self.steps = int(self.steps)
        if self.halfwidth is None:
            self.halfwidth = max(self.steps, 1)
        if self.halfwidth < 1:
            raise ValueError(f"halfwidth must be >= 1, got {self.halfwidth}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(
                f"boundary must be 'open' or 'periodic', got {self.boundary!r}"
            )
        if self.boundary == "open" and self.halfwidth < self.steps:
            raise ValueError(
                f"open boundary needs halfwidth >= steps "
                f"({self.halfwidth} < {self.steps})"
            )
        if self.initial_position is None:
            self.initial_position = 0 if self.dimensionality == 1 else (0, 0)
        if self.initial_coin is None:
            self.initial_coin = symmetric_coin(self.dimensionality)
        # Fail fast on bad coins/defects/initial data rather than mid-run.
        as_coin_field(self.coin, self.dimensionality)
        self.defect.validate(self.dimensionality)
        as_coin_state(self.initial_coin, self.dimensionality)

    def initial_state(self) -> WalkerState:
        assert self.halfwidth is not None and self.initial_position is not None
        assert self.initial_coin is not None
        return localized_state(
            self.dimensionality, self.halfwidth, self.initial_position, self.initial_coin
        )

    def _initial_grid(self) -> SublatticeState | None:
        """The start site as a one-site sublattice grid, or None when the
        light cone of the whole run does not fit in an open lattice."""
        d = self.dimensionality
        start = (
            (int(self.initial_position),)  # type: ignore[arg-type]
            if d == 1
            else tuple(self.initial_position)  # type: ignore[arg-type]
        )
        if self.boundary != "open" or max(map(abs, start)) + self.steps > self.halfwidth:
            return None
        coin = as_coin_state(self.initial_coin, d)  # type: ignore[arg-type]
        return SublatticeState(d, self.halfwidth, start, coin.reshape((1,) * d + coin.shape))


@dataclass
class StepReport:
    """Post-step snapshot: 1-based step index, amplitudes, and |1 - sum|a|^2|.

    ``grid`` holds the amplitudes the kernel produced: a
    :class:`SublatticeState` on the light-cone path, a dense
    :class:`WalkerState` otherwise.  ``state`` is always the dense
    :class:`WalkerState` of the spec's halfwidth, expanded from ``grid`` on
    first access and cached.
    """

    step: int
    grid: WalkerState | SublatticeState
    norm_residual: float

    @cached_property
    def state(self) -> WalkerState:
        grid = self.grid
        return grid.expand() if isinstance(grid, SublatticeState) else grid


def evolve(spec: WalkSpec) -> Iterator[StepReport]:
    """Run the walk, yielding one report per step (lazily).

    Each report owns a fresh amplitude array, so holding on to reports is
    safe; materialize with ``list(evolve(spec))`` for small runs.  Raises
    RuntimeError if the per-step norm residual ever exceeds 1e-10 (or is
    NaN), which would indicate a broken step operator.
    """
    d = spec.dimensionality
    stepper = _Stepper(d, spec.halfwidth, spec.coin, spec.defect, spec.boundary)  # type: ignore[arg-type]
    state: WalkerState | SublatticeState | None = spec._initial_grid()
    if state is None:
        state = spec.initial_state()
        advance = stepper.step
    else:
        # The coin mix of every step writes into one reused buffer.
        scratch = np.empty(max(spec.steps, 1) ** d * 2 * d, dtype=np.complex128)
        advance = partial(stepper.cone_step, scratch=scratch)
    for i in range(1, spec.steps + 1):
        state = advance(state)
        amps = state.amplitudes
        residual = abs(1.0 - float(np.vdot(amps, amps).real))
        _check_residual(residual, i)
        yield StepReport(i, state, residual)


def _check_residual(residual: float, step: int) -> None:
    # Written so that a NaN residual fails the test.
    if not residual <= STEP_NORM_TOL:
        raise RuntimeError(
            f"norm residual {residual:.3e} at step {step} exceeds {STEP_NORM_TOL}"
        )


def run_walk(spec: WalkSpec) -> WalkerState:
    """Run the walk and return only the final (dense) state."""
    final = None
    for final in evolve(spec):
        pass
    return spec.initial_state() if final is None else final.state


def build_step_matrix(
    dimensionality: int,
    halfwidth: int,
    coin: NDArray[np.complex128] | CoinField,
    defect: DefectMap | None = None,
    boundary: Boundary = "periodic",
) -> NDArray[np.complex128]:
    """Dense unitary matrix of one step on the packed basis.

    Only the periodic boundary is supported: truncating shifts at an open
    edge would not give a unitary matrix.  Total dimension is capped at
    ``MAX_MATRIX_DIM``.
    """
    if boundary != "periodic":
        raise ValueError("build_step_matrix supports only the periodic boundary")
    dim_total = state_dimension(dimensionality, halfwidth)
    if dim_total > MAX_MATRIX_DIM:
        raise ValueError(
            f"step matrix dimension {dim_total} exceeds cap {MAX_MATRIX_DIM}"
        )
    fld = as_coin_field(coin, dimensionality)
    defect = defect or DefectMap.none()
    grid = defect.phase_grid(halfwidth, dimensionality)
    L = halfwidth
    n = 2 * L + 1
    U = np.zeros((dim_total, dim_total), dtype=np.complex128)
    if dimensionality == 1:
        for x in range(-L, L + 1):
            cmat = fld.at(x)
            phase = 1.0 if grid is None else grid[x + L]
            col0 = (x + L) * 2
            for cp in range(2):
                xp = _wrap(x + (1 - 2 * cp), L)
                row0 = (xp + L) * 2
                for c in range(2):
                    U[row0 + cp, col0 + c] = phase * cmat[cp, c]
        return U
    for x in range(-L, L + 1):
        for y in range(-L, L + 1):
            cmat = fld.at((x, y))
            phase = 1.0 if grid is None else grid[x + L, y + L]
            col0 = ((x + L) * n + (y + L)) * 4
            for kp in range(4):
                cp, dp = kp >> 1, kp & 1
                xp = _wrap(x + (1 - 2 * cp), L)
                yp = _wrap(y + (1 - 2 * dp), L)
                row0 = ((xp + L) * n + (yp + L)) * 4
                for k in range(4):
                    U[row0 + kp, col0 + k] = phase * cmat[kp, k]
    return U


def _wrap(v: int, halfwidth: int) -> int:
    n = 2 * halfwidth + 1
    return (v + halfwidth) % n - halfwidth
