"""Coin operators: SU(2) constructors, tensor products, fractional swap,
and the three-swap composition of general two-coin unitaries.

All constructors return plain ``complex128`` ndarrays.  Coins are handled
as general unitaries (U(2)/U(4)) rather than strictly special-unitary:
the Hadamard coin has determinant -1 and a determinant phase is physically
a global phase anyway.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .statespace import _coordinates, _dimensionality, _sites_index

__all__ = [
    "UNITARY_TOL",
    "PAULI_X",
    "PAULI_Z",
    "IDENTITY2",
    "IDENTITY4",
    "SWAP",
    "hadamard",
    "su2_from_angles",
    "tensor",
    "fractional_swap",
    "su4_compose",
    "unitarity_check",
    "is_unitary",
    "random_su2",
    "CoinField",
]

UNITARY_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY2 = np.eye(2, dtype=np.complex128)
IDENTITY4 = np.eye(4, dtype=np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
# The fixed factors Z (x) X, Z (x) 1 and 1 (x) X of su4_compose's bracket.
_ZX, _Z1, _1X = np.kron(PAULI_Z, PAULI_X), np.kron(PAULI_Z, IDENTITY2), np.kron(IDENTITY2, PAULI_X)


def hadamard() -> NDArray[np.complex128]:
    """The balanced coin (1/sqrt 2) [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def su2_from_angles(theta: float, psi: float, phi: float) -> NDArray[np.complex128]:
    """SU(2) coin from three angles.

    Returns ``[[e^{-i phi} cos t, e^{i psi} sin t],
    [-e^{-i psi} sin t, e^{i phi} cos t]]`` which is unitary with
    determinant 1 for all real angles.  (The sign on the lower-left entry
    is required for unitarity; without it the matrix has determinant
    cos 2t.)
    """
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [np.exp(-1j * phi) * ct, np.exp(1j * psi) * st],
            [-np.exp(-1j * psi) * st, np.exp(1j * phi) * ct],
        ],
        dtype=np.complex128,
    )


def tensor(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Kronecker product of two 2x2 coins, or of two stacks (..., 2, 2) whose
    leading axes broadcast, in the (c, d) order 00,01,10,11.

    The first factor steers the x coin bit, the second the y coin bit:
    ``tensor(a, b)[..., 2i+j, 2k+l] = a[..., i, k] * b[..., j, l]``.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError(f"tensor expects 2x2 matrices, got {a.shape} and {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def fractional_swap(tau: float) -> NDArray[np.complex128]:
    """The fractional swap gate, a one-parameter unitary group in tau.

    Identity at tau=0, the full swap at tau=1, sqrt-swap at tau=1/2.  The
    matrix is (1/2) [[2,0,0,0], [0, 1+w, 1-w, 0], [0, 1-w, 1+w, 0],
    [0,0,0,2]] with w = e^{i pi tau}; the principal branch makes the
    family continuous and satisfies
    ``fractional_swap(a) @ fractional_swap(b) == fractional_swap(a + b)``.
    Any real tau is accepted.
    """
    w = np.exp(1j * np.pi * tau)
    return 0.5 * np.array(
        [
            [2, 0, 0, 0],
            [0, 1 + w, 1 - w, 0],
            [0, 1 - w, 1 + w, 0],
            [0, 0, 0, 2],
        ],
        dtype=np.complex128,
    )


def su4_compose(
    u1: NDArray[np.complex128],
    u2: NDArray[np.complex128],
    v1: NDArray[np.complex128],
    v2: NDArray[np.complex128],
    alpha: float,
    beta: float,
    gamma: float,
) -> NDArray[np.complex128]:
    """Compose a 4x4 coin from single-qubit factors and three swap powers.

    Evaluates, in exactly this left-to-right order,

        (u1 (x) u2) [(Z (x) X) S^gamma (Z (x) 1) S^beta (1 (x) X) S^alpha] (v1 (x) v2)

    with S^t = ``fractional_swap(t)``.  The bracket is evaluated literally,
    with no algebraic simplification, so properties of specific parameter
    points can be observed rather than assumed.  With
    alpha = beta = gamma = 0 the bracket collapses to the identity and the
    result is the separable coin (u1 v1) (x) (u2 v2).  Stacks (..., 2, 2)
    of factors broadcast, giving the stack of compositions.

    Raises
    ------
    ValueError
        If any of u1, u2, v1, v2 (each stack member) is not unitary within 1e-12.
    """
    names = ("u1", "u2", "v1", "v2")
    u1, u2, v1, v2 = (_validated_coin(m, 2, n, True) for m, n in zip((u1, u2, v1, v2), names))
    bracket = (_ZX @ fractional_swap(gamma) @ _Z1 @ fractional_swap(beta)
               @ _1X @ fractional_swap(alpha))
    return tensor(u1, u2) @ bracket @ tensor(v1, v2)


def unitarity_check(matrix: NDArray[np.complex128]) -> float:
    """Max elementwise deviation of M M^dagger from the identity, over a stack (..., k, k)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    eye = np.eye(m.shape[-1])
    return float(np.abs(m @ np.swapaxes(m.conj(), -1, -2) - eye).max())


def is_unitary(matrix: NDArray[np.complex128], tol: float = UNITARY_TOL) -> bool:
    return unitarity_check(matrix) <= tol


def random_su2(rng: np.random.Generator, size: tuple[int, ...] = ()) -> NDArray[np.complex128]:
    """Haar-random 2x2 special unitaries, shape ``size + (2, 2)``.

    QR of a complex Ginibre matrix with the R diagonal phase-fixed gives a
    Haar unitary; dividing out the determinant phase lands it in SU(2).  A
    stack is, bit for bit and in ``rng``'s end state, one-matrix calls in C order.
    """
    g = rng.normal(size=tuple(size) + (2, 2, 2))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    q = q * np.exp(-1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))[..., None, :]
    det = np.linalg.det(q)
    return q * det[..., None, None] ** (-0.5)


class CoinField:
    """Position-dependent coin assignment over the lattice.

    Either uniform (one matrix everywhere) or a per-site table with a
    default.  1D fields hold 2x2 coins keyed by ``x``; 2D fields hold 4x4
    coins keyed by ``(x, y)``.  Every entry is validated unitary.
    """

    def __init__(
        self,
        dimensionality: int,
        default: NDArray[np.complex128],
        table: Mapping[int | tuple[int, int], NDArray[np.complex128]] | None = None,
    ):
        d = self.dimensionality = _dimensionality(dimensionality)
        self.default = _validated_coin(default, 2 * d, "default coin")
        self.table: dict[int | tuple[int, int], NDArray[np.complex128]] = {}
        for pos, mat in (table or {}).items():
            _coordinates(pos, d, "coin site")
            self.table[pos] = _validated_coin(mat, 2 * d, f"coin at {pos}")

    def stacked(self, halfwidth: int) -> NDArray[np.complex128]:
        """Dense per-site array of coins: (n, 2, 2) in 1D, (n, n, 4, 4) in 2D;
        a listed site off the lattice raises IndexError."""
        d, k = self.dimensionality, self.default.shape[0]
        out = np.broadcast_to(self.default, (2 * halfwidth + 1,) * d + (k, k)).copy()
        index = _sites_index(self.table, halfwidth, d, "coin site")
        out[tuple(index.T)] = np.reshape(list(self.table.values()), (-1, k, k))
        return out


def _validated_coin(mat: NDArray, k: int, what: str, stack: bool = False) -> NDArray:
    m = np.asarray(mat, dtype=np.complex128)
    if m.shape[-2:] != (k, k) or (m.ndim > 2 and not stack):
        raise ValueError(f"{what} must be {k}x{k}, got shape {m.shape}")
    if not is_unitary(m):
        raise ValueError(f"{what} is not unitary within {UNITARY_TOL}")
    return m


def as_coin_field(
    coin: NDArray[np.complex128] | CoinField, dimensionality: int
) -> CoinField:
    """Accept a bare matrix (treated as uniform) or a CoinField."""
    if isinstance(coin, CoinField):
        if coin.dimensionality != dimensionality:
            raise ValueError(
                f"coin field is {coin.dimensionality}D but the walk is "
                f"{dimensionality}D"
            )
        return coin
    return CoinField(dimensionality, np.asarray(coin, dtype=np.complex128))
