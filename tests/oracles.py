"""Independent brute-force oracles for cross-checking the fast simulator.

Dict-based amplitude expansion with scalar arithmetic: no shared code or
array layout with the package internals.  Same physics conventions (coin,
source-site phase, coin bit 0 -> +1 shift).
"""

import numpy as np


def brute_force_walk_1d(t, coin, coin0, phase_at=None, start=0):
    """Amplitudes {(x, c): a} after t steps from ``start``.

    ``coin`` is a 2x2 matrix, or a function of the site returning one.
    ``phase_at`` maps a lattice site to a phase in radians (source-site
    convention), or None for a homogeneous walk.
    """
    amps = {(start, 0): complex(coin0[0]), (start, 1): complex(coin0[1])}
    for _ in range(t):
        nxt = {}
        for (x, c), a in amps.items():
            u = coin(x) if callable(coin) else coin
            f = 1.0
            if phase_at is not None:
                theta = phase_at(x)
                if theta:
                    f = np.exp(1j * theta)
            for cp in (0, 1):
                key = (x + (1 - 2 * cp), cp)
                nxt[key] = nxt.get(key, 0.0) + f * u[cp][c] * a
        amps = nxt
    return amps


# Post-coin (c, d) -> (dx, dy) of the two-walker step, in the order
# 00, 01, 10, 11: coin bit 0 moves its walker by +1, bit 1 by -1.
DIAGONAL_MOVES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def brute_force_walk_2d(t, coin4, coin0, phase_at=None, start=(0, 0), moves=DIAGONAL_MOVES):
    """Amplitudes {(x, y, c, d): a} after t steps from ``start``.

    ``coin4`` is a 4x4 matrix, or a function of (x, y) returning one.
    ``moves`` lists the (dx, dy) step of each post-coin pair (c, d), in
    the order 00, 01, 10, 11.
    """
    x0, y0 = start
    amps = {
        (x0, y0, k >> 1, k & 1): complex(coin0[k]) for k in range(4) if coin0[k] != 0
    }
    for _ in range(t):
        nxt = {}
        for (x, y, c, d), a in amps.items():
            u = coin4(x, y) if callable(coin4) else coin4
            f = 1.0
            if phase_at is not None:
                theta = phase_at(x, y)
                if theta:
                    f = np.exp(1j * theta)
            k = 2 * c + d
            for kp in range(4):
                dx, dy = moves[kp]
                key = (x + dx, y + dy, kp >> 1, kp & 1)
                nxt[key] = nxt.get(key, 0.0) + f * u[kp][k] * a
        amps = nxt
    return amps


def distribution_1d(amps, halfwidth):
    p = np.zeros(2 * halfwidth + 1)
    for (x, _c), a in amps.items():
        p[x + halfwidth] += abs(a) ** 2
    return p


def distribution_2d(amps, halfwidth):
    p = np.zeros((2 * halfwidth + 1, 2 * halfwidth + 1))
    for (x, y, _c, _d), a in amps.items():
        p[x + halfwidth, y + halfwidth] += abs(a) ** 2
    return p


def extended_walk_1d(t, coin, coin0, phases=None):
    """Amplitudes, shape (2t + 1, 2) over the sites -t..t, of the 1D walk
    from the origin after t steps, computed in ``np.clongdouble``.

    ``coin`` is a 2x2 matrix and ``coin0`` the start's coin state, both
    best given in clongdouble; ``phases`` maps a site to its phase factor
    (source-site convention).  Where long double is wider than double
    (x86-64: 64 mantissa bits), this is a reference whose own rounding
    is far below the double-precision walk's.
    """
    u = np.asarray(coin, dtype=np.clongdouble)
    a = np.zeros((2 * t + 1, 2), dtype=np.clongdouble)
    a[t] = coin0
    for _ in range(t):
        m0 = u[0, 0] * a[:, 0] + u[0, 1] * a[:, 1]
        m1 = u[1, 0] * a[:, 0] + u[1, 1] * a[:, 1]
        for x, f in (phases or {}).items():
            m0[x + t] *= f
            m1[x + t] *= f
        a = np.zeros_like(a)
        a[1:, 0] = m0[:-1]  # coin bit 0 moves +1
        a[:-1, 1] = m1[1:]  # coin bit 1 moves -1
    return a


def extended_walk_2d(t, coin4, coin0, phases=None):
    """Amplitudes, shape (2t + 1, 2t + 1, 4) over the sites -t..t per axis,
    of the 2D walk from the origin after t steps, computed in
    ``np.clongdouble``; coin index k = 2c + d moves (x, y) by
    ``DIAGONAL_MOVES[k]``.

    ``coin4`` is a 4x4 matrix and ``coin0`` the start's coin state, both
    best given in clongdouble; ``phases`` maps a site (x, y) to its phase
    factor (source-site convention).  Each step works only on the square
    that the walk can have reached, so t = 100 takes about a second.
    """
    u = np.asarray(coin4, dtype=np.clongdouble)
    a = np.zeros((2 * t + 1, 2 * t + 1, 4), dtype=np.clongdouble)
    a[t, t] = coin0
    for s in range(t):
        # Sites within s of the origin hold the amplitude; they move to within s + 1.
        near = slice(t - s, t + s + 1)
        m = np.zeros_like(a)
        for k in range(4):
            m[near, near, k] = sum(u[k, j] * a[near, near, j] for j in range(4))
        for (x, y), f in (phases or {}).items():
            m[x + t, y + t] *= f
        a = np.zeros_like(a)
        for k, (dx, dy) in enumerate(DIAGONAL_MOVES):
            to = tuple(slice(t - s + d, t + s + 1 + d) for d in (dx, dy))
            a[to + (k,)] = m[near, near, k]
    return a


def extended_hadamard_probs(t, phi=None):
    """Site probabilities over -t..t, in long double, of the 1D Hadamard
    walk from the symmetric start after t steps, under ``point(phi)`` or
    (``phi`` None) free."""
    root2 = np.sqrt(np.longdouble(2))
    amps = extended_walk_1d(
        t,
        np.array([[1, 1], [1, -1]], dtype=np.clongdouble) / root2,
        np.array([1, 1j], dtype=np.clongdouble) / root2,
        None if phi is None else {0: np.exp(np.clongdouble(1j) * np.longdouble(phi))},
    )
    return (np.abs(amps) ** 2).sum(axis=1)
