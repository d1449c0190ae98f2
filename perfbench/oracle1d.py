"""Independent reference for the 1D Hadamard walk with a phase defect at
the origin.

Shares no code with ``src/``.  The conventions are restated from the
project README: coin first, then the phase of the source site, then the
shift; coin bit 0 moves +1, bit 1 moves -1.  A 2D walk whose coin, initial
coin state and defect all factorize across the axes (Hadamard pair,
product initial state, ``cross_xy`` or ``line_y``) is exactly two
independent copies of this walk, so the 2D outputs of ``qwalk`` can be
checked against products of the 1D results below.
"""

from __future__ import annotations

import math

import numpy as np

_H = 1.0 / math.sqrt(2.0)


class Walk1D:
    """Per-step observables of one 1D walk from the origin.

    ``origin[t]`` is p_t(0), ``variance[t]`` is Var(p_t) for t = 0..steps,
    and ``final`` is p_steps over sites -steps..steps.
    """

    def __init__(self, steps: int, phi: float, coin0: tuple[complex, complex]):
        n = 2 * steps + 1
        xs = np.arange(-steps, steps + 1, dtype=np.float64)
        up = np.zeros(n, dtype=np.complex128)
        down = np.zeros(n, dtype=np.complex128)
        up[steps], down[steps] = coin0
        phase = complex(math.cos(phi), math.sin(phi))
        origin = []
        variance = []
        for t in range(steps + 1):
            if t:
                mixed_up = _H * (up + down)
                mixed_down = _H * (up - down)
                mixed_up[steps] *= phase
                mixed_down[steps] *= phase
                up = np.concatenate(([0.0], mixed_up[:-1]))
                down = np.concatenate((mixed_down[1:], [0.0]))
            p = up.real**2 + up.imag**2 + down.real**2 + down.imag**2
            mean = float(np.dot(xs, p))
            origin.append(float(p[steps]))
            variance.append(float(np.dot(xs * xs, p)) - mean * mean)
        self.steps = steps
        self.origin = origin
        self.variance = variance
        self.final = p
