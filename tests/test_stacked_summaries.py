"""Differential tests of ``summarize_stack``: the summaries of a stack of
walks, taken in one pass from the stack's site probabilities, are bit for
bit those of each walk alone.

``reference_summarize`` is the per-walk summary as it was computed before
summaries were stacked, kept verbatim (with ``_site_probs`` inlined, and
its variances taken from the middle site, as ``_variance`` now takes them)
as the reference; ``summarize``, the stack of one, is held to it too.
"""

import numpy as np
import pytest

from qwalk.analysis import WalkSummary, _variance, summarize, summarize_stack
from qwalk.coins import fractional_swap, hadamard, random_su2, tensor
from qwalk.evolution import MAX_STACK, DefectMap, WalkSpec, _guarded, _stacks, evolve


def _reference_variance(sites, probs):
    xs = (sites - (sites[0] + sites[-1]) // 2).astype(np.float64)
    mean = float((xs * probs).sum())
    return float((xs**2 * probs).sum() - mean**2)


def reference_summarize(step, state):
    planes = np.moveaxis(state.amplitudes, -1, 0)
    p = np.square(np.abs(planes[0]))
    tmp = np.empty_like(p)
    for plane in planes[1:]:
        p += np.square(np.abs(plane, out=tmp), out=tmp)
    d = state.dimensionality
    axes = [state.coordinates(a) for a in range(d)]
    origin = tuple(np.flatnonzero(xs == 0) for xs in axes)
    rec = float(p[tuple(int(i[0]) for i in origin)]) if all(map(len, origin)) else 0.0
    if d == 1:
        var_x, var_y = _reference_variance(axes[0], p), None
    else:
        var_x = _reference_variance(axes[0], p.sum(axis=1))
        var_y = _reference_variance(axes[1], p.sum(axis=0))
    return WalkSummary(step, rec, var_x, var_y)


def _bits(summary):
    values = (summary.recurrence, summary.variance_x, summary.variance_y)
    return summary.step, tuple(None if v is None else (type(v), v.hex()) for v in values)


def _stack_walks(seed, count, steps, position=0):
    """``count`` open 1D walks of one random su2 coin and start site, each
    with its own random start coin and ``point`` phase."""
    rng = np.random.default_rng(seed)
    coin = random_su2(rng)
    walks = []
    for _ in range(count):
        start = rng.normal(size=2) + 1j * rng.normal(size=2)
        walks.append(WalkSpec(1, steps, coin, DefectMap.point(rng.uniform(-np.pi, np.pi)),
                              initial_position=position, initial_coin=start / np.linalg.norm(start),
                              halfwidth=steps + abs(position) + 1))
    return walks


def _stepped(walks):
    """``walks``, of one number of steps, stepped as the commands step them:
    each stack of ``_stacks`` through ``_guarded``.  Per step, its number and
    the stacks, each with the site probabilities its norms were summed from."""
    stacks = list(_stacks(walks))
    for t, _ in enumerate(_guarded(stacks, walks[0].steps), start=1):
        yield t, stacks


def _same_as_alone(t, stack, alone):
    """The stack's summaries at step ``t``, from its ``probs``, as the commands
    take them, against each walk's report ``alone``, summarized alone."""
    stacked = summarize_stack(t, stack.probs, stack.coordinates)
    assert len(stacked) == len(stack.specs) == len(alone)
    for got, report in zip(stacked, alone):
        assert report.step == t
        assert _bits(got) == _bits(reference_summarize(report.step, report.grid))
        assert _bits(got) == _bits(summarize(report.step, report.grid))
    return stacked


@pytest.mark.parametrize("count", [1, 2, 19, MAX_STACK], ids=lambda n: f"{n}-walks")
@pytest.mark.parametrize("position", [0, 3], ids=lambda x: f"from-{x}")
def test_a_stacks_summaries_are_each_walks_own_bits(count, position):
    # The grid after t steps from x0 holds the origin only when x0 - t is
    # even and |x0| <= t; at every other step each recurrence is exactly 0.0.
    steps = 24
    walks = _stack_walks(count * 10 + position, count, steps, position)
    assert [len(stack.specs) for stack in _stacks(walks)] == [count]
    zeros = []
    for (t, (stack,)), *alone in zip(_stepped(walks), *map(evolve, walks), strict=True):
        stacked = _same_as_alone(t, stack, alone)
        if all(s.recurrence == 0.0 for s in stacked):
            zeros.append(t)
    absent = [t for t in range(1, steps + 1) if (position - t) % 2 or abs(position) > t]
    assert zeros == absent


def test_a_stack_whose_grid_never_holds_the_origin_recurs_with_zero():
    walks = _stack_walks(1, 3, 5, position=-9)
    for (t, (stack,)), *alone in zip(_stepped(walks), *map(evolve, walks), strict=True):
        assert [s.recurrence for s in _same_as_alone(t, stack, alone)] == [0.0] * 3


@pytest.mark.parametrize("spec", [
    # The 2D kernel: a non-product coin, each step a stack of one.
    WalkSpec(2, 30, fractional_swap(0.5), DefectMap.point(np.pi)),
    # The same, off the origin: the odd-parity grid never holds it.
    WalkSpec(2, 12, fractional_swap(0.3), DefectMap.cross_xy(1.0), initial_position=(3, -2),
             halfwidth=15),
    # Periodic walks step the dense full lattice.
    WalkSpec(2, 15, tensor(hadamard(), hadamard()), DefectMap.line_y(np.pi), boundary="periodic",
             halfwidth=4),
    WalkSpec(1, 40, hadamard(), DefectMap.point(0.7), boundary="periodic", halfwidth=6),
], ids=["kernel-2d", "kernel-2d-off-origin", "periodic-2d", "periodic-1d"])
def test_a_stack_of_one_is_the_walks_own_summary(spec):
    steps = 0
    for (t, (stack,)), report in zip(_stepped([spec]), evolve(spec), strict=True):
        assert stack.amplitudes.shape[0] == 1
        _same_as_alone(t, stack, (report,))
        steps += 1
    assert steps == spec.steps


def test_the_coordinates_of_a_dense_stack_are_the_whole_lattice():
    spec = WalkSpec(2, 3, tensor(hadamard(), hadamard()), boundary="periodic", halfwidth=2)
    _, (stack,) = next(_stepped([spec]))
    report = next(evolve(spec))
    assert stack.first is None and report.first is None
    assert [xs.tolist() for xs in stack.coordinates] == [[-2, -1, 0, 1, 2]] * 2
    assert [report.grid.coordinates(a).tolist() for a in (0, 1)] == [[-2, -1, 0, 1, 2]] * 2


@pytest.mark.parametrize("count, bad", [(1, 0), (5, 3), (MAX_STACK, MAX_STACK - 1)])
def test_a_nan_in_one_walk_of_a_stack_is_refused(count, bad):
    # A stack's summaries read the site probabilities whose row sums are the
    # step guard's norms, so the guard refuses a NaN in any one walk at the
    # next step; summarize, on a state from outside, checks its own.
    steps = _stepped(_stack_walks(7, count, 6))
    for _ in range(5):
        _, (stack,) = next(steps)
    stack.amplitudes[bad, 2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^probability is NaN$"):
        summarize(5, stack.grids[bad])
    with pytest.raises(RuntimeError, match=r"^norm residual nan at step 6 exceeds 1e-10$"):
        next(steps)


def test_a_walk_that_lost_norm_is_refused_with_its_residual():
    steps = _stepped(_stack_walks(8, 4, 6))
    for _ in range(5):
        _, (stack,) = next(steps)
    stack.amplitudes[2] *= 0.5
    with pytest.raises(ValueError, match=r"^probabilities sum to 0\.2[45]\d*, not 1$"):
        summarize(5, stack.grids[2])
    with pytest.raises(RuntimeError, match=r"^norm residual 7\.50\de-01 at step 6 exceeds 1e-10$"):
        next(steps)


def test_stacked_variances_are_each_rows_own():
    # Random rows, each against the one-row formula.
    rng = np.random.default_rng(9)
    sites = np.arange(-40, 41)
    probs = rng.random((7, sites.size))
    probs /= probs.sum(axis=1, keepdims=True)
    got = _variance(sites, probs)
    assert [v.hex() for v in got] == [_reference_variance(sites, row).hex() for row in probs]
