import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwalk.analysis import (
    Distribution,
    classical_rw_distribution,
    distribution,
    l1_distance,
    marginal,
    recurrence_probability,
    summarize,
    variance,
)
from qwalk.coins import fractional_swap, hadamard, tensor
from qwalk.evolution import DefectMap, WalkSpec, evolve, run_walk
from qwalk.statespace import localized_state, symmetric_coin

from oracles import brute_force_walk_1d, distribution_1d

H = hadamard()
H2 = tensor(H, H)


def delta_dist(halfwidth, *pos):
    n = 2 * halfwidth + 1
    p = np.zeros((n,) * len(pos))
    p[tuple(c + halfwidth for c in pos)] = 1.0
    return Distribution(p, halfwidth)


# ----------------------------------------------------------- distribution


def test_distribution_of_localized_state():
    s = localized_state(2, 3, (1, -2), symmetric_coin(2))
    p = distribution(s)
    assert p.at(1, -2) == pytest.approx(1.0, abs=1e-14)
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_one_step_quarter():
    reports = list(evolve(WalkSpec(2, 1, H2)))
    p = distribution(reports[-1].state)
    for site in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert p.at(*site) == pytest.approx(0.25, abs=1e-12)


def test_distribution_sums_to_one_along_run():
    for report in evolve(WalkSpec(2, 6, H2, DefectMap.cross_xy(1.0))):
        assert distribution(report.state).probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, -0.1, 0.6]), 1)
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.1, 0.6]), 1)
    with pytest.raises(ValueError):
        Distribution(np.ones(4) / 4, 1)  # shape mismatch


# ------------------------------------------------------------ l1_distance


def test_l1_identical_is_zero():
    p = delta_dist(2, 0, 0)
    assert l1_distance(p, p) == 0.0


def test_l1_disjoint_deltas():
    assert l1_distance(delta_dist(2, 0, 0), delta_dist(2, 1, 1)) == 1.0


def test_l1_half_overlap():
    two = Distribution(np.array([0.5, 0.0, 0.5]), 1)
    one = delta_dist(1, -1)
    assert l1_distance(two, one) == pytest.approx(0.5)


def test_l1_zero_pads_mismatched_lattices():
    assert l1_distance(delta_dist(1, 0), delta_dist(3, 0)) == 0.0
    assert l1_distance(delta_dist(1, 1), delta_dist(3, 2)) == 1.0
    with pytest.raises(ValueError):
        l1_distance(delta_dist(1, 0), delta_dist(1, 0, 0))


@st.composite
def distributions(draw, n=5):
    raw = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n).filter(
            lambda v: sum(v) > 1e-3
        )
    )
    arr = np.array(raw)
    return Distribution(arr / arr.sum(), n // 2)


@given(distributions(), distributions(), distributions())
@example(  # disjoint supports: the sum used to round to 1 + 1 ulp
    Distribution(np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 2),
    Distribution(np.array([0.4, 0.2, 0.09, 0.0, 0.3]) / 0.99, 2),
    Distribution(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), 2),
)
@settings(max_examples=100, deadline=None)
def test_l1_is_a_metric(p, q, r):
    assert l1_distance(p, q) == pytest.approx(l1_distance(q, p))
    assert l1_distance(p, p) == 0.0
    assert 0.0 <= l1_distance(p, q) <= 1.0
    assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12


# --------------------------------------------------------------- marginal


def test_marginal_of_product_distribution():
    px = np.array([0.2, 0.3, 0.5])
    py = np.array([0.1, 0.6, 0.3])
    joint = Distribution(np.outer(px, py), 1)
    np.testing.assert_allclose(marginal(joint, "x").probs, px)
    np.testing.assert_allclose(marginal(joint, "y").probs, py)


def test_marginal_of_delta():
    p = marginal(delta_dist(3, 2, 3), "x")
    assert p.at(2) == 1.0


def test_marginal_matches_independent_1d_walk():
    t = 10
    final = run_walk(WalkSpec(2, t, H2))
    got = marginal(distribution(final), "x")
    oracle = distribution_1d(
        brute_force_walk_1d(t, hadamard(), symmetric_coin(1)), t
    )
    np.testing.assert_allclose(got.probs, oracle, atol=1e-12)


def test_marginal_axis_validation():
    with pytest.raises(ValueError):
        marginal(delta_dist(1, 0, 0), "z")
    with pytest.raises(ValueError):
        marginal(delta_dist(1, 0), "x")
    with pytest.raises(ValueError, match="2D distribution requires an axis"):
        variance(delta_dist(1, 0, 0))


# --------------------------------------------------------------- variance


def test_variance_of_delta_is_zero():
    assert variance(delta_dist(4, 2)) == pytest.approx(0.0)


def test_variance_is_about_the_mean():
    # off-center delta still has zero variance; an origin-second-moment
    # implementation would give 4
    assert variance(delta_dist(4, 2)) == pytest.approx(0.0, abs=1e-12)


def test_classical_rw_variance_is_t():
    for t in (1, 2, 5, 10):
        assert variance(classical_rw_distribution(t)) == pytest.approx(float(t))


def test_variance_matches_brute_force_at_t10():
    t = 10
    amps = brute_force_walk_1d(t, hadamard(), symmetric_coin(1))
    oracle_p = distribution_1d(amps, t)
    xs = np.arange(-t, t + 1, dtype=float)
    oracle_var = float((xs**2 * oracle_p).sum() - ((xs * oracle_p).sum()) ** 2)
    final = run_walk(WalkSpec(1, t, H))
    assert variance(distribution(final)) == pytest.approx(oracle_var, abs=1e-12)


def test_ballistic_scaling_constant():
    # Var(t)/t^2 approaches 1 - 1/sqrt(2) for the symmetric Hadamard walk;
    # convergence is O(1/t) so t=200 sits well within 1% of the limit
    t = 200
    final = run_walk(WalkSpec(1, t, H))
    ratio = variance(distribution(final)) / t**2
    assert abs(ratio - (1 - 1 / np.sqrt(2))) < 0.01


def test_variance_support_bound():
    for report in evolve(WalkSpec(2, 7, H2, DefectMap.cross_xy(0.5))):
        p = distribution(report.state)
        assert variance(p, "x") <= report.step**2 + 1e-9
        assert variance(p, "y") <= report.step**2 + 1e-9


# ------------------------------------------------------------- recurrence


def test_recurrence_of_delta():
    assert recurrence_probability(delta_dist(2, 0, 0)) == 1.0


def test_recurrence_requires_2d():
    with pytest.raises(ValueError):
        recurrence_probability(delta_dist(2, 0))


def test_recurrence_homogeneous_small_and_matches_oracle():
    t = 10
    final = run_walk(WalkSpec(2, t, H2))
    got = recurrence_probability(distribution(final))
    assert got < 0.1
    # homogeneous cross walk factorizes: P(0,0) = P_1d(0)^2
    p1 = distribution_1d(brute_force_walk_1d(t, hadamard(), symmetric_coin(1)), t)
    assert got == pytest.approx(p1[t] ** 2, abs=1e-12)


# ------------------------------------------------------------- classical


def test_classical_rw_t0_and_t2():
    p0 = classical_rw_distribution(0)
    assert p0.halfwidth == 0 and p0.probs[0] == 1.0
    p2 = classical_rw_distribution(2)
    np.testing.assert_allclose(p2.probs, [0.25, 0, 0.5, 0, 0.25])
    with pytest.raises(ValueError):
        classical_rw_distribution(-1)


# ----------------------------------------------------- structural claims


def test_homogeneous_walk_factorizes_every_step():
    for report in evolve(WalkSpec(2, 10, H2)):
        p = distribution(report.state)
        px = marginal(p, "x").probs
        py = marginal(p, "y").probs
        assert np.abs(p.probs - np.outer(px, py)).max() < 1e-12


def test_line_defect_leaves_x_marginal_untouched():
    t = 10
    homogeneous = [
        marginal(distribution(r.state), "x").probs
        for r in evolve(WalkSpec(2, t, H2))
    ]
    for phi in (np.pi / 4, np.pi / 2, np.pi):
        for i, report in enumerate(evolve(WalkSpec(2, t, H2, DefectMap.line_y(phi)))):
            got = marginal(distribution(report.state), "x").probs
            assert np.abs(got - homogeneous[i]).max() < 1e-12


def test_summarize_fields():
    final = run_walk(WalkSpec(2, 4, H2))
    s = summarize(4, final)
    assert s.step == 4
    assert s.variance_y is not None
    final1 = run_walk(WalkSpec(1, 4, H))
    s1 = summarize(4, final1)
    assert s1.variance_y is None


@pytest.mark.parametrize(
    "spec",
    [
        WalkSpec(2, 9, H2, DefectMap.cross_xy(np.pi)),
        WalkSpec(2, 4, H2, initial_position=(1, 0), halfwidth=6),  # origin off the grid
        WalkSpec(1, 12, H, DefectMap.point(0.5), initial_position=-1, halfwidth=15),
    ],
)
def test_summaries_of_the_cone_grid_match_the_dense_state(spec):
    for report in evolve(spec):
        grid, dense = report.grid, report.state
        np.testing.assert_array_equal(distribution(grid).probs, distribution(dense).probs)
        a, b = summarize(report.step, grid), summarize(report.step, dense)
        assert a.recurrence == b.recurrence
        assert a.variance_x == pytest.approx(b.variance_x, rel=1e-12, abs=1e-13)
        if b.variance_y is not None:
            assert a.variance_y == pytest.approx(b.variance_y, rel=1e-12, abs=1e-13)
    assert l1_distance(distribution(grid), distribution(dense)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("x0", [10**3, 10**5])
@pytest.mark.parametrize("dim", [1, 2])
def test_the_cone_grid_of_an_off_origin_walk_has_the_origin_walks_variances(dim, x0):
    # Variances are taken from the grid's middle site, the walk's start: in
    # lattice coordinates x0^2 cancelled against them, losing 2.3e-10 of a
    # 50-step variance at x0 = 1e3 and 3.8e-6 at 1e5.
    coin = H if dim == 1 else fractional_swap(0.3)
    here, there = ([summarize(r.step, r.grid) for r in evolve(WalkSpec(
        dim, 50, coin, initial_position=start, halfwidth=x0 + 50))]
        for start in ((0, x0) if dim == 1 else ((0, 0), (x0, -x0))))
    assert [(s.variance_x, s.variance_y) for s in there] == [
        (s.variance_x, s.variance_y) for s in here]


@pytest.mark.parametrize("x0", [10**3, 10**5])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_a_dense_off_origin_walk_has_the_origin_walks_variances(boundary, x0):
    # Dense variances are taken from the middle of the walk's nonzero sites.
    # From the lattice's middle site, 0, this walk's variance read 1e6 eps
    # (relative) off at x0 = 1e3 and 1.7e10 eps off at 1e5.  The sums still
    # run over the whole lattice row, so where the walk sits in it can move a
    # last bit (measured: at most 1.23 eps, at x0 = 1e3).
    def variances(start):
        spec = WalkSpec(1, 50, H, initial_position=start, initial_coin=[0.6, 0.8j],
                        boundary=boundary, halfwidth=start + 100)
        summaries = [summarize(r.step, r.state).variance_x for r in evolve(spec)]
        return summaries + [variance(distribution(run_walk(spec)))]

    ulp = np.finfo(np.float64).eps
    for far, here in zip(variances(x0), variances(0), strict=True):
        assert abs(far - here) <= 2 * ulp * here


def test_nan_probabilities_are_rejected():
    # A NaN used to be reported as "negative probability nan".
    with pytest.raises(ValueError, match=r"^probability is NaN$"):
        Distribution(np.array([0.5, np.nan, 0.5]), 1)
    with pytest.raises(ValueError, match=r"^negative probability -0\.5$"):
        Distribution(np.array([0.5, -0.5, 1.0]), 1)
    state = localized_state(2, 2, (0, 0), symmetric_coin(2))
    state.amplitudes[1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        summarize(0, state)
