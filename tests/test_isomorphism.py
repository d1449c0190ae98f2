import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.analysis import Distribution, distribution
from qwalk import isomorphism
from qwalk.coins import (
    IDENTITY2,
    IDENTITY4,
    PAULI_Z,
    CoinField,
    as_coin_field,
    fractional_swap,
    hadamard,
    random_su2,
    su4_compose,
    tensor,
    unitarity_check,
)
from qwalk.evolution import (
    _DIAGONAL_MOVES,
    DefectMap,
    WalkSpec,
    _Stepper,
    _targets,
    build_step_matrix,
    run_walk,
)
from qwalk.isomorphism import (
    _AXIS_MOVES,
    BasisPermutation,
    _deviation,
    _permutation,
    axis_walk_state,
    build_two_walker_matrix,
    check_decomposition_claims,
    check_translation_equivalence,
    coordinate_forward,
    map_two_walker_distribution,
    random_shared_coin,
    transform_defect,
    transformed_step_matrix,
    verify_isomorphism,
)
from qwalk.statespace import symmetric_coin

from oracles import DIAGONAL_MOVES, brute_force_walk_1d, brute_force_walk_2d

H2 = tensor(hadamard(), hadamard())

# The single 2D walker's unit axis moves, written down apart from the
# package: (c, d) = 00 -> x+1, 01 -> y+1, 10 -> y-1, 11 -> x-1.
AXIS_MOVES = ((1, 0), (0, 1), (0, -1), (-1, 0))


def test_coordinate_forward_parity():
    for x in range(-4, 5):
        for y in range(-4, 5):
            u, v = coordinate_forward(x, y)
            assert (u + v) % 2 == 0
            assert abs(u) <= 8 and abs(v) <= 8


def test_basis_permutation_is_permutation():
    for L in (1, 2, 3):
        perm = BasisPermutation.build(L)
        P = perm.matrix()
        assert P.dtype == np.int64
        assert (P.sum(axis=0) == 1).all()
        assert (P.sum(axis=1) == 1).all()
        # integer arithmetic: exactly the identity
        assert np.array_equal(P.T @ P, np.eye(P.shape[0], dtype=np.int64))


def test_conjugate_matches_matrix_conjugation():
    L = 1
    perm = BasisPermutation.build(L)
    P = perm.matrix().astype(complex)
    U = transformed_step_matrix(L, H2)
    np.testing.assert_allclose(perm.conjugate(U), P.conj().T @ U @ P, atol=1e-14)


def test_translation_equivalence_exact():
    assert check_translation_equivalence(1) == 0.0
    assert check_translation_equivalence(2) == 0.0


def test_translation_equivalence_wrong_map_fails():
    dev = check_translation_equivalence(2, pair_map=lambda x, y: (x + y, y - x))
    assert dev >= 1.0
    with pytest.raises(ValueError, match="does not induce a bijection"):
        BasisPermutation.build(2, pair_map=lambda x, y: (0, 0))


def test_two_walker_matrix_pure_shift():
    U = build_two_walker_matrix(1, fractional_swap(0.0))
    assert np.array_equal(np.abs(U) > 0, np.abs(U) == 1)
    assert (np.abs(U).sum(axis=0) == 1).all()


def test_two_walker_matrix_unitary():
    rng = np.random.default_rng(21)
    for _ in range(5):
        U = build_two_walker_matrix(2, random_shared_coin(rng))
        assert unitarity_check(U) < 1e-12


def test_two_walker_matrix_factorizes_for_product_coins():
    # oracle: explicit tensor construction of two independent 1D steps,
    # reordered from (x, c, y, d) to (x, y, c, d)
    rng = np.random.default_rng(8)
    L = 2
    n = 2 * L + 1
    a, b = random_su2(rng), random_su2(rng)

    def step_1d(coin):
        U = np.zeros((2 * n, 2 * n), dtype=complex)
        for x in range(-L, L + 1):
            for cp in range(2):
                xp = (x + (1 - 2 * cp) + L) % n - L
                for c in range(2):
                    U[(xp + L) * 2 + cp, (x + L) * 2 + c] = coin[cp, c]
        return U

    kron = np.kron(step_1d(a), step_1d(b))
    # reorder (x, c, y, d) -> (x, y, c, d)
    reorder = np.empty(4 * n * n, dtype=np.int64)
    for x in range(n):
        for c in range(2):
            for y in range(n):
                for d in range(2):
                    src = ((x * 2 + c) * n + y) * 2 + d
                    dst = ((x * n + y) * 4) + 2 * c + d
                    reorder[src] = dst
    oracle = np.zeros_like(kron)
    oracle[np.ix_(reorder, reorder)] = kron
    got = build_two_walker_matrix(L, tensor(a, b))
    np.testing.assert_allclose(got, oracle, atol=1e-13)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_isomorphism_named_coins(L):
    assert verify_isomorphism(L, H2) < 1e-12
    assert verify_isomorphism(L, fractional_swap(0.3)) < 1e-12
    assert verify_isomorphism(L, IDENTITY4) == 0.0


def test_isomorphism_random_separable():
    rng = np.random.default_rng(77)
    for _ in range(10):
        coin = tensor(random_su2(rng), random_su2(rng))
        assert verify_isomorphism(3, coin) < 1e-12


def test_isomorphism_with_defects():
    for defect in (
        DefectMap.point(0.9),
        DefectMap.line_y(1.7),
        DefectMap.cross_xy(np.pi),
        DefectMap.custom({(1, -1): 0.3, (0, 2): -0.8}),
    ):
        assert verify_isomorphism(2, H2, defect) < 1e-12


@pytest.mark.parametrize("phi", [np.pi, np.pi / 4, 1.234])
@pytest.mark.parametrize("kind", ["line_y", "cross_xy"])
def test_a_line_defect_is_exact_at_the_papers_lattice(kind, phi):
    # The paper's 11x11 lattice (L = 5): under a line defect the two
    # walkers are exactly one 2D walker, for the named coins and for
    # random shared ones.
    defect = getattr(DefectMap, kind)(phi)
    rng = np.random.default_rng(11)
    coins = [H2, fractional_swap(0.5)] + [random_shared_coin(rng) for _ in range(20)]
    assert [verify_isomorphism(5, coin, defect) for coin in coins] == [0.0] * len(coins)


def test_transform_defect_moves_sites():
    moved = transform_defect(DefectMap.point(0.5), 2)
    assert moved.kind == "custom"
    # the origin is a fixed point of the pair map
    assert moved.table == {(0, 0): pytest.approx(0.5)}
    assert transform_defect(DefectMap.none(), 2).kind == "none"
    assert transform_defect(None, 2).kind == "none"


def test_size_cap():
    with pytest.raises(ValueError):
        verify_isomorphism(40, H2)
    with pytest.raises(ValueError):
        build_two_walker_matrix(40, H2)


def test_decomposition_claims_report():
    report = check_decomposition_claims(trials=50, seed=3)
    assert report["separable"]["confirmed"]
    assert report["separable"]["max_deviation"] < 1e-12
    ent = report["entangled"]
    assert ent["finding"] == "matches -(Z x Z) @ fractional_swap(tau) exactly"
    assert ent["max_deviation_zz_factor"] < 1e-12
    assert ent["max_deviation_exact"] > 0.5
    assert ent["max_deviation_global_phase"] > 0.5
    # at tau = 0 the bracket does not collapse to the identity
    assert not report["tau_zero_bracket"]["equals_identity"]


def _claims_by_the_per_trial_loop(trials, seed, tol=1e-12):
    """The decomposition report as a loop computes it: one trial at a time
    (sequential random_su2, np.kron, one su4_compose a trial), then one tau
    at a time, each maximum kept with Python's max."""
    rng = np.random.default_rng(seed)
    sep = 0.0
    for _ in range(trials):
        u1, u2, v1, v2 = (random_su2(rng) for _ in range(4))
        composed = su4_compose(u1, u2, v1, v2, 0.0, 0.0, 0.0)
        sep = max(sep, float(np.abs(composed - np.kron(u1 @ v1, u2 @ v2)).max()))
    taus = np.concatenate([np.linspace(0.0, 1.0, 11), rng.uniform(0, 1, 5)])
    zz = -np.kron(PAULI_Z, PAULI_Z)
    exact = phase = dev_zz = 0.0
    for tau in taus:
        composed = su4_compose(IDENTITY2, IDENTITY2, IDENTITY2, IDENTITY2, float(tau), -1.0, -1.0)
        target = fractional_swap(float(tau))
        overlap = np.vdot(target, composed)
        off_phase = (np.abs(composed) if abs(overlap) < 1e-30
                     else np.abs(composed - overlap / abs(overlap) * target))
        exact = max(exact, float(np.abs(composed - target).max()))
        phase = max(phase, float(off_phase.max()))
        dev_zz = max(dev_zz, float(np.abs(composed - zz @ target).max()))
    assert exact > tol and phase > tol and dev_zz <= tol  # the finding below
    bracket = su4_compose(IDENTITY2, IDENTITY2, IDENTITY2, IDENTITY2, 0.0, -1.0, -1.0)
    dev_identity = float(np.abs(bracket - IDENTITY4).max())
    return {
        "separable": {"trials": trials, "max_deviation": sep, "confirmed": sep <= tol},
        "entangled": {
            "taus": [float(t) for t in taus],
            "max_deviation_exact": exact,
            "max_deviation_global_phase": phase,
            "max_deviation_zz_factor": dev_zz,
            "finding": "matches -(Z x Z) @ fractional_swap(tau) exactly",
        },
        "tau_zero_bracket": {
            "deviation_from_identity": dev_identity,
            "equals_identity": dev_identity <= tol,
        },
    }


@pytest.mark.parametrize("trials, seed", [(100, 7), (50, 3)])
def test_the_stacked_claims_give_the_per_trial_loops_report_exactly(trials, seed):
    # Dict equality compares every float with ==: the stack moves no bit.
    expected = _claims_by_the_per_trial_loop(trials, seed)
    assert check_decomposition_claims(trials=trials, seed=seed) == expected


@pytest.mark.parametrize(
    "kwargs",
    [{"trials": 0}, {"trials": -3}, {"taus": np.array([])}, {"taus": np.array([np.nan])},
     {"taus": np.array([0.5, np.inf])}],
    ids=["trials-0", "trials-negative", "taus-empty", "taus-nan", "taus-inf"],
)
def test_the_decomposition_claims_refuse_a_vacuous_or_undefined_probe(kwargs):
    # Each gave a confirmed or "exactly" finding from no evidence.
    with pytest.raises(ValueError, match="need trials >= 1 and non-empty finite taus"):
        check_decomposition_claims(**kwargs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_deviation_in_the_claims_is_reported_not_dropped(monkeypatch):
    # One separable trial and one tau give NaN; Python's max(0.0, nan) is 0.0.
    compose, swap = isomorphism.su4_compose, isomorphism.fractional_swap

    def spoiled_compose(*args):
        out = compose(*args)
        if out.ndim == 3:  # the separable stack
            out[7] = np.nan
        return out

    monkeypatch.setattr(isomorphism, "su4_compose", spoiled_compose)
    monkeypatch.setattr(isomorphism, "fractional_swap", lambda t: swap(t) * (np.nan if t == 0.5 else 1))
    report = check_decomposition_claims(trials=20, seed=1)
    assert np.isnan(report["separable"]["max_deviation"])
    assert not report["separable"]["confirmed"]
    ent = report["entangled"]
    for key in ("max_deviation_exact", "max_deviation_global_phase", "max_deviation_zz_factor"):
        assert np.isnan(ent[key])
    assert ent["finding"] == "matches none of the three candidates"


def test_random_shared_coin_unitary():
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert unitarity_check(random_shared_coin(rng)) < 1e-12


# -------------------------------------------- state-level corollary


@pytest.mark.parametrize("coin", [H2, fractional_swap(0.5), H2 @ fractional_swap(0.25)])
def test_distribution_level_equivalence(coin):
    t = 6
    joint = distribution(run_walk(WalkSpec(2, t, coin)))
    mapped = map_two_walker_distribution(joint)
    direct = distribution(axis_walk_state(t, coin, symmetric_coin(2)))
    assert np.abs(mapped.probs - direct.probs).max() < 1e-12


def test_map_two_walker_distribution_rejects_odd_support():
    from qwalk.analysis import Distribution

    p = np.zeros((3, 3))
    p[2, 1] = 1.0  # site (1, 0): odd parity
    with pytest.raises(ValueError):
        map_two_walker_distribution(Distribution(p, 1))
    with pytest.raises(ValueError, match="expected a 2D joint distribution"):
        map_two_walker_distribution(Distribution(np.array([0.0, 1.0, 0.0]), 1))


@pytest.mark.parametrize(
    "steps, halfwidth", [(-1, None), (True, None), (1.0, None), (3, 2), (2, True)]
)
def test_axis_walk_state_rejects_what_a_walk_spec_rejects(steps, halfwidth):
    # steps=-1 used to return the start state, and steps=True to run one step.
    with pytest.raises(ValueError):
        WalkSpec(2, steps, H2, halfwidth=halfwidth)
    with pytest.raises(ValueError):
        axis_walk_state(steps, H2, symmetric_coin(2), halfwidth)


def test_axis_walk_state_checks_the_norm_of_every_step():
    # (1 + 4e-13) H2 passes the coin's unitarity check, but its norm grows
    # each step; the unit-axis walk used to return a state 1.6e-10 off
    # unit norm where the diagonal walk stops at step 126.
    coin = (1 + 4e-13) * H2
    with pytest.raises(RuntimeError, match="norm residual .* at step 126 "):
        run_walk(WalkSpec(2, 200, coin))
    with pytest.raises(RuntimeError, match="norm residual .* at step 126 "):
        axis_walk_state(200, coin, symmetric_coin(2))


def test_axis_walk_norm_and_support():
    s = axis_walk_state(5, H2, symmetric_coin(2))
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    p = distribution(s)
    xs = np.arange(-5, 6)
    occupied = np.argwhere(p.probs > 0)
    for xi, yi in occupied:
        assert abs(xs[xi]) + abs(xs[yi]) <= 5


# ------------------------------------- move tables against the oracle


def _dense_2d(amps, L):
    """The 2D oracle's amplitude dict in the package's (x, y, 2c + d) layout."""
    out = np.zeros((2 * L + 1, 2 * L + 1, 4), dtype=complex)
    for (x, y, c, d), a in amps.items():
        out[x + L, y + L, 2 * c + d] = a
    return out


@pytest.mark.parametrize("t", range(7))
def test_axis_walk_state_matches_oracle(t):
    rng = np.random.default_rng(60 + t)
    for _ in range(3):
        coin = random_shared_coin(rng)
        coin0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        coin0 /= np.linalg.norm(coin0)
        state = axis_walk_state(t, coin, coin0)
        amps = brute_force_walk_2d(t, coin, coin0, moves=AXIS_MOVES)
        np.testing.assert_allclose(
            state.amplitudes, _dense_2d(amps, state.halfwidth), rtol=0, atol=1e-13
        )


def test_axis_walk_state_builds_one_stepper(monkeypatch):
    # It used to build its WalkSpec's stepper, never run, and a second one.
    built = []
    init = _Stepper.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Stepper, "__init__", counted)
    axis_walk_state(5, H2, symmetric_coin(2))
    assert len(built) == 1


@pytest.mark.parametrize("walk", ["1d", "two-walker", "axis"])
def test_step_matrix_interior_columns_match_one_oracle_step(walk):
    # Each column of a step matrix is one step from a single basis state.
    # Away from the periodic seam that step is the oracle's, for a
    # site-dependent coin and phase.
    rng = np.random.default_rng(9)
    L = 3
    n = 2 * L + 1
    dim = 1 if walk == "1d" else 2
    k = 2 * dim
    coin = random_su2(rng) if dim == 1 else random_shared_coin(rng)
    special = random_su2(rng) if dim == 1 else random_shared_coin(rng)
    site = 1 if dim == 1 else (1, -1)
    phases = {0: 0.7, 1: -1.2, -2: 2.5}
    if dim == 2:
        phases = {(0, 0): 0.7, (1, -1): -1.2, (-2, 2): 2.5}
    field, defect = CoinField(dim, coin, {site: special}), DefectMap.custom(phases)
    if walk == "axis":
        U = transformed_step_matrix(L, field, defect)
    else:
        U = build_step_matrix(dim, L, field, defect)

    def oracle_coin(*s):
        return special if s == (site if dim == 2 else (site,)) else coin

    def phase_at(*s):
        return phases.get(s if dim == 2 else s[0], 0.0)

    interior = range(-L + 1, L)
    sites = [(x,) for x in interior]
    if dim == 2:
        sites = [(x, y) for x in interior for y in interior]
    for s in sites:
        for c in range(k):
            e = np.eye(k)[c]
            if dim == 1:
                amps = brute_force_walk_1d(1, oracle_coin, e, phase_at, s[0])
                expected = np.zeros((n, 2), dtype=complex)
                for (x, cp), a in amps.items():
                    expected[x + L, cp] = a
            else:
                moves = AXIS_MOVES if walk == "axis" else DIAGONAL_MOVES
                amps = brute_force_walk_2d(1, oracle_coin, e, phase_at, s, moves)
                expected = _dense_2d(amps, L)
            col = np.ravel_multi_index(tuple(v + L for v in s), (n,) * dim) * k + c
            np.testing.assert_allclose(U[:, col], expected.ravel(), rtol=0, atol=1e-15)


# ----------------------------- column comparison against the dense one


def _dense_deviation(L, coin, defect, perm):
    """max |U_two - P^T U_2d P| built from the dense public operators.

    A per-site coin table is carried to the 2D sites through the pair map's
    ``site_image``, as ``transform_defect`` carries a defect; ``perm`` is
    only the relabeling that is checked.
    """
    u_two = build_two_walker_matrix(L, coin, defect)
    if isinstance(coin, CoinField):
        image = BasisPermutation.build(L).site_image
        coin = CoinField(2, coin.default, {image(*s): m for s, m in coin.table.items()})
    u_2d = transformed_step_matrix(L, coin, transform_defect(defect, L))
    return float(np.abs(u_two - perm.conjugate(u_2d)).max())


COINS = {
    "hadamard-pair": H2,
    "fractional-swap": fractional_swap(0.5),
    "random": random_shared_coin(np.random.default_rng(12)),
    # A site off the pair map's fixed point: the coin table must be carried
    # across, or the deviation is 1.3556 under the right map.
    "coin-field": CoinField(2, H2, {(1, -1): fractional_swap(0.3)}),
}
DEFECTS = {
    "none": None,
    "line_y": DefectMap.line_y(1.7),
    "cross_xy": DefectMap.cross_xy(np.pi),
    "point": DefectMap.point(0.9),
    "custom": DefectMap.custom({(1, -1): 0.3, (0, 1): -0.8}),
}
WRONG_PAIR_MAPS = {
    "rotated": lambda x, y: (x + y, y - x),
    "identity": lambda x, y: (x, y),
    "swapped": lambda x, y: (x - y, x + y),
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("L", [1, 2, 3])
def test_entry_deviation_equals_dense_deviation(L, coin, defect):
    coin, defect = COINS[coin], DEFECTS[defect]
    dense = _dense_deviation(L, coin, defect, BasisPermutation.build(L))
    assert verify_isomorphism(L, coin, defect) == dense == 0.0
    for pair_map in WRONG_PAIR_MAPS.values():
        dense = _dense_deviation(L, coin, defect, BasisPermutation.build(L, pair_map))
        assert dense > 0.0
        assert _deviation(L, coin, defect, pair_map) == dense


def test_an_entry_only_the_relabeled_side_has_counts_in_full():
    # The pair map is right except on a 4-cycle of sites, and one site of
    # that cycle has the coin 1 (+) Q.  Its entry 1 lands off the matched
    # sites only on the 2D side: every two-walker entry off the matched
    # sites and every matched difference is at most 2/3.
    u, _, vh = np.linalg.svd(H2[1:, 1:])
    peaked = np.eye(4, dtype=complex)
    peaked[1:, 1:] = u @ vh
    L = 2
    image = BasisPermutation.build(L).site_image
    cycle = {(0, 0): (0, -2), (0, -2): (1, 1), (1, 1): (1, -1), (1, -1): (0, 0)}

    def pair_map(x, y):
        # Twice the image: the mod-n halving gives the image back.
        return tuple(2 * v for v in image(*cycle.get((x, y), (x, y))))

    field = CoinField(2, H2, {(0, 0): peaked})
    dense = _dense_deviation(L, field, None, BasisPermutation.build(L, pair_map))
    assert _deviation(L, field, None, pair_map) == dense == 1.0


@pytest.mark.parametrize("L", [1, 2, 3])
def test_the_cached_site_tables_do_not_hide_a_wrong_pair_map(L):
    # The default map's tables are cached per halfwidth; a custom map's
    # deviation is still its own, before and after the cache is filled.
    coin = COINS["random"]
    _permutation.cache_clear()
    dense = {name: _dense_deviation(L, coin, None, BasisPermutation.build(L, pair_map))
             for name, pair_map in WRONG_PAIR_MAPS.items()}
    assert _deviation(L, coin, None, WRONG_PAIR_MAPS["rotated"]) == dense["rotated"] > 0.0
    assert verify_isomorphism(L, coin) == 0.0  # fills the cache
    for name, pair_map in WRONG_PAIR_MAPS.items():
        assert _deviation(L, coin, None, pair_map) == dense[name] > 0.0
        assert check_translation_equivalence(L, pair_map) > 0.0
    assert _deviation(L, coin, None, coordinate_forward) == verify_isomorphism(L, coin) == 0.0
    _permutation.cache_clear()


def _random_u4(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("L", [1, 2, 3])
def test_disordered_lattice_is_exactly_one_2d_walker(L, defect):
    # The paper's setting: a different coin at random sites.  Carried
    # across the pair map, every such lattice is exactly one 2D walker.
    rng = np.random.default_rng([L, list(DEFECTS).index(defect)])
    n = 2 * L + 1
    for _ in range(4):
        picks = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)), replace=False)
        table = {(int(i) // n - L, int(i) % n - L): _random_u4(rng) for i in picks}
        field = CoinField(2, _random_u4(rng), table)
        assert verify_isomorphism(L, field, DEFECTS[defect]) == 0.0
        assert _dense_deviation(L, field, DEFECTS[defect], BasisPermutation.build(L)) == 0.0


@pytest.mark.parametrize("pair_map", WRONG_PAIR_MAPS)
@pytest.mark.parametrize("L", [1, 2, 3])
def test_translation_deviation_equals_dense_deviation(L, pair_map):
    perm = BasisPermutation.build(L, WRONG_PAIR_MAPS[pair_map])
    u_two = build_two_walker_matrix(L, IDENTITY4)
    dense = float(np.abs(u_two - perm.conjugate(transformed_step_matrix(L, IDENTITY4))).max())
    assert check_translation_equivalence(L, WRONG_PAIR_MAPS[pair_map]) == dense == 1.0


def _loop_step_matrix(dim, L, coin, defect, moves):
    """Dense step matrix placed block row by block row in a site loop:
    column (s, c) holds phase(s) * coin(s)[c', c] at row (s + moves[c'], c')."""
    n, k = 2 * L + 1, 2 * dim
    shape = (n,) * dim
    blocks = as_coin_field(coin, dim).stacked(L)
    grid = (defect or DefectMap.none()).phase_grid(L, dim)
    if grid is not None:
        blocks = grid[..., None, None] * blocks
    U = np.zeros((n**dim * k,) * 2, dtype=complex)
    for s in np.ndindex(shape):
        col = np.ravel_multi_index(s, shape) * k
        for cp, move in enumerate(moves):
            t = tuple(np.add(s, move) % n)
            U[np.ravel_multi_index(t, shape) * k + cp, col : col + k] = blocks[s][cp]
    return U


@pytest.mark.parametrize("L", [1, 2, 3])
def test_dense_builders_match_a_site_loop_bitwise(L):
    rng = np.random.default_rng(40 + L)
    for coin in COINS.values():
        for defect in DEFECTS.values():
            for got, moves in (
                (build_two_walker_matrix(L, coin, defect), _DIAGONAL_MOVES[2]),
                (transformed_step_matrix(L, coin, defect), _AXIS_MOVES),
            ):
                assert got.tobytes() == _loop_step_matrix(2, L, coin, defect, moves).tobytes()
    for coin in (hadamard(), random_su2(rng), CoinField(1, hadamard(), {1: random_su2(rng)})):
        for defect in (None, DefectMap.point(0.9), DefectMap.custom({1: 0.3, -1: -0.8})):
            got = build_step_matrix(1, L, coin, defect)
            assert got.tobytes() == _loop_step_matrix(1, L, coin, defect, _DIAGONAL_MOVES[1]).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_targets_move_each_coin_component_by_a_site_permutation(dim):
    shape = (5,) * dim
    target = _targets(shape, _DIAGONAL_MOVES[dim])
    assert target.shape == (2 * dim, 5**dim)
    for row in target:
        assert sorted(row) == list(range(5**dim))


def test_isocheck_builds_the_permutation_once(monkeypatch):
    builds = []
    build = BasisPermutation.build.__func__

    def counted(cls, *args):
        builds.append(args)
        return build(cls, *args)

    monkeypatch.setattr(BasisPermutation, "build", classmethod(counted))
    _permutation.cache_clear()
    for coin in (H2, fractional_swap(0.5)):
        assert verify_isomorphism(2, coin, DefectMap.point(0.3)) == 0.0
    assert check_translation_equivalence(2) == 0.0
    assert builds == [(2,)]
    # The shared instance cannot be changed under its other callers.
    with pytest.raises(ValueError):
        _permutation(2).indices[0] = 0
    _permutation.cache_clear()


def test_verify_isomorphism_builds_no_dense_operator():
    # One dense 1156 x 1156 complex operator at L = 8 is 21 MB.
    tracemalloc.start()
    try:
        assert verify_isomorphism(8, fractional_swap(0.5)) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# ------------------------------------- exact for every phase and lattice


@settings(max_examples=200, deadline=None)
@given(
    L=st.integers(1, 3),
    kind=st.sampled_from(list(DEFECTS)),
    phis=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    coin_field=st.booleans(),
)
def test_any_phase_and_disordered_lattice_is_exactly_one_2d_walker(
    L, kind, phis, seed, coin_field
):
    # A phase carried as radians (np.angle, then exp) misses this for about
    # a third of uniform draws, by a few 1e-16.
    rng = np.random.default_rng(seed)
    n = 2 * L + 1
    sites = [(int(i) // n - L, int(i) % n - L) for i in rng.choice(n * n, n * n, replace=False)]
    if kind == "custom":
        defect = DefectMap.custom(dict(zip(sites, phis)))
    else:
        defect = None if kind == "none" else DefectMap(kind, phis[0])
    coin = random_shared_coin(rng)
    if coin_field:
        picks = sites[: int(rng.integers(1, n * n + 1))]
        coin = CoinField(2, coin, {site: _random_u4(rng) for site in picks})
    assert verify_isomorphism(L, coin, defect) == 0.0


def _loop_map_two_walker_distribution(dist):
    """The site loop that ``map_two_walker_distribution`` replaced, verbatim."""
    if dist.dimensionality != 2:
        raise ValueError("expected a 2D joint distribution")
    L = dist.halfwidth
    out = np.zeros_like(dist.probs)
    for xi in range(2 * L + 1):
        for yi in range(2 * L + 1):
            p = dist.probs[xi, yi]
            if p == 0.0:
                continue
            x, y = xi - L, yi - L
            if (x + y) % 2 != 0:
                raise ValueError(
                    f"probability {p} on odd-parity site ({x}, {y}); "
                    "not an origin-started two-walker distribution"
                )
            X, Y = (x + y) // 2, (x - y) // 2
            out[X + L, Y + L] += p
    return Distribution(out, L)


@pytest.mark.parametrize("L", [1, 2, 3, 6])
def test_map_two_walker_distribution_equals_the_site_loop_bitwise(L):
    rng = np.random.default_rng(90 + L)
    n = 2 * L + 1
    even = np.add.outer(np.arange(n), np.arange(n)) % 2 == 0
    for _ in range(5):
        # Random even-parity tables, some even sites left at zero.
        probs = rng.random((n, n)) ** 3 * even * (rng.random((n, n)) < 0.8)
        dist = Distribution(probs / probs.sum(), L)
        got = map_two_walker_distribution(dist).probs
        assert got.tobytes() == _loop_map_two_walker_distribution(dist).probs.tobytes()
