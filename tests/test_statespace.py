import numpy as np
import pytest

from qwalk.analysis import Distribution
from qwalk.coins import CoinField, hadamard, tensor
from qwalk.evolution import DefectMap
from qwalk.isomorphism import BasisPermutation
from qwalk.statespace import (
    SublatticeState,
    WalkerState,
    as_coin_state,
    localized_state,
    state_dimension,
    symmetric_coin,
)


def test_dimension_formulas():
    for L in range(1, 8):
        assert state_dimension(1, L) == 2 * (2 * L + 1)
        assert state_dimension(2, L) == 4 * (2 * L + 1) ** 2


def test_localized_state_1d_delta():
    s = localized_state(1, 10, 0, [1, 0])
    assert s.amplitudes[10, 0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_localized_state_2d_symmetric():
    coin = symmetric_coin(2)
    s = localized_state(2, 11, (0, 0), coin)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(s.amplitudes[11, 11, :], coin)
    # |H> -> |0| with weight 1/sqrt2 per factor
    assert s.amplitudes[11, 11, 0] == pytest.approx(0.5)


def test_localized_state_bounds():
    with pytest.raises(IndexError):
        localized_state(1, 10, 11, [1, 0])
    with pytest.raises(IndexError):
        localized_state(2, 5, (0, 6), symmetric_coin(2))


@pytest.mark.parametrize(
    "dim, origin", [(1, 0.7), (1, 1.9), (1, True), (2, (0.5, 0)), (2, (1, True))]
)
def test_localized_state_rejects_a_non_integer_origin(dim, origin):
    # 0.7 used to start at site 0, and 1.9 and true at site 1.
    with pytest.raises(ValueError, match="origin must be an integer"):
        localized_state(dim, 3, origin, symmetric_coin(dim))


def test_localized_state_rejects_nonunit_coin():
    with pytest.raises(ValueError):
        localized_state(1, 5, 0, [1, 1])
    with pytest.raises(ValueError):
        as_coin_state([0.5, 0.5, 0.5, 0.6], 2)
    with pytest.raises(ValueError):
        as_coin_state([float("nan"), 0.5, 0.5, 0.5], 2)


def test_pack_order_1d():
    # declared row-major (x then c) ordering
    assert localized_state(1, 1, -1, [1, 0]).packed()[0] == 1
    assert localized_state(1, 1, 1, [0, 1]).packed()[5] == 1


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_pack_unpack_bijection_1d(L):
    # Each basis state packs to its own index, and unravelling the index
    # over the amplitude table's shape gives its (x, c) back.
    seen = set()
    for x in range(-L, L + 1):
        for c in (0, 1):
            state = localized_state(1, L, x, np.eye(2)[c])
            (i,) = np.flatnonzero(state.packed())
            assert np.unravel_index(i, state.amplitudes.shape) == (x + L, c)
            seen.add(int(i))
    assert seen == set(range(state_dimension(1, L)))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_pack_unpack_bijection_2d(L):
    seen = set()
    for x in range(-L, L + 1):
        for y in range(-L, L + 1):
            for c in (0, 1):
                for d in (0, 1):
                    state = localized_state(2, L, (x, y), np.eye(4)[2 * c + d])
                    (i,) = np.flatnonzero(state.packed())
                    assert np.unravel_index(i, state.amplitudes.shape) == (x + L, y + L, 2 * c + d)
                    seen.add(int(i))
    assert seen == set(range(state_dimension(2, L)))


@pytest.mark.parametrize("L", [1, 2, 3])
def test_packed_matches_pack_index(L):
    # The documented packed order, position-major and coin-minor:
    # pack(x, c) = (x + L)*2 + c and
    # pack(x, y, c, d) = ((x + L)*(2L+1) + (y + L))*4 + 2*c + d.
    rng = np.random.default_rng(3)
    n = 2 * L + 1
    one = WalkerState(1, L, rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    two = WalkerState(2, L, rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4)))
    packed_1d, packed_2d = one.packed(), two.packed()
    assert packed_1d.size == state_dimension(1, L) and packed_2d.size == state_dimension(2, L)
    for x in range(-L, L + 1):
        for c in (0, 1):
            assert packed_1d[(x + L) * 2 + c] == one.amplitudes[x + L, c]
        for y in range(-L, L + 1):
            for c in (0, 1):
                for d in (0, 1):
                    i = ((x + L) * n + (y + L)) * 4 + 2 * c + d
                    assert packed_2d[i] == two.amplitudes[x + L, y + L, 2 * c + d]


def test_norm_scaling():
    s = localized_state(1, 3, 0, [1, 0])
    doubled = WalkerState(1, 3, 2 * s.amplitudes)
    assert np.linalg.norm(doubled.amplitudes) == pytest.approx(2.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        WalkerState(1, 2, np.zeros((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        WalkerState(2, 2, np.zeros((5, 5, 2), dtype=complex))


def test_symmetric_coin_is_unit():
    for dim in (1, 2):
        v = symmetric_coin(dim)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        symmetric_coin(2), np.kron(symmetric_coin(1), symmetric_coin(1))
    )


def test_sublattice_expand_places_sites_two_apart():
    with pytest.raises(ValueError):
        SublatticeState(2, 3, (0, 0), np.zeros((2, 2, 2)))  # 2D needs 4 components
    amps = np.arange(16, dtype=complex).reshape(2, 2, 4)
    grid = SublatticeState(2, 3, (-1, 0), amps)
    dense = grid.expand()
    assert dense.amplitudes.shape == (7, 7, 4)
    np.testing.assert_array_equal(grid.coordinates(0), [-1, 1])
    np.testing.assert_array_equal(grid.coordinates(1), [0, 2])
    for i, x in enumerate(grid.coordinates(0)):
        for j, y in enumerate(grid.coordinates(1)):
            np.testing.assert_array_equal(dense.amplitudes[x + 3, y + 3], amps[i, j])
    assert np.count_nonzero(dense.amplitudes.sum(axis=-1)) == 4


def test_sublattice_must_fit_the_lattice():
    SublatticeState(1, 2, (-2,), np.zeros((3, 2)))  # sites -2, 0, 2
    with pytest.raises(IndexError):
        SublatticeState(1, 2, (-1,), np.zeros((3, 2)))  # would reach x = 3
    with pytest.raises(IndexError):
        SublatticeState(2, 2, (0, -3), np.zeros((1, 1, 4)))
    with pytest.raises(ValueError):
        SublatticeState(2, 2, (0, 0), np.zeros((1, 2, 4)))  # not square


H = hadamard()
THREE = np.array([0.25, 0.5, 0.25])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Distribution(THREE, 1).at(-2), IndexError),
        (lambda: Distribution(THREE, 1).at(-3), IndexError),
        (lambda: BasisPermutation.build(1).site_image(0, 2), IndexError),
        (lambda: SublatticeState(1, 5, (0.7,), [[1, 0]]), ValueError),
        (lambda: SublatticeState(1, 5, (True,), [[1, 0]]), ValueError),
        (lambda: WalkerState(1, 1.5, np.zeros((4, 2))), ValueError),
        (lambda: Distribution(np.ones(4) / 4, 1.5), ValueError),
        (lambda: WalkerState(True, 1, np.zeros((3, 2))), ValueError),
        (lambda: CoinField(True, H), ValueError),
        (lambda: CoinField(2, tensor(H, H), {(True, 0): np.eye(4)}), ValueError),
        (lambda: CoinField(2, tensor(H, H), {(0.5, 0): np.eye(4)}), ValueError),
        (lambda: CoinField(1, H, {1.0: np.eye(2)}), ValueError),
        (lambda: DefectMap.custom({(True, 0): 1.0}).phase_grid(2, 2), ValueError),
        (lambda: DefectMap.custom({(1.0, 0): 1.0}).phase_grid(2, 2), ValueError),
        (lambda: DefectMap.custom({True: 1.0}).phase_grid(2, 1), ValueError),
        (lambda: as_coin_state([1, 0, 0, 0], 3), ValueError),
        (lambda: as_coin_state([1, 0], True), ValueError),
        (lambda: as_coin_state([1, 0, 0], 2), ValueError),
        (lambda: state_dimension(1, 1.5), ValueError),
        (lambda: state_dimension(2, True), ValueError),
        (lambda: state_dimension(1, 0), ValueError),
        (lambda: localized_state(1, 1.5, 0, [1, 0]), ValueError),
        (lambda: localized_state(2, True, (0, 0), symmetric_coin(2)), ValueError),
        (lambda: localized_state(1, 0, 0, [1, 0]), ValueError),
        (lambda: localized_state(2, 2, (0,), symmetric_coin(2)), ValueError),
    ],
    ids=[
        "at-past-the-left-edge", "at-two-past-the-left-edge", "site-image-off-the-lattice",
        "first-fraction", "first-bool", "walker-halfwidth-fraction",
        "distribution-halfwidth-fraction", "walker-dimensionality-bool",
        "coin-field-dimensionality-bool", "coin-site-bool", "coin-site-fraction",
        "1d-coin-site-fraction", "custom-site-bool", "custom-site-fraction",
        "1d-custom-site-bool", "coin-state-dimensionality-3",
        "coin-state-dimensionality-bool", "coin-state-length-3",
        "dimension-halfwidth-fraction", "dimension-halfwidth-bool", "dimension-halfwidth-0",
        "localized-halfwidth-fraction", "localized-halfwidth-bool", "localized-halfwidth-0",
        "2d-origin-of-one-coordinate",
    ],
)
def test_lattice_facts_are_integers_and_sites_lie_on_the_lattice(build, error):
    # Each of these used to give a plausible wrong answer: at(-2) read
    # p(+1), site_image(0, 2) gave the image of (1, -1), a first of 0.7
    # became 0, a bool counted as 1, and state_dimension(1, 1.5) returned
    # 8.0.  A fractional custom site raised TypeError.
    with pytest.raises(error):
        build()


def test_sites_may_be_ints_tuples_lists_and_numpy_integers_or_arrays():
    coin = symmetric_coin(2)
    for origin in [(1, -1), [1, -1], np.array([1, -1]), (np.int64(1), np.int64(-1))]:
        assert localized_state(2, 2, origin, coin).amplitudes[3, 1].any()
    assert localized_state(1, 2, np.int64(-2), [1, 0]).amplitudes[0, 0] == 1
    assert Distribution(THREE, 1).at(np.int64(1)) == 0.25
    assert SublatticeState(1, 2, np.array([0]), [[1, 0]]).first == (0,)
    grid = DefectMap.custom({(np.int64(1), 0): 0.5}).phase_grid(1, 2)
    assert grid[2, 1] == np.exp(0.5j)
