import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.coins import (
    IDENTITY2,
    IDENTITY4,
    PAULI_X,
    PAULI_Z,
    SWAP,
    CoinField,
    as_coin_field,
    fractional_swap,
    hadamard,
    is_unitary,
    random_su2,
    su2_from_angles,
    su4_compose,
    tensor,
    unitarity_check,
)
from qwalk.evolution import build_step_matrix
from qwalk.isomorphism import verify_isomorphism

angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_su2_identity():
    np.testing.assert_allclose(su2_from_angles(0, 0, 0), IDENTITY2)


def test_su2_pure_rotation():
    np.testing.assert_allclose(
        su2_from_angles(np.pi / 2, 0, 0), [[0, 1], [-1, 0]], atol=1e-15
    )


@given(angles, angles, angles)
@settings(max_examples=200, deadline=None)
def test_su2_unitary_det_one(theta, psi, phi):
    m = su2_from_angles(theta, psi, phi)
    assert unitarity_check(m) < 1e-12
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_hadamard_involution():
    h = hadamard()
    np.testing.assert_allclose(h @ h, IDENTITY2, atol=1e-15)
    np.testing.assert_allclose(h @ [1, 0], np.array([1, 1]) / np.sqrt(2))
    # determinant -1: a U(2) coin, not special-unitary
    assert np.linalg.det(h) == pytest.approx(-1.0)


def test_tensor_identity():
    np.testing.assert_allclose(tensor(IDENTITY2, IDENTITY2), IDENTITY4)


def test_tensor_hadamard_pair():
    hh = tensor(hadamard(), hadamard())
    assert np.abs(np.abs(hh) - 0.5).max() < 1e-15


def test_tensor_against_index_formula():
    # brute-force Kronecker oracle: (a x b)[2i+j, 2k+l] = a[i,k] b[j,l]
    a, b = PAULI_X, PAULI_Z
    t = tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert t[2 * i + j, 2 * k + l] == a[i, k] * b[j, l]


def test_tensor_shape_check():
    with pytest.raises(ValueError):
        tensor(IDENTITY4, IDENTITY2)


def test_fractional_swap_endpoints():
    np.testing.assert_allclose(fractional_swap(0), IDENTITY4, atol=1e-15)
    np.testing.assert_allclose(fractional_swap(1), SWAP, atol=1e-15)


def test_fractional_swap_sqrt():
    # tau = 1/2 with e^{i pi/2} = i gives the sqrt-swap middle block
    m = fractional_swap(0.5)
    expect = np.array(
        [
            [1, 0, 0, 0],
            [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
            [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
            [0, 0, 0, 1],
        ]
    )
    np.testing.assert_allclose(m, expect, atol=1e-15)


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_fractional_swap_one_parameter_group(t1, t2):
    prod = fractional_swap(t1) @ fractional_swap(t2)
    assert np.abs(prod - fractional_swap(t1 + t2)).max() < 1e-12


def test_fractional_swap_commutes_with_diagonal_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_su2(rng)
        tau = rng.uniform(-1, 2)
        aa = tensor(a, a)
        f = fractional_swap(tau)
        assert np.abs(aa @ f - f @ aa).max() < 1e-12


def test_su4_compose_bracket_collapse():
    # (Z x X)(Z x 1)(1 x X) = identity since Z^2 = X^2 = 1
    m = su4_compose(IDENTITY2, IDENTITY2, IDENTITY2, IDENTITY2, 0, 0, 0)
    np.testing.assert_allclose(m, IDENTITY4, atol=1e-15)


def test_su4_compose_separable():
    h = hadamard()
    m = su4_compose(h, h, IDENTITY2, IDENTITY2, 0, 0, 0)
    np.testing.assert_allclose(m, tensor(h, h), atol=1e-15)


def test_su4_compose_separable_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u1, u2, v1, v2 = (random_su2(rng) for _ in range(4))
        m = su4_compose(u1, u2, v1, v2, 0, 0, 0)
        np.testing.assert_allclose(m, tensor(u1 @ v1, u2 @ v2), atol=1e-12)


def test_su4_compose_swap_point_reports_zz_factor():
    # The tau, -1, -1 point does NOT reproduce the bare fractional swap;
    # it differs by an exact -(Z x Z) factor.  Report, don't assume.
    for tau in (0.0, 0.3, 0.5, 1.0):
        m = su4_compose(IDENTITY2, IDENTITY2, IDENTITY2, IDENTITY2, tau, -1, -1)
        dev_plain = np.abs(m - fractional_swap(tau)).max()
        dev_zz = np.abs(m - (-tensor(PAULI_Z, PAULI_Z)) @ fractional_swap(tau)).max()
        assert dev_zz < 1e-12
        assert dev_plain > 0.5  # visibly different from the bare swap family


def test_su4_compose_unitary():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = su4_compose(
            random_su2(rng), random_su2(rng), random_su2(rng), random_su2(rng),
            rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1),
        )
        assert unitarity_check(m) < 1e-12


def test_su4_compose_rejects_nonunitary():
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    with pytest.raises(ValueError):
        su4_compose(bad, IDENTITY2, IDENTITY2, IDENTITY2, 0, 0, 0)
    with pytest.raises(ValueError):
        su4_compose(IDENTITY2 * np.nan, IDENTITY2, IDENTITY2, IDENTITY2, 0, 0, 0)


def test_unitarity_check_values():
    assert unitarity_check(hadamard()) < 1e-15
    assert unitarity_check(fractional_swap(0.37)) < 1e-15
    perturbed = hadamard().copy()
    perturbed[0, 0] += 1e-3
    assert unitarity_check(perturbed) >= 1e-3
    assert not is_unitary(perturbed)


def test_unitarity_check_requires_square():
    with pytest.raises(ValueError):
        unitarity_check(np.zeros((2, 3)))


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(123)
    for _ in range(20):
        u = random_su2(rng)
        assert unitarity_check(u) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_coin_field_uniform_and_table():
    h = hadamard()
    fld = CoinField(1, h, {0: su2_from_angles(0.3, 0.1, -0.2)})
    assert list(fld.table) == [0]
    np.testing.assert_allclose(fld.default, h)
    stacked = fld.stacked(2)
    assert stacked.shape == (5, 2, 2)
    np.testing.assert_allclose(stacked[2], fld.table[0])
    np.testing.assert_allclose(stacked[0], h)


def test_stacked_places_every_listed_coin_at_its_site():
    h2 = tensor(hadamard(), hadamard())
    table = {(1, 0): fractional_swap(0.3), (-2, 2): SWAP, (0, -1): IDENTITY4}
    stacked = CoinField(2, h2, table).stacked(2)
    assert stacked.shape == (5, 5, 4, 4)
    for x in range(-2, 3):
        for y in range(-2, 3):
            assert np.array_equal(stacked[x + 2, y + 2], table.get((x, y), h2))


@pytest.mark.parametrize(
    "dim, site", [(2, (-4, 0)), (2, (0, 3)), (2, (3, -3)), (1, -3), (1, 5)]
)
def test_stacked_rejects_a_coin_off_the_lattice(dim, site):
    # A negative site used to wrap silently onto the far edge.
    default, coin = (hadamard(), PAULI_X) if dim == 1 else (IDENTITY4, fractional_swap(0.3))
    field = CoinField(dim, default, {site: coin})
    with pytest.raises(IndexError, match=re.escape(f"coin site {site} outside")):
        field.stacked(2)
    with pytest.raises(IndexError):
        build_step_matrix(dim, 2, field)
    if dim == 2:
        with pytest.raises(IndexError):
            verify_isomorphism(2, field)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: CoinField(1, IDENTITY4), "default coin must be 2x2, got shape (4, 4)"),
        (lambda: CoinField(2, IDENTITY4, {(0, 0): IDENTITY2}), "coin at (0, 0) must be 4x4"),
        (lambda: as_coin_field(CoinField(2, IDENTITY4), 1),
         "coin field is 2D but the walk is 1D"),
    ],
    ids=["default-shape", "site-shape", "field-dimensionality"],
)
def test_coin_field_rejects_a_coin_of_the_wrong_size(build, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        build()


def test_coin_field_rejects_nonunitary_entry():
    with pytest.raises(ValueError):
        CoinField(1, np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        CoinField(2, IDENTITY4, {(0, 0): np.ones((4, 4), dtype=complex)})
    with pytest.raises(ValueError):
        CoinField(1, np.full((2, 2), np.nan, dtype=complex))


# ------------------------------------------- stacks of coins, to the bit


def _same_bits(a, b):
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 25])
def test_a_random_su2_stack_is_its_one_matrix_calls_bit_for_bit(n):
    one, stacked = np.random.default_rng(8), np.random.default_rng(8)
    calls = np.array([random_su2(one) for _ in range(n * 4)]).reshape(n, 4, 2, 2)
    assert _same_bits(random_su2(stacked, (n, 4)), calls)
    assert stacked.bit_generator.state == one.bit_generator.state
    # The next draw, after the stack, is the same draw too.
    assert _same_bits(random_su2(stacked), random_su2(one))


def test_a_stacked_tensor_is_np_kron_of_each_pair_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 3, 2, 2)) + 1j * rng.normal(size=(6, 3, 2, 2))
    b = rng.normal(size=(3, 2, 2)) - 1j * rng.normal(size=(3, 2, 2))
    a[0, 0, 1, 1] = -0.0  # a signed zero keeps its sign through the product
    out = tensor(a, b)  # (6, 3) with (3,): the leading axes broadcast
    kron = np.array([[np.kron(a[i, j], b[j]) for j in range(3)] for i in range(6)])
    assert _same_bits(out, kron)
    assert _same_bits(tensor(a[2, 1], b[1]), np.kron(a[2, 1], b[1]))


@pytest.mark.parametrize("shape", [(), (2,), (4, 4), (2, 3), (3, 2, 3), (5, 1, 2)])
def test_tensor_rejects_a_trailing_shape_other_than_2x2(shape):
    with pytest.raises(ValueError, match="tensor expects 2x2 matrices"):
        tensor(np.zeros(shape), IDENTITY2)
    with pytest.raises(ValueError, match="tensor expects 2x2 matrices"):
        tensor(IDENTITY2, np.zeros(shape))


@pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (0.3, -1.0, 0.7)])
def test_a_stacked_su4_compose_is_each_members_bit_for_bit(angles):
    u1, u2, v1, v2 = np.moveaxis(random_su2(np.random.default_rng(6), (30, 4)), 1, 0)
    out = su4_compose(u1, u2, v1, v2, *angles)
    members = [su4_compose(*m, *angles) for m in zip(u1, u2, v1, v2)]
    assert _same_bits(out, members)
    # One stacked factor broadcasts against single ones.
    assert _same_bits(su4_compose(u1, IDENTITY2, IDENTITY2, v2, *angles),
                      [su4_compose(a, IDENTITY2, IDENTITY2, b, *angles) for a, b in zip(u1, v2)])


@pytest.mark.parametrize("spoil", [lambda m: m * 1.001, lambda m: m * np.nan], ids=["scaled", "nan"])
def test_one_nonunitary_member_of_a_stack_is_caught(spoil):
    stack = random_su2(np.random.default_rng(2), (10,))
    assert unitarity_check(stack) < 1e-12
    stack[7] = spoil(stack[7])
    assert not is_unitary(stack)
    assert unitarity_check(stack[:7]) < 1e-12 and unitarity_check(stack[8:]) < 1e-12
    for i, name in enumerate(("u1", "u2", "v1", "v2")):
        args = [IDENTITY2] * 4
        args[i] = stack
        with pytest.raises(ValueError, match=f"{name} is not unitary"):
            su4_compose(*args, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (3, 2, 3), (2, 2, 1)])
def test_unitarity_check_requires_square_matrices_or_stacks_of_them(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        unitarity_check(np.zeros(shape))


def test_a_coin_field_takes_one_matrix_not_a_stack():
    stack = random_su2(np.random.default_rng(1), (3,))
    with pytest.raises(ValueError, match=re.escape("default coin must be 2x2, got shape (3, 2, 2)")):
        CoinField(1, stack)
    with pytest.raises(ValueError, match=re.escape("coin at 0 must be 2x2, got shape (3, 2, 2)")):
        CoinField(1, hadamard(), {0: stack})
    with pytest.raises(ValueError, match=re.escape("default coin must be 4x4, got shape (3, 4, 4)")):
        CoinField(2, tensor(stack, stack))
    with pytest.raises(ValueError, match=re.escape("must be 4x4, got shape (1, 4, 4)")):
        as_coin_field(tensor(stack[:1], stack[:1]), 2)
