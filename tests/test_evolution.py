import ast
import copy
import dataclasses
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.evolution
import qwalk.isomorphism
from qwalk.analysis import _site_probs, distribution
from qwalk.cli import _blas_threads, write_distribution_csv
from qwalk.coins import CoinField, fractional_swap, hadamard, random_su2, tensor, unitarity_check
from qwalk.evolution import (
    MAX_MATRIX_DIM,
    MAX_STACK,
    DefectMap,
    WalkSpec,
    _Stack,
    _stacks,
    _Stepper,
    build_step_matrix,
    evolve,
    run_walk,
)
from qwalk.isomorphism import (
    _AXIS_MOVES,
    BasisPermutation,
    axis_walk_state,
    check_translation_equivalence,
    random_shared_coin,
    transformed_step_matrix,
    verify_isomorphism,
)
from qwalk.statespace import SublatticeState, WalkerState, localized_state, symmetric_coin

from oracles import (
    brute_force_walk_1d,
    brute_force_walk_2d,
    distribution_1d,
    extended_hadamard_probs,
    extended_walk_1d,
    extended_walk_2d,
)

H = hadamard()
H2 = tensor(H, H)


def probs(state):
    return (np.abs(state.amplitudes) ** 2).sum(axis=-1)


def stepped(state, coin, defect=DefectMap.none(), steps=1):
    """``state`` after ``steps`` steps of the periodic walk of ``coin`` and
    ``defect`` on its lattice, each taken by ``_Stack.advance``."""
    d, L = state.dimensionality, state.halfwidth
    stack = _Stack([WalkSpec(d, steps, coin, defect, boundary="periodic", halfwidth=L)])
    stack.amplitudes = state.amplitudes[None]
    for _ in range(steps):
        stack.advance()
    return WalkerState(d, L, stack.amplitudes[0])


# ---------------------------------------------------------------- 1D steps


def test_one_step_hadamard():
    s = stepped(localized_state(1, 2, 0, [1, 0]), H)
    p = probs(s)
    assert p[3] == pytest.approx(0.5)  # x = +1
    assert p[1] == pytest.approx(0.5)  # x = -1


def test_two_step_hadamard_distribution():
    s = stepped(localized_state(1, 2, 0, [1, 0]), H, steps=2)
    p = probs(s)
    np.testing.assert_allclose(p, [0.25, 0, 0.5, 0, 0.25], atol=1e-12)


def test_two_step_matches_brute_force_oracle():
    amps = brute_force_walk_1d(2, hadamard(), [1, 0])
    oracle = distribution_1d(amps, 2)
    s = stepped(localized_state(1, 2, 0, [1, 0]), H, steps=2)
    np.testing.assert_allclose(probs(s), oracle, atol=1e-13)


def test_zero_steps_identity():
    spec = WalkSpec(1, 0, H, initial_coin=[1, 0])
    assert list(evolve(spec)) == []
    final = run_walk(spec)
    np.testing.assert_array_equal(final.amplitudes, spec.initial_state().amplitudes)


# ---------------------------------------------------------------- 2D steps


def test_one_step_2d_uniform_quarter():
    s = stepped(localized_state(2, 1, (0, 0), symmetric_coin(2)), H2)
    p = probs(s)
    for xi, yi in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert p[xi, yi] == pytest.approx(0.25, abs=1e-12)
    assert p[1, 1] == 0


def test_first_step_cross_defect_phase_is_global():
    a = localized_state(2, 1, (0, 0), symmetric_coin(2))
    plain, defected = (stepped(a, H2, defect) for defect in (DefectMap.none(), DefectMap.cross_xy(1.234)))
    np.testing.assert_allclose(probs(plain), probs(defected), atol=1e-14)


def test_cross_defect_at_origin_is_double_phase():
    # e^{i phi (dx0 + dy0)} at (0,0) fires both deltas; phi = pi gives +1
    grid = DefectMap.cross_xy(np.pi).phase_grid(2, 2)
    assert grid[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert grid[2, 0] == pytest.approx(-1.0, abs=1e-12)
    assert grid[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_point_defect_only_origin():
    grid = DefectMap.point(0.7).phase_grid(2, 2)
    assert grid[2, 2] == pytest.approx(np.exp(0.7j))
    off = np.delete(grid.reshape(-1), [2 * 5 + 2])
    np.testing.assert_allclose(off, 1.0)


@pytest.mark.parametrize("boundary, L", [("open", 300), ("periodic", 40)])
def test_a_1d_point_defect_steps_as_its_one_site_table(boundary, L):
    # A 1D point(phi) takes the line applier (the "line" x = 0), and
    # custom({0: phi}) the site table: the same bits, amplitudes and norms.
    for phi in (0.0, np.pi, 1.234):
        runs = [[(r.state.amplitudes, r.norm_residual) for r in evolve(
            WalkSpec(1, 300, H, defect, boundary=boundary, halfwidth=L))]
            for defect in (DefectMap.point(phi), DefectMap.custom({0: phi}))]
        for (a, ra), (b, rb) in zip(*runs, strict=True):
            assert ra == rb
            np.testing.assert_array_equal(a, b)


def test_line_defect_requires_2d():
    with pytest.raises(ValueError):
        DefectMap.line_y(0.3).validate(1)
    with pytest.raises(ValueError):
        WalkSpec(1, 3, H, DefectMap.cross_xy(0.3))


def test_custom_defect_bounds_and_keys():
    with pytest.raises(IndexError):
        DefectMap.custom({(5, 0): 0.1}).phase_grid(2, 2)
    with pytest.raises(ValueError):
        DefectMap.custom({(1, 2): 0.1}).validate(1)


# ------------------------------------------------------------- evolve


def test_evolve_reports_and_norms():
    spec = WalkSpec(2, 10, H2, DefectMap.cross_xy(np.pi))
    reports = list(evolve(spec))
    assert [r.step for r in reports] == list(range(1, 11))
    assert all(r.norm_residual < 1e-12 for r in reports)
    assert np.linalg.norm(reports[-1].state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_evolve_matches_repeated_apply_step():
    spec = WalkSpec(2, 6, H2, DefectMap.line_y(0.9))
    full = evolve(dataclasses.replace(spec, boundary="periodic"))
    for report, manual in zip(evolve(spec), full, strict=True):
        np.testing.assert_allclose(
            report.state.amplitudes, manual.grid.amplitudes, atol=1e-13
        )


def test_evolve_windowed_matches_full_grid():
    # oversized lattice exercises the light-cone window; a small one the
    # full sweep; results must agree
    base = WalkSpec(2, 5, H2, DefectMap.cross_xy(0.8), halfwidth=9)
    windowed = run_walk(base)
    manual = run_walk(dataclasses.replace(base, boundary="periodic"))
    np.testing.assert_allclose(windowed.amplitudes, manual.amplitudes, atol=1e-13)


def test_evolve_off_center_start():
    spec = WalkSpec(2, 3, H2, initial_position=(2, -1), halfwidth=6)
    final = run_walk(spec)
    manual = run_walk(dataclasses.replace(spec, boundary="periodic"))
    np.testing.assert_allclose(final.amplitudes, manual.amplitudes, atol=1e-13)
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_off_center_start_whose_cone_leaves_the_lattice_is_rejected():
    # The cone of 3 steps from x = 2 reaches x = 5, past L = 4.  With an
    # inward-moving coin the amplitude never hits the edge, and this walk
    # used to run on the full lattice; an open walk now needs its whole cone.
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"halfwidth >= max\|start\| \+ steps = 5, got 4"):
        WalkSpec(1, 3, eye, initial_position=2, halfwidth=4, initial_coin=[0, 1])
    spec = WalkSpec(1, 3, eye, initial_position=2, halfwidth=5, initial_coin=[0, 1])
    final = run_walk(spec)
    manual = run_walk(dataclasses.replace(spec, boundary="periodic"))
    np.testing.assert_allclose(final.amplitudes, manual.amplitudes, atol=1e-13)


def test_off_center_start_escaping_raises():
    # same geometry but spreading amplitude would cross the edge: the spec
    # refuses it before any step, rather than the walk dying mid-run
    with pytest.raises(ValueError, match="halfwidth"):
        WalkSpec(1, 3, H, initial_position=2, halfwidth=4, initial_coin=[1, 0])


@pytest.mark.parametrize(
    "dim, edge",
    [(1, 1), (1, -1), (2, (1, 0)), (2, (-1, 0)), (2, (0, 1)), (2, (0, -1))],
    ids=["1d-right", "1d-left", "2d-right", "2d-left", "2d-top", "2d-bottom"],
)
def test_an_open_walk_never_steps_off_an_edge(dim, edge):
    # A start one site inside the edge may take one step onto it, not two:
    # the spec refuses the second before any step, whichever edge it is.
    L, coin = 3, H if dim == 1 else H2
    start = (L - 1) * edge if dim == 1 else tuple((L - 1) * e for e in edge)
    with pytest.raises(ValueError, match="open boundary needs halfwidth >= max"):
        WalkSpec(dim, 2, coin, initial_position=start, halfwidth=L)
    final = run_walk(WalkSpec(dim, 1, coin, initial_position=start, halfwidth=L))
    # The sites of the edge's row (2D) or the edge site (1D) hold half the
    # probability: the half of the coin that moved outwards.
    axis, sign = (0, edge) if dim == 1 else (edge.index(0) ^ 1, sum(edge))
    on_edge = np.take(final.amplitudes, L + sign * L, axis=axis)
    assert np.sum(np.abs(on_edge) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-12)
    wrapped = run_walk(WalkSpec(dim, 2, coin, initial_position=start, halfwidth=L, boundary="periodic"))
    assert np.linalg.norm(wrapped.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(1, -1, H)
    with pytest.raises(ValueError):
        WalkSpec(3, 1, H)
    with pytest.raises(ValueError):
        WalkSpec(1, 5, H, halfwidth=3)  # open boundary needs L >= t
    with pytest.raises(ValueError, match="boundary must be 'open' or 'periodic', got 'reflecting'"):
        WalkSpec(1, 2, H, boundary="reflecting")
    WalkSpec(1, 5, H, halfwidth=3, boundary="periodic")  # fine when periodic


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((2, True, H2), {}),
        ((True, 2, H), {}),
        ((2, 2, H2), {"halfwidth": 3.0}),
        ((2, 1, H2), {"halfwidth": True}),
        ((2, 2, H2), {"initial_position": (0.7, 0)}),
        ((2, 2, H2), {"initial_position": (0, True)}),
        ((2, 2, H2), {"initial_position": 1}),
        ((2, 2, H2), {"initial_position": (0, 0, 0)}),
        ((1, 2, H), {"initial_position": 1.9}),
        ((1, 2, H), {"initial_position": False}),
    ],
    ids=["steps-bool", "dimensionality-bool", "halfwidth-float", "halfwidth-bool",
         "position-float", "position-bool", "position-2d-scalar", "position-triple",
         "position-1d-float", "position-1d-bool"],
)
def test_spec_rejects_bools_and_non_integral_values(args, kwargs):
    # Each used to run: a bool as 0 or 1, a float truncated by int().
    with pytest.raises(ValueError):
        WalkSpec(*args, **kwargs)


@pytest.mark.parametrize(
    "dim, position", [(1, 3), (1, -3), (2, (3, 0)), (2, (0, -3)), (2, (100, 0))]
)
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_spec_rejects_a_start_off_the_lattice(dim, position, boundary):
    coin = H if dim == 1 else H2
    with pytest.raises(ValueError, match="outside"):
        WalkSpec(dim, 2, coin, initial_position=position, halfwidth=2, boundary=boundary)
    edge = 2 if dim == 1 else (2, -2)
    steps = 2 if boundary == "periodic" else 0  # an open walk needs its cone
    WalkSpec(dim, steps, coin, initial_position=edge, halfwidth=2, boundary=boundary)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    steps=st.integers(0, 8),
    start=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    L=st.integers(1, 10),
)
def test_open_spec_is_accepted_iff_its_light_cone_fits(dim, steps, start, L):
    reach = max(map(abs, start[:dim]))
    args = (dim, steps, H if dim == 1 else H2)
    kwargs = {"initial_position": start[0] if dim == 1 else start, "halfwidth": L}
    if reach + steps <= L:
        WalkSpec(*args, **kwargs)
    else:
        with pytest.raises(ValueError):
            WalkSpec(*args, **kwargs)


def test_light_cone_check_does_not_overflow():
    # 2^62 + 2^62 overflows int64; the check is made in Python ints.
    big = np.int64(2**62)
    with pytest.raises(ValueError, match=f"= {2**63}, got {2**62}"):
        WalkSpec(2, big, H2, initial_position=(big, 0), halfwidth=big)


@pytest.mark.parametrize(
    "dim, coin, defect",
    [
        (2, CoinField(2, H2, {(4, 0): fractional_swap(0.3)}), DefectMap.none()),
        (2, CoinField(2, H2, {(0, -4): fractional_swap(0.3)}), DefectMap.none()),
        (1, CoinField(1, H, {-4: np.eye(2)}), DefectMap.none()),
        (2, H2, DefectMap.custom({(4, 0): 1.0})),
        (2, H2, DefectMap.custom({(1, -4): 1.0})),
        (1, H, DefectMap.custom({4: 1.0})),
    ],
    ids=["2d-coin-x", "2d-coin-y", "1d-coin", "2d-custom-x", "2d-custom-y", "1d-custom"],
)
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_spec_rejects_a_coin_or_defect_site_off_the_lattice(dim, coin, defect, boundary):
    # These used to pass the spec and raise only once evolve began.
    with pytest.raises(IndexError, match="site .* outside"):
        WalkSpec(dim, 2, coin, defect, boundary=boundary, halfwidth=3)


@pytest.mark.parametrize(
    "name, value", [("steps", 50), ("halfwidth", 1), ("coin", np.eye(4)), ("_stepper", None)]
)
def test_spec_fields_cannot_be_assigned(name, value):
    # A 5-step spec changed to 50 steps used to fail mid-run at step 6.
    spec = WalkSpec(2, 5, H2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, name, value)


def test_specs_compare_by_identity_and_hash():
    # Two equal-looking specs used to raise ValueError on ==, since the
    # generated __eq__ compared coin arrays, and hash() raised TypeError.
    a, b = WalkSpec(2, 3, H2), WalkSpec(2, 3, H2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_replace_checks_the_new_spec_and_keeps_the_halfwidth():
    spec = WalkSpec(2, 5, H2, DefectMap.cross_xy(0.3))
    with pytest.raises(ValueError, match="steps = 50, got 5"):
        dataclasses.replace(spec, steps=50)
    shorter = dataclasses.replace(spec, steps=3)
    assert (shorter.steps, shorter.halfwidth) == (3, 5)
    assert shorter._stepper is not spec._stepper
    fresh = WalkSpec(2, 3, H2, spec.defect, halfwidth=5)
    np.testing.assert_array_equal(run_walk(shorter).amplitudes, run_walk(fresh).amplitudes)
    longer = dataclasses.replace(spec, steps=50, halfwidth=None)
    assert longer.halfwidth == 50


def test_a_spec_keeps_its_own_copy_of_the_start_coin():
    # The start grid used to be a view of the caller's array.
    coin = np.array([1, 1j], dtype=np.complex128) / np.sqrt(2)
    spec = WalkSpec(1, 3, H, initial_coin=coin)
    expected = run_walk(WalkSpec(1, 3, H, initial_coin=coin.copy())).amplitudes
    coin[:] = [2, 0]
    np.testing.assert_array_equal(run_walk(spec).amplitudes, expected)


@pytest.mark.parametrize(
    "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_spec_pickles_and_copies_into_a_checked_spec(clone):
    spec = WalkSpec(2, 4, H2, DefectMap.cross_xy(0.3), initial_position=(1, 0), halfwidth=6)
    again = clone(spec)
    assert again._stepper is not spec._stepper
    np.testing.assert_array_equal(run_walk(again).amplitudes, run_walk(spec).amplitudes)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("steps", [0, 4])
def test_a_walk_builds_its_stepper_once(monkeypatch, boundary, steps):
    built = []
    init = _Stepper.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Stepper, "__init__", counted)
    run_walk(WalkSpec(2, steps, H2, DefectMap.cross_xy(0.3), boundary=boundary, halfwidth=5))
    assert len(built) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_step_matrix(1, True, H),
        lambda: transformed_step_matrix(True, H2),
        lambda: verify_isomorphism(True, H2),
        lambda: check_translation_equivalence(True),
        lambda: BasisPermutation.build(True),
        lambda: DefectMap.cross_xy(1.0).phase_grid(1.5, 2),
    ],
    ids=[
        "step-matrix", "transformed-matrix", "isomorphism", "translation",
        "permutation", "phase-grid",
    ],
)
def test_every_operator_builder_reads_its_halfwidth_through_the_checker(build):
    # Each used to run: the first five as halfwidth 1 (a 6x6 matrix, a
    # deviation of 0.0), and the phase grid raised TypeError.
    with pytest.raises(ValueError, match="halfwidth"):
        build()


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_the_start_grid_is_the_state_the_kernel_steps_from(boundary):
    spec = WalkSpec(2, 3, H2, initial_position=(1, -2), boundary=boundary, halfwidth=6)
    grid = spec.initial_grid()
    assert isinstance(grid, SublatticeState if boundary == "open" else WalkerState)
    np.testing.assert_array_equal(grid.expand().amplitudes, spec.initial_state().amplitudes)


def test_spec_accepts_numpy_integers():
    i = np.int64
    spec = WalkSpec(i(2), i(3), H2, initial_position=(i(1), i(-1)), halfwidth=i(5))
    assert (spec.dimensionality, spec.steps, spec.halfwidth) == (2, 3, 5)
    assert spec.initial_position == (1, -1)
    assert all(type(v) is int for v in (spec.steps, spec.halfwidth, *spec.initial_position))


def test_norm_preserved_random_coins_and_defects():
    rng = np.random.default_rng(42)
    defects = [
        DefectMap.none(),
        DefectMap.line_y(rng.uniform(0, np.pi)),
        DefectMap.cross_xy(rng.uniform(0, np.pi)),
        DefectMap.point(rng.uniform(0, np.pi)),
        DefectMap.custom({(0, 1): 0.4, (-2, 2): -1.1}),
    ]
    for defect in defects:
        coin = tensor(random_su2(rng), random_su2(rng)) @ fractional_swap(rng.uniform())
        for report in evolve(WalkSpec(2, 6, coin, defect)):
            assert report.norm_residual < 1e-12


def test_defect_none_equals_custom_all_zero():
    table = {(x, y): 0.0 for x in range(-2, 3) for y in range(-2, 3)}
    a = run_walk(WalkSpec(2, 4, H2, DefectMap.none()))
    b = run_walk(WalkSpec(2, 4, H2, DefectMap.custom(table)))
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_reflection_symmetry_of_symmetric_runs():
    for defect in (DefectMap.cross_xy(2.2), DefectMap.point(1.1)):
        for report in evolve(WalkSpec(2, 8, H2, defect)):
            p = probs(report.state)
            np.testing.assert_allclose(p, p.T, atol=1e-12)


def test_periodic_shift_only_walk_returns():
    # identity coin: a pure conditional shift; one full wrap per ring
    L = 2
    n = 2 * L + 1
    spec = WalkSpec(
        2, 2 * n, np.eye(4, dtype=complex), boundary="periodic", halfwidth=L
    )
    final = run_walk(spec)
    np.testing.assert_array_equal(final.amplitudes, spec.initial_state().amplitudes)


def test_site_dependent_coin_field():
    rng = np.random.default_rng(1)
    special = tensor(random_su2(rng), random_su2(rng))
    fld = CoinField(2, H2, {(0, 0): special})
    final = run_walk(WalkSpec(2, 3, fld))
    # first step from the origin uses the special coin
    manual = localized_state(2, 3, (0, 0), symmetric_coin(2))
    for coin in (special, fld, fld):
        manual = stepped(manual, coin)
    np.testing.assert_allclose(final.amplitudes, manual.amplitudes, atol=1e-13)


# ------------------------------------------------------- step matrices


def test_step_matrix_pure_shift_is_permutation():
    U = build_step_matrix(1, 1, np.eye(2, dtype=complex))
    assert U.shape == (6, 6)
    assert np.array_equal(np.abs(U) > 0, np.abs(U) == 1)
    assert (np.abs(U).sum(axis=0) == 1).all()
    assert (np.abs(U).sum(axis=1) == 1).all()


def test_step_matrix_is_unitary_2d():
    U = build_step_matrix(2, 1, H2, DefectMap.cross_xy(0.7))
    assert U.shape == (36, 36)
    assert unitarity_check(U) < 1e-12


@pytest.mark.parametrize("dim,L", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_step_matrix_matches_apply_step(dim, L):
    rng = np.random.default_rng(100 + dim * 10 + L)
    for _ in range(5):
        if dim == 1:
            coin = random_su2(rng)
            defect = DefectMap.custom({0: rng.uniform(0, np.pi)})
        else:
            coin = tensor(random_su2(rng), random_su2(rng)) @ fractional_swap(
                rng.uniform()
            )
            defect = DefectMap.cross_xy(rng.uniform(0, np.pi))
        U = build_step_matrix(dim, L, coin, defect)
        n = 2 * L + 1
        shape = (n, 2) if dim == 1 else (n, n, 4)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps = (amps / np.linalg.norm(amps)).astype(complex)
        state = WalkerState(dim, L, amps)
        direct = stepped(state, coin, defect)
        via_matrix = U @ state.packed()
        np.testing.assert_allclose(
            via_matrix, direct.packed(), atol=1e-13
        )


@pytest.mark.parametrize("dim, L", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_step_matrix_is_the_periodic_walk(dim, L):
    # Five steps on a halfwidth below five wrap round the lattice: powers
    # of the matrix follow the periodic walk, wrapping included.
    coin = H if dim == 1 else H2
    defect = DefectMap.custom({0: 0.9}) if dim == 1 else DefectMap.cross_xy(0.9)
    spec = WalkSpec(dim, 5, coin, defect, halfwidth=L, boundary="periodic")
    U = build_step_matrix(dim, L, coin, defect)
    vec = spec.initial_state().packed()
    for report in evolve(spec):
        vec = U @ vec
        np.testing.assert_allclose(vec, report.state.packed(), atol=1e-13)


def test_step_matrix_dimension_cap():
    with pytest.raises(ValueError):
        build_step_matrix(2, 40, H2)
    assert MAX_MATRIX_DIM == 16384


# ------------------------------------------- light-cone kernel vs oracle


def _random_coin(rng, dim):
    if dim == 1:
        return random_su2(rng)
    return tensor(random_su2(rng), random_su2(rng)) @ fractional_swap(rng.uniform())


@st.composite
def walk_cases(draw):
    """A small random walk, plus the oracle's view of its coin and defect.

    The lattice always holds the whole light cone, so the open boundary
    runs the sublattice kernel and the periodic one the full-lattice
    kernel, and neither walk feels the edge the oracle does not have.
    """
    dim = draw(st.sampled_from([1, 2]))
    steps = draw(st.integers(0, 6))
    start = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
    L = max(steps + max(map(abs, start)) + draw(st.integers(0, 2)), 1)
    boundary = draw(st.sampled_from(["open", "periodic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    site = st.integers(-L, L)
    key = site if dim == 1 else st.tuples(site, site)

    def lookup(table, default):
        return lambda *s: table.get(s[0] if dim == 1 else s, default)

    coin = oracle_coin = _random_coin(rng, dim)
    coin_sites = draw(st.lists(key, max_size=4, unique=True))
    if coin_sites:
        coins = {s: _random_coin(rng, dim) for s in coin_sites}
        coin, oracle_coin = CoinField(dim, coin, coins), lookup(coins, coin)

    kinds = ["none", "point", "custom"] + (["line_y", "cross_xy"] if dim == 2 else [])
    kind = draw(st.sampled_from(kinds))
    phi = float(rng.uniform(-np.pi, np.pi))
    if kind == "custom":
        sites = draw(st.lists(key, max_size=5, unique=True))
        phases = {s: float(rng.uniform(-np.pi, np.pi)) for s in sites}
        defect = DefectMap.custom(phases)
        phase_at = lookup(phases, 0.0)
    else:
        defect = DefectMap(kind, phi) if kind != "none" else DefectMap.none()
        phase_at = {
            "none": None,
            "point": lambda *s: phi if not any(s) else 0.0,
            "line_y": lambda x, y: phi if y == 0 else 0.0,
            "cross_xy": lambda x, y: phi * ((x == 0) + (y == 0)),
        }[kind]

    coin0 = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    coin0 = coin0 / np.linalg.norm(coin0)
    spec = WalkSpec(
        dim, steps, coin, defect,
        initial_position=start[0] if dim == 1 else start,
        initial_coin=coin0, boundary=boundary, halfwidth=L,
    )
    return spec, oracle_coin, phase_at, coin0, start


def _dense(amps, dim, L):
    """The oracle's amplitude dict as a dense array of the package's layout."""
    out = np.zeros((2 * L + 1,) * dim + (2 * dim,), dtype=complex)
    for key, a in amps.items():
        if dim == 1:
            x, c = key
            out[x + L, c] = a
        else:
            x, y, c, d = key
            out[x + L, y + L, 2 * c + d] = a
    return out


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_evolve_matches_oracle(case):
    spec, oracle_coin, phase_at, coin0, start = case
    dim, L = spec.dimensionality, spec.halfwidth
    if dim == 1:
        amps = brute_force_walk_1d(spec.steps, oracle_coin, coin0, phase_at, start[0])
    else:
        amps = brute_force_walk_2d(spec.steps, oracle_coin, coin0, phase_at, start)
    np.testing.assert_allclose(
        run_walk(spec).amplitudes, _dense(amps, dim, L), rtol=0, atol=1e-12
    )
    grid = SublatticeState if spec.boundary == "open" else WalkerState
    assert all(type(report.grid) is grid for report in evolve(spec))


@pytest.mark.parametrize(
    "spec",
    [
        WalkSpec(2, 20, H2, DefectMap.cross_xy(np.pi)),
        WalkSpec(1, 30, random_su2(np.random.default_rng(5)), DefectMap.point(0.9)),
        WalkSpec(
            2, 8,
            CoinField(2, H2, {(1, 1): fractional_swap(0.3), (-2, 3): np.eye(4)}),
            DefectMap.custom({(0, 1): 0.4, (-1, 3): -2.0}),
            initial_position=(1, -2), halfwidth=12,
        ),
    ],
    ids=["2d-cross", "1d-point-su2", "2d-field-custom-offcentre"],
)
def test_cone_kernel_matches_full_lattice_kernel(spec, tmp_path):
    # The periodic walk of the same halfwidth steps the full lattice and,
    # the cone fitting, never wraps.
    full = evolve(dataclasses.replace(spec, boundary="periodic"))
    for report, manual in zip(evolve(spec), full, strict=True):
        assert isinstance(report.grid, SublatticeState)
        assert isinstance(manual.grid, WalkerState)
        np.testing.assert_allclose(
            report.state.amplitudes, manual.grid.amplitudes, rtol=0, atol=1e-13
        )
    write_distribution_csv(tmp_path / "cone.csv", distribution(report.grid))
    write_distribution_csv(tmp_path / "full.csv", distribution(manual.grid))
    assert (tmp_path / "cone.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_report_state_is_dense_walker_state(boundary):
    spec = WalkSpec(2, 3, H2, DefectMap.line_y(0.4), halfwidth=7, boundary=boundary)
    for report in evolve(spec):
        state = report.state
        assert isinstance(state, WalkerState)
        assert state.halfwidth == 7
        assert state.amplitudes.shape == (15, 15, 4)
        assert report.state is state  # expanded once, then cached
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    expected = SublatticeState if boundary == "open" else WalkerState
    assert isinstance(report.grid, expected)


def test_held_reports_keep_their_own_amplitudes():
    spec = WalkSpec(2, 5, H2, DefectMap.cross_xy(0.7))
    reports = list(evolve(spec))
    full = evolve(dataclasses.replace(spec, boundary="periodic"))
    for report, manual in zip(reports, full, strict=True):
        np.testing.assert_allclose(report.state.amplitudes, manual.grid.amplitudes, atol=1e-13)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_nan_norm_residual_raises(boundary):
    # A NaN phase poisons the amplitudes; the residual check must fire
    # rather than let NaN reports through.
    spec = WalkSpec(2, 3, H2, DefectMap.custom({(1, 1): float("nan")}), boundary=boundary)
    with pytest.raises(RuntimeError, match="norm residual nan"):
        run_walk(spec)


def test_oracles_share_no_code_with_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        (node.module or "").split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported == {"numpy"}


EPS = np.finfo(np.float64).eps


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("t", [10, 100, 500, 1000, 2000])
def test_1d_rounding_error_stays_inside_the_budget(t):
    # Against the same walk in extended precision, the largest amplitude
    # error stays below t*eps and every norm residual below 2*t*eps, up to
    # the command line's step cap.  At t = 10..2000 the worst measured were
    # about 0.3*t*eps and 1.0*t*eps.
    phi = np.pi / 3
    root2 = np.sqrt(np.longdouble(2))
    exact = extended_walk_1d(
        t,
        np.array([[1, 1], [1, -1]], dtype=np.clongdouble) / root2,
        np.array([1, 1j], dtype=np.clongdouble) / root2,
        {0: np.exp(np.clongdouble(1j) * np.longdouble(phi))},
    )
    residual = 0.0
    for report in evolve(WalkSpec(1, t, H, DefectMap.point(phi))):
        residual = max(residual, report.norm_residual)
    error = np.abs(report.state.amplitudes.astype(np.clongdouble) - exact).max()
    assert error <= t * EPS
    assert residual <= 2 * t * EPS


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("t", [10, 50, 100])
def test_2d_rounding_error_stays_inside_the_budget(t):
    # The Hadamard pair from the symmetric start under cross_xy(phi) is the
    # outer product of two 1D Hadamard walks under point(phi): coin, start
    # and phase all factorize across the axes.  Against that product in
    # extended precision, the largest amplitude error stays below t*eps and
    # every norm residual below 4*t*eps.  At t = 10..100 the worst measured
    # were about 0.3*t*eps and 2.1*t*eps, above the 1D residual budget.
    phi = np.pi / 3
    root2 = np.sqrt(np.longdouble(2))
    exact = extended_walk_1d(
        t,
        np.array([[1, 1], [1, -1]], dtype=np.clongdouble) / root2,
        np.array([1, 1j], dtype=np.clongdouble) / root2,
        {0: np.exp(np.clongdouble(1j) * np.longdouble(phi))},
    )
    # [x, c] x [y, d] -> [x, y, 2c + d]
    exact_2d = np.einsum("xc,yd->xycd", exact, exact).reshape(2 * t + 1, 2 * t + 1, 4)
    residual = 0.0
    for report in evolve(WalkSpec(2, t, H2, DefectMap.cross_xy(phi))):
        residual = max(residual, report.norm_residual)
    error = np.abs(report.state.amplitudes.astype(np.clongdouble) - exact_2d).max()
    assert error <= t * EPS
    assert residual <= 4 * t * EPS


_CUSTOM_TABLE = {(0, 0): 1.0, (1, -1): 0.5, (-3, 2): 2.0, (2, 2): -1.2, (0, 1): 0.3}


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("t", [10, 50, 100])
@pytest.mark.parametrize("walk", ["swap-point-pi", "pair-custom"])
def test_2d_kernel_rounding_error_stays_inside_the_budget(t, walk):
    # Walks that only the 2D kernel runs: a coin that is not a product, and
    # a phase table that is not one.  Against the same walk in extended
    # precision, with the exact coin and phases, the largest amplitude error
    # stays below t*eps and every norm residual below 4*t*eps.  Measured at
    # t = 10..100: errors 0.11-0.31*t*eps; residuals 0.18-0.35*t*eps under
    # the fractional swap and 2.0-2.1*t*eps under the Hadamard pair.
    i, half = np.clongdouble(1j), np.longdouble(1) / 2
    start = half * np.array([1, i, i, -1], dtype=np.clongdouble)  # the symmetric start
    if walk == "swap-point-pi":
        spec = WalkSpec(2, t, fractional_swap(0.5), DefectMap.point(np.pi))
        coin = half * np.array([[2, 0, 0, 0], [0, 1 + i, 1 - i, 0], [0, 1 - i, 1 + i, 0],
                                [0, 0, 0, 2]], dtype=np.clongdouble)
        phases = {(0, 0): np.clongdouble(-1)}
    else:
        spec = WalkSpec(2, t, H2, DefectMap.custom(_CUSTOM_TABLE))
        h = np.array([[1, 1], [1, -1]], dtype=np.clongdouble) / np.sqrt(np.longdouble(2))
        coin = np.kron(h, h)
        phases = {site: np.exp(i * np.longdouble(theta)) for site, theta in _CUSTOM_TABLE.items()}
    exact = extended_walk_2d(t, coin, start, phases)
    residual = 0.0
    for report in evolve(spec):
        residual = max(residual, report.norm_residual)
    error = np.abs(report.state.amplitudes.astype(np.clongdouble) - exact).max()
    assert error <= t * EPS
    assert residual <= 4 * t * EPS


def _printed_error_in_12th_digits(path, exact):
    """|printed - exact| of each probability a distribution CSV prints
    (not as 0), in units of the exact value's 12th significant digit, and
    the exact values."""
    printed = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]
    shown = printed > 0
    e = exact.ravel()[shown]
    unit = np.longdouble(10) ** (np.floor(np.log10(e)) - 11)
    return np.abs(printed[shown] - e) / unit, e


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("phi", [None, np.pi], ids=["free", "point-pi"])
def test_1d_csv_settles_11_of_its_12_digits_at_t_500(tmp_path, phi):
    # Each printed probability is the exact one rounded to 12 digits, or one
    # off in the 12th.  Measured: at most 0.55 (free) and 0.58 (point(pi))
    # units; 12 and 8 of the 387 printed values are one off.
    t = 500
    defect = DefectMap.none() if phi is None else DefectMap.point(phi)
    for report in evolve(WalkSpec(1, t, H, defect)):
        pass
    write_distribution_csv(tmp_path / "d.csv", distribution(report.grid))
    error, _ = _printed_error_in_12th_digits(tmp_path / "d.csv", extended_hadamard_probs(t, phi))
    assert len(error) == 387
    assert error.max() < 1


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double here"
)
def test_2d_csv_settles_10_of_its_12_digits_at_t_500(tmp_path):
    # The paper-scale run: the Hadamard pair under cross_xy(pi), the outer
    # product of two 1D walks under point(pi).  Printed probabilities of at
    # least 1e-9 are one off in the 12th digit at most (measured 0.74
    # units): 11 digits.  Smaller ones, where the cross's interference
    # cancels, err by up to 100 units (measured 30, at p = 5e-13): 10 digits.
    t = 500
    for report in evolve(WalkSpec(2, t, H2, DefectMap.cross_xy(np.pi))):
        pass
    write_distribution_csv(tmp_path / "d.csv", distribution(report.grid))
    exact_1d = extended_hadamard_probs(t, np.pi)
    error, exact = _printed_error_in_12th_digits(
        tmp_path / "d.csv", np.multiply.outer(exact_1d, exact_1d)
    )
    assert error[exact >= 1e-9].max() < 1
    assert error.max() < 100


@pytest.mark.parametrize(
    "coin, defect",
    [
        (H2, DefectMap.cross_xy(np.pi / 3)),
        (random_shared_coin(np.random.default_rng(3)),
         DefectMap.custom({(0, 0): 1.0, (1, -1): 0.5, (-3, 2): 2.0, (5, 5): -1.2})),
    ],
    ids=["hadamard-pair-cross", "random-shared-coin-custom"],
)
def test_the_dense_adjoint_step_walks_the_kernel_back_to_its_start(coin, defect):
    # t open-boundary kernel steps at halfwidth L = t: the cone reaches the
    # rim and never wraps, so they are t periodic steps.  t steps of the
    # dense U^dagger then return to the start, within 4*t*eps; both cases
    # measured about 1.0*t*eps.
    t = 12
    spec = WalkSpec(2, t, coin, defect, halfwidth=t)
    for report in evolve(spec):
        pass
    back = build_step_matrix(2, t, coin, defect)
    np.conj(back, out=back)  # U^dagger is its transpose; no second 100 MB matrix
    v = report.state.amplitudes.ravel()
    for _ in range(t):
        v = back.T @ v
    assert np.abs(v - spec.initial_state().amplitudes.ravel()).max() <= 4 * t * EPS


@pytest.mark.parametrize(
    "coin, defect",
    [
        (CoinField(2, H2, {(0, 0): fractional_swap(0.5)}), DefectMap.none()),
        (H2, DefectMap.custom({(0, 0): 0.5})),
    ],
    ids=["one-site-coin-field", "one-site-custom-defect"],
)
def test_cone_walk_holds_no_lattice_sized_tables(coin, defect):
    # A 36-site cone on a 401^2 lattice: a per-site coin or phase table of
    # the whole lattice would be 2.5 MB (phases) or 41 MB (coins).
    spec = WalkSpec(2, 5, coin, defect, halfwidth=200)
    tracemalloc.start()
    try:
        for _ in evolve(spec):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------- stacks


def _stack_walks(seed, count, steps, position=0):
    """``count`` open 1D walks that share one random su2 coin, start position
    and halfwidth, with random start coins and none, point(0.0), point(-0.0)
    and random point defects in turn."""
    rng = np.random.default_rng(seed)
    coin = random_su2(rng)
    defects = [DefectMap.none(), DefectMap.point(0.0), DefectMap.point(-0.0)]
    walks = []
    for i in range(count):
        start = rng.normal(size=2) + 1j * rng.normal(size=2)
        defect = defects[i] if i < 3 else DefectMap.point(rng.uniform(-np.pi, np.pi))
        walks.append(WalkSpec(1, steps, coin, defect, initial_position=position,
                              initial_coin=start / np.linalg.norm(start),
                              halfwidth=steps + abs(position) + 2))
    return walks


def _stepped(walks, stacks=None):
    """``walks``, of one number of steps, stepped as the commands step them:
    each stack of ``_stacks`` (or of ``stacks``) through ``_guarded`` (looked
    up when called, so a patched guard runs).  Per step, each walk's grid and
    norm_sq, by spec."""
    stacks = list(_stacks(walks)) if stacks is None else stacks
    for norms in qwalk.evolution._guarded(stacks, walks[0].steps):
        yield {spec: (grid, n) for stack, row in zip(stacks, norms)
               for spec, grid, n in zip(stack.specs, stack.grids, row.tolist())}


def _same_walk(stacked, alone):
    grid, norm_sq = stacked
    assert norm_sq.hex() == alone.norm_sq.hex()
    assert type(grid) is type(alone.grid)
    assert getattr(grid, "first", None) == getattr(alone.grid, "first", None)
    assert grid.amplitudes.tobytes() == alone.grid.amplitudes.tobytes()


def _same_as_alone(walks, steps):
    """Each step of ``steps`` (from :func:`_stepped`) against each walk's own
    report from ``evolve``; the number of steps."""
    stepped = 0
    for step, *alone in zip(steps, *map(evolve, walks), strict=True):
        assert len(step) == len(walks)
        for walk, solo in zip(walks, alone):
            assert solo.step == stepped + 1
            _same_walk(step[walk], solo)
        stepped += 1
    return stepped


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("count", [1, 2, 9, MAX_STACK + 3], ids=lambda n: f"{n}-walks")
@pytest.mark.parametrize("position", [0, -3, 4], ids=lambda x: f"from-{x}")
def test_a_stack_steps_each_walk_bit_for_bit_as_it_steps_alone(steps, count, position):
    walks = _stack_walks(steps * 100 + count, count, steps, position)
    stacks = [stack.specs for stack in _stacks(walks)]
    assert stacks == ([walks[:MAX_STACK], walks[MAX_STACK:]] if count > MAX_STACK else [walks])
    # Neither side holds its grids, so both reuse their buffers.
    assert _same_as_alone(walks, _stepped(walks)) == steps


def test_only_open_1d_walks_of_one_start_and_halfwidth_share_a_stack():
    # One stack, with a walk of another coin, interleaved with a 2D walk and
    # a periodic walk (each a stack of one), and walks of another start or
    # halfwidth: each walk gets its own bits.
    steps = 12
    shared = _stack_walks(1, 3, steps)
    other = _stack_walks(2, 1, steps)[0]
    moved = dataclasses.replace(shared[0], initial_position=2)
    wider = dataclasses.replace(shared[1], halfwidth=20)
    square = WalkSpec(2, steps, fractional_swap(0.3), DefectMap.cross_xy(1.0))
    ring = WalkSpec(1, steps, H, DefectMap.point(0.5), boundary="periodic", halfwidth=5)
    walks = [shared[0], other, square, shared[1], moved, ring, wider, shared[2]]
    assert [stack.specs for stack in _stacks(walks)] == [
        [shared[0], other, *shared[1:]], [square], [moved], [ring], [wider]]
    assert _same_as_alone(walks, _stepped(walks)) == steps


def test_held_stack_grids_keep_their_own_amplitudes():
    walks = _stack_walks(3, 4, 20)
    assert _same_as_alone(walks, list(_stepped(walks))) == 20


@pytest.mark.parametrize("drift", ["nan", "scaled"])
def test_one_walk_drifting_inside_a_stack_fails_at_that_step(drift):
    walks = _stack_walks(5, 4, 10)
    steps = _stepped(walks)
    for _ in range(3):
        step = next(steps)
    amps = step[walks[2]][0].amplitudes  # a view of the stack's own grids
    if drift == "nan":
        amps[0, 0] = np.nan
    else:
        amps *= 1.001
    residual = "nan" if drift == "nan" else "2.001e-03"
    with pytest.raises(RuntimeError, match=f"norm residual {residual} at step 4 exceeds 1e-10"):
        next(steps)


def test_walks_sharing_a_coin_field_stack_and_keep_their_own_bits():
    rng = np.random.default_rng(6)
    field = CoinField(1, random_su2(rng), {1: random_su2(rng), -3: np.eye(2), 0: H})
    defects = [DefectMap.none(), DefectMap.point(1.1), DefectMap.custom({0: 0.3, -1: 2.0})]
    walks = [WalkSpec(1, 25, field, defect, initial_coin=[0.6, 0.8j]) for defect in defects]
    assert [stack.specs for stack in _stacks(walks)] == [walks]
    assert _same_as_alone(walks, _stepped(walks)) == 25


def test_one_light_cone_stack_steps_walks_of_different_coins_each_as_alone():
    # Each walk of a stack takes its own default coin, its own coin field's
    # sites and its own phase, whatever the first walk's.
    rng = np.random.default_rng(12)
    fields = [CoinField(1, random_su2(rng), {1: random_su2(rng), -3: np.eye(2)}),
              CoinField(1, H, {0: random_su2(rng), 2: H, -5: random_su2(rng)})]
    coins = [H, random_su2(rng), *fields, H]
    defects = [DefectMap.point(0.7), DefectMap.none(), DefectMap.custom({0: 0.3, -1: 2.0}),
               DefectMap.point(-1.9), DefectMap.custom({-4: 1.1, 3: -0.5})]
    walks = [WalkSpec(1, 30, coin, defect, initial_position=-2, initial_coin=[0.6, 0.8j],
                      halfwidth=40) for coin, defect in zip(coins, defects)]
    assert [stack.specs for stack in _stacks(walks)] == [walks]
    assert _same_as_alone(walks, _stepped(walks)) == 30


@pytest.mark.parametrize("dim", [1, 2])
def test_one_periodic_stack_steps_every_walk_each_as_alone(dim):
    # Built directly: the commands step each periodic walk alone.
    rng = np.random.default_rng(13 + dim)
    coin = (lambda: random_su2(rng)) if dim == 1 else (lambda: random_shared_coin(rng))
    field = CoinField(dim, coin(), {(1,) * dim: coin(), (-2,) * dim: np.eye(2 * dim)})
    defects = [DefectMap.point(0.9), DefectMap.none(),
               DefectMap.custom({(0,) * dim: 0.4, (3,) * dim: -1.0})]
    starts = rng.normal(size=(3, 2 * dim)) + 1j * rng.normal(size=(3, 2 * dim))
    walks = [WalkSpec(dim, 14, c, defect, initial_position=(1,) * dim,
                      initial_coin=start / np.linalg.norm(start), boundary="periodic", halfwidth=5)
             for c, defect, start in zip([coin(), field, coin()], defects, starts)]
    assert [stack.specs for stack in _stacks(walks)] == [[w] for w in walks]
    assert _same_as_alone(walks, _stepped(walks, [_Stack(walks)])) == 14


def test_one_stack_steps_axis_move_walks_each_as_alone():
    # The single 2D walker's move table on the full lattice, as axis_walk_state steps it.
    rng = np.random.default_rng(15)
    walks = [WalkSpec(2, 9, c, defect, initial_coin=start / np.linalg.norm(start), halfwidth=10)
             for c, defect, start in zip(
                 [random_shared_coin(rng), H2, CoinField(2, H2, {(1, 0): random_shared_coin(rng)})],
                 [DefectMap.line_y(np.pi), DefectMap.none(), DefectMap.point(0.6)],
                 rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))]
    together = _stepped(walks, [_Stack(walks, _AXIS_MOVES)])
    alone = _stepped(walks, [_Stack([w], _AXIS_MOVES) for w in walks])
    stepped = 0
    for step, solo in zip(together, alone, strict=True):
        assert len(step) == len(walks)
        for walk in walks:
            (grid, norm_sq), (solo_grid, solo_norm_sq) = step[walk], solo[walk]
            assert norm_sq.hex() == solo_norm_sq.hex()
            assert grid.amplitudes.tobytes() == solo_grid.amplitudes.tobytes()
        stepped += 1
    assert stepped == 9


def _alone_hex(a):
    """The sum of one walk's site probabilities, taken alone, in memory order."""
    return float(np.add.reduce(_site_probs(a).ravel())).hex()


@pytest.mark.parametrize("threads", [1, 2])
def test_each_walks_norm_is_the_sum_of_its_own_site_probabilities(threads, monkeypatch):
    # The norm guard takes a stack's site probabilities once a step, into its
    # coin-mix scratch on the light cone, and each walk's norm_sq is the sum
    # of its row of them.  That must be the bits of the sum of the walk's own
    # probabilities, taken alone, at one BLAS thread and two; the 2D walks
    # reach 14,884 amplitudes, past the ~10,000 above which BLAS zdotc splits
    # its sum by thread.
    rng = np.random.default_rng(8)
    starts = rng.normal(size=(MAX_STACK, 2)) + 1j * rng.normal(size=(MAX_STACK, 2))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    defects = [DefectMap.point(0.7), DefectMap.none(), DefectMap.custom({1: 0.4, -3: 2.0})]
    groups = [[WalkSpec(1, 40, H, defects[i % 3], initial_coin=starts[i]) for i in range(count)]
              for count in (1, 2, 19, MAX_STACK)]
    groups += [[WalkSpec(2, 60, fractional_swap(0.5), DefectMap.cross_xy(np.pi))],
               [WalkSpec(1, 30, H, DefectMap.point(1.0), boundary="periodic", halfwidth=7)],
               [WalkSpec(2, 5, H2, DefectMap.line_y(0.5), boundary="periodic", halfwidth=60)]]
    rows = []  # per stack and step: its norms, and each walk's own sum, both as hex
    guarded = qwalk.evolution._guarded

    def recording(stacks, steps):
        for norms in guarded(stacks, steps):
            for stack, row in zip(stacks, norms):
                fresh = _site_probs(stack.amplitudes)
                assert np.array_equal(stack.probs.view(np.int64), fresh.view(np.int64))
                assert stack.scratch is None or np.shares_memory(stack.probs, stack.scratch)
                alone = list(map(_alone_hex, stack.amplitudes))
                rows.append(([n.hex() for n in row.tolist()], alone))
            yield norms

    monkeypatch.setattr(qwalk.evolution, "_guarded", recording)
    monkeypatch.setattr(qwalk.isomorphism, "_guarded", recording)
    with _blas_threads(threads):
        for walks in groups:
            assert len(list(_stacks(walks))) == 1
            for step in _stepped(walks):
                assert [step[w][1].hex() for w in walks] == rows[-1][0]
        axis_walk_state(8, fractional_swap(0.3), [0.5, 0.5j, -0.5, 0.5j])
    assert len(rows) == 4 * 40 + 60 + 30 + 5 + 8
    for norms, alone in rows:
        assert norms == alone
