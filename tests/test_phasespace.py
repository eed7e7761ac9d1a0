"""Displacements, the coherent frame, tightness, and overlaps."""

import numpy as np
import pytest

from finosc import (
    CoherentFrame,
    PhasePoint,
    Signal,
    coherent_frame,
    dft_operator,
    displacement,
    ground_state,
    make_lattice,
    momentum_operator,
    overlap,
    position_operator,
)
from finosc.phasespace import _displacement_parts, _overlaps


def test_position_is_the_coordinate_diagonal(lat21):
    Q = position_operator(lat21)
    assert np.array_equal(Q.mat, np.diag(lat21.points))


def test_momentum_is_fourier_conjugate_of_position(lat7):
    F = dft_operator(lat7).mat
    P = momentum_operator(lat7)
    assert np.max(np.abs(P.mat - F.conj().T @ np.diag(lat7.points) @ F)) < 1e-15
    # hermitian with the same spectrum as Q
    assert np.max(np.abs(P.mat - P.mat.conj().T)) < 1e-15
    ev = np.sort(np.linalg.eigvalsh(P.mat))
    assert np.max(np.abs(ev - lat7.points)) < 1e-13


@pytest.mark.parametrize("d", [5, 21, 101, 301])
def test_momentum_scales_columns_instead_of_multiplying_by_a_diagonal(d):
    # every term the dense F⁺·diag(q) adds beside F⁺[n, m]·q_m is an exact
    # zero, so scaling the columns changes no bit
    lat = make_lattice(d)
    F = dft_operator(lat).mat
    dense = F.conj().T @ np.diag(lat.points) @ F
    assert np.array_equal(momentum_operator(lat).mat, dense)


def test_phase_point_range_checks(lat5):
    p = PhasePoint(lat5, 2, -2)
    assert p.alpha == pytest.approx(2 * lat5.sqrt_delta)
    assert p.beta == pytest.approx(-2 * lat5.sqrt_delta)
    with pytest.raises(ValueError):
        PhasePoint(lat5, 3, 0)
    with pytest.raises(ValueError):
        PhasePoint(lat5, 0, -3)


def test_displacement_matches_first_principles(lat7):
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for a, b in [(0, 0), (1, 0), (0, 2), (-3, 3), (2, -1)]:
        p = PhasePoint(lat7, a, b)
        out = displacement(p).mat @ phi
        for n in lat7.indices:
            u = n * lat7.sqrt_delta
            want = (
                np.exp(-0.5j * p.alpha * p.beta)
                * np.exp(1j * p.beta * u)
                * phi[lat7.pos(n - a)]
            )
            assert out[lat7.pos(n)] == pytest.approx(want, abs=1e-14)


def test_displacement_is_unitary(lat7):
    for a, b in [(1, 2), (-3, -3), (0, 1)]:
        D = displacement(PhasePoint(lat7, a, b)).mat
        assert np.max(np.abs(D.conj().T @ D - np.eye(7))) < 1e-14


def test_composition_phase_with_wrap_sign(lat7):
    # D(p1)·D(p2) = e^{-(i/2)(α₁β₂-α₂β₁)}·(-1)^w·D(p1+p2 wrapped), where the
    # wrap sign flips once per wrapped coordinate times the other point's
    # wrapped index parity; checked against direct matrix products
    lat = lat7
    d = lat.d
    cases = [(1, 1, 1, 1), (3, 0, 3, 0), (3, 2, 3, 3), (-3, -2, -2, -3), (2, 3, 2, 3)]
    for a1, b1, a2, b2 in cases:
        D1 = displacement(PhasePoint(lat, a1, b1)).mat
        D2 = displacement(PhasePoint(lat, a2, b2)).mat
        asum, bsum = lat.wrap(a1 + a2), lat.wrap(b1 + b2)
        sa = (a1 + a2 - asum) // d
        sb = (b1 + b2 - bsum) // d
        sign = (-1.0) ** (sb * asum + sa * bsum + sa * sb)
        al1, be1 = a1 * lat.sqrt_delta, b1 * lat.sqrt_delta
        al2, be2 = a2 * lat.sqrt_delta, b2 * lat.sqrt_delta
        phase = np.exp(-0.5j * (al1 * be2 - al2 * be1)) * sign
        D12 = displacement(PhasePoint(lat, asum, bsum)).mat
        assert np.max(np.abs(D1 @ D2 - phase * D12)) < 1e-13


def test_frame_states_and_indexing(lat21):
    fr = coherent_frame(lat21)
    assert fr.states.shape == (441, 21)
    # every state is unit norm
    norms = np.linalg.norm(fr.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # the origin state is the ground state itself
    p0 = PhasePoint(lat21, 0, 0)
    assert np.max(np.abs(fr.states[fr.flat_index(p0)] - ground_state(lat21).amp)) < 1e-15
    # flat_index walks the row-major sweep in iter_points order
    for k, p in enumerate(fr.iter_points()):
        assert fr.flat_index(p) == k
        if k > 50:
            break


@pytest.mark.parametrize("d", [5, 21])
def test_single_state_is_bit_identical_to_the_dense_row(d):
    fr = coherent_frame(make_lattice(d))
    for p in fr.iter_points():
        assert np.array_equal(fr.state(p).amp, fr.states[fr.flat_index(p)])


def test_dense_states_are_built_on_first_read_and_kept(lat7):
    fr = coherent_frame(lat7)
    assert "states" not in fr.__dict__
    first = fr.states
    assert "states" in fr.__dict__
    assert fr.states is first


def test_state_rejects_foreign_points(lat5, lat7):
    with pytest.raises(ValueError):
        coherent_frame(lat7).state(PhasePoint(lat5, 0, 0))


def test_states_match_displacement_matrices(lat7):
    fr = coherent_frame(lat7)
    g = ground_state(lat7).amp
    for p in fr.iter_points():
        want = displacement(p).mat @ g
        assert np.max(np.abs(fr.states[fr.flat_index(p)] - want)) < 1e-14


@pytest.mark.parametrize("d", [5, 7, 21])
def test_frame_is_tight(d):
    lat = make_lattice(d)
    S = coherent_frame(lat).frame_operator().mat
    assert np.max(np.abs(S - np.eye(d))) < 1e-14


def test_overlap_matches_inner_product(lat7):
    fr = coherent_frame(lat7)
    rng = np.random.default_rng(3)
    pts = list(fr.iter_points())
    for _ in range(12):
        p1, p2 = rng.choice(len(pts), size=2)
        p1, p2 = pts[p1], pts[p2]
        want = np.vdot(fr.states[fr.flat_index(p1)], fr.states[fr.flat_index(p2)])
        assert overlap(fr, p1, p2) == pytest.approx(want, abs=1e-13)


def test_overlap_diagonal_is_one(lat5):
    fr = coherent_frame(lat5)
    for p in fr.iter_points():
        assert overlap(fr, p, p) == pytest.approx(1.0, abs=1e-14)


def test_overlap_rejects_foreign_points(lat5, lat7):
    fr = coherent_frame(lat7)
    with pytest.raises(ValueError):
        overlap(fr, PhasePoint(lat5, 0, 0), PhasePoint(lat7, 0, 0))


def test_fourier_rotates_the_grid_by_a_quarter_turn(lat21):
    # F·D(α,β)·g = D(β,-α)·g with no extra phase
    fr = coherent_frame(lat21)
    F = dft_operator(lat21).mat
    worst = 0.0
    for p in fr.iter_points():
        lhs = F @ fr.states[fr.flat_index(p)]
        q = PhasePoint(lat21, p.b_idx, -p.a_idx)
        worst = max(worst, np.max(np.abs(lhs - fr.states[fr.flat_index(q)])))
    assert worst < 1e-13


def test_inverse_fourier_rotates_the_other_way(lat7):
    fr = coherent_frame(lat7)
    F = dft_operator(lat7).mat
    for p in fr.iter_points():
        lhs = F.conj().T @ fr.states[fr.flat_index(p)]
        q = PhasePoint(lat7, -p.b_idx, p.a_idx)
        assert np.max(np.abs(lhs - fr.states[fr.flat_index(q)])) < 1e-13


# The batched cores against their one-point wrappers, for scalar and array
# index inputs.  ``displacement`` scatters the parts bit for bit; an overlap
# summed in a batch may round differently from the one-point sum, so it is
# held to 4 ulp of the overlaps' scale (|⟨p|q⟩| ≤ 1).

_CORE_SIZES = [5, 21, 101]


def _random_index_arrays(lat, k, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-lat.s, lat.s + 1, size=(count, k))


@pytest.mark.parametrize("d", _CORE_SIZES)
def test_displacement_is_the_scatter_of_its_parts(d):
    lat = make_lattice(d)
    a, b = _random_index_arrays(lat, 9, 2, d)
    cols, vals = _displacement_parts(lat, a, b)
    assert cols.shape == vals.shape == (9, d)
    rows = np.arange(d)
    for i, (p, q) in enumerate(zip(a, b)):
        want = np.zeros((d, d), dtype=complex)
        want[rows, cols[i]] = vals[i]
        assert np.array_equal(displacement(PhasePoint(lat, p, q)).mat, want)
        one_cols, one_vals = _displacement_parts(lat, int(p), int(q))
        assert np.array_equal(one_cols, cols[i]) and np.array_equal(one_vals, vals[i])
    # index arrays broadcast: a column of a against a row of b
    grid_cols, grid_vals = _displacement_parts(lat, a[:, None], b[None, :])
    assert grid_vals.shape == (9, 9, d)
    grid_cols = np.broadcast_to(grid_cols, grid_vals.shape)
    assert np.array_equal(grid_vals[np.arange(9), np.arange(9)], vals)
    assert np.array_equal(grid_cols[np.arange(9), np.arange(9)], cols)


@pytest.mark.parametrize("d", _CORE_SIZES)
def test_overlap_is_a_row_of_the_batched_overlaps(d):
    lat = make_lattice(d)
    fr = coherent_frame(lat)
    a1, b1, a2, b2 = _random_index_arrays(lat, 30, 4, d)
    batch = _overlaps(fr, a1, b1, a2, b2)
    assert batch.shape == (30,)
    one = np.array([
        overlap(fr, PhasePoint(lat, p, q), PhasePoint(lat, r, t))
        for p, q, r, t in zip(a1, b1, a2, b2)
    ])
    scalar = np.array([_overlaps(fr, *idx) for idx in zip(a1, b1, a2, b2)])
    eps = np.finfo(float).eps
    assert np.max(np.abs(one - batch)) <= 4 * eps
    assert np.array_equal(one, scalar)
    assert "states" not in fr.__dict__


def test_a_frame_lives_on_the_lattice_of_its_ground_state(lat5):
    g = ground_state(lat5)
    frame = CoherentFrame(g)
    assert frame.lattice is g.lattice and frame.ground is g


def test_a_frame_takes_a_plain_signal(lat5):
    g = Signal(lat5, ground_state(lat5).amp.copy())
    frame = CoherentFrame(g)
    assert frame.ground is g
    assert np.array_equal(frame.states, coherent_frame(lat5).states)
