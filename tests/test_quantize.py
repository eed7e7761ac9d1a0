"""Frame quantization: the oscillator, its traces, and the ladder."""

import tracemalloc

import numpy as np
import pytest

from finosc import (
    PhasePoint,
    Signal,
    circulant,
    coherent_expectation,
    coherent_frame,
    coordinate_signal,
    dft_operator,
    eigh,
    frame_hamiltonian,
    frame_quantize,
    ground_state,
    harmonic_symbol,
    ladder_states,
    make_lattice,
    oscillator_basis,
    overlap,
    raising_operator,
    raising_symbol,
    trace_ratio,
    wielandt_hoffman_gap,
)
from finosc.quantize import _coherent_energies, _separable_parts

# frozen mean-drift / bound pairs, regression anchors
WH_PAIRS = {5: (0.48672588, 2.10255191), 7: (0.40960840, 2.94884507),
            21: (0.50425692, 9.04019335)}


@pytest.mark.parametrize("d", [5, 7, 21])
def test_fast_hamiltonian_matches_projector_average(d):
    lat = make_lattice(d)
    frame = coherent_frame(lat)
    brute = frame_quantize(frame, harmonic_symbol).mat
    assert np.max(np.abs(brute.imag)) < 1e-13
    fast = frame_hamiltonian(lat).op.mat
    assert np.max(np.abs(brute.real - 0.5 * np.eye(d) - fast)) < 1e-12


def test_hamiltonian_is_real_symmetric(frame21):
    # H is built from its hop c and well w, read at |n - m| and |n| only, so
    # symmetry and centro-symmetry hold exactly
    H = frame21.op.mat
    assert H.dtype == np.float64
    assert np.array_equal(H, H.T)
    assert np.array_equal(H, H[::-1, ::-1])


def test_hop_and_well_decomposition_rebuilds_the_matrix(frame21):
    # entry (n, m) = c at the cyclic distance off the diagonal, the well w at
    # |n| on it; frame_hamiltonian records H this way, so this guards the
    # dense matrix and test_frame_hamiltonian_equals_the_fourier_form is the
    # independent check
    lat = frame21.lattice
    d = lat.d
    col, well = frame21.op.first_column, frame21.op.well
    rebuilt = np.empty((d, d))
    for n in lat.indices:
        for m in lat.indices:
            dist = min(abs(n - m), d - abs(n - m))
            if n == m:
                rebuilt[lat.pos(n), lat.pos(m)] = well[lat.pos(abs(n))]
            else:
                rebuilt[lat.pos(n), lat.pos(m)] = col[lat.pos(dist)]
    assert np.max(np.abs(rebuilt - frame21.op.mat.real)) < 1e-12


@pytest.mark.parametrize("d", [5, 21, 101, 301])
def test_frame_hamiltonian_equals_the_fourier_form(d):
    # oracle: H = -I/2 + diag(w/2) + F⁺·diag(w/2)·F with the cyclic
    # convolution w = q² ∗ g² recomputed here from its definition
    lat = make_lattice(d)
    g2 = ground_state(lat).amp ** 2
    q2 = coordinate_signal(lat).amp ** 2
    idx = lat.indices
    w = np.array([np.dot(q2, g2[lat.pos(k - idx)]) for k in idx])
    F = dft_operator(lat).mat
    oracle = -0.5 * np.eye(d) + np.diag(w / 2) + F.conj().T @ np.diag(w / 2) @ F
    H = frame_hamiltonian(lat).op.mat
    assert np.linalg.norm(H - oracle) <= 1e-12 * np.linalg.norm(H)


def test_central_hop_coefficient_closed_form():
    for d in (5, 21, 51):
        lat = make_lattice(d)
        fh = frame_hamiltonian(lat)
        want = np.pi * lat.s * (lat.s + 1) / (3.0 * d)
        # the diagonal is w = τ₀ + conv/2 - 1/2, with no hop at distance 0
        tau0 = fh.op.well[lat.pos(0)] + 0.5 - fh.conv.amp[lat.pos(0)] / 2
        assert fh.op.first_column[lat.pos(0)] == 0.0
        assert abs(tau0 - want) < 1e-12


def test_well_samples_increase_outward(frame21):
    lat = frame21.lattice
    assert np.all(np.diff(frame21.op.well[lat.pos(np.arange(lat.s + 1))]) > 0.0)


def test_frame_hamiltonian_builds_one_table_at_a_time():
    # the well and R each read one d×d circulant or Hankel table, copied
    # from its windows for the product; no index table is formed
    d = 1001
    lat = make_lattice(d)
    tracemalloc.start()
    try:
        frame_hamiltonian(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * d * d


@pytest.mark.parametrize("d", [1801, 2001, 3001])
def test_operators_hold_no_subnormal_numbers(d):
    # from d = 1801 the hops far from the diagonal fall below the smallest
    # normal float; they are written as exact zeros at their source
    lat = make_lattice(d)
    tiny = np.finfo(float).tiny
    for op in (frame_hamiltonian(lat).op, raising_operator(coherent_frame(lat))):
        for part in (op.well, op.first_column):
            assert not np.any((part != 0.0) & (np.abs(part) < tiny))


@pytest.mark.parametrize("d", [5, 21])
def test_trace_identity(d):
    lat = make_lattice(d)
    fh = frame_hamiltonian(lat)
    want = 2.0 * np.pi * lat.s * (lat.s + 1) / 3.0 - d / 2.0
    assert abs(float(np.trace(fh.op.mat).real) - want) < 1e-10


@pytest.mark.parametrize("d", [5, 21])
def test_trace_ratio_closed_form(d):
    lat = make_lattice(d)
    want = np.pi / 3.0 * (1.0 - 1.0 / d**2) - 1.0 / d
    assert trace_ratio(lat) == pytest.approx(want, abs=1e-13)


def test_trace_ratio_climbs_toward_its_limit():
    r5 = trace_ratio(make_lattice(5))
    r21 = trace_ratio(make_lattice(21))
    r51 = trace_ratio(make_lattice(51))
    assert r5 < r21 < r51 < np.pi / 3.0


@pytest.mark.parametrize("d", [5, 7, 21])
def test_mean_drift_within_circulant_bound(d):
    lhs, rhs = wielandt_hoffman_gap(frame_hamiltonian(make_lattice(d)))
    assert 0.0 < lhs <= rhs
    assert lhs == pytest.approx(WH_PAIRS[d][0], abs=1e-6)
    assert rhs == pytest.approx(WH_PAIRS[d][1], abs=1e-6)


def test_coherent_expectation_matches_quadratic_form(lat21):
    fh = frame_hamiltonian(lat21)
    frame = coherent_frame(lat21)
    H = fh.op.mat
    for a, b in [(0, 0), (3, -2), (-10, 10), (7, 7)]:
        p = PhasePoint(lat21, a, b)
        v = frame.states[frame.flat_index(p)]
        direct = float(np.vdot(v, H @ v).real)
        assert coherent_expectation(fh, frame, p) == pytest.approx(direct, abs=1e-12)


def test_coherent_expectation_swap_symmetry(lat7):
    fh = frame_hamiltonian(lat7)
    frame = coherent_frame(lat7)
    e1 = coherent_expectation(fh, frame, PhasePoint(lat7, 2, -3))
    e2 = coherent_expectation(fh, frame, PhasePoint(lat7, -3, 2))
    assert e1 == pytest.approx(e2, abs=1e-14)


def test_coherent_expectation_rejects_mismatch(lat5, lat7):
    fh = frame_hamiltonian(lat7)
    with pytest.raises(ValueError):
        coherent_expectation(fh, coherent_frame(lat5), PhasePoint(lat5, 0, 0))


def test_raising_operator_is_real_and_centrally_antisymmetric(lat21):
    ap = raising_operator(coherent_frame(lat21)).mat
    assert not np.iscomplexobj(ap)
    assert np.max(np.abs(ap + ap[::-1, ::-1])) < 1e-12


@pytest.mark.parametrize("d", [5, 7])
def test_raising_operator_matches_projector_average(d):
    lat = make_lattice(d)
    frame = coherent_frame(lat)
    brute = frame_quantize(frame, raising_symbol).mat
    fast = raising_operator(frame).mat
    assert np.max(np.abs(brute.imag)) < 1e-12
    assert np.max(np.abs(brute.real - fast)) < 1e-12


@pytest.mark.parametrize("d", [5, 7, 21])
def test_separable_parts_match_projector_average(d):
    # f = (α³ - iα) + e^{iβ} has no parity and complex values in both parts,
    # so neither the realness nor the symmetry of the two shipped symbols can
    # hide an error
    lat = make_lattice(d)
    frame = coherent_frame(lat)
    q = lat.points
    well, hop = _separable_parts(frame, q**3 - 1j * q, np.exp(1j * q))
    fast = circulant(lat, hop, well).mat
    brute = frame_quantize(frame, lambda a, b: a**3 - 1j * a + np.exp(1j * b)).mat
    assert np.linalg.norm(fast - brute) <= 1e-12 * np.linalg.norm(brute)


def test_ladder_starts_at_the_ground_and_recurses(lat21):
    frame = coherent_frame(lat21)
    states = ladder_states(frame)
    # one (d, d) array, row n holding f̃_n
    assert type(states) is np.ndarray and states.shape == (lat21.d, lat21.d)
    assert np.array_equal(states[0], frame.ground.amp)
    ap = raising_operator(frame).mat
    for n in range(5):
        want = ap @ states[n] / np.sqrt(n + 1.0)
        assert np.max(np.abs(states[n + 1] - want)) < 1e-14


def test_ground_state_readers_never_build_the_dense_frame(lat21):
    frame = coherent_frame(lat21)
    fh = frame_hamiltonian(lat21)
    p1, p2 = PhasePoint(lat21, 3, -2), PhasePoint(lat21, -7, 5)
    ladder_states(frame)
    overlap(frame, p1, p2)
    coherent_expectation(fh, frame, p1)
    frame.state(p2)
    assert "states" not in frame.__dict__


@pytest.mark.parametrize("d", [5, 21, 101])
def test_coherent_expectation_is_a_row_of_the_batched_energies(d):
    # a batched gemv may round differently from a one-point dot, so the
    # rows agree to 4 ulp of the energies' scale
    lat = make_lattice(d)
    frame = coherent_frame(lat)
    fh = frame_hamiltonian(lat)
    a, b = np.random.default_rng(d).integers(-lat.s, lat.s + 1, size=(2, 30))
    batch = _coherent_energies(fh, frame, a, b)
    assert batch.shape == (30,)
    one = np.array([coherent_expectation(fh, frame, PhasePoint(lat, p, q))
                    for p, q in zip(a, b)])
    scalar = np.array([_coherent_energies(fh, frame, p, q) for p, q in zip(a, b)])
    scale = float(np.max(np.abs(batch)))
    assert np.max(np.abs(one - batch)) <= 4 * np.finfo(float).eps * scale
    assert np.array_equal(one, scalar)
    # a column of a against a row of b gives the table of every pair
    table = _coherent_energies(fh, frame, a[:, None], b[None, :])
    assert table.shape == (30, 30)
    assert np.max(np.abs(np.diagonal(table) - batch)) <= 4 * np.finfo(float).eps * scale


def test_ladder_refuses_states_past_the_float_range():
    # at d = 1001 the iterates' squared norms overflow; the refusal names
    # the first such order and lets no RuntimeWarning escape
    frame = coherent_frame(make_lattice(1001))
    with pytest.raises(ArithmeticError, match=r"ladder state of order \d+ .*d = 1001"):
        ladder_states(frame)


def test_ladder_at_601_stays_finite():
    states = ladder_states(coherent_frame(make_lattice(601)))
    assert states.shape == (601, 601)
    sq = np.array([row @ row for row in states])
    assert np.all(np.isfinite(sq))
    # the largest norm is about 7e129: far from the float range, yet the
    # ladder has left unit norm far behind
    assert 1e100 < np.sqrt(sq.max()) < 1e150


def test_low_ladder_states_track_the_eigenbasis(lat21, frame_basis21):
    # the un-normalized ladder should stay close to the labeled eigenvectors
    # for small quantum numbers
    frame = coherent_frame(lat21)
    states = ladder_states(frame)[:4]
    for n in range(4):
        v = states[n]
        overlap = abs(np.dot(v / np.linalg.norm(v), frame_basis21.vectors[:, n]))
        assert overlap > 0.999


def test_spectrum_sits_near_the_half_integer_ladder(lat21):
    # shifted by 1/2, the eigenvalues hover around 1..d with a drift of
    # order one, never more
    vals, _ = eigh(frame_hamiltonian(lat21).op)
    drift = np.abs(vals + 0.5 - np.arange(1, 22))
    assert float(np.max(drift)) < 4.0
    assert float(np.mean(drift)) < 1.0


def test_symbols_evaluate_pointwise():
    assert harmonic_symbol(1.0, 2.0) == pytest.approx(2.5)
    assert raising_symbol(1.0, 2.0) == pytest.approx((1.0 - 2.0j) / np.sqrt(2.0))
