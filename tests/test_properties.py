"""Property tests: transform, Hamiltonian and label laws on random odd sizes.

Transform sizes are drawn from the odd d in [5, 151]; each (d, kind) basis
is built once per session.  The label audits and the dense reference run on
odd d up to 301, the displacement phases on odd d up to 1001.  Examples are derandomized, so a run is reproducible.
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from finosc import (
    PhasePoint,
    Signal,
    apply_frft,
    coherent_frame,
    dft_operator,
    displacement,
    frame_hamiltonian,
    frft_kernel,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
    sign_alternations,
    spectral,
)
from finosc.thetagauss import frequency_series, spatial_series  # noqa: E402

from conftest import dense_parity_frame  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

sizes = st.integers(2, 75).map(lambda s: 2 * s + 1)
label_sizes = st.integers(2, 150).map(lambda s: 2 * s + 1)
kinds = st.sampled_from(["frame", "harper"])
orders = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
phase_sizes = st.integers(2, 500).map(lambda s: 2 * s + 1)


@lru_cache(maxsize=None)
def _frame_hamiltonian(d):
    return frame_hamiltonian(make_lattice(d)).op.mat


@lru_cache(maxsize=None)
def _basis(d, kind):
    lat = make_lattice(d)
    h = _frame_hamiltonian(d) if kind == "frame" else harper_hamiltonian(lat)
    return oscillator_basis(h, lat, kind)


def _signal(lat, seed):
    rng = np.random.default_rng(seed)
    return Signal(lat, rng.standard_normal(lat.d) + 1j * rng.standard_normal(lat.d))


def _frft(basis, alpha, sig):
    return apply_frft(frft_kernel(basis, alpha), sig)


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, b=orders, seed=seeds)
def test_orders_add(d, kind, a, b, seed):
    basis = _basis(d, kind)
    x = _signal(basis.lattice, seed)
    lhs = _frft(basis, a, _frft(basis, b, x)).amp
    rhs = _frft(basis, a + b, x).amp
    assert np.linalg.norm(lhs - rhs) < 1e-12 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, seed=seeds)
def test_norm_is_preserved(d, kind, a, seed):
    basis = _basis(d, kind)
    x = _signal(basis.lattice, seed)
    assert abs(_frft(basis, a, x).norm() - x.norm()) < 1e-13 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, seed=seeds)
def test_order_one_is_the_centred_dft(d, kind, seed):
    basis = _basis(d, kind)
    x = _signal(basis.lattice, seed)
    want = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x.amp))) / np.sqrt(d)
    assert np.linalg.norm(_frft(basis, 1.0, x).amp - want) < 1e-12 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, seed=seeds)
def test_factored_apply_equals_dense_apply(d, kind, a, seed):
    basis = _basis(d, kind)
    x = _signal(basis.lattice, seed)
    kern = frft_kernel(basis, a)
    factored = apply_frft(kern, x).amp
    assert np.linalg.norm(factored - kern.op.mat @ x.amp) < 1e-13 * x.norm()


@SETTINGS
@given(d=sizes)
def test_frame_hamiltonian_commutes_with_fourier(d):
    h = _frame_hamiltonian(d)
    f = dft_operator(make_lattice(d)).mat
    assert np.linalg.norm(f @ h - h @ f) < 1e-12 * np.linalg.norm(h)


def _dense_parity_solve(h, lat, kind):
    """The labelled eigenpairs from a dense change of frame and LAPACK.

    QᵀHQ is formed with the dense parity frame Q and each of its diagonal
    blocks goes to ``np.linalg.eigh``; the block vectors are mapped back
    with Q and interleaved even, odd.
    """
    s, d = lat.s, lat.d
    q = dense_parity_frame(s)
    hq = q.T @ h @ q
    vals, vecs = np.empty(d), np.empty((d, d))
    for first, cols in ((0, slice(0, s + 1)), (1, slice(s + 1, d))):
        w, v = np.linalg.eigh(hq[cols, cols])
        if kind == "harper":
            w, v = w[::-1], v[:, ::-1]
        vals[first::2], vecs[:, first::2] = w, q[:, cols] @ v
    return vals, vecs


@settings(derandomize=True, deadline=None, max_examples=12)
@given(d=label_sizes, kind=kinds)
@example(d=301, kind="frame")
@example(d=301, kind="harper")
def test_labels_pass_their_audits_and_match_a_dense_solve(d, kind):
    lat = make_lattice(d)
    h = _frame_hamiltonian(d) if kind == "frame" else harper_hamiltonian(lat).mat
    basis = oscillator_basis(h, lat, kind)
    m = np.arange(d)
    assert np.array_equal(basis.parities, m % 2)
    assert np.array_equal(basis.fourier_indices, m % 4)
    short = m - basis.alternations  # only a floor-limited count falls short
    assert np.all(short >= 0) and np.all(short % 2 == 0)
    assert np.array_equal(basis.alternations[: d // 2], m[: d // 2])
    vals, vecs = _dense_parity_solve(h, lat, kind)
    vecs *= np.sign(np.sum(vecs * basis.vectors, axis=0))
    assert np.max(np.abs(vecs - basis.vectors)) < 1e-12
    assert np.max(np.abs(vals - basis.values)) < 1e-12 * np.max(np.abs(vals))
    assert np.max(np.abs(np.sort(vals) - np.linalg.eigvalsh(h))) < (
        1e-12 * np.max(np.abs(vals))
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=sizes, kappa=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       tol=st.sampled_from([1e-18, 1e-12, 1e-8]))
def test_theta_series_agree_within_their_tails(d, kappa, tol):
    # each series is within its own tail bound of the theta sum, so the two
    # are within the sum of the bounds; the factor 2 leaves room for the
    # rounding of the summation that the bounds' ε floor does not model
    lat = make_lattice(d)
    sp, _, tail_sp = spatial_series(lat, kappa, tol)
    fr, _, tail_fr = frequency_series(lat, kappa, tol)
    assert np.max(np.abs(sp - fr)) <= 2.0 * (tail_sp + tail_fr)


def _seeded_columns(rows, cols):
    """Random columns with exact zeros and entries just under the 1e-12 floor."""
    entries = st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        st.just(0.0),
        st.sampled_from([-1.0, 1.0]).map(lambda sgn: sgn * 0.999e-12),
        st.sampled_from([-1.0, 1.0]).map(lambda sgn: sgn * 1e-12),
    )
    return hnp.arrays(np.float64, (rows, cols), elements=entries)


def _kept_entry_flips(col):
    """The node count as stated: drop entries under 1e-12 of the peak, then
    count sign changes between neighbours of what is left."""
    peak = np.max(np.abs(col))
    kept = col[np.abs(col) >= 1e-12 * peak]
    return int(np.sum(kept[:-1] * kept[1:] < 0.0))


@SETTINGS
@given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 6))
def test_alternation_counts_follow_the_kept_entry_rule(data, rows, cols):
    vecs = data.draw(_seeded_columns(rows, cols))
    if data.draw(st.booleans()):
        # a unit maximum puts every column's floor at exactly 1e-12
        vecs[0] = data.draw(st.sampled_from([1.0, -1.0]))
    want = [_kept_entry_flips(col) for col in vecs.T]
    assert list(spectral._alternation_counts(vecs)) == want
    assert [sign_alternations(col) for col in vecs.T] == want


@SETTINGS
@given(d=phase_sizes, seed=seeds)
def test_displacement_phases_depend_only_on_the_reduced_integers(d, seed):
    # row n of D(a, b) holds e^{-iπab/d}·e^{2πi·b·n/d}: two entries whose
    # products agree, a·b mod 2d and b·n mod d, are the same bits
    lat = make_lattice(d)
    rng = np.random.default_rng(seed)
    a, b = (int(x) for x in rng.integers(-lat.s, lat.s + 1, size=2))
    A, B = np.meshgrid(lat.indices, lat.indices, indexing="ij")
    same = (A * B - a * b) % (2 * d) == 0
    k = rng.integers(np.count_nonzero(same))
    a2, b2 = int(A[same][k]), int(B[same][k])
    n = lat.indices
    e1 = displacement(PhasePoint(lat, a, b)).mat[lat.pos(n), lat.pos(n - a)]
    e2 = displacement(PhasePoint(lat, a2, b2)).mat[lat.pos(n), lat.pos(n - a2)]
    i, j = np.nonzero((b * n[:, None] - b2 * n[None, :]) % d == 0)
    assert len(i) > 0  # n = 0 always pairs with n = 0
    assert np.array_equal(e1[i], e2[j])


@SETTINGS
@given(d=st.integers(2, 50).map(lambda s: 2 * s + 1), seed=seeds)
def test_single_state_is_its_dense_row(d, seed):
    frame = coherent_frame(make_lattice(d))
    rng = np.random.default_rng(seed)
    for a, b in rng.integers(-frame.lattice.s, frame.lattice.s + 1, size=(10, 2)):
        p = PhasePoint(frame.lattice, a, b)
        assert np.array_equal(frame.state(p).amp, frame.states[frame.flat_index(p)])
