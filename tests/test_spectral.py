"""Audited LAPACK eigensolver, the finite-difference oscillator, and label audits."""

import numpy as np
import pytest

from finosc import (
    ConvergenceError,
    Operator,
    Signal,
    dft_operator,
    eigh,
    frame_hamiltonian,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
    sign_alternations,
)

# frozen decimals for the finite-difference oscillator, cross-checked once
# against the characteristic polynomial (d=5) and kept as regression anchors
HARPER5_ASCENDING = [
    -6.9021130326,
    -5.3484140004,
    -3.6180339887,
    -3.0978869674,
    -1.0335520109,
]
HARPER21_MIN = -7.7118624056
HARPER21_SECOND = -7.1571894533
HARPER21_MAX = -0.2881375941
FRAME5_BY_LABEL = [0.4685102359, 1.4183509120, 1.8207466201, 3.6162844260, 2.7424784205]


def char_poly_coeffs(mat):
    """Coefficients of det(λI - A) by the trace recursion, no eigensolver."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.eye(n)
    for k in range(1, n + 1):
        M = mat @ M
        c = -np.trace(M) / k
        coeffs[k] = c
        M += c * np.eye(n)
    return coeffs


def test_eigh_sorts_a_diagonal(lat5):
    vals, vecs = eigh(np.diag([3.0, 1.0, 2.0, 5.0, 4.0]))
    assert np.array_equal(vals, [1.0, 2.0, 3.0, 4.0, 5.0])
    # columns are signed unit coordinates
    assert np.max(np.abs(np.abs(vecs) - np.eye(5)[:, [1, 2, 0, 4, 3]])) < 1e-15


def test_eigh_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((31, 31))
    a = a + a.T
    vals, vecs = eigh(a)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a))) < 1e-11
    assert np.max(np.abs(vecs.T @ vecs - np.eye(31))) < 1e-12
    assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-11


def test_eigh_accepts_operator_and_real_complex(lat5):
    op = harper_hamiltonian(lat5)
    v1, _ = eigh(op)
    v2, _ = eigh(op.mat.astype(complex))
    assert np.array_equal(v1, v2)


def test_eigh_rejects_bad_input():
    with pytest.raises(ValueError):
        eigh(np.ones((3, 4)))
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0j], [-1.0j, 0.0]]))


def test_eigh_shift_structure_has_cosine_spectrum(lat21):
    # (C + Cᵀ)/2 for the cyclic shift has eigenvalues cos(2πk/d)
    d = 21
    C = np.roll(np.eye(d), 1, axis=0)
    vals, _ = eigh((C + C.T) / 2.0)
    want = np.sort(np.cos(2.0 * np.pi * np.arange(d) / d))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


def test_harper_matrix_entries(lat7):
    H = harper_hamiltonian(lat7).mat
    assert np.array_equal(H, H.T)
    assert H[0, 6] == 1.0 and H[6, 0] == 1.0
    for p in range(7):
        n = p - 3
        assert H[p, p] == pytest.approx(2.0 * (np.cos(2.0 * np.pi * n / 7.0) - 2.0))
        assert H[p, (p + 1) % 7] == 1.0
    # center of the grid carries the shallowest diagonal
    assert H[3, 3] == pytest.approx(-2.0)
    assert np.count_nonzero(H) == 3 * 7


def test_harper_commutes_with_fourier(lat21):
    H = harper_hamiltonian(lat21).mat
    F = dft_operator(lat21).mat
    assert np.max(np.abs(H @ F - F @ H)) < 1e-12


def test_harper5_characteristic_polynomial_oracle(lat5):
    H = harper_hamiltonian(lat5).mat
    roots = np.sort(np.roots(char_poly_coeffs(H)).real)
    vals, _ = eigh(H)
    assert np.max(np.abs(vals - roots)) < 1e-11
    assert np.max(np.abs(vals - HARPER5_ASCENDING)) < 1e-9


def test_harper21_frozen_extremes(lat21):
    vals, _ = eigh(harper_hamiltonian(lat21))
    assert vals[0] == pytest.approx(HARPER21_MIN, abs=1e-9)
    assert vals[1] == pytest.approx(HARPER21_SECOND, abs=1e-9)
    assert vals[-1] == pytest.approx(HARPER21_MAX, abs=1e-9)
    assert np.all(vals < 0.0) and np.all(vals > -8.0)


def test_sign_alternations_basics(lat5):
    assert sign_alternations(np.array([1.0, -1.0, 1.0])) == 2
    assert sign_alternations(np.array([1.0, 0.0, -1.0])) == 1
    assert sign_alternations(np.array([1.0, 1e-15, -1.0])) == 1
    assert sign_alternations(np.array([2.0, 1.0, 3.0])) == 0
    assert sign_alternations(np.zeros(4)) == 0
    assert sign_alternations(Signal(lat5, np.array([1.0, -2.0, 3.0, -4.0, 5.0]))) == 4
    with pytest.raises(ValueError):
        sign_alternations(np.array([1.0, 1.0j]))


def test_sign_alternations_floor_is_relative():
    # 1e-3 survives next to a max of 1, but not next to a max of 1e10
    assert sign_alternations(np.array([1.0, -1e-3, 1.0])) == 2
    assert sign_alternations(np.array([1e10, -1e-3, 1e10])) == 0


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21])
def test_basis_label_audit(d, kind):
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    m = np.arange(d)
    assert np.array_equal(basis.alternations, m)
    assert np.array_equal(basis.parities, m % 2)
    assert np.array_equal(basis.fourier_indices, m % 4)
    assert np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(d))) < 1e-13
    # eigenvalues are the same multiset the solver produced
    vals, _ = eigh(op)
    assert np.max(np.abs(np.sort(basis.values) - vals)) < 1e-12
    # every labeled vector is Fourier invariant up to the fourth root
    F = dft_operator(lat).mat
    roots = np.array([1.0, -1.0j, -1.0, 1.0j])
    for j in range(d):
        v = basis.vectors[:, j]
        assert np.max(np.abs(F @ v - roots[j % 4] * v)) < 1e-10


def full_solve_labels(op, lat, kind):
    """The labeled basis rebuilt from one full-matrix LAPACK solve.

    Each vector's parity is read off its mirror image; the spectrum is walked
    from the nodeless end (bottom for 'frame', top for 'harper'), the two
    parity classes are interleaved, and signs are left as LAPACK gives them.
    """
    h = np.asarray(getattr(op, "mat", op)).real
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    if kind == "harper":
        vals, vecs = vals[::-1], vecs[:, ::-1]
    even = np.max(np.abs(vecs - vecs[::-1]), axis=0) < 1e-8
    order = np.empty(lat.d, dtype=int)
    order[0::2] = np.nonzero(even)[0]
    order[1::2] = np.nonzero(~even)[0]
    return vals[order], vecs[:, order], (~even[order]).astype(int)


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [21, 101])
def test_blocks_match_a_full_matrix_solve(d, kind):
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    vals, vecs, parities = full_solve_labels(op, lat, kind)
    vecs = vecs * np.sign(np.sum(vecs * basis.vectors, axis=0))
    assert np.max(np.abs(vecs - basis.vectors)) < 1e-12
    assert np.max(np.abs(vals - basis.values)) < 1e-11
    assert np.array_equal(parities, basis.parities)
    assert np.array_equal([sign_alternations(v) for v in vecs.T], basis.alternations)
    z = np.einsum("nm,nm->m", vecs, dft_operator(lat).mat @ vecs)
    roots = np.array([1.0, -1.0j, -1.0, 1.0j])
    fourier = np.argmin(np.abs(z[:, None] - roots[None, :]), axis=1)
    assert np.array_equal(fourier, basis.fourier_indices)


def test_unsupported_grid_is_refused_before_the_solve():
    # the size check comes first, so even an unusable operator is not read
    with pytest.raises(ValueError, match="d <= 301"):
        oscillator_basis(None, make_lattice(303), "frame")


def test_frame_labels_start_at_the_bottom(frame_basis21):
    assert int(np.argmin(frame_basis21.values)) == 0
    assert frame_basis21.kind == "frame"


def test_harper_labels_start_at_the_top(harper_basis21):
    assert int(np.argmax(harper_basis21.values)) == 0
    assert harper_basis21.kind == "harper"


def test_frame5_values_by_label(lat5):
    basis = oscillator_basis(frame_hamiltonian(lat5).op, lat5, "frame")
    assert np.max(np.abs(basis.values - FRAME5_BY_LABEL)) < 1e-9


def test_upper_doublets_put_even_below_odd(frame_basis21):
    vals = frame_basis21.values
    # labels 13/14 form the first inverted pair: the even member sits lower
    assert vals[14] < vals[13]
    # and the sequence is monotone over the low labels
    assert np.all(np.diff(vals[:10]) > 0.0)


def test_harper_values_fall_with_label(harper_basis21):
    vals = harper_basis21.values
    assert np.all(np.diff(vals[:10]) < 0.0)


def test_vector_accessor(frame_basis21):
    v = frame_basis21.vector(3)
    assert isinstance(v, Signal)
    assert sign_alternations(v) == 3
    with pytest.raises(ValueError):
        frame_basis21.vector(21)
    with pytest.raises(ValueError):
        frame_basis21.vector(-1)


def test_basis_ground_is_nodeless_and_positive(frame_basis21, harper_basis21):
    for basis in (frame_basis21, harper_basis21):
        g = basis.vectors[:, 0]
        assert np.all(g > 0.0)
        assert np.max(np.abs(g - g[::-1])) < 1e-10
