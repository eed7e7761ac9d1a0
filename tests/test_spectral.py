"""Audited LAPACK eigensolver, the finite-difference oscillator, and label audits."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from finosc import (
    ConvergenceError,
    Signal,
    SpectralBasis,
    circulant,
    dft_operator,
    eigh,
    frame_hamiltonian,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
    reference,
    sign_alternations,
    spectral,
)
from finosc.fourier import dft_parity_blocks

from conftest import dense_parity_frame

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
    empty = r"expected a non-empty square matrix, got shape \(0, 0\)"
    with pytest.raises(ValueError, match=empty):
        eigh(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=empty):
        oscillator_basis(np.zeros((0, 0)), make_lattice(5), "frame")
    # a boolean, object or string matrix is refused by name; integers are real
    lat = make_lattice(5)
    bad = (np.eye(3, dtype=bool), np.eye(3).astype(object), np.full((3, 3), "a"))
    for mat, kind in zip(bad, ("bool", "object", "<U1")):
        message = f"^expected a real or complex matrix, got dtype {kind}$"
        with pytest.raises(ValueError, match=message):
            eigh(mat)
    with pytest.raises(ValueError, match="got dtype bool$"):
        oscillator_basis(np.eye(5, dtype=bool), lat, "frame")
    with pytest.raises(ValueError, match="got dtype object$"):
        eigh(circulant(lat, np.zeros(5).astype(object)))
    assert np.array_equal(eigh(np.eye(3, dtype=int))[0], np.ones(3))


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
    F = dft_operator(lat21)
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


@pytest.mark.parametrize(
    "bad, message",
    [
        ([1.0, np.nan, -1.0, 1.0], "needs finite entries"),
        ([1.0, np.inf, -1.0, 1.0], "needs finite entries"),
        ([1.0, -np.inf, -1.0, 1.0], "needs finite entries"),
        ([1.0, complex(np.nan, 0.0), -1.0], "needs finite entries"),
        ([], r"needs a non-empty 1-D vector, got \(0,\)"),
        (np.ones((3, 3)), r"needs a non-empty 1-D vector, got \(3, 3\)"),
        (1.0, r"needs a non-empty 1-D vector, got \(\)"),
    ],
)
def test_sign_alternations_refuses_what_it_cannot_count(bad, message):
    # a NaN or infinite peak used to keep no entry (count 0), and the empty
    # and 2-D inputs failed inside NumPy
    with pytest.raises(ValueError, match=f"^alternation count {message}"):
        sign_alternations(np.array(bad))


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
    F = dft_operator(lat)
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
    z = np.einsum("nm,nm->m", vecs, dft_operator(lat) @ vecs)
    roots = np.array([1.0, -1.0j, -1.0, 1.0j])
    fourier = np.argmin(np.abs(z[:, None] - roots[None, :]), axis=1)
    assert np.array_equal(fourier, basis.fourier_indices)


@pytest.mark.parametrize("kind", ["frame", "harper"])
def test_grid_past_301_gets_audited_labels(kind):
    # the sign fix reads Ψ_0..Ψ_302, which exist like every order, so d = 303
    # is labeled with every audit on
    lat = make_lattice(303)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    m = np.arange(303)
    assert np.array_equal(basis.parities, m % 2)
    assert np.array_equal(basis.fourier_indices, m % 4)
    deficit = m - basis.alternations
    assert basis.alternations[0] == 0
    assert np.all(deficit >= 0) and np.all(deficit % 2 == 0)
    overlaps = np.einsum("mn,nm->m", reference._sample_table(lat), basis.vectors)
    assert np.all(overlaps[np.abs(overlaps) > spectral.ZERO_SKIP] > 0.0)


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


# ---------------------------------------------------------------- parity-frame audits
#
# oscillator_basis refuses an H that does not commute with the parity flip
# J, then computes every audit from the parity-frame blocks: H's even and
# odd blocks E, O, and F's cosine and sine blocks C, S.  The tests below pin
# each number against its dense d×d counterpart and make each audit raise.

def _block_vectors(basis):
    """The parity-frame coordinates of the labelled vectors, even and odd."""
    s = basis.lattice.s
    v = basis.vectors
    even = np.vstack([v[s, 0::2], np.sqrt(2.0) * v[s + 1:, 0::2]])
    return even, np.sqrt(2.0) * v[s + 1:, 1::2]


def _commutator(h, lat):
    cos, sin = dft_parity_blocks(lat)
    return spectral._fourier_commutator(
        cos, sin, *spectral._parity_blocks(h, lat.s)
    )


def _dense_commutator(h, lat):
    f = dft_operator(lat)
    return float(np.linalg.norm(f @ h - h @ f))


def _dense_flip(h):
    return float(np.max(np.abs(h - h[::-1, ::-1])))


@pytest.mark.parametrize("d", [21, 101])
@pytest.mark.parametrize("power", [2, 1])
def test_commutator_audit_refuses_a_non_fourier_hamiltonian(d, power):
    # power 2: diag(q²) keeps H parity-even but breaks Fourier invariance;
    # power 1: diag(q) is odd under the flip, which is refused before the
    # commutator is read, with the dense max|H - JHJ| = 2e-6·s·√δ
    lat = make_lattice(d)
    h = frame_hamiltonian(lat).op.mat + 1e-6 * np.diag(lat.points**power)
    if power == 1:
        with pytest.raises(ValueError, match="does not commute with the parity flip") as err:
            oscillator_basis(h, lat, "frame")
        assert f"(max|H - JHJ| = {_dense_flip(h):.3e})" in str(err.value)
        assert f"{_dense_flip(h):.3e}" == {21: "1.094e-05", 101: "2.494e-05"}[d]
        return
    with pytest.raises(ValueError, match="does not commute with the Fourier") as err:
        oscillator_basis(h, lat, "frame")
    dense = _dense_commutator(h, lat)
    assert f"= {dense:.3e})" in str(err.value)
    # both computations round at the scale of H, not of the commutator
    assert abs(_commutator(h, lat) - dense) < 1e-14 * np.linalg.norm(h)


@pytest.mark.parametrize("d", [21, 101])
@pytest.mark.parametrize("centro", [True, False])
def test_block_commutator_is_the_dense_one(d, centro):
    lat = make_lattice(d)
    rng = np.random.default_rng(d)
    h = rng.standard_normal((d, d))
    h = h + h.T
    if not centro:
        with pytest.raises(ValueError, match="does not commute with the parity flip") as err:
            _commutator(h, lat)
        assert f"(max|H - JHJ| = {_dense_flip(h):.3e})" in str(err.value)
        return
    h = h + h[::-1, ::-1]
    dense = _dense_commutator(h, lat)
    assert abs(_commutator(h, lat) - dense) < 1e-12 * dense


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [21, 101])
def test_block_fourier_expectations_are_the_dense_ones(d, kind):
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    cos, sin = dft_parity_blocks(lat)
    even, odd = _block_vectors(basis)
    assert np.max(np.abs(spectral._mirror(even, odd) - basis.vectors)) < 1e-15
    z = spectral._fourier_expectations(cos, sin, even, odd)
    v = basis.vectors
    dense = np.einsum("nm,nm->m", v, dft_operator(lat) @ v)
    assert np.max(np.abs(z - dense)) < 1e-13


def test_parity_blocks_are_the_dense_change_of_frame(lat21):
    # the sliced blocks must be QᵀHQ and QᵀFQ with Q written out densely
    s, d = lat21.s, lat21.d
    q = dense_parity_frame(s)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((d, d))
    h = h + h.T
    h = h + h[::-1, ::-1]
    even, odd = spectral._parity_blocks(h, s)
    hq = q.T @ h @ q
    assert np.max(np.abs(hq[: s + 1, : s + 1] - even)) < 1e-14
    assert np.max(np.abs(hq[s + 1:, s + 1:] - odd)) < 1e-14
    # a centro-symmetric H does not couple the even and odd vectors
    assert np.max(np.abs(hq[: s + 1, s + 1:])) < 1e-14
    cos, sin = dft_parity_blocks(lat21)
    fq = q.T @ dft_operator(lat21) @ q
    assert np.max(np.abs(fq[: s + 1, : s + 1] - cos)) < 1e-15
    assert np.max(np.abs(fq[s + 1:, s + 1:] + 1j * sin)) < 1e-15
    assert np.max(np.abs(fq[: s + 1, s + 1:])) < 1e-15


def _relabelled(basis, values):
    """The matrix with the labelled vectors of ``basis`` and new eigenvalues."""
    v = basis.vectors
    return (v * np.asarray(values, dtype=float)) @ v.T


def test_basis_refuses_bad_arguments(lat5, lat7):
    h = frame_hamiltonian(lat5).op
    with pytest.raises(ValueError, match="kind must be"):
        oscillator_basis(h, lat5, "ladder")
    with pytest.raises(ValueError, match="^operator must live on the d=7 lattice, got d=5$"):
        oscillator_basis(h, lat7, "frame")
    with pytest.raises(ValueError, match="does not match the lattice"):
        oscillator_basis(np.eye(7), lat5, "frame")
    with pytest.raises(ValueError, match="non-finite"):
        eigh(np.array([[np.nan]]))


def test_degenerate_blocks_are_refused(frame_basis21, lat21):
    # the identity commutes with F, and its even block is one repeated value
    with pytest.raises(RuntimeError, match="below 1e-10 in the even block"):
        oscillator_basis(np.eye(21), lat21, "frame")
    values = np.arange(21.0)
    values[3] = 1.0  # the odd labels 1 and 3 collide
    with pytest.raises(RuntimeError, match="below 1e-10 in the odd block"):
        oscillator_basis(_relabelled(frame_basis21, values), lat21, "frame")


def test_a_nodal_first_vector_is_refused(frame_basis21, lat21):
    values = np.arange(21.0)
    values[0] = 100.0  # the even block now starts with the label-2 vector
    with pytest.raises(RuntimeError, match="not nodeless .2 sign alternations"):
        oscillator_basis(_relabelled(frame_basis21, values), lat21, "frame")


def test_a_broken_mirror_is_refused(monkeypatch, lat21, frame21):
    mirror = spectral._mirror

    def off_by_one_ulp(even, odd):
        vecs = mirror(even, odd)
        vecs[0, 3] = np.nextafter(vecs[0, 3], np.inf)
        return vecs

    monkeypatch.setattr(spectral, "_mirror", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="vector 3 is not of parity 1"):
        oscillator_basis(frame21.op, lat21, "frame")


def test_a_mixed_fourier_class_is_refused(frame_basis21, lat21):
    # labels 2 and 4 (classes 2 and 0) share an eigenvalue, and a coupling of
    # 1e-9 splits them into (v₂ ± v₄)/√2, whose ⟨v, Fv⟩ is 0.  The coupling
    # moves ‖FH - HF‖_F by 2√2·1e-9, inside the commutator tolerance
    values = np.arange(21.0)
    values[4] = 2.0
    v = frame_basis21.vectors
    h = _relabelled(frame_basis21, values)
    h += 1e-9 * (np.outer(v[:, 2], v[:, 4]) + np.outer(v[:, 4], v[:, 2]))
    with pytest.raises(RuntimeError, match="Fourier eigenvalue of vector 2 is ambiguous"):
        oscillator_basis(h, lat21, "frame")


def test_a_misordered_fourier_class_is_refused(frame_basis21, lat21):
    values = np.arange(21.0)
    values[[2, 4]] = values[[4, 2]]
    with pytest.raises(RuntimeError, match="vector 2 has Fourier index 0, expected 2"):
        oscillator_basis(_relabelled(frame_basis21, values), lat21, "frame")


def test_a_misordered_alternation_count_is_refused(frame_basis21, lat21):
    # labels 2 and 6 share parity and Fourier class; only the count differs
    values = np.arange(21.0)
    values[[2, 6]] = values[[6, 2]]
    with pytest.raises(RuntimeError, match="position 2 has 6 sign alternations"):
        oscillator_basis(_relabelled(frame_basis21, values), lat21, "frame")


def test_eigenpair_audit_raises(frame_basis21, frame21):
    h = frame21.op.mat
    vals, vecs = frame_basis21.values, frame_basis21.vectors
    spectral._audit(h, vals, vecs)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        spectral._audit(h, vals + 1e-6, vecs)
    with pytest.raises(ConvergenceError, match="orthogonality defect"):
        spectral._audit(h, vals, vecs * (1.0 + 1e-9))


def _blocks(op, lat):
    return spectral._parity_blocks(spectral._real_symmetric(op), lat.s)


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 101, 301])
def test_parity_readings_are_the_dense_readings(d, kind):
    # the one audit of oscillator_basis, read from the blocks, against the
    # dense audit of the basis it returns
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    h = spectral._real_symmetric(op).mat
    basis = oscillator_basis(op, lat, kind)
    even, odd = _blocks(op, lat)
    even_resid, odd_resid, defect = spectral._parity_readings(
        even, odd, np.linalg.eigh(even), np.linalg.eigh(odd)
    )
    dense_resid, dense_defect = spectral._readings(h, basis.values, basis.vectors)
    scale = np.linalg.norm(h)
    frame_worst = max(np.max(even_resid), np.max(odd_resid)) / scale
    assert abs(frame_worst - np.max(dense_resid) / scale) < 1e-14
    assert abs(defect - dense_defect) < 1e-14
    assert np.linalg.norm(even) <= scale and np.linalg.norm(odd) <= scale


@pytest.mark.parametrize(("eps", "refused"), [(3e-10, True), (3e-11, False)])
def test_a_small_parity_coupling_is_judged_as_the_dense_audit_judges_it(
    frame_basis21, frame21, lat21, eps, refused
):
    # v₀ v₁ᵀ + v₁ v₀ᵀ is odd under the flip: max|H - JHJ| is about 40·eps,
    # against a bound 1e-10·max|H| = 1.8e-9, so it is refused at eps = 3e-10.
    # At 3e-11 the centro-symmetric half, the unperturbed H, is kept: the
    # basis is unchanged, and each of v₀, v₁ keeps a dense residual eps·‖H‖_F
    h = frame21.op.mat.real
    v = frame_basis21.vectors
    scale = np.linalg.norm(h)
    h = h + eps * scale * (np.outer(v[:, 0], v[:, 1]) + np.outer(v[:, 1], v[:, 0]))
    if refused:
        with pytest.raises(
            ValueError,
            match=r"does not commute with the parity flip \(max\|H - JHJ\| = 1.190e-08\)",
        ):
            oscillator_basis(h, lat21, "frame")
        assert f"{_dense_flip(h):.3e}" == "1.190e-08"
        return
    basis = oscillator_basis(h, lat21, "frame")
    for field in ("values", "vectors", "alternations", "parities", "fourier_indices"):
        assert np.array_equal(getattr(basis, field), getattr(frame_basis21, field))
    v, vals = basis.vectors, basis.values
    resid = np.max(np.linalg.norm(h @ v - v * vals, axis=0))
    assert f"{resid / scale:.1e}" == "3.0e-11"


def _moved_value(vals, vecs):
    return vals + 1e-6 * (np.arange(len(vals)) == 2), vecs


def _scaled_vector(vals, vecs):
    return vals, vecs * (1.0 + 1e-9 * (np.arange(len(vals)) == 2))


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize(
    ("fault", "message"),
    [
        (_moved_value, "eigenpair residual 1.000e-06 too large"),
        (_scaled_vector, "orthogonality defect ‖VᵀV - I‖_F = 2.000e-09"),
    ],
)
def test_a_faulty_block_solve_is_refused(monkeypatch, frame21, lat21, block, fault, message):
    # one eigenvalue of a block moved, or one of its vectors scaled, as LAPACK
    # hands them over; the other block is left as solved
    solve, calls = np.linalg.eigh, []

    def faulty(mat):
        calls.append(mat)
        vals, vecs = solve(mat)
        return fault(vals, vecs) if len(calls) == block + 1 else (vals, vecs)

    monkeypatch.setattr(np.linalg, "eigh", faulty)
    with pytest.raises(ConvergenceError, match=message):
        oscillator_basis(frame21.op, lat21, "frame")


def test_basis_build_uses_neither_the_public_solver_nor_the_dense_audit(
    monkeypatch, frame21, lat21, frame_basis21
):
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(spectral, "eigh", refuse)
    monkeypatch.setattr(spectral, "_audit", refuse)
    basis = oscillator_basis(frame21.op, lat21, "frame")
    assert np.array_equal(basis.vectors, frame_basis21.vectors)


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 101, 301, 1001])
def test_parity_blocks_are_exactly_symmetric(d, kind):
    # LAPACK reads one triangle, and the residuals read both, so the blocks
    # are used without a further symmetrization
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    even, odd = _blocks(op, lat)
    assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)


def test_relabelled_parity_blocks_are_exactly_symmetric(frame_basis21, lat21):
    # every value list the refusal tests above relabel the basis with
    cases = [np.arange(21.0) for _ in range(5)]
    cases[0][3] = 1.0
    cases[1][0] = 100.0
    cases[2][4] = 2.0
    cases[3][[2, 4]] = cases[3][[4, 2]]
    cases[4][[2, 6]] = cases[4][[6, 2]]
    for values in cases:
        even, odd = _blocks(_relabelled(frame_basis21, values), lat21)
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)


def _record(kind, lat):
    """The record diag(w) + C(c) of a kind: the two oscillators, or a random
    symmetric one whose well is even (H commutes with the flip) or not."""
    if kind == "frame":
        return frame_hamiltonian(lat).op
    if kind == "harper":
        return harper_hamiltonian(lat)
    rng = np.random.default_rng(lat.d)
    col, well = rng.standard_normal(lat.d), rng.standard_normal(lat.d)
    if kind == "even":
        well = well + well[::-1]
    return circulant(lat, col + col[::-1], well)


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 101])
def test_a_basis_has_the_same_bits_in_any_block_size(d, kind, monkeypatch):
    # the sign fix, the peaks, the parity check and the alternation counts
    # run over blocks of columns; each step is per column.  Each basis fixes
    # its signs on the first read of its vectors, under the block size set then
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    monkeypatch.setattr(reference, "_BLOCK", d)
    whole = oscillator_basis(op, lat, kind)
    whole.vectors  # signed now, in one block
    for block in (1, 7, 32):
        monkeypatch.setattr(reference, "_BLOCK", block)
        basis = oscillator_basis(op, lat, kind)
        for field in ("values", "vectors", "alternations", "parities", "fourier_indices"):
            assert np.array_equal(getattr(basis, field), getattr(whole, field)), (block, field)


@pytest.mark.parametrize("kind", ["frame", "harper"])
def test_a_basis_build_holds_little_beyond_its_vectors(kind):
    # V itself is one d×d array; the build adds the half-size blocks of H and
    # F and of the eigenvectors, and temporaries a block of columns wide,
    # but no further d×d array
    d = 1001
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    tracemalloc.start()
    try:
        oscillator_basis(op, lat, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * d * d


@pytest.mark.parametrize("kind", ["frame", "harper", "even", "uneven"])
@pytest.mark.parametrize("d", [5, 21, 101, 301, 1001])
def test_gathered_blocks_are_the_blocks_sliced_from_the_matrix(d, kind):
    lat = make_lattice(d)
    op = _record(kind, lat)
    if kind == "uneven":
        with pytest.raises(ValueError, match="does not commute with the parity flip") as record:
            _blocks(op, lat)
        with pytest.raises(ValueError) as dense:
            spectral._parity_blocks(op.mat, lat.s)
        assert str(record.value) == str(dense.value)
        assert f"(max|H - JHJ| = {_dense_flip(op.mat):.3e})" in str(record.value)
        return
    gathered = _blocks(op, lat)
    sliced = spectral._parity_blocks(op.mat, lat.s)
    assert len(gathered) == len(sliced) == 2
    for block, want in zip(gathered, sliced):
        assert np.array_equal(block, want)


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 101])
def test_a_record_and_its_dense_matrix_give_the_same_basis(d, kind):
    lat = make_lattice(d)
    op = _record(kind, lat)
    basis = oscillator_basis(op, lat, kind)
    assert "mat" not in vars(op)  # no d×d H is built for the basis
    dense = oscillator_basis(op.mat, lat, kind)
    for field in ("values", "vectors", "alternations", "parities", "fourier_indices"):
        assert np.array_equal(getattr(basis, field), getattr(dense, field))


@pytest.mark.parametrize("fault", ["nan", "inf", "complex", "asymmetric"])
def test_a_bad_record_is_refused_as_its_dense_matrix_is(lat21, fault):
    op = frame_hamiltonian(lat21).op
    col, well = op.first_column.astype(complex), op.well.copy()
    scale = float(np.max(np.abs(op.mat)))
    at = lat21.pos(2)
    if fault == "nan":
        well[3] = np.nan
    elif fault == "inf":
        col[at] = np.inf
    elif fault == "complex":
        col[at] += 1e-9j * scale
    else:
        col[at] += 1e-9 * scale
    bad = circulant(lat21, col, well)
    for call in (eigh, lambda h: oscillator_basis(h, lat21, "frame")):
        with pytest.raises(ValueError) as record:
            call(bad)
        with pytest.raises(ValueError) as dense:
            call(bad.mat)
        assert str(record.value) == str(dense.value)
    if fault == "asymmetric":
        assert "not symmetric" in str(record.value)


_MOVED_WELL_CASES = [
    ("frame", 21), ("frame", 101), ("harper", 21), ("harper", 101), ("harper", 1001)
]


@pytest.mark.parametrize(("kind", "d"), _MOVED_WELL_CASES)
def test_a_moved_well_pair_is_refused_from_the_record(d, kind):
    # the well moved by 1e-6 at n = ±3 stays even, so H still commutes with
    # the flip, but not with F: ‖FH - HF‖_F is about 2e-6, above 1e-9·‖H‖_F
    lat = make_lattice(d)
    op = _record(kind, lat)
    well = op.well.copy()
    well[lat.pos([-3, 3])] += 1e-6
    moved = circulant(lat, op.first_column, well)
    with pytest.raises(ValueError, match="does not commute with the Fourier") as err:
        oscillator_basis(moved, lat, kind)
    assert "mat" not in vars(moved)
    reading = _commutator(spectral._real_symmetric(moved), lat)
    assert f"= {reading:.3e})" in str(err.value)
    dense = _dense_commutator(moved.mat, lat)
    assert abs(reading - dense) < 1e-14 * np.linalg.norm(moved.mat)


def _moved_at_three(op, lat, by):
    """The record with its well moved by ``by`` at n = 3 alone."""
    well = op.well.copy()
    well[lat.pos(3)] += by
    return circulant(lat, op.first_column, well)


@pytest.mark.parametrize(("kind", "d"), _MOVED_WELL_CASES)
def test_a_well_moved_at_one_side_is_refused_from_the_record(d, kind):
    # the well moved by 1e-6 at n = 3 alone no longer commutes with the flip,
    # far beyond 1e-10·max|H|; the refusal comes before any d×d H is built
    lat = make_lattice(d)
    moved = _moved_at_three(_record(kind, lat), lat, 1e-6)
    with pytest.raises(ValueError, match="does not commute with the parity flip") as err:
        oscillator_basis(moved, lat, kind)
    assert "mat" not in vars(moved)
    assert f"(max|H - JHJ| = {_dense_flip(moved.mat):.3e})" in str(err.value)


@pytest.mark.parametrize(("kind", "d"), _MOVED_WELL_CASES)
def test_a_tiny_odd_well_move_gives_the_basis_of_the_centro_symmetric_half(d, kind):
    lat = make_lattice(d)
    op = _record(kind, lat)
    moved = _moved_at_three(op, lat, 1e-13 * float(np.max(np.abs(op.mat))))
    basis = oscillator_basis(moved, lat, kind)
    w = moved.well
    half = oscillator_basis(circulant(lat, op.first_column, 0.5 * (w + w[::-1])), lat, kind)
    assert np.max(np.abs(basis.values - half.values)) < 1e-12
    assert np.max(np.abs(basis.vectors - half.vectors)) < 1e-12
    for field in ("alternations", "parities", "fourier_indices"):
        assert np.array_equal(getattr(basis, field), getattr(half, field))


def test_alternation_counts_keep_a_floor_per_column():
    # the faint middle lobe of column 0 is skipped, column 1 is all zero,
    # and column 2's small last entry sits above its own column's floor
    cols = np.array([[1.0, 0.0, 1.0], [-1e-13, 0.0, -1.0], [1.0, 0.0, 1e-3]])
    assert list(spectral._alternation_counts(cols)) == [0, 0, 2]


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 7, 21, 101, 301])
def test_half_grid_count_equals_the_full_count(d, kind):
    # the vectors are mirrored bit for bit, so the n >= 0 half fixes the
    # count; at d = 301 many counts are resolution-limited and still agree
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    for m in range(d):
        v = basis.vectors[:, m]
        full = sign_alternations(v)
        assert 2 * sign_alternations(v[lat.s:]) + m % 2 == full
        assert basis.alternations[m] == full


def test_basis_is_a_frozen_record_with_an_identity_hash(lat21, frame21):
    # a basis of its own: a shared one may have had its signs fixed already
    b = oscillator_basis(frame21.op, lat21, "frame")
    fields = ("lattice", "kind", "values", "_vectors", "alternations",
              "parities", "fourier_indices")
    # the record holds its labelled basis and nothing else; V waits, as
    # mirrored from its blocks, for its first read
    assert tuple(vars(b)) == fields
    assert isinstance(b._vectors, spectral._Mirrored)
    vecs = b.vectors
    assert tuple(vars(b)) == fields and b._vectors is vecs and b.vectors is vecs
    twin = SpectralBasis(*(getattr(b, f) for f in fields))
    assert twin != b and hash(twin) == object.__hash__(twin)
    # a record built with an array takes it as its signed vectors
    assert twin.vectors is vecs and twin._held_vectors() is vecs
    assert np.array_equal(twin.vector(3).amp, b.vectors[:, 3])
    with pytest.raises(AttributeError):
        twin.values = b.values
    with pytest.raises(AttributeError):
        twin.vectors = vecs
    with pytest.raises(TypeError):
        SpectralBasis(*(getattr(b, f) for f in fields), {})


def _hermite_pass_refused(*args):
    raise AssertionError("a Hermite pass ran")


def _sign_rule(lat, vecs):
    # the convention written out over the whole sample table: column m of V
    # times the sign of its overlap with ⁴√δ·Ψ_m, or, where that overlap is
    # at most ZERO_SKIP, the sign of its largest entry
    overlaps = np.einsum("mn,nm->m", reference._sample_table(lat), vecs)
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(lat.d)]
    return vecs * np.where(np.abs(overlaps) > spectral.ZERO_SKIP, np.sign(overlaps), np.sign(peaks))


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 7, 21, 101, 303])
def test_first_read_signs_the_held_columns_by_the_hermite_overlaps(d, kind):
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    held = basis._held_vectors().copy()
    assert np.array_equal(basis.vectors, _sign_rule(lat, held))
    # the rule is its own fixed point, so a signed basis is signed again as is
    assert np.array_equal(_sign_rule(lat, basis.vectors), basis.vectors)


@pytest.mark.parametrize("kind", ["frame", "harper"])
def test_a_basis_build_runs_no_hermite_pass(monkeypatch, kind):
    lat = make_lattice(51)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    hermite = reference._hermite_blocks
    monkeypatch.setattr(reference, "_hermite_blocks", _hermite_pass_refused)
    basis = oscillator_basis(op, lat, kind)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return hermite(*args)

    monkeypatch.setattr(reference, "_hermite_blocks", counted)
    vecs = basis.vectors
    assert calls == [lat.d - 1]
    assert basis.vectors is vecs and basis.vector(7).amp[0] == vecs[0, 7]
    assert calls == [lat.d - 1]


@pytest.mark.parametrize("kind", ["frame", "harper"])
def test_vector_accessor_is_the_signed_column(kind):
    # on a fresh basis the accessor is the first read
    lat = make_lattice(21)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    fresh = [oscillator_basis(op, lat, kind) for _ in range(lat.d)]
    signed = oscillator_basis(op, lat, kind).vectors
    for m, basis in enumerate(fresh):
        v = basis.vector(m).amp
        assert np.array_equal(v, signed[:, m]) and np.array_equal(v, basis.vectors[:, m])


def test_the_first_read_writes_no_array_and_leaves_one_behind(lat21, frame21):
    basis = oscillator_basis(frame21.op, lat21, "frame")
    held = basis._held_vectors()
    before = held.copy()
    gone = weakref.ref(held)
    vecs = basis.vectors
    # half the columns change sign, in a new array; the held one is intact
    assert vecs is not held and np.any(vecs != held)
    assert np.array_equal(held, before)
    del held
    gc.collect()
    assert gone() is None
    assert basis._held_vectors() is vecs


def test_first_reads_that_race_build_equal_arrays(lat21, frame21):
    # more readers than cores, switching often: whichever read's array the
    # basis keeps, every reader gets the same bits and the held V is intact
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            basis = oscillator_basis(frame21.op, lat21, "frame")
            held = basis._held_vectors()
            before = held.copy()
            start = threading.Barrier(4, timeout=10)
            seen = []

            def read():
                start.wait()
                seen.append(basis.vectors)

            readers = [threading.Thread(target=read) for _ in range(4)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in readers)
            assert len(seen) == 4 and all(np.array_equal(v, seen[0]) for v in seen)
            assert any(basis.vectors is v for v in seen)
            assert np.array_equal(held, before)
    finally:
        sys.setswitchinterval(switch)
