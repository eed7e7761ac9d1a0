"""Audited symmetric eigensolver and labeled oscillator eigenbases.

Eigendecomposition goes through LAPACK (``np.linalg.eigh``).  Input must be
real symmetric, and every result is audited: each eigenpair residual and the
orthogonality defect ‖VᵀV - I‖_F must stay small, or ``ConvergenceError``
is raised.

An oscillator Hamiltonian commutes with the Fourier operator F, hence with
the parity flip F², so it splits exactly into an even block on the s+1
vectors δ_0, (δ_n + δ_{-n})/√2 and an odd block on the s vectors
(δ_n - δ_{-n})/√2.  Each block is diagonalized on its own and the two are
interleaved into the label order.  A basis is accepted only after three
independent labelings agree for every vector: the parity under n → -n, the
Fourier eigenvalue (-i)^m, and the sign alternation count wherever float
precision can resolve it.  Any mismatch raises; there is no quiet fallback.
"""

from __future__ import annotations

import numpy as np

from .lattice import Lattice, Operator, Signal
from .fourier import dft_operator
from . import reference

SYMMETRY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
GAP_TOL = 1e-10
FOURIER_AMBIGUITY = 0.1
ZERO_SKIP = 1e-12


class ConvergenceError(RuntimeError):
    """An eigendecomposition failed its residual or orthogonality audit."""


def _real_symmetric(op) -> np.ndarray:
    """The validated real symmetric matrix behind ``op``, symmetrized."""
    mat = op.mat if isinstance(op, Operator) else np.asarray(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.iscomplexobj(mat):
        if float(np.max(np.abs(mat.imag))) > SYMMETRY_TOL * scale:
            raise ValueError("matrix has a non-negligible imaginary part")
        mat = mat.real
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max|A - Aᵀ| = {asym:.3e}")
    return 0.5 * (mat + mat.T)


def _audit(sym: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise unless (vals, vecs) are orthonormal eigenpairs of ``sym``."""
    scale = max(float(np.linalg.norm(sym)), 1.0)
    resid = float(np.max(np.linalg.norm(sym @ vecs - vecs * vals, axis=0)))
    if not resid <= RESIDUAL_TOL * scale:
        raise ConvergenceError(f"eigenpair residual {resid:.3e} too large")
    defect = float(np.linalg.norm(vecs.T @ vecs - np.eye(len(vals))))
    if not defect <= ORTHOGONALITY_TOL:
        raise ConvergenceError(f"orthogonality defect ‖VᵀV - I‖_F = {defect:.3e}")


def eigh(op) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric operator.

    Accepts an Operator or a square ndarray whose entries are finite and
    real symmetric up to 1e-10 relative; anything farther from symmetric is
    rejected rather than silently symmetrized.  Returns (values ascending,
    vectors in matching columns).  The result is audited: each residual
    column of A·v - λ·v must stay below 1e-10 times the Frobenius norm of
    A, and ‖VᵀV - I‖_F below 1e-10.
    """
    sym = _real_symmetric(op)
    vals, vecs = np.linalg.eigh(sym)
    vecs = np.ascontiguousarray(vecs)
    _audit(sym, vals, vecs)
    return vals, vecs


def check_basis_size(d: int) -> None:
    """Refuse a grid too large to label.

    Labels are sign-fixed against the sampled Hermite functions Ψ_0..Ψ_{d-1},
    and those are supported only up to ``reference.MAX_HERMITE_ORDER``.
    """
    limit = reference.MAX_HERMITE_ORDER + 1
    if d > limit:
        raise ValueError(
            f"labeled bases need d <= {limit} (Hermite orders up to "
            f"{reference.MAX_HERMITE_ORDER}), got d = {d}"
        )


def harper_hamiltonian(lat: Lattice) -> Operator:
    """Finite-difference oscillator: cyclic second difference plus cosine well.

    Entries: 2·(cos(2πn/d) - 2) on the diagonal and 1 on the two cyclic
    off-diagonals (including the corner pair that closes the ring).  Real
    symmetric, commutes with the Fourier operator, spectrum inside [-8, 0).
    """
    d = lat.d
    mat = np.zeros((d, d))
    pos = np.arange(d)
    mat[pos, pos] = 2.0 * (np.cos(2.0 * np.pi * lat.indices / d) - 2.0)
    mat[pos, (pos + 1) % d] = 1.0
    mat[pos, (pos - 1) % d] = 1.0
    return Operator(lat, mat)


def sign_alternations(v) -> int:
    """Number of sign changes along the vector, skipping near-zero entries.

    Entries below 1e-12 of the max magnitude are ignored; a change is counted
    when consecutive surviving entries differ in sign.  This is the discrete
    stand-in for the node count of a continuous eigenfunction.
    """
    arr = v.amp if isinstance(v, Signal) else np.asarray(v)
    if np.iscomplexobj(arr):
        mx = float(np.max(np.abs(arr)))
        if mx > 0.0 and float(np.max(np.abs(arr.imag))) > ZERO_SKIP * mx:
            raise ValueError("alternation count needs a real vector")
        arr = arr.real
    mx = float(np.max(np.abs(arr)))
    if mx == 0.0:
        return 0
    kept = arr[np.abs(arr) >= ZERO_SKIP * mx]
    return int(np.sum(kept[:-1] * kept[1:] < 0.0))


_FOURIER_ROOTS = np.array([1.0, -1.0j, -1.0, 1.0j])


class SpectralBasis:
    """Orthonormal eigenbasis ordered by quantum number, with audited labels.

    ``vectors[:, m]`` is the m-th oscillator eigenvector: m sign
    alternations, parity (-1)^m, Fourier eigenvalue (-i)^m.  ``values``
    holds the matching eigenvalues in the same label order.  They are not
    monotone: the upper spectrum of either operator forms parity doublets
    whose even member lies below its odd partner, and for ``kind='harper'``
    the sequence additionally runs downward overall (the nodeless vector
    carries the largest eigenvalue).

    ``alternations`` stores the measured counts.  These equal 0..d-1 except
    for the most oscillatory vectors at large d, whose faintest genuine
    lobes sink below the relative counting floor; such counts fall short of
    m by an even amount and are reported as measured.
    """

    __slots__ = ("lattice", "kind", "values", "vectors", "alternations",
                 "parities", "fourier_indices", "_kernel_cache")

    def __init__(self, lattice, kind, values, vectors, alternations,
                 parities, fourier_indices):
        self.lattice = lattice
        self.kind = kind
        self.values = values
        self.vectors = vectors
        self.alternations = alternations
        self.parities = parities
        self.fourier_indices = fourier_indices
        self._kernel_cache = {}

    def vector(self, m: int) -> Signal:
        if not 0 <= m < self.lattice.d:
            raise ValueError(f"quantum number must be in 0..{self.lattice.d - 1}")
        return Signal(self.lattice, self.vectors[:, m].copy())


def _parity_frame(s: int) -> np.ndarray:
    """Orthogonal Q = [E | O] on the grid of d = 2s+1 points.

    Columns 0..s are the even vectors δ_0 and (δ_n + δ_{-n})/√2, columns
    s+1..2s the odd vectors (δ_n - δ_{-n})/√2, for n = 1..s.  Each row holds
    at most one nonzero entry per block, so a block's Q·x mirrors its entries
    exactly.
    """
    d = 2 * s + 1
    q = np.zeros((d, d))
    n = np.arange(1, s + 1)
    r = np.sqrt(0.5)
    q[s, 0] = 1.0
    q[s + n, n] = r
    q[s - n, n] = r
    q[s + n, s + n] = r
    q[s - n, s + n] = -r
    return q


def _first(mask) -> int | None:
    """Index of the first true entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def oscillator_basis(op, lat: Lattice, kind: str) -> SpectralBasis:
    """Diagonalize an oscillator Hamiltonian and label its eigenbasis.

    The quantum number m is the sign-alternation count of the eigenvector,
    not the eigenvalue rank.  The two orderings agree through the lower part
    of the spectrum but split at the top, where the states form parity
    doublets whose even member sits below its odd partner; for 'harper' the
    whole sequence additionally runs down the spectrum (the nodeless vector
    carries the largest eigenvalue).

    Counting alternations directly is ill-posed for the most oscillatory
    vectors at large d (their faintest genuine lobes sink below the counting
    floor), so the labels are assigned from two robust facts instead: the
    Hamiltonian splits into an even and an odd block, and within each block
    the eigenvalues are strictly monotone in m (ascending for 'frame',
    descending for 'harper'; the first even vector must be nodeless).
    Interleaving the two blocks gives the alternation ordering wherever the
    count is resolvable, and extends it where it is not.  Each vector's sign
    makes its overlap with ⁴√δ·Ψ_m positive.  Each label is then audited
    three ways: parity must equal m mod 2, the Fourier eigenvalue must equal
    (-i)^m (this pins m mod 4 and catches any within-block misordering), and
    the measured alternation count must equal m wherever resolvable.  A
    resolution-limited count can only fall short of m by an even amount (a
    suppressed lobe hides two sign changes); anything else raises.

    Eigenvalues must be simple within each block (adjacent gap above 1e-10),
    and d may not exceed ``reference.MAX_HERMITE_ORDER + 1``.  Any label
    inconsistency raises instead of degrading.
    """
    if kind not in ("frame", "harper"):
        raise ValueError(f"kind must be 'frame' or 'harper', got {kind!r}")
    if isinstance(op, Operator) and op.lattice != lat:
        raise ValueError("operator belongs to a different lattice")
    check_basis_size(lat.d)
    d, s = lat.d, lat.s
    hmat = _real_symmetric(op)
    if hmat.shape != (d, d):
        raise ValueError("matrix size does not match the lattice")
    fmat = dft_operator(lat).mat
    comm = float(np.linalg.norm(fmat @ hmat - hmat @ fmat))
    if comm > 1e-9 * max(1.0, float(np.linalg.norm(hmat))):
        raise ValueError(
            f"matrix does not commute with the Fourier operator "
            f"(‖FH - HF‖_F = {comm:.3e}); labels need Fourier invariance"
        )

    q = _parity_frame(s)
    hq = q.T @ hmat @ q
    vals = np.empty(d)
    vecs = np.empty((d, d))
    for first, cols in ((0, slice(0, s + 1)), (1, slice(s + 1, d))):
        block_vals, block_vecs = eigh(hq[cols, cols])
        if kind == "harper":
            block_vals, block_vecs = block_vals[::-1], block_vecs[:, ::-1]
        gap = float(np.min(np.abs(np.diff(block_vals))))
        if gap < GAP_TOL:
            raise RuntimeError(
                f"eigenvalue gap {gap:.3e} below {GAP_TOL:.0e} in the "
                f"{'odd' if first else 'even'} block; labels would be meaningless"
            )
        vals[first::2] = block_vals
        vecs[:, first::2] = q[:, cols] @ block_vecs
    nodes = sign_alternations(vecs[:, 0])
    if nodes != 0:
        raise RuntimeError(
            f"the first even {kind} eigenvector is not nodeless "
            f"({nodes} sign alternations)"
        )

    labels = np.arange(d)
    # sign-fix against the sampled Hermite functions; where the reference
    # overlap vanishes numerically, pin the largest entry positive instead
    overlaps = np.einsum("mn,nm->m", reference._sample_table(lat), vecs)
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), labels]
    vecs *= np.where(np.abs(overlaps) > ZERO_SKIP, np.sign(overlaps), np.sign(peaks))
    _audit(hmat, vals, vecs)

    parities = labels % 2
    # the block assembly mirrors entries exactly, so parity holds bit for bit
    m = _first(np.any(vecs[::-1] != vecs * (1 - 2 * parities), axis=0))
    if m is not None:
        raise RuntimeError(f"vector {m} is not of parity {m % 2}")
    z = np.einsum("nm,nm->m", vecs, fmat @ vecs)
    dists = np.abs(z[:, None] - _FOURIER_ROOTS[None, :])
    fourier_indices = np.argmin(dists, axis=1)
    m = _first(np.min(dists, axis=1) > FOURIER_AMBIGUITY)
    if m is not None:
        raise RuntimeError(
            f"Fourier eigenvalue of vector {m} is ambiguous: ⟨v, Fv⟩ = {z[m]:.6f}"
        )
    m = _first(fourier_indices != labels % 4)
    if m is not None:
        raise RuntimeError(
            f"vector {m} has Fourier index {fourier_indices[m]}, expected {m % 4}"
        )
    alternations = np.array([sign_alternations(vecs[:, m]) for m in labels])
    deficit = labels - alternations
    m = _first((deficit < 0) | (deficit % 2 != 0))
    if m is not None:
        raise RuntimeError(
            f"vector at position {m} has {alternations[m]} sign alternations"
        )

    return SpectralBasis(
        lattice=lat,
        kind=kind,
        values=vals,
        vectors=vecs,
        alternations=alternations,
        parities=parities,
        fourier_indices=fourier_indices,
    )
