"""Audited symmetric eigensolver and labeled oscillator eigenbases.

Eigendecomposition goes through LAPACK (``np.linalg.eigh``).  Input must be
real symmetric, and every result is audited: each eigenpair residual and the
orthogonality defect ‖VᵀV - I‖_F must stay small, or ``ConvergenceError``
is raised.

An oscillator Hamiltonian commutes with the Fourier operator F, hence with
the parity flip J = F², so it splits exactly into an even block on the s+1
vectors δ_0, (δ_n + δ_{-n})/√2 and an odd block on the s vectors
(δ_n - δ_{-n})/√2.  Commuting with J is a precondition of the basis build,
checked once: max|H - JHJ| above 1e-10·max(1, max|H|) is refused with
"matrix does not commute with the parity flip".  Both blocks come from the
rows n = 0..s of H and of its mirror, copied from windows of (w, c) for
the record diag(w) + C(c), so no d×d H is built; a dense H is sliced.  F is
the real cosine block C on the even vectors and -i times the real sine
block S on the odd ones.  So every audit runs at half size in real arithmetic: the
commutator ‖FH - HF‖_F comes exactly from the blocks, and ⟨v, Fv⟩ is
bᵀCb or -i·bᵀSb for the block vector b; no dense F is formed.  Each block
is diagonalized by LAPACK on its own, its vectors are mirrored onto the
grid, and the two are interleaved into the label order.  The basis is
audited once, from the blocks: each residual ‖Hv - λv‖ and the defect
‖VᵀV - I‖_F of the whole basis are those of the block eigenpairs (see
``_parity_readings``), so no d×d product is formed either.  A basis is
accepted only after three independent labelings agree for every vector:
the parity under n → -n, the Fourier eigenvalue (-i)^m, and the sign
alternation count wherever float precision can resolve it.  Any mismatch
raises; there is no quiet fallback.

A basis build forms one d×d array, the returned V.  Before V it holds the
half-size blocks E, O, C and S and the block eigenpairs, and ⟨v, Fv⟩ is read
then, so that only the block vectors are left when V is formed.  After it,
the alternation counts and the parity check run over blocks of
``reference._BLOCK`` columns.  The traced peak of a build is 1.8 d² doubles
at d = 1001, V included.

Every label and audit is blind to the sign of a column, and LAPACK leaves
those signs arbitrary.  The convention that each overlap with ⁴√δ·Ψ_m is
positive (``reference._sign_columns``) costs one pass of the Hermite
recurrence to order d - 1, so a basis pays it when ``vectors`` is first
read, not when it is built (see ``SpectralBasis``).  Until then it holds V
as mirrored from the block vectors, which the fractional Fourier transform
(blind to signs) and ``reference.deviation_report`` (which signs) read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Operator, Signal, _as_int
from .fourier import CirculantSpec, circulant, dft_parity_blocks
from . import reference

SYMMETRY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
GAP_TOL = 1e-10
FOURIER_AMBIGUITY = 0.1
ZERO_SKIP = 1e-12


class ConvergenceError(RuntimeError):
    """An eigendecomposition failed its residual or orthogonality audit."""


def _real_symmetric(op):
    """The validated real symmetric form of ``op``, symmetrized; a record stays
    one, checked on its 2d distinct entries, the diagonal w[n] + c[0] and c."""
    if isinstance(op, CirculantSpec):
        lat, col = op.lattice, op.first_column
        mat = np.concatenate([op.well + col[lat.pos(0)], col])
        flip = lambda a: np.concatenate([a[: lat.d], a[: lat.d - 1 : -1]])  # c[-k]
    else:
        mat = op.mat if isinstance(op, Operator) else np.asarray(op)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        flip = np.transpose
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.iscomplexobj(mat):
        if float(np.max(np.abs(mat.imag))) > SYMMETRY_TOL * scale:
            raise ValueError("matrix has a non-negligible imaginary part")
        mat = mat.real
    asym = float(np.max(np.abs(mat - flip(mat))))
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max|A - Aᵀ| = {asym:.3e}")
    sym = 0.5 * (mat + flip(mat))
    if isinstance(op, CirculantSpec):
        return circulant(lat, sym[lat.d:], op.well.real)
    return sym


def _readings(
    sym: np.ndarray, vals: np.ndarray, vecs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Each column's residual ‖A·v - λ·v‖ and the defect ‖VᵀV - I‖_F."""
    resid = sym @ vecs
    resid -= vecs * vals
    resid = np.linalg.norm(resid, axis=0)
    gram = vecs.T @ vecs
    gram.flat[:: len(vals) + 1] -= 1.0  # subtracting I leaves the rest as it is
    return resid, float(np.linalg.norm(gram))


def _check(defect: float, *pairs) -> None:
    """Raise unless each (residuals, A) pair stays within 1e-10·max(‖A‖_F, 1)
    and the defect ‖VᵀV - I‖_F within 1e-10."""
    for resid, sym in pairs:
        worst = float(np.max(resid))
        if not worst <= RESIDUAL_TOL * max(float(np.linalg.norm(sym)), 1.0):
            raise ConvergenceError(f"eigenpair residual {worst:.3e} too large")
    if not defect <= ORTHOGONALITY_TOL:
        raise ConvergenceError(f"orthogonality defect ‖VᵀV - I‖_F = {defect:.3e}")


def _audit(sym: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise unless (vals, vecs) are orthonormal eigenpairs of ``sym``."""
    resid, defect = _readings(sym, vals, vecs)
    _check(defect, (resid, sym))


def eigh(op) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric operator.

    Accepts a record diag(w) + C(c), an Operator or a square ndarray, with
    entries finite and real symmetric up to 1e-10 relative; anything farther
    from symmetric is rejected rather than silently symmetrized.  Returns
    (values ascending, vectors in matching columns).  The result is audited:
    each residual column of A·v - λ·v must stay below 1e-10 times the
    Frobenius norm of A, and ‖VᵀV - I‖_F below 1e-10.
    """
    sym = _real_symmetric(op)
    if isinstance(sym, CirculantSpec):
        sym = sym.mat
    vals, vecs = np.linalg.eigh(sym)
    vecs = np.ascontiguousarray(vecs)
    _audit(sym, vals, vecs)
    return vals, vecs


def harper_hamiltonian(lat: Lattice) -> CirculantSpec:
    """Finite-difference oscillator: cyclic second difference plus cosine well.

    The record with the well w = 2·(cos(2πn/d) - 2) and c = 1 at k = ±1, the
    two cyclic off-diagonals (with the corner pair that closes the ring).
    Real symmetric, commutes with the Fourier operator, spectrum in [-8, 0).
    """
    col = (np.abs(lat.indices) == 1).astype(float)
    return circulant(lat, col, 2.0 * (np.cos(2.0 * np.pi * lat.indices / lat.d) - 2.0))


def sign_alternations(v) -> int:
    """Number of sign changes along the vector, skipping near-zero entries.

    Entries below 1e-12 of the max magnitude are ignored; a change is counted
    when consecutive surviving entries differ in sign.  This is the discrete
    stand-in for the node count of a continuous eigenfunction.  It needs a
    non-empty 1-D vector of finite entries.
    """
    arr = v.amp if isinstance(v, Signal) else np.asarray(v)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"alternation count needs a non-empty 1-D vector, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("alternation count needs finite entries")
    if np.iscomplexobj(arr):
        mx = float(np.max(np.abs(arr)))
        if mx > 0.0 and float(np.max(np.abs(arr.imag))) > ZERO_SKIP * mx:
            raise ValueError("alternation count needs a real vector")
        arr = arr.real
    return int(_alternation_counts(arr[:, None])[0])


def _alternation_counts(vecs: np.ndarray) -> np.ndarray:
    """``sign_alternations`` of every column of a real matrix.

    Entries below 1e-12 of the column's max magnitude are skipped, and a
    change is counted where an entry and the previous kept entry of its
    column have a negative product; an all-zero column counts none.  The
    columns are taken in blocks of ``reference._BLOCK``, so the temporaries
    stay that many columns wide.
    """
    step = reference._BLOCK
    blocks = range(0, vecs.shape[1], step)
    return np.concatenate([_block_counts(vecs[:, c : c + step]) for c in blocks])


def _block_counts(vecs: np.ndarray) -> np.ndarray:
    """``_alternation_counts`` of one block of columns."""
    mags = np.abs(vecs)
    kept = mags >= ZERO_SKIP * np.max(mags, axis=0)
    rows = np.arange(len(vecs))[:, None]
    # row of the last kept entry strictly above each row (-1: none yet)
    last = np.maximum.accumulate(np.where(kept, rows, -1), axis=0)
    prev = np.vstack([np.full((1, vecs.shape[1]), -1), last[:-1]])
    cols = np.arange(vecs.shape[1])
    flips = kept & (prev >= 0) & (vecs * vecs[np.maximum(prev, 0), cols] < 0.0)
    return np.sum(flips, axis=0)


_FOURIER_ROOTS = np.array([1.0, -1.0j, -1.0, 1.0j])


@dataclass(frozen=True)
class _Mirrored:
    """V as mirrored from the block eigenvectors, its column signs not yet fixed."""

    vecs: np.ndarray


def _signed(vecs: np.ndarray, lat: Lattice) -> np.ndarray:
    """A new array of ``vecs`` (only read) signed by ``reference._sign_columns``,
    in one pass of the Hermite recurrence, a block of orders at a time."""
    signed = np.empty_like(vecs)
    scale = lat.delta**0.25
    for first, herm in reference._hermite_blocks(lat.d - 1, lat.points):
        cols = slice(first, first + len(herm))
        reference._sign_columns(vecs[:, cols], scale * herm, signed[:, cols])
    return signed


@dataclass(frozen=True, eq=False)
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

    ``oscillator_basis`` hands back V as mirrored from its block vectors,
    with the signs LAPACK gave them.  The first read of ``vectors`` fixes
    the signs (``_signed``) in a new array, which then replaces the held one
    in a single attribute swap: an array a caller already holds is never
    written, a concurrent reader sees the old V or the new one, and two
    first reads that race build equal arrays.  A record built with an array
    takes it as its signed vectors.
    """

    lattice: Lattice
    kind: str
    values: np.ndarray
    _vectors: np.ndarray | _Mirrored
    alternations: np.ndarray
    parities: np.ndarray
    fourier_indices: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        """V, its column signs fixed on the first read."""
        held = self._vectors
        if isinstance(held, _Mirrored):
            held = _signed(held.vecs, self.lattice)
            object.__setattr__(self, "_vectors", held)
        return held

    def _held_vectors(self) -> np.ndarray:
        """V with whichever column signs the basis holds, fixed or not, for a
        reader that sees each column v only through v·vᵀ or signs it itself."""
        held = self._vectors
        return held.vecs if isinstance(held, _Mirrored) else held

    def vector(self, m: int) -> Signal:
        m = _as_int(m, "quantum number")
        if not 0 <= m < self.lattice.d:
            raise ValueError(f"quantum number must be in 0..{self.lattice.d - 1}")
        return Signal(self.lattice, self.vectors[:, m].copy())


def _parity_blocks(h, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks E and O of QᵀHQ in the parity frame, from rows of H.

    H is a record diag(w) + C(c), whose rows are copied from its windows, or
    a dense d×d array, which is sliced.  The rows j = 0..s of H and of JHJ,
    J the flip n → -n, are held only until the blocks are formed; Q is the
    frame of ``fourier.dft_parity_blocks``.  Between them the two hold every
    entry of H, so max|top - mirror| is max|H - JHJ|, and H must commute
    with the flip to within 1e-10·max(1, max|H|) or ValueError is raised.
    The centro-symmetric half ½(H + JHJ) is kept, as ``_real_symmetric``
    keeps the symmetric half, and gives
    E[j, k] = H[j, k] + H[j, -k] (row and column 0 scaled by √½) and
    O[j, k] = H[j, k] - H[j, -k], j, k = 1..s.
    """
    if isinstance(h, CirculantSpec):
        j = np.arange(s + 1)
        top, mirror = h.rows(j), h.rows(-j)[:, ::-1]
    else:
        top, mirror = h[s:], h[s::-1, ::-1]
    # one buffer serves every reading, then holds ½(H + JHJ)
    sym = np.abs(top)
    scale = max(1.0, float(np.max(sym)), float(np.max(np.abs(mirror, out=sym))))
    flip = float(np.max(np.abs(np.subtract(top, mirror, out=sym), out=sym)))
    if flip > SYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix does not commute with the parity flip "
            f"(max|H - JHJ| = {flip:.3e}); labels need Fourier invariance"
        )
    np.add(top, mirror, out=sym)
    sym *= 0.5
    del top, mirror
    even = sym[:, s:] + sym[:, s::-1]
    even[0] *= np.sqrt(0.5)
    even[:, 0] *= np.sqrt(0.5)
    return even, sym[1:, s + 1:] - sym[1:, s - 1::-1]


def _fourier_commutator(cos, sin, even, odd) -> float:
    """‖FH - HF‖_F from the parity-frame blocks of F and H.

    With F = diag(C, -iS) and H = diag(E, O) in the parity frame, and every
    block real and symmetric, ‖FH - HF‖²_F = ‖CE - EC‖² + ‖SO - OS‖², with
    EC = (CE)ᵀ and OS = (SO)ᵀ.
    """
    ce = cos @ even
    even_part = np.linalg.norm(ce - ce.T)
    del ce
    so = sin @ odd
    return float(np.hypot(even_part, np.linalg.norm(so - so.T)))


def _parity_readings(even, odd, even_pairs, odd_pairs):
    """The audit readings of the whole basis, taken at half size.

    Returns the residual ‖Hv - λv‖ of each even and of each odd column and
    the defect ‖VᵀV - I‖_F, for the basis V = Q·diag(B_e, B_o) that the
    block eigenpairs (λ, b) give.  They are exact: QᵀHQ = diag(E, O) and Q
    is orthogonal, so each residual is ‖(E - λ)b‖ or ‖(O - λ)b‖, and
    ‖VᵀV - I‖²_F = ‖B_eᵀB_e - I‖²_F + ‖B_oᵀB_o - I‖²_F.  Neither a column
    permutation nor a sign change moves these readings.
    """
    even_resid, even_defect = _readings(even, *even_pairs)
    odd_resid, odd_defect = _readings(odd, *odd_pairs)
    return even_resid, odd_resid, float(np.hypot(even_defect, odd_defect))


def _mirror(even_vecs: np.ndarray, odd_vecs: np.ndarray) -> np.ndarray:
    """The grid vectors of the block vectors, even and odd interleaved.

    Each block vector is mirrored into the entries at n and -n (negated
    there for the odd ones); copying the entries makes parity hold bit for
    bit.
    """
    s = len(odd_vecs)
    d = 2 * s + 1
    vecs = np.empty((d, d))
    vecs[s, 0::2] = even_vecs[0]
    vecs[s, 1::2] = 0.0
    vecs[s + 1:, 0::2] = np.sqrt(0.5) * even_vecs[1:]
    vecs[s + 1:, 1::2] = np.sqrt(0.5) * odd_vecs
    vecs[s - 1::-1, 0::2] = vecs[s + 1:, 0::2]
    vecs[s - 1::-1, 1::2] = -vecs[s + 1:, 1::2]
    return vecs


def _fourier_expectations(cos, sin, even_vecs, odd_vecs) -> np.ndarray:
    """⟨v, Fv⟩ per label: bᵀCb for an even block vector b, -i·bᵀSb for an odd one."""
    z = np.empty(len(even_vecs) + len(odd_vecs), dtype=complex)
    z[0::2] = np.einsum("jm,jm->m", even_vecs, cos @ even_vecs)
    z[1::2] = -1j * np.einsum("jm,jm->m", odd_vecs, sin @ odd_vecs)
    return z


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
    count is resolvable, and extends it where it is not.  Each vector's sign,
    fixed when ``vectors`` is first read, makes its overlap with ⁴√δ·Ψ_m
    positive; no label depends on it.  Each label is audited
    three ways: parity must equal m mod 2, the Fourier eigenvalue must equal
    (-i)^m (this pins m mod 4 and catches any within-block misordering), and
    the measured alternation count must equal m wherever resolvable.  A
    resolution-limited count can only fall short of m by an even amount (a
    suppressed lobe hides two sign changes); anything else raises.  The
    vectors are mirrored from their blocks bit for bit, so the count is
    taken on the n ≥ 0 half: 2·count(v[n ≥ 0]) + m mod 2, equal to the count
    over the whole vector.

    Everything runs in the parity frame of the module docstring.  H must
    commute with the flip J: max|H - JHJ| above 1e-10·max(1, max|H|) is
    refused with "matrix does not commute with the parity flip".  It must
    commute with F too: ‖FH - HF‖²_F = ‖CE - EC‖² + ‖SO - OS‖², read from
    the blocks E, O of H and C, S of F, must stay below 1e-9·max(1, ‖H‖_F).
    The eigenpairs are audited once, with the exact readings of
    ``_parity_readings``: each column's residual ‖Hv - λv‖ must stay below
    1e-10·max(1, ‖its block‖_F), which is at most ‖H‖_F, and ‖VᵀV - I‖_F
    below 1e-10, or ``ConvergenceError`` is raised.

    Eigenvalues must be simple within each block (adjacent gap above 1e-10).
    Any label inconsistency raises instead of degrading.
    """
    if kind not in ("frame", "harper"):
        raise ValueError(f"kind must be 'frame' or 'harper', got {kind!r}")
    if isinstance(op, (Operator, CirculantSpec)) and op.lattice != lat:
        raise ValueError("operator belongs to a different lattice")
    d, s = lat.d, lat.s
    h = _real_symmetric(op)
    if not isinstance(h, CirculantSpec) and h.shape != (d, d):
        raise ValueError("matrix size does not match the lattice")
    even, odd = _parity_blocks(h, s)
    cos, sin = dft_parity_blocks(lat)
    comm = _fourier_commutator(cos, sin, even, odd)
    # Q is orthogonal, so ‖H‖²_F = ‖E‖² + ‖O‖²
    norm = np.sqrt(np.sum(even**2) + np.sum(odd**2))
    if comm > 1e-9 * max(1.0, norm):
        raise ValueError(
            f"matrix does not commute with the Fourier operator "
            f"(‖FH - HF‖_F = {comm:.3e}); labels need Fourier invariance"
        )

    # the blocks are exactly symmetric, so LAPACK takes them as they are
    solved = [np.linalg.eigh(even), np.linalg.eigh(odd)]
    ordered = [(w[::-1], v[:, ::-1]) for w, v in solved] if kind == "harper" else solved
    # ⟨v, Fv⟩ is read from the block vectors, whose signs do not move it, so
    # F's blocks go before the audit and H's before V is formed
    z = _fourier_expectations(cos, sin, ordered[0][1], ordered[1][1])
    del cos, sin
    even_resid, odd_resid, defect = _parity_readings(even, odd, *solved)
    _check(defect, (even_resid, even), (odd_resid, odd))
    del even, odd, solved

    vals = np.empty(d)
    for first, (bvals, _) in enumerate(ordered):
        gap = float(np.min(np.abs(np.diff(bvals))))
        if gap < GAP_TOL:
            raise RuntimeError(
                f"eigenvalue gap {gap:.3e} below {GAP_TOL:.0e} in the "
                f"{'odd' if first else 'even'} block; labels would be meaningless"
            )
        vals[first::2] = bvals
    vecs = _mirror(ordered[0][1], ordered[1][1])
    del ordered
    labels = np.arange(d)
    parities = labels % 2
    # each change on the n >= 0 half has its mirror image, and an odd vector
    # changes sign once more across its zero at n = 0
    alternations = 2 * _alternation_counts(vecs[s:]) + parities
    if alternations[0] != 0:
        raise RuntimeError(
            f"the first even {kind} eigenvector is not nodeless "
            f"({alternations[0]} sign alternations)"
        )

    # a column and its mirror image change sign together, so the parity
    # check runs before the signs are fixed
    for first in range(0, d, reference._BLOCK):
        cols = slice(first, first + reference._BLOCK)
        block = vecs[:, cols]
        m = _first(np.any(block[::-1] != block * (1 - 2 * parities[cols]), axis=0))
        if m is not None:
            raise RuntimeError(f"vector {first + m} is not of parity {(first + m) % 2}")

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
        _vectors=_Mirrored(vecs),
        alternations=alternations,
        parities=parities,
        fourier_indices=fourier_indices,
    )
