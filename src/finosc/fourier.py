"""Finite Fourier transform, its spectral projectors, and circulants.

The transform is the unitary with entries

    F[n, m] = d^(-1/2) · exp(-2πi·n·m/d),      n, m = -s..s,

so F⁴ = 1 and F² is the parity flip φ(u) ↦ φ(-u).  Every entry is one of
the d roots e^{-2πik/d}/√d, gathered at k = n·m mod d.  F commutes with the
flip, so on the even vectors it is a real cosine block and on the odd ones
-i times a real sine block.  Its eigenvalues are the fourth roots of unity,
F = Σ_m (-i)^m·π_m, and with F² = J (the flip) and F³ = F⁺ = conj(F) the
spectral projectors π_m = (1/4)·Σ_k i^{mk}·F^k are real (Dickinson &
Steiglitz 1982):

    π_0, π_2 = (I + J ± 2·Re F)/4,      π_1, π_3 = (I - J ∓ 2·Im F)/4.

``fourier_projectors`` returns them as the plain tuple (π_0, π_1, π_2, π_3)
of Operators, so ``proj[m]`` is the projector for the eigenvalue (-i)^m.

Circulant operators (entry (n, m) = c[n-m], indices mod d) diagonalize in the
Fourier basis.  ``CirculantSpec`` holds a well plus a circulant, diag(w) + C(c),
by (w, c), and builds its dense matrix only when it is read.  The equidistant
circulant C = F⁺·diag(1, …, d)·F has the closed-form first column

    c_k = (d+1)/2                      for k ≡ 0 (mod d),
    c_k = e^{2πik/d} / (e^{2πik/d}-1)  otherwise,

and plays the role of the comparison operator with exactly the spectrum
1, 2, …, d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import Lattice, Operator, Signal, _as_int


def _root(k, period: int, sign: float = 1.0) -> np.ndarray:
    """e^{sign·2πi·k/period} for integer k, gathered at k mod period.

    Every lattice phase is a root of unity indexed by an integer: period d
    for F and the modulations, 2d for the half-phase e^{-iπab/d}.  Rounding
    the phase of e^{iθ} costs about ε·|θ|, so the integer is reduced before
    any float arithmetic; equal integers mod the period give equal entries.
    The table of the period's roots is built once per (period, sign) and is
    read-only; the gather returns a new array.
    """
    return _root_table(period, sign)[np.asarray(k) % period]


@lru_cache(maxsize=64)
def _root_table(period: int, sign: float) -> np.ndarray:
    """e^{sign·2πi·j/period} for j = 0..period-1, read-only."""
    table = np.exp(sign * 2j * np.pi * np.arange(period) / period)
    table.flags.writeable = False
    return table


def dft_operator(lat: Lattice) -> Operator:
    """The finite Fourier matrix F; its inverse F⁺ is ``.adjoint()``."""
    n = lat.indices
    roots = _root(np.outer(n, n), lat.d, -1.0)
    roots /= np.sqrt(lat.d)  # in place: no second d×d array
    return Operator(lat, roots)


def dft_parity_blocks(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """F in the parity frame: the real blocks (C, S) with QᵀFQ = diag(C, -i·S).

    Q has the s+1 even columns δ_0, (δ_j + δ_{-j})/√2 and the s odd columns
    (δ_j - δ_{-j})/√2, j = 1..s.  On them F is the cosine block
    C[j, k] = 2·cos(2πjk/d)/√d (row and column 0 scaled by √½) and -i times
    the sine block S[j, k] = 2·sin(2πjk/d)/√d, j, k = 1..s; F couples no even
    vector to an odd one.  Both blocks are real symmetric, with the bits of
    ``dft_operator``'s entries: its roots are divided by √d entry by entry,
    and dividing the d roots before the gather gives the same quotients.
    C and S are gathered, at jk mod d, from the real and the imaginary parts
    of those d quotients, so no complex table of the block's size is formed.
    """
    j = np.arange(lat.s + 1)
    k = np.outer(j, j)
    k %= lat.d
    roots = _root_table(lat.d, -1.0) / np.sqrt(lat.d)
    cos = roots.real[k]
    cos *= 2.0
    cos[0] *= np.sqrt(0.5)
    cos[:, 0] *= np.sqrt(0.5)
    sin = roots.imag[k[1:, 1:]]
    sin *= -2.0
    return cos, sin


def fourier_projectors(lat: Lattice) -> tuple[Operator, ...]:
    """The tuple (π_0, π_1, π_2, π_3) of the spectral projectors of F, π_m
    for the eigenvalue (-i)^m.

    π_m = (1/4)·Σ_k i^{mk}·F^k, built as the real closed forms
    (I + J ± 2·Re F)/4 for m = 0, 2 and (I - J ∓ 2·Im F)/4 for m = 1, 3.

    Each π is built in its own array by in-place steps, the entrywise
    operations of the closed form in its order: I ± J, then ± 2·Re F or
    ∓ 2·Im F, whose doubling is done once in F, then the division by 4.  So
    F and the four π's are the only d×d arrays held.
    """
    d = lat.d
    F = dft_operator(lat).mat
    np.multiply(F.real, 2.0, out=F.real)
    np.multiply(F.imag, 2.0, out=F.imag)
    flip = (np.arange(d), np.arange(d)[::-1])
    pi = []
    for parity, combine, part in ((1.0, np.add, F.real), (-1.0, np.subtract, F.imag),
                                  (1.0, np.subtract, F.real), (-1.0, np.add, F.imag)):
        p = np.eye(d)
        p[flip] += parity  # I ± J
        combine(p, part, out=p)
        p /= 4.0
        pi.append(Operator(lat, p))
    return tuple(pi)


def _coordinate_transforms(lat: Lattice, j) -> tuple[np.ndarray, np.ndarray]:
    """F[q] and F[q²] at integer frequencies j (d-periodic in j).

    F[q](j)  = 0 for j ≡ 0 (mod d), else (-1)^j · i·√π / (√2·sin(πj/d));
    F[q²](j) = (2π/√d)·s(s+1)/3 for j ≡ 0, else
               (-1)^j · π·cos(πj/d) / (√d·sin²(πj/d)).
    """
    d, s = lat.d, lat.s
    j = np.asarray(j)
    fq = np.zeros(j.shape, dtype=complex)
    fq2 = np.full(j.shape, (2.0 * np.pi / np.sqrt(d)) * s * (s + 1) / 3.0)
    nz = j % d != 0
    sn = np.sin(np.pi * j[nz] / d)
    sgn = (-1.0) ** j[nz]
    fq[nz] = sgn * 1j * np.sqrt(np.pi) / (np.sqrt(2.0) * sn)
    fq2[nz] = sgn * np.pi * np.cos(np.pi * j[nz] / d) / (np.sqrt(d) * sn**2)
    return fq, fq2


def closed_form_coordinate_transforms(lat: Lattice) -> tuple[Signal, Signal]:
    """Closed forms of F[q] and F[q²] on the grid n = -s..s."""
    fq, fq2 = _coordinate_transforms(lat, lat.indices)
    return Signal(lat, fq), Signal(lat, fq2.astype(complex))


def transform_of_coordinate_at(lat: Lattice, j: int) -> complex:
    """F[q] at an arbitrary integer frequency j (d-periodic in j)."""
    return complex(_coordinate_transforms(lat, [_as_int(j, "frequency")])[0][0])


def transform_of_coordinate_squared_at(lat: Lattice, j: int) -> float:
    """F[q²] at an arbitrary integer frequency j (d-periodic in j)."""
    return float(_coordinate_transforms(lat, [_as_int(j, "frequency")])[1][0])


def cyclic_windows(lat: Lattice, col: np.ndarray, sign: int) -> np.ndarray:
    """The d×d table col[pos(n + sign·m)], n, m = -s..s in storage order, as a
    read-only view: sign = -1 gives the circulant (Toeplitz) table and +1 the
    Hankel one.

    Every row is a window of the one array ext[t] = col[pos(t - 2s)], of
    length 2d - 1: row n starts at t = n + s for the Hankel table and runs
    backwards from t = n + 3s for the circulant one.  No index table is
    formed; copy the view (a fancy index does) before handing it to BLAS.
    """
    s = lat.s
    ext = np.concatenate([col[s + 1:], col, col[:s]])
    step = ext.strides[0]
    start, strides = (2 * s * step, (step, -step)) if sign < 0 else (0, (step, step))
    table = np.ndarray((lat.d, lat.d), ext.dtype, ext, start, strides)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class CirculantSpec:
    """A = diag(w) + C(c), entry (n, m) = w[n]·δ_nm + c[(n-m) mod d], n = -s..s;
    w = 0 for a plain circulant.  The dense ``mat`` is built on first read."""

    lattice: Lattice
    first_column: np.ndarray
    well: np.ndarray

    @cached_property
    def mat(self) -> np.ndarray:
        return self.rows(self.lattice.indices)

    def rows(self, n) -> np.ndarray:
        """Rows at grid indices n: entry m is w[n]·δ_nm + c[n - m]."""
        at = self.lattice.pos(n)
        out = cyclic_windows(self.lattice, self.first_column, -1)[at]
        out = out.astype(np.result_type(out, self.well), copy=False)
        out[np.arange(len(at)), at] += self.well[at]
        return out

    def eigenvalues(self) -> np.ndarray:
        """Diagonal of the circulant C(c) on the Fourier side, position k = -s..s.

        ev = √d·F·c = Σ_n c[n]·e^{-2πi·k·n/d}, one centred FFT, which makes
        C(c) == F⁺·diag(ev)·F hold entrywise for every first column.
        For symmetric columns (c[n] = c[-n], the only kind the Hamiltonian
        constructions produce) this coincides with Σ_n c[n]·e^{+2πi·k·n/d}.
        """
        return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(self.first_column)))


def circulant(lat: Lattice, first_column, well=0.0) -> CirculantSpec:
    """The record diag(w) + C(c); the default well w = 0 gives a plain circulant."""
    col = np.asarray(first_column)
    if col.shape != (lat.d,):
        raise ValueError(f"first column length {col.shape} does not match d={lat.d}")
    return CirculantSpec(lattice=lat, first_column=col, well=np.broadcast_to(well, col.shape))


def equidistant_circulant(lat: Lattice) -> CirculantSpec:
    """The circulant F⁺·diag(1, …, d)·F with eigenvalues exactly 1..d."""
    d = lat.d
    n = lat.indices
    col = np.empty(d, dtype=complex)
    # n is already centred, |2πn/d| < π; gathered from k = n mod d in 0..d-1
    # instead, z - 1 would lose the symmetry c_{-k} = conj(c_k)
    z = np.exp(2j * np.pi * n / d)
    nz = n != 0
    col[nz] = z[nz] / (z[nz] - 1.0)
    col[~nz] = (d + 1) / 2.0
    return circulant(lat, col)
