"""Discrete fractional Fourier transforms from an oscillator eigenbasis.

Given a labeled eigenbasis b_0..b_{d-1}, the order-α transform is

    K(α) = Σ_m e^{-iπmα/2} · b_m b_mᵀ,

the unique family that is the identity at α = 0, the centered Fourier
operator at α = 1, additive in α, and 4-periodic.  Two bases (frame and
Harper) give two inequivalent families; both are exactly unitary since the
eigenvectors are orthonormal.

A kernel is its basis and its d phases e^{-iπmα/2}, from
``reference._eigenphases`` as the continuous oracle's are; they depend on α
and d alone, so one LRU of ``CACHE_SIZE`` (α, d) pairs serves every basis.
Every request is applied in factored form, V·(phases ⊙ Vᵀx), in O(d²), and
no kernel holds a d×d matrix: the dense V·diag(phases)·Vᵀ is built in O(d³)
on each read of ``FrftKernel.op``, an oracle for tests and ``verify``.

Both read V with whichever column signs the basis holds, so neither makes a
basis fix its signs (a Hermite pass to order d - 1, run on the first read of
``SpectralBasis.vectors``).  The result is exact either way: negating column
m negates row m of the coefficients Vᵀx, and in each product of the second
call, V[n, m]·c[m], both factors change sign, so every term, and every sum
BLAS forms from the terms in its fixed order, keeps its bits.  The same
holds for each term V[n, m]·phase_m·V[k, m] of ``op``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Operator, Signal
from .reference import _eigenphases
from .spectral import SpectralBasis

CACHE_SIZE = 8


@lru_cache(maxsize=CACHE_SIZE)
def _phases(alpha: float, d: int) -> np.ndarray:
    """e^{-iπmα/2} for m = 0..d-1, read-only; a non-finite α is never cached."""
    phases = _eigenphases(alpha, d)
    phases.flags.writeable = False
    return phases


@dataclass(frozen=True, eq=False)
class FrftKernel:
    basis: SpectralBasis
    alpha: float
    phases: np.ndarray  # e^{-iπmα/2} for m = 0..d-1

    @property
    def op(self) -> Operator:
        """The dense kernel V·diag(phases)·Vᵀ, built afresh on each read."""
        vecs = self.basis._held_vectors()
        mat = (vecs * self.phases[None, :]) @ vecs.T
        return Operator(self.basis.lattice, mat)


def frft_kernel(basis: SpectralBasis, alpha: float) -> FrftKernel:
    """Order-α kernel for the given eigenbasis, sharing its phases with every
    basis of the same size.  A NaN or infinite order is refused."""
    key = float(alpha)
    return FrftKernel(basis, key, _phases(key, basis.lattice.d))


def apply_frft(kernel: FrftKernel, sig: Signal) -> Signal:
    lat = kernel.basis.lattice
    if sig.lattice != lat:
        raise ValueError("signal belongs to a different lattice")
    # Two real products on the (d, 2) float view of the complex signal: a
    # complex matmul would upcast V to a complex copy on every call.  The
    # phases scale the coefficients in place, through their complex view.
    vecs = kernel.basis._held_vectors()
    x = np.ascontiguousarray(sig.amp, dtype=complex).view(np.float64).reshape(-1, 2)
    coef = np.dot(vecs.T, x)
    coef.view(complex)[:, 0] *= kernel.phases
    out = np.dot(vecs, coef)
    return Signal(lat, out.view(complex).ravel())


def rectangular_signal(lat) -> Signal:
    """Indicator of the three central grid points n ∈ {-1, 0, 1}."""
    amp = np.zeros(lat.d)
    for n in (-1, 0, 1):
        amp[lat.pos(n)] = 1.0
    return Signal(lat, amp)
