"""Discrete fractional Fourier transforms from an oscillator eigenbasis.

Given a labeled eigenbasis b_0..b_{d-1}, the order-α transform is

    K(α) = Σ_m e^{-iπmα/2} · b_m b_mᵀ,

the unique family that is the identity at α = 0, the centered Fourier
operator at α = 1, additive in α, and 4-periodic.  Two bases (frame and
Harper) give two inequivalent families; both are exactly unitary since the
eigenvectors are orthonormal.

Kernels are cached on the basis object keyed by α, so repeated transforms
at the same order reuse the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Operator, Signal
from .spectral import SpectralBasis


@dataclass(frozen=True, eq=False)
class FrftKernel:
    basis: SpectralBasis
    alpha: float
    op: Operator


def frft_kernel(basis: SpectralBasis, alpha: float) -> FrftKernel:
    """Order-α kernel for the given eigenbasis, cached per (basis, α).

    A NaN or infinite order is refused, so no such key enters the cache.
    """
    key = float(alpha)
    cached = basis._kernel_cache.get(key)
    if cached is not None:
        return cached
    if not math.isfinite(key):
        raise ValueError(f"transform order must be finite, got {alpha}")
    d = basis.lattice.d
    phases = np.exp(-0.5j * np.pi * key * np.arange(d))
    vecs = basis.vectors
    mat = (vecs * phases[None, :]) @ vecs.T
    kern = FrftKernel(basis=basis, alpha=key, op=Operator(basis.lattice, mat))
    basis._kernel_cache[key] = kern
    return kern


def apply_frft(kernel: FrftKernel, sig: Signal) -> Signal:
    if sig.lattice != kernel.basis.lattice:
        raise ValueError("signal belongs to a different lattice")
    return kernel.op.apply(sig)


def rectangular_signal(lat) -> Signal:
    """Indicator of the three central grid points n ∈ {-1, 0, 1}."""
    amp = np.zeros(lat.d)
    for n in (-1, 0, 1):
        amp[lat.pos(n)] = 1.0
    return Signal(lat, amp)
