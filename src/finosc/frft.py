"""Discrete fractional Fourier transforms from an oscillator eigenbasis.

Given a labeled eigenbasis b_0..b_{d-1}, the order-α transform is

    K(α) = Σ_m e^{-iπmα/2} · b_m b_mᵀ,

the unique family that is the identity at α = 0, the centered Fourier
operator at α = 1, additive in α, and 4-periodic.  Two bases (frame and
Harper) give two inequivalent families; both are exactly unitary since the
eigenvectors are orthonormal.

A kernel is its d phases e^{-iπmα/2}, from ``reference._eigenphases`` as
the continuous oracle's are.  Every request is applied in factored form,
V·(phases ⊙ Vᵀx), in O(d²), and no kernel holds a d×d matrix: the dense
V·diag(phases)·Vᵀ is built in O(d³) on each read of ``FrftKernel.op``, an
oracle for tests and ``verify``.  Each basis keeps at most ``CACHE_SIZE``
kernels, keyed by α and evicted least recently used first, so a repeated
order skips recomputing its phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Operator, Signal
from .reference import _eigenphases
from .spectral import SpectralBasis

CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class FrftKernel:
    basis: SpectralBasis
    alpha: float
    phases: np.ndarray  # e^{-iπmα/2} for m = 0..d-1

    @property
    def op(self) -> Operator:
        """The dense kernel V·diag(phases)·Vᵀ, built afresh on each read."""
        vecs = self.basis.vectors
        mat = (vecs * self.phases[None, :]) @ vecs.T
        return Operator(self.basis.lattice, mat)


def frft_kernel(basis: SpectralBasis, alpha: float) -> FrftKernel:
    """Order-α kernel for the given eigenbasis, cached per (basis, α).

    A repeated request returns the same object.  A NaN or infinite order is
    refused, so no such key enters the cache.
    """
    key = float(alpha)
    cache = basis._kernel_cache
    kern = cache.get(key)
    if kern is not None:
        cache.move_to_end(key)
        return kern
    phases = _eigenphases(key, basis.lattice.d)
    kern = FrftKernel(basis=basis, alpha=key, phases=phases)
    cache[key] = kern
    if len(cache) > CACHE_SIZE:
        cache.popitem(last=False)
    return kern


def apply_frft(kernel: FrftKernel, sig: Signal) -> Signal:
    lat = kernel.basis.lattice
    if sig.lattice != lat:
        raise ValueError("signal belongs to a different lattice")
    # Two real products on the (d, 2) float view of the complex signal: a
    # complex matmul would upcast V to a complex copy on every call.
    vecs = kernel.basis.vectors
    x = np.ascontiguousarray(sig.amp, dtype=complex).view(np.float64).reshape(-1, 2)
    coef = (vecs.T @ x).view(complex).ravel() * kernel.phases
    out = vecs @ coef.view(np.float64).reshape(-1, 2)
    return Signal(lat, out.view(complex).ravel())


def rectangular_signal(lat) -> Signal:
    """Indicator of the three central grid points n ∈ {-1, 0, 1}."""
    amp = np.zeros(lat.d)
    for n in (-1, 0, 1):
        amp[lat.pos(n)] = 1.0
    return Signal(lat, amp)
