"""Continuous-line references: Hermite-Gaussians, their periodizations, and
a quadrature fractional Fourier oracle.

The continuous eigenfunctions are the Hermite-Gaussians Ψ_m, generated by the
normalized three-term recurrence

    Ψ_{m+1}(x) = x·√(2/(m+1))·Ψ_m(x) - √(m/(m+1))·Ψ_{m-1}(x),
    Ψ_0(x) = π^(-1/4)·e^{-x²/2},

which is stable in this normalized form (no Hermite-polynomial overflow).
Grid comparisons use the scaled samples ⁴√δ·Ψ_m(n√δ): the scale converts
unit L²(ℝ) norm to approximately unit ℓ² norm on the grid.

The periodized samples Φ_m(n) = Σ_ℓ Ψ_m((ℓd+n)√δ) give the classical
approximate Fourier eigenvectors; Φ_0 equals π^(-1/4)·𝐠₁ term by term.

The fractional transform oracle expands a line function in the Ψ_m basis by
trapezoid quadrature and applies the continuous eigenphases e^{-iπmα/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Signal
from .phasespace import CoherentFrame, PhasePoint

MAX_HERMITE_ORDER = 300

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _hermite_all(mmax: int, x: np.ndarray) -> np.ndarray:
    """Stacked Ψ_0..Ψ_mmax evaluated at x, shape (mmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((mmax + 1,) + x.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    prev = np.zeros_like(x)
    for m in range(mmax):
        out[m + 1] = x * np.sqrt(2.0 / (m + 1)) * out[m] - np.sqrt(
            m / (m + 1.0)
        ) * prev
        prev = out[m]
    return out


def _check_order(m: int) -> None:
    if not 0 <= m <= MAX_HERMITE_ORDER:
        raise ValueError(f"order must be in 0..{MAX_HERMITE_ORDER}, got {m}")


def hermite_gaussian(m: int, x):
    """Ψ_m(x), vectorized over x; orders up to 300 are supported."""
    _check_order(m)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    vals = _hermite_all(m, np.atleast_1d(x))[m]
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True, eq=False)
class HermiteSample:
    """⁴√δ·Ψ_m sampled on the grid."""

    lattice: Lattice
    m: int
    amp: np.ndarray


def hermite_sample(lat: Lattice, m: int) -> HermiteSample:
    amp = lat.delta**0.25 * hermite_gaussian(m, lat.points)
    return HermiteSample(lattice=lat, m=m, amp=amp)


def _sample_table(lat: Lattice) -> np.ndarray:
    """Row m is ``hermite_sample(lat, m).amp``, for m = 0..d-1, from one
    pass of the recurrence."""
    _check_order(lat.d - 1)
    return lat.delta**0.25 * _hermite_all(lat.d - 1, lat.points)


def displaced_ground_sample(lat: Lattice, p: PhasePoint) -> Signal:
    """Samples of the displaced continuous ground state,

    ⁴√δ·e^{-iαβ/2}·e^{iβ·n√δ}·Ψ_0(n√δ - α),

    the line-side twin of the coherent state at the same phase-space point.
    """
    if p.lattice != lat:
        raise ValueError("phase point belongs to a different lattice")
    x = lat.points
    env = hermite_gaussian(0, x - p.alpha)
    amp = lat.delta**0.25 * np.exp(-0.5j * p.alpha * p.beta) * np.exp(
        1j * p.beta * x
    ) * env
    return Signal(lat, amp)


def coherent_deviation_table(
    frame: CoherentFrame, a_indices, b_indices, window: int = 8
) -> np.ndarray:
    """max_{|n| ≤ window} |discrete state - continuous samples| per (a, b)."""
    lat = frame.lattice
    window = min(window, lat.s)
    sel = np.abs(lat.indices) <= window
    out = np.empty((len(a_indices), len(b_indices)))
    for i, a in enumerate(a_indices):
        for j, b in enumerate(b_indices):
            p = PhasePoint(lattice=lat, a_idx=int(a), b_idx=int(b))
            disc = frame.state(p).amp
            cont = displaced_ground_sample(lat, p).amp
            out[i, j] = np.max(np.abs(disc[sel] - cont[sel]))
    return out


def _periodized_table(lat: Lattice, mmax: int, tol: float = 1e-18) -> np.ndarray:
    """Rows Φ_0..Φ_mmax of the periodized Hermite-Gaussians, shape (mmax+1, d).

    Terms beyond the classical turning point √(2m+1) decay like a Gaussian in
    the excess distance; the wrap sum keeps every ℓ whose argument stays
    within a generous margin past the turning point of the highest order,
    which puts the omitted terms of every row far below ``tol``.
    """
    _check_order(mmax)
    margin = np.sqrt(2.0 * np.log(1.0 / tol)) + 2.0
    x_cut = np.sqrt(2.0 * mmax + 1.0) + margin
    lmax = int(np.ceil((x_cut / lat.sqrt_delta + lat.s) / lat.d)) + 1
    ell = np.arange(-lmax, lmax + 1)
    args = (ell[:, None] * lat.d + lat.indices[None, :]) * lat.sqrt_delta
    vals = _hermite_all(mmax, args.ravel()).reshape((mmax + 1,) + args.shape)
    return vals.sum(axis=1)


def mehta_function(lat: Lattice, m: int, tol: float = 1e-18) -> Signal:
    """Periodized Hermite-Gaussian Φ_m(n) = Σ_ℓ Ψ_m((ℓd+n)√δ), unnormalized.

    The wrap sum is truncated so that the omitted terms stay far below
    ``tol`` (see ``_periodized_table``).
    """
    return Signal(lat, _periodized_table(lat, m, tol)[m])


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Per-order sup deviations of the four grid families from ⁴√δ·Ψ_m."""

    lattice: Lattice
    delta_f: np.ndarray  # frame eigenbasis
    delta_h: np.ndarray  # Harper eigenbasis
    delta_m: np.ndarray  # normalized periodized Hermite samples
    delta_r: np.ndarray  # ladder states from the raising operator


def deviation_report(lat: Lattice, frame_basis, harper_basis, ladder) -> DeviationReport:
    """Compare the four discrete families against the scaled line samples.

    The eigenbases arrive sign-fixed and unit-norm.  The periodized samples
    Φ_m are normalized (and sign-aligned) here, putting all four families on
    the same footing as the unit-norm targets; ladder states are compared as
    constructed, so their drift includes normalization loss.
    """
    d = lat.d
    if len(ladder) != d:
        raise ValueError(f"expected {d} ladder states, got {len(ladder)}")
    targets = _sample_table(lat)
    phi = _periodized_table(lat, d - 1)
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    phi[np.sum(phi * targets, axis=1) < 0.0] *= -1.0

    def sup_dev(rows):
        return np.max(np.abs(rows - targets), axis=1)

    delta_f = sup_dev(frame_basis.vectors.T)
    delta_h = sup_dev(harper_basis.vectors.T)
    delta_m = sup_dev(phi)
    delta_r = sup_dev(np.stack([state.amp for state in ladder]))
    return DeviationReport(
        lattice=lat, delta_f=delta_f, delta_h=delta_h, delta_m=delta_m, delta_r=delta_r
    )


def gaussian_profile(kappa: float):
    """The line Gaussian e^{-κx²/2}, the continuous twin of the width-κ
    periodic Gaussian (which is exactly its wrap sum)."""
    if kappa <= 0.0:
        raise ValueError(f"width parameter must be positive, got {kappa}")
    return lambda x: np.exp(-0.5 * kappa * np.asarray(x, dtype=float) ** 2)


def rectangular_profile(lat: Lattice):
    """Indicator of [-3√δ/2, 3√δ/2]: samples to 1 exactly on n ∈ {-1,0,1},
    the continuous twin of the three-point rectangular grid signal."""
    half_width = 1.5 * lat.sqrt_delta
    return lambda x: np.where(
        np.abs(np.asarray(x, dtype=float)) <= half_width, 1.0, 0.0
    )


def continuous_frft_oracle(
    psi,
    alpha: float,
    lat: Lattice,
    M: int = 64,
    x_max: float = 12.0,
    step: float = 1e-3,
) -> Signal:
    """Continuous fractional Fourier transform of ``psi``, sampled and scaled.

    Expands psi over Ψ_0..Ψ_{M-1} by trapezoid quadrature on [-x_max, x_max]
    and applies the eigenphases:

        (𝓕^α ψ)(x) ≈ Σ_{m<M} e^{-iπmα/2}·Ψ_m(x)·⟨Ψ_m, ψ⟩.

    Returns the grid samples scaled by ⁴√δ.  Accuracy is limited by the
    Hermite truncation M, not by the quadrature.
    """
    if M < 1:
        raise ValueError(f"need at least one Hermite order, got M={M}")
    if M - 1 > MAX_HERMITE_ORDER:
        raise ValueError(f"M exceeds supported order {MAX_HERMITE_ORDER + 1}")
    npts = int(round(2.0 * x_max / step)) + 1
    xs = np.linspace(-x_max, x_max, npts)
    basis = _hermite_all(M - 1, xs)
    try:
        psi_vals = np.asarray(psi(xs), dtype=complex)
        if psi_vals.shape != xs.shape:
            raise TypeError
    except TypeError:
        psi_vals = np.asarray([psi(float(x)) for x in xs], dtype=complex)
    coeffs = _trapezoid(basis * psi_vals[None, :], xs, axis=1)
    phases = np.exp(-0.5j * np.pi * alpha * np.arange(M))
    grid_basis = _hermite_all(M - 1, lat.points)
    amp = lat.delta**0.25 * (phases * coeffs) @ grid_basis
    return Signal(lat, amp)
