"""Periodized Gaussians on the grid and the ground state they normalize.

The width-κ grid Gaussian is the wrapped theta sum

    𝐠_κ(n√δ) = Σ_ℓ exp(-(κπ/d)·(ℓd + n)²)                      (spatial form)
             = (κd)^(-1/2) Σ_ℓ exp(-πℓ²/(κd))·e^{2πiℓn/d}      (frequency form),

two expansions of the same function related by Poisson summation; both appear
here because their convergence regimes are complementary.  The evaluation
picks the spatial sum when κd ≥ 1 and the frequency sum otherwise, so the
retained terms always decay at least like exp(-π·max(κd, 1/(κd))·ℓ²).

In terms of the classical theta function, 𝐠_κ(n√δ) = (κd)^(-1/2)·θ₃(n/d, i/(κd)).

Under the finite Fourier transform the family is closed:
F[𝐠_κ] = κ^(-1/2)·𝐠_{1/κ}; in particular 𝐠₁ is invariant, and its
normalization 𝐍 = ‖𝐠₁‖ defines the ground state g = 𝐠₁/𝐍.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class ThetaGaussian:
    """Sampled 𝐠_κ with its truncation order and a total error bound.

    ``tail_bound`` bounds the evaluation error of each sample: the omitted
    series tail plus the floating-point summation floor.  The two series forms
    therefore agree within a small multiple of it.
    """

    lattice: Lattice
    kappa: float
    amp: np.ndarray
    truncation: int
    tail_bound: float

    def value_at(self, j: int) -> float:
        """𝐠_κ at integer grid index j, d-periodic in j."""
        return float(self.amp[self.lattice.pos(j)])


def _mirror(half: np.ndarray) -> np.ndarray:
    # half holds values for n = 0..s; evenness is exact by construction
    return np.concatenate([half[:0:-1], half])


def spatial_series(lat: Lattice, kappa: float, tol: float):
    """Evaluate the wrapped sum Σ_ℓ e^{-(κπ/d)(ℓd+n)²}; returns (amp, L, tail)."""
    d, s = lat.d, lat.s
    rate = kappa * np.pi / d
    # smallest L whose first omitted term is < tol at the worst index n = ±s
    L = 0
    while np.exp(-rate * ((L + 1) * d - s) ** 2) >= tol:
        L += 1
    ell = np.arange(-L, L + 1)
    n = np.arange(0, s + 1)
    terms = np.exp(-rate * (ell[None, :] * d + n[:, None]) ** 2)
    half = terms.sum(axis=1)
    t1 = np.exp(-rate * ((L + 1) * d - s) ** 2)
    # omitted terms fall off at least geometrically, by e^{-2κπd(L+1)}
    geometric = -np.expm1(-2.0 * kappa * np.pi * d * (L + 1))  # 1 - ratio
    tail = 2.0 * t1 / geometric + 16.0 * _EPS * float(terms.sum(axis=1).max())
    return _mirror(half), L, tail


def frequency_series(lat: Lattice, kappa: float, tol: float):
    """Evaluate (κd)^(-1/2)·Σ_ℓ e^{-πℓ²/(κd)}·e^{2πiℓn/d}; returns (amp, L, tail)."""
    d, s = lat.d, lat.s
    scale = 1.0 / np.sqrt(kappa * d)
    rate = np.pi / (kappa * d)
    L = 0
    while scale * np.exp(-rate * (L + 1) ** 2) >= tol:
        L += 1
    n = np.arange(0, s + 1)
    half = np.full(s + 1, 1.0)
    abs_sum = 1.0
    for ell in range(1, L + 1):
        w = np.exp(-rate * ell * ell)
        half = half + 2.0 * w * np.cos(2.0 * np.pi * ell * n / d)
        abs_sum += 2.0 * w
    t1 = scale * np.exp(-rate * (L + 1) ** 2)
    # omitted terms fall off at least geometrically, by e^{-π(2L+3)/(κd)}
    geometric = -np.expm1(-rate * (2 * L + 3))  # 1 - ratio
    tail = 2.0 * t1 / geometric + 16.0 * _EPS * scale * abs_sum
    return scale * _mirror(half), L, tail


def theta_gaussian(lat: Lattice, kappa: float, tol: float = 1e-18) -> ThetaGaussian:
    """Sample 𝐠_κ on the grid.

    Parameters
    ----------
    lat : Lattice
    kappa : float
        Width parameter, must be positive and finite.
    tol : float
        Target size of the first omitted series term, in (0, 1); the
        truncation order is the smallest L achieving it at the worst grid
        index.
    """
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    # an extreme width overflows the series rate or scale; the samples or
    # their squared norm then leave the float range and are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if kappa * lat.d >= 1.0:
            amp, L, tail = spatial_series(lat, kappa, tol)
        else:
            amp, L, tail = frequency_series(lat, kappa, tol)
        finite = np.all(np.isfinite(amp)) and np.isfinite(np.sum(amp * amp))
    if not finite:
        raise ValueError(
            f"kappa = {kappa} gives theta Gaussian samples or a squared norm "
            f"that are not finite at d = {lat.d}"
        )
    return ThetaGaussian(
        lattice=lat, kappa=float(kappa), amp=amp, truncation=L, tail_bound=tail
    )


def jacobi_theta3(z, t: float, tol: float = 1e-18):
    """θ₃(z, it) = 1 + 2·Σ_{α≥1} exp(-πtα²)·cos(2παz) for purely imaginary nome.

    ``z`` is a float or an array of floats; an array gives the array of
    values, each bit for bit the scalar call at that z, from one pass over
    the series.  t must be positive; the series is truncated once its terms
    drop below tol, which must lie in (0, 1).
    """
    if not t > 0:
        raise ValueError(f"theta nome parameter t must be positive, got {t}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    alpha = 1
    while True:
        w = np.exp(-np.pi * t * alpha * alpha)
        if 2.0 * w < tol:
            break
        total += 2.0 * w * np.cos(2.0 * np.pi * alpha * z)
        alpha += 1
        if alpha > 100_000:
            raise ValueError("theta series failed to converge (t too small)")
    return float(total) if z.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class GroundState:
    """g = 𝐠₁/𝐍: the Fourier-invariant unit vector the frames are built on."""

    lattice: Lattice
    norm: float  # the normalizer 𝐍 = ‖𝐠₁‖
    amp: np.ndarray

    def value_at(self, j: int) -> float:
        return float(self.amp[self.lattice.pos(j)])


def ground_state(lat: Lattice, tol: float = 1e-18) -> GroundState:
    """Normalize 𝐠₁, computing 𝐍 two independent ways as a consistency check.

    Direct route: 𝐍² = Σ_n 𝐠₁(n√δ)².  Series route:
    𝐍² = Σ_r e^{-πr²/d} Σ_ℓ e^{-π(ℓd-r)²/d}, whose inner sum is again 𝐠₁ by
    periodicity.  The two must agree to 1e-13; the direct value is the one
    used, so ‖g‖ = 1 to machine precision.
    """
    tg = theta_gaussian(lat, 1.0, tol)
    n_direct = float(np.sqrt(np.sum(tg.amp * tg.amp)))
    R = int(np.ceil(np.sqrt(lat.d * np.log(1.0 / tol) / np.pi))) + 1
    r = np.arange(-R, R + 1)
    inner = tg.amp[lat.pos(-r)]
    n_series = float(np.sqrt(np.sum(np.exp(-np.pi * r * r / lat.d) * inner)))
    if abs(n_direct - n_series) > 1e-13:
        raise ArithmeticError(
            f"normalizer mismatch: direct {n_direct!r} vs series {n_series!r}"
        )
    return GroundState(lattice=lat, norm=n_direct, amp=tg.amp / n_direct)
