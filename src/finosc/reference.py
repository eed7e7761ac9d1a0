"""Continuous-line references: Hermite-Gaussians, their periodizations, and
a fractional Fourier oracle from exact Hermite coefficients.

The continuous eigenfunctions are the Hermite-Gaussians Ψ_m, generated by the
normalized three-term recurrence

    Ψ_{m+1}(x) = x·√(2/(m+1))·Ψ_m(x) - √(m/(m+1))·Ψ_{m-1}(x),
    Ψ_0(x) = π^(-1/4)·e^{-x²/2},

which is stable in this normalized form (no Hermite-polynomial overflow).
Grid comparisons use the scaled samples ⁴√δ·Ψ_m(n√δ): the scale converts
unit L²(ℝ) norm to approximately unit ℓ² norm on the grid.

The periodized samples Φ_m(n) = Σ_ℓ Ψ_m((ℓd+n)√δ) give the classical
approximate Fourier eigenvectors; Φ_0 equals π^(-1/4)·g₁ term by term.

The recurrence runs in blocks of ``_BLOCK`` orders (``_hermite_blocks``), and
every reader of many orders takes them a block at a time: the basis sign fix
``_sign_columns`` (in ``spectral`` and here), ``deviation_report`` (a block of
Ψ_m and of Φ_m, each over its points), and ``_hermite_rows``, which keeps only
the orders asked for.  Whole tables are formed only where they are returned:
``_sample_table`` (the tests' oracle, d × d), ``_periodized_table`` (mmax+1
rows, not the 7× larger table of its wrapped points) and the M oracle rows.

The fractional transform oracle expands a line profile in the Ψ_m basis,
with coefficients ⟨Ψ_m, ψ⟩ the profile gives in closed form, and applies the
continuous eigenphases e^{-iπmα/2} from ``_eigenphases``, as the discrete
kernels of ``frft`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Signal, _as_index, _as_int, _as_real, _lattice_of
from .phasespace import CoherentFrame, PhasePoint, _coherent_amplitudes
from .thetagauss import _TOL

_FAR = 708.0  # π^{-1/4}·e^{-x²/2} is a normal float up to x²/2 = 708
_LN512 = 512.0 * math.log(2.0)
_BLOCK = 32  # orders, or basis columns, per block of a streamed pass
_WINDOW = 8  # half-width, in grid steps, of the coherent deviation window
_SIGN_FLOOR = 1e-12  # an overlap at most this large has no reliable sign


def _hermite_count(M) -> int:
    """M as a count of Hermite orders, refused unless it is a positive int."""
    M = _as_int(M, "M")
    if M < 1:
        raise ValueError(f"need at least one Hermite order, got M={M}")
    return M


def _eigenphases(alpha: float, count: int) -> np.ndarray:
    """e^{-iπmα/2}, m = 0..count-1, for a finite order α (4-periodic: the
    exact fmod keeps the rounding of an order below 4)."""
    alpha = _as_real(alpha, "transform order")
    return np.exp(-0.5j * np.pi * math.fmod(alpha, 4.0) * np.arange(count))


def _hermite_blocks(top: int, x):
    """Ψ_0..Ψ_top at x in blocks of ``_BLOCK`` orders: yields (first, block)
    with block[i] = Ψ_{first+i}(x), shape (≤ _BLOCK,) + x.shape.

    One pass of the recurrence that writes each order in place into one
    reused block, so a pass holds _BLOCK rows however high it runs.  The
    next block overwrites it: read it, and do not write to it, before asking
    for the next one.

    Where x²/2 > 708, e^{-x²/2} underflows but Ψ_m(x) need not, so such a
    point carries its rows as mantissa·2^e with its own integer e ≤ 0, a
    multiple of 512.  Often enough that no mantissa can grow 2^256-fold in
    between, rows above 2^256 are divided by 2^512 and e is raised by 512,
    both exactly.  Rows read out as mantissa·2^e, or 0 while e ≤ -1024
    (every such value is below 2^-512).  Points with e = 0 do the plain
    recurrence bit for bit; a call with no far point skips the bookkeeping.
    Neither the block size nor the other points change a point's bits,
    except that the bookkeeping period follows the farthest point.
    """
    x = np.asarray(x, dtype=float)
    half = 0.5 * x * x
    exps = None
    if half.max(initial=0.0) > _FAR:
        # the clip keeps e in int64; such points read 0 at any feasible order
        lift = np.ceil(np.clip(half - _FAR, 0.0, 2.0**60) / _LN512)
        half -= lift * _LN512
        exps = -512 * lift.astype(np.int64)
        # one step grows max(|cur|, |prev|) at most (1 + √2·|x|)-fold
        every = max(1, int(256 / math.log2(1 + math.sqrt(2) * np.abs(x).max())))
    size = min(_BLOCK, top + 1)
    # rows[2 + i] holds order first + i of the block (its mantissa where e is
    # kept) and rows 0, 1 the two orders before it, so each step writes its
    # order in place
    rows = np.empty((size + 2,) + x.shape)
    rows[1] = 0.0
    rows[2] = np.pi ** (-0.25) * np.exp(-half)
    block = rows[2:] if exps is None else np.empty((size,) + x.shape)
    spare = np.empty_like(x)
    views = [rows[i, ...] for i in range(size + 2)]  # 0-d for a scalar x
    for k in range(top + 1):
        j = k % size
        if k and not j:
            rows[:2] = rows[size:]
        prev, cur = views[j + 1], views[j + 2]
        if k:
            np.multiply(x, math.sqrt(2.0 / k), out=cur)
            cur *= prev
            cur -= np.multiply(views[j], math.sqrt((k - 1) / k), out=spare)
        if exps is not None:
            if k % every == 0:
                big = np.maximum(np.abs(cur), np.abs(prev)) > 2.0**256
                if k == 0 or big.any():  # k = 0 sets the first read-out factors
                    down = np.where(big, 2.0**-512, 1.0)
                    cur *= down
                    prev *= down
                    exps += 512 * big
                    scale = np.where(exps < -512, 0.0, np.ldexp(1.0, exps))
            np.multiply(cur, scale, out=block[j, ...])
        if j == size - 1 or k == top:
            yield k - j, block[: j + 1]


def _hermite_rows(orders, x) -> np.ndarray:
    """Ψ_m(x) for each m in ``orders``, shape (len(orders),) + x.shape.

    One pass of ``_hermite_blocks`` up to the highest order; the orders may
    come in any order and repeat, and only the rows asked for are held.
    """
    slots = {}
    for i, m in enumerate(orders):
        if m < 0:
            raise ValueError(f"order must be non-negative, got {m}")
        slots.setdefault(m, []).append(i)
    x = np.asarray(x, dtype=float)
    out = np.empty((len(orders),) + x.shape)
    for first, block in _hermite_blocks(max(slots), x):
        for m in range(first, first + len(block)):
            for i in slots.get(m, ()):
                out[i] = block[m - first]
    return out


def hermite_gaussian(m: int, x):
    """Ψ_m(x), vectorized over x, for any order m ≥ 0.

    The one-order case of ``_hermite_rows``.
    """
    row = _hermite_rows((_as_int(m, "order"),), x)[0]
    return float(row) if row.ndim == 0 else row


def hermite_sample(lat: Lattice, m: int) -> Signal:
    """⁴√δ·Ψ_m sampled on the grid."""
    return Signal(lat, lat.delta**0.25 * hermite_gaussian(m, lat.points))


def _sample_table(lat: Lattice) -> np.ndarray:
    """Row m is ``hermite_sample(lat, m).amp``, for m = 0..d-1, from one
    pass of the recurrence."""
    return lat.delta**0.25 * _hermite_rows(range(lat.d), lat.points)


def _displaced_ground_amplitudes(lat: Lattice, a, b) -> np.ndarray:
    """⁴√δ·e^{-iαβ/2}·e^{iβ·n√δ}·Ψ_0(n√δ - α), broadcast over (a, b).

    ``a`` and ``b`` are integer index arrays (or scalars) that broadcast
    together, with α = a√δ and β = b√δ; the grid index n runs along a new
    last axis, as in ``phasespace._coherent_amplitudes``.
    """
    alpha = (np.asarray(a) * lat.sqrt_delta)[..., None]
    beta = (np.asarray(b) * lat.sqrt_delta)[..., None]
    x = lat.points
    env = hermite_gaussian(0, x - alpha)
    return lat.delta**0.25 * np.exp(-0.5j * alpha * beta) * np.exp(
        1j * beta * x
    ) * env


def displaced_ground_sample(p: PhasePoint) -> Signal:
    """Samples of the displaced continuous ground state on the lattice of ``p``,

    ⁴√δ·e^{-iαβ/2}·e^{iβ·n√δ}·Ψ_0(n√δ - α),

    the line-side twin of the coherent state at the same phase-space point.
    """
    lat = p.lattice
    return Signal(lat, _displaced_ground_amplitudes(lat, p.a_idx, p.b_idx))


def coherent_deviation_table(frame: CoherentFrame, a_indices, b_indices) -> np.ndarray:
    """max_{|n| ≤ 8} |discrete state - continuous samples| per (a, b)."""
    lat = frame.lattice
    sel = np.abs(lat.indices) <= _WINDOW
    a = np.array([_as_index(i, lat, "entry of a_indices") for i in a_indices], dtype=int)
    b = np.array([_as_index(i, lat, "entry of b_indices") for i in b_indices], dtype=int)
    a, b = a[:, None], b[None, :]
    disc = _coherent_amplitudes(lat, frame.ground.amp, a, b)
    cont = _displaced_ground_amplitudes(lat, a, b)
    return np.max(np.abs(disc[..., sel] - cont[..., sel]), axis=-1)


def _periodized_blocks(lat: Lattice, mmax: int):
    """Φ_0..Φ_mmax of the periodized Hermite-Gaussians in blocks: yields
    (first, block) with block[i] = Φ_{first+i}, one new array per block.

    Terms beyond the classical turning point √(2m+1) decay like a Gaussian in
    the excess distance; the wrap sum keeps every ℓ whose argument stays
    within a generous margin past the turning point of the highest order,
    which puts the omitted terms of every row far below 1e-18.  Only one
    block of the Hermite values over the wrapped points is held at a time.
    """
    margin = np.sqrt(2.0 * np.log(1.0 / _TOL)) + 2.0
    x_cut = np.sqrt(2.0 * mmax + 1.0) + margin
    lmax = int(np.ceil((x_cut / lat.sqrt_delta + lat.s) / lat.d)) + 1
    ell = np.arange(-lmax, lmax + 1)
    args = (ell[:, None] * lat.d + lat.indices[None, :]) * lat.sqrt_delta
    for first, vals in _hermite_blocks(mmax, args.ravel()):
        yield first, vals.reshape((len(vals),) + args.shape).sum(axis=1)


def _periodized_table(lat: Lattice, mmax: int) -> np.ndarray:
    """Rows Φ_0..Φ_mmax of the periodized Hermite-Gaussians, shape (mmax+1, d)."""
    return np.concatenate([block for _, block in _periodized_blocks(lat, mmax)])


def mehta_function(lat: Lattice, m: int) -> Signal:
    """Periodized Hermite-Gaussian Φ_m(n) = Σ_ℓ Ψ_m((ℓd+n)√δ), unnormalized.

    The wrap sum is truncated so that the omitted terms stay far below
    1e-18 (see ``_periodized_blocks``).
    """
    m = _as_int(m, "order")
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    return Signal(lat, _periodized_table(lat, m)[m])


def _sign_columns(cols: np.ndarray, targets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = ``cols`` (d × k), column i signed to make its overlap with
    ``targets[i]`` positive, or its largest entry where that overlap ≤ 1e-12."""
    overlaps = np.einsum("mn,nm->m", targets, cols)
    peaks = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    signs = np.where(np.abs(overlaps) > _SIGN_FLOOR, np.sign(overlaps), np.sign(peaks))
    return np.multiply(cols, signs, out=out)


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Per-order sup deviations of the four grid families from ⁴√δ·Ψ_m."""

    lattice: Lattice
    delta_f: np.ndarray  # frame eigenbasis
    delta_h: np.ndarray  # Harper eigenbasis
    delta_m: np.ndarray  # normalized periodized Hermite samples
    delta_r: np.ndarray  # ladder states from the raising operator


def deviation_report(frame_basis, harper_basis, ladder) -> DeviationReport:
    """Compare the four discrete families against the scaled line samples,
    on the lattice of ``frame_basis``.

    The bases must be of kind 'frame' and 'harper', in that order, on one
    lattice, and ``ladder`` a (d, d) array whose row n is f̃_n; a mismatch is
    refused by name.

    The unit-norm eigenbases are read as held, signed or not, and signed here
    a block of columns at a time (``_sign_columns``).  The periodized samples
    Φ_m are normalized (and sign-aligned) here, putting all four families on
    the same footing as the unit-norm targets; ladder states are compared as
    constructed, so their drift includes normalization loss.
    """
    lat = frame_basis.lattice
    d = lat.d
    kinds = (frame_basis.kind, harper_basis.kind)
    if kinds != ("frame", "harper"):
        raise ValueError(f"expected a 'frame' and a 'harper' basis, got {kinds}")
    _lattice_of(harper_basis, "Harper basis", lat)
    # a lattice is fixed by its d; iterating a list of Signals would never end
    shape = ladder.shape if isinstance(ladder, np.ndarray) else type(ladder).__name__
    if shape != (d, d):
        raise ValueError(f"expected the ladder as a ({d}, {d}) array, got {shape}")
    held = (frame_basis._held_vectors(), harper_basis._held_vectors())
    deltas = np.empty((4, d))
    scale = lat.delta**0.25
    signed = np.empty((d, min(_BLOCK, d)))  # one block of signed columns, reused
    # every step is per order, so blocks of orders give the bits of whole tables
    blocks = zip(_hermite_blocks(d - 1, lat.points), _periodized_blocks(lat, d - 1))
    for (first, herm), (_, phi) in blocks:
        rows = slice(first, first + len(herm))
        targets = scale * herm
        for delta, vecs in zip(deltas, held):
            cols = _sign_columns(vecs[:, rows], targets, signed[:, : len(herm)])
            delta[rows] = np.max(np.abs(cols.T - targets), axis=1)
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        phi[np.sum(phi * targets, axis=1) < 0.0] *= -1.0
        for delta, family in zip(deltas[2:], (phi, ladder[rows])):
            delta[rows] = np.max(np.abs(family - targets), axis=1)
    delta_f, delta_h, delta_m, delta_r = deltas
    return DeviationReport(
        lattice=lat, delta_f=delta_f, delta_h=delta_h, delta_m=delta_m, delta_r=delta_r
    )


@dataclass(frozen=True)
class GaussianProfile:
    """The line Gaussian e^{-κx²/2}, the continuous twin of the width-κ
    periodic Gaussian (which is exactly its wrap sum); calling it samples
    the profile.

    Its Hermite coefficients vanish at odd order and, with r = (1-κ)/(1+κ),

        c_0 = π^{1/4}·√(2/(1+κ)),      c_m = c_{m-2}·r·√((m-1)/m).
    """

    kappa: float

    def __post_init__(self):
        # frozen: the checked float replaces the given width once, here
        kappa = _as_real(self.kappa, "width parameter", positive=True)
        object.__setattr__(self, "kappa", kappa)

    def __call__(self, x):
        return np.exp(-0.5 * self.kappa * np.asarray(x, dtype=float) ** 2)

    def coefficients(self, M: int) -> np.ndarray:
        """⟨Ψ_m, ψ⟩ for m = 0..M-1; M must be a positive int."""
        M = _hermite_count(M)
        c = np.zeros(M)
        c[0] = np.pi**0.25 * math.sqrt(2.0 / (1.0 + self.kappa))
        r = (1.0 - self.kappa) / (1.0 + self.kappa)
        for m in range(2, M, 2):
            c[m] = c[m - 2] * r * math.sqrt((m - 1) / m)
        return c


@dataclass(frozen=True)
class RectangularProfile:
    """Indicator of [-h, h]; calling it samples the profile.

    Its Hermite coefficients I_m = ∫_{-h}^{h} Ψ_m vanish at odd order.
    Integrating Ψ_m' = √(m/2)·Ψ_{m-1} - √((m+1)/2)·Ψ_{m+1} over [-h, h] gives,
    for odd m,

        I_0     = π^{-1/4}·√(2π)·erf(h/√2),
        I_{m+1} = √(m/(m+1))·I_{m-1} - √(2/(m+1))·2Ψ_m(h).
    """

    half_width: float

    def __post_init__(self):
        # frozen: the checked float replaces the given half width once, here
        width = _as_real(self.half_width, "half width", positive=True)
        object.__setattr__(self, "half_width", width)

    def __call__(self, x):
        return np.where(np.abs(np.asarray(x, dtype=float)) <= self.half_width, 1.0, 0.0)

    def coefficients(self, M: int) -> np.ndarray:
        """⟨Ψ_m, ψ⟩ for m = 0..M-1; M must be a positive int."""
        M = _hermite_count(M)
        h = self.half_width
        edge = _hermite_rows(range(M), np.array([h]))[:, 0]
        c = np.zeros(M)
        c[0] = np.pi**-0.25 * math.sqrt(2.0 * np.pi) * math.erf(h / math.sqrt(2.0))
        for m in range(1, M - 1, 2):
            c[m + 1] = (
                math.sqrt(m / (m + 1)) * c[m - 1] - math.sqrt(2.0 / (m + 1)) * 2.0 * edge[m]
            )
        return c


def rectangular_profile(lat: Lattice) -> RectangularProfile:
    """Indicator of [-3√δ/2, 3√δ/2]: samples to 1 exactly on n ∈ {-1,0,1},
    the continuous twin of the three-point rectangular grid signal."""
    return RectangularProfile(1.5 * lat.sqrt_delta)


def continuous_frft_oracle(psi, alpha: float, lat: Lattice, M: int = 64) -> Signal:
    """Continuous fractional Fourier transform of the profile ``psi``, sampled
    and scaled.

    Expands psi over Ψ_0..Ψ_{M-1} with its exact coefficients
    ``psi.coefficients(M)`` and applies the eigenphases:

        (𝓕^α ψ)(x) ≈ Σ_{m<M} e^{-iπmα/2}·Ψ_m(x)·⟨Ψ_m, ψ⟩.

    Returns the grid samples scaled by ⁴√δ.  The order must be a finite
    real number, as for ``frft_kernel``.  M may be any positive count, and
    accuracy is limited by the Hermite truncation M alone.  A Gaussian's coefficients fall off like
    |r|^{m/2}, r = (1-κ)/(1+κ), so its columns are exact to rounding unless
    κ is far from 1.  The box's jumps make its coefficients decay slowly, so
    box columns are truncation-limited: at d = 101 and α = 0.5, M = 64 and
    M = 300 differ by 24%.
    """
    M = _hermite_count(M)
    phases = _eigenphases(alpha, M)
    coeffs = psi.coefficients(M)
    grid_basis = _hermite_rows(range(M), lat.points)
    amp = lat.delta**0.25 * (phases * coeffs) @ grid_basis
    return Signal(lat, amp)
