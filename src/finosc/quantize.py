"""Frame quantization of phase-space symbols and the discrete oscillator.

A function f(α, β) on the phase-space grid becomes the operator

    A_f = (1/d) Σ_p f(α_p, β_p) |p⟩⟨p|,

averaging rank-one coherent projectors against the symbol.  Quantizing the
classical oscillator energy (α² + β²)/2 and subtracting the half-quantum
gives the discrete oscillator Hamiltonian.

That Hamiltonian never needs the d² projectors: it reduces exactly to

    H = -(1/2)·I + diag(w/2) + F⁺·diag(w/2)·F,  w = q² ∗ g²  (cyclic),

a diagonal well plus a circulant hop matrix.  The hop matrix is fixed by
the d numbers τ_k = (F·w)_k / (2√d), the well by ω_k = τ_0 + w(k)/2, so H is
assembled from them directly in O(d²), entry (n, m) being τ at the cyclic
distance of n and m off the diagonal and ω_{|n|} - 1/2 on it.  The same
coefficients are compared against the circulant with exactly equidistant
spectrum to bound how far the oscillator eigenvalues can drift from 1..d
(Wielandt-Hoffman).

The raising operator quantizes (α - iβ)/√2; iterating it from the ground
state builds the ladder family of approximate eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Lattice, Operator, Signal, coordinate_signal
from .fourier import dft_operator, equidistant_circulant
from .phasespace import CoherentFrame, PhasePoint
from . import spectral


@dataclass(frozen=True)
class PhaseSymbol:
    """Scalar function on phase space, evaluated pointwise on the grid."""

    fn: Callable[[float, float], complex]
    name: str


def harmonic_symbol() -> PhaseSymbol:
    return PhaseSymbol(fn=lambda a, b: 0.5 * (a * a + b * b), name="harmonic")


def raising_symbol() -> PhaseSymbol:
    return PhaseSymbol(fn=lambda a, b: (a - 1j * b) / np.sqrt(2.0), name="raising")


def frame_quantize(frame: CoherentFrame, symbol: PhaseSymbol) -> Operator:
    """A_f = (1/d) Σ_p f(α_p, β_p) |p⟩⟨p|, by direct projector average.

    Deliberately brute force, O(d³) in memory and work: it reads the dense
    ``frame.states``.  This is the reference definition the fast
    constructions are checked against.
    """
    lat = frame.lattice
    # the row-major sweep of ``states``: α outer, β inner
    pts = lat.points.tolist()
    weights = np.array([symbol.fn(a, b) for a in pts for b in pts], dtype=complex)
    states = frame.states
    mat = (states.T * weights) @ states.conj() / lat.d
    return Operator(lat, mat)


@dataclass(frozen=True, eq=False)
class FrameHamiltonian:
    """Discrete oscillator with its circulant-plus-diagonal decomposition.

    ``conv`` is the cyclic convolution w = q² ∗ g²; ``tau[k]`` (k = 0..s)
    are the hop coefficients, entry (n, m) of H off the diagonal being
    τ_{min(|n-m|, d-|n-m|)}; ``omega[k]`` = τ_0 + w(k)/2 samples the well,
    the diagonal of H being ω_{|n|} - 1/2.  ``op`` is that real matrix,
    exactly symmetric and centro-symmetric.
    """

    lattice: Lattice
    op: Operator
    conv: Signal
    tau: np.ndarray
    omega: np.ndarray


def frame_hamiltonian(lat: Lattice) -> FrameHamiltonian:
    from .thetagauss import ground_state

    g = ground_state(lat)
    g2 = g.amp * g.amp
    q2 = coordinate_signal(lat).amp ** 2
    d = lat.d
    # conv[pos(k)] = Σ_a q²(a)·g²(k-a), cyclic in the index difference
    diff = lat.indices[:, None] - lat.indices[None, :]
    conv = (g2[(diff + lat.s) % d] * q2[None, :]).sum(axis=1)

    tau_full = (dft_operator(lat).mat @ conv) / (2.0 * np.sqrt(d))
    if float(np.max(np.abs(tau_full.imag))) > 1e-10 * max(
        1.0, float(np.max(np.abs(tau_full.real)))
    ):
        raise ArithmeticError("hop coefficients should be real for an even well")
    k = np.arange(lat.s + 1)
    tau = tau_full.real[lat.pos(k)]
    omega = tau[0] + 0.5 * conv[lat.pos(k)]

    # entry (n, m) is τ at the cyclic distance of n and m, and ω_{|n|} - 1/2
    # on the diagonal; both depend on |n - m| and |n| only, so the matrix is
    # exactly symmetric and centro-symmetric
    dist = np.abs(diff)
    mat = tau[np.minimum(dist, d - dist)]
    np.fill_diagonal(mat, omega[np.abs(lat.indices)] - 0.5)
    op = Operator(lat, mat)
    return FrameHamiltonian(
        lattice=lat, op=op, conv=Signal(lat, conv), tau=tau, omega=omega
    )


def trace_ratio(lat: Lattice) -> float:
    """tr(H) / (d²/2), which tends to π/3 as d grows.

    Computed from the assembled Hamiltonian, not from the closed trace
    formula, so the two can be checked against each other.  The exact value
    is π/3·(1 - 1/d²) - 1/d: the deficit decays like 1/d, so closing to
    within 0.002 of the limit needs d ≥ 503.
    """
    fh = frame_hamiltonian(lat)
    tr = float(np.trace(fh.op.mat).real)
    return tr / (lat.d**2 / 2.0)


def coherent_expectation(fh: FrameHamiltonian, frame: CoherentFrame, p: PhasePoint) -> float:
    """⟨p| H |p⟩ without touching the matrix:

    -1/2 + (1/2) Σ_u w(u)·(g²(u-α) + g²(u-β)),

    manifestly symmetric under swapping the position and momentum shifts.
    """
    lat = fh.lattice
    if frame.lattice != lat or p.lattice != lat:
        raise ValueError("mismatched lattices")
    g2 = frame.ground.amp**2
    w = fh.conv.amp
    idx = lat.indices
    ta = float(np.dot(w, g2[lat.pos(idx - p.a_idx)]))
    tb = float(np.dot(w, g2[lat.pos(idx - p.b_idx)]))
    return -0.5 + 0.5 * (ta + tb)


def wielandt_hoffman_gap(fh: FrameHamiltonian) -> tuple[float, float]:
    """Mean eigenvalue drift from 1..d, and its a-priori circulant bound.

    lhs = (1/d) Σ_n |n - λ_n| with λ_n the ascending eigenvalues of
    H + 1/2; rhs is the Frobenius distance (scaled by 1/√d) between
    H + 1/2 and the circulant whose spectrum is exactly 1..d, written out
    as sums over the hop and well differences.  Wielandt-Hoffman plus
    Cauchy-Schwarz guarantees lhs ≤ rhs.
    """
    lat = fh.lattice
    d = lat.d
    shifted = fh.op.mat + 0.5 * np.eye(d)
    vals, _ = spectral.eigh(shifted)
    lhs = float(np.mean(np.abs(np.arange(1, d + 1) - vals)))

    cspec = equidistant_circulant(lat)
    col = cspec.first_column
    c0 = float(col[lat.pos(0)].real)
    hop_part = 0.0
    for j in range(1, d):
        tau_j = fh.tau[min(j, d - j)]
        c_j = complex(col[lat.pos(j)])
        hop_part += abs(tau_j - c_j) ** 2
    k = np.abs(lat.indices)
    well_part = float(np.sum(np.abs(fh.omega[k] - c0) ** 2)) / d
    rhs = float(np.sqrt(hop_part + well_part))
    return lhs, rhs


def raising_operator(frame: CoherentFrame) -> Operator:
    """Quantized (α - iβ)/√2, assembled from two cyclic g-sums in O(d²).

    The double phase-space sum collapses: the diagonal is the g²-weighted
    first moment and the off-diagonal entries are autocorrelations of g
    against a cosecant kernel.  The result is real, with the antisymmetry
    entry(n, m) = -entry(-n, -m).
    """
    lat = frame.lattice
    d = lat.d
    g = frame.ground.amp
    g2 = g * g
    idx = lat.indices

    # R[pos(j)] = Σ_a g(a)·g(a+j), cyclic autocorrelation
    corr = np.array([float(np.dot(g, np.roll(g, -j))) for j in range(d)])
    # first moment of g² around each grid point
    diff = idx[:, None] - idx[None, :]
    moment = (g2[(diff + lat.s) % d] * idx[None, :].astype(float)).sum(axis=1)

    mat = np.zeros((d, d))
    scale = lat.sqrt_delta / (2.0 * np.sqrt(2.0))
    j_mat = diff  # n - m as integers
    with np.errstate(divide="ignore", invalid="ignore"):
        cosec = 1.0 / np.sin(np.pi * j_mat / d)
    signs = np.where(j_mat % 2 == 0, 1.0, -1.0)
    off = -signs * scale * corr[j_mat % d] * cosec
    np.fill_diagonal(off, 0.0)
    mat += off
    mat[np.arange(d), np.arange(d)] = lat.sqrt_delta / np.sqrt(2.0) * moment
    return Operator(lat, mat)


def ladder_states(frame: CoherentFrame, count: int) -> list[Signal]:
    """f̃_0 = g and f̃_{n+1} = a⁺ f̃_n / √(n+1), not re-normalized.

    The drift of f̃_n away from unit norm is part of what the ladder
    comparison is meant to expose, so no normalization is applied.
    """
    lat = frame.lattice
    if not 1 <= count <= lat.d:
        raise ValueError(f"count must be in 1..{lat.d}, got {count}")
    ap = raising_operator(frame).mat
    states = [Signal(lat, frame.ground.amp.copy())]
    for n in range(count - 1):
        nxt = ap @ states[-1].amp / np.sqrt(n + 1.0)
        states.append(Signal(lat, nxt))
    return states
