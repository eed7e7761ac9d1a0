"""Frame quantization of phase-space symbols and the discrete oscillator.

A function f(α, β) on the phase-space grid becomes the operator

    A_f = (1/d) Σ_p f(α_p, β_p) |p⟩⟨p|,

the finite counterpart of anti-Wick quantization; ``frame_quantize`` sums
it term by term.  For a separable symbol f = f_α(α) + f_β(β) the sum
collapses, since |a,b⟩⟨a,b|[n, m] = e^{2πib(n-m)/d}·g(n-a)·g(m-a): the
β-sum of the α part leaves d·δ_nm, the a-sum of the β part leaves the
autocorrelation R(k) = Σ_a g(a)·g(a+k), and A_f is a well plus a circulant,

    A_f[n, m] = well[n]·δ_nm + hop[n - m],
    well[n] = Σ_a f_α(a)·g²(n-a),
    hop[k] = (1/d)·(Σ_b f_β(b)·e^{2πibk/d})·R(k).

A symbol is a plain function f(α, β), called once per grid point by the
brute-force ``frame_quantize``.  One construction gives both operators the
package needs: the oscillator H quantizes ``harmonic_symbol``, (α² + β²)/2,
less the half-quantum, and the raising operator a⁺ quantizes ``raising_symbol``,
(α - iβ)/√2, whose iterates from the ground state form the ladder of
approximate eigenvectors, the rows of one d×d array.  Each operator is the
record (well, hop), dense only when read; hops below the smallest normal float
are exact zeros, so no product with them runs on subnormals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Lattice, Operator, Signal
from .fourier import CirculantSpec, circulant, cyclic_windows, equidistant_circulant
from .phasespace import CoherentFrame, PhasePoint
from .thetagauss import ground_state
from . import spectral


def harmonic_symbol(a: float, b: float) -> float:
    """The oscillator energy (α² + β²)/2."""
    return 0.5 * (a * a + b * b)


def raising_symbol(a: float, b: float) -> complex:
    """The raising symbol (α - iβ)/√2."""
    return (a - 1j * b) / np.sqrt(2.0)


def frame_quantize(
    frame: CoherentFrame, symbol: Callable[[float, float], complex]
) -> Operator:
    """A_f = (1/d) Σ_p f(α_p, β_p) |p⟩⟨p|, by direct projector average.

    Deliberately brute force, O(d³) in memory and work: it reads the dense
    ``frame.states``.  This is the reference definition the fast
    constructions are checked against.
    """
    lat = frame.lattice
    # the row-major sweep of ``states``: α outer, β inner
    pts = lat.points.tolist()
    weights = np.array([symbol(a, b) for a in pts for b in pts], dtype=complex)
    states = frame.states
    mat = (states.T * weights) @ states.conj() / lat.d
    return Operator(lat, mat)


def _separable_parts(
    frame: CoherentFrame, f_alpha: np.ndarray, f_beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(well, hop) of the symbol f_α(α) + f_β(β), both parts sampled on the grid.

    A_f[n, m] = well[n]·δ_nm + hop[pos(n - m)] exactly (module docstring).
    ``well`` and R are direct cyclic sums over positive weights g² and g·g,
    each one product with a circulant or Hankel table copied from its
    windows; the symbol sum over b is one FFT on the centred grid.
    """
    lat = frame.lattice
    g = frame.ground.amp
    well = cyclic_windows(lat, g * g, -1).copy() @ f_alpha
    corr = cyclic_windows(lat, g, 1).copy() @ g  # R(k) = Σ_a g(a)·g(a+k)
    # ifft(x)[k] = (1/d)·Σ_j x[j]·e^{2πijk/d}, with j and k reduced mod d
    spectrum = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(f_beta)))
    hop = spectrum * corr
    hop[np.abs(hop) < np.finfo(float).tiny] = 0.0
    return well, hop


def _real(x: np.ndarray, what: str) -> np.ndarray:
    if float(np.max(np.abs(x.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(x.real)))):
        raise ArithmeticError(f"{what} should be real")
    return x.real


@dataclass(frozen=True, eq=False)
class FrameHamiltonian:
    """Discrete oscillator as a well plus a circulant hop.

    ``conv`` is the cyclic convolution w = q² ∗ g², twice the well.  ``op``
    is H as the record (fourier.CirculantSpec) of its diagonal τ_0 + w/2 - 1/2
    at |n| and its hop coefficients τ at the cyclic distance |k| (c[0] = 0):
    real, exactly symmetric and centro-symmetric, dense only when read.
    """

    lattice: Lattice
    op: CirculantSpec
    conv: Signal


def frame_hamiltonian(lat: Lattice) -> FrameHamiltonian:
    """The quantized energy (α² + β²)/2 less the half-quantum, as (w, c)."""
    half_q2 = 0.5 * lat.points**2
    frame = CoherentFrame(ground_state(lat))
    well, hop = _separable_parts(frame, half_q2, half_q2)
    # both parts read at |n|, so H is exactly symmetric and centro-symmetric
    at = lat.pos(np.abs(lat.indices))
    tau = _real(hop, "hop coefficients of an even well")[at]
    diag = tau[lat.pos(0)] + well[at] - 0.5
    op = circulant(lat, np.where(lat.indices == 0, 0.0, tau), diag)
    return FrameHamiltonian(lattice=lat, op=op, conv=Signal(lat, 2.0 * well))


def trace_ratio(lat: Lattice) -> float:
    """tr(H) / (d²/2), which tends to π/3 as d grows.

    Read in O(d) from the Hamiltonian's record, not from the closed trace
    formula, so the two can be checked against each other.  The exact value
    is π/3·(1 - 1/d²) - 1/d: the deficit decays like 1/d, so closing to
    within 0.002 of the limit needs d ≥ 503.
    """
    op = frame_hamiltonian(lat).op
    tr = float(np.sum(op.well) + lat.d * op.first_column[lat.pos(0)])
    return tr / (lat.d**2 / 2.0)


def _coherent_energies(fh: FrameHamiltonian, frame: CoherentFrame, a, b) -> np.ndarray:
    """⟨a,b| H |a,b⟩ without touching the matrix, broadcast over (a, b):

    -1/2 + (1/2) Σ_u w(u)·(g²(u-α) + g²(u-β)),

    manifestly symmetric under swapping the position and momentum shifts.
    ``a`` and ``b`` are integer index arrays (or scalars) that broadcast
    together; each point costs O(d).
    """
    lat = fh.lattice
    a, b = np.asarray(a), np.asarray(b)
    g2 = frame.ground.amp**2
    w = fh.conv.amp
    idx = lat.indices
    ta = g2[lat.pos(idx - a[..., None])] @ w
    tb = g2[lat.pos(idx - b[..., None])] @ w
    return -0.5 + 0.5 * (ta + tb)


def coherent_expectation(fh: FrameHamiltonian, frame: CoherentFrame, p: PhasePoint) -> float:
    """⟨p| H |p⟩: the one-point call of ``_coherent_energies``."""
    lat = fh.lattice
    if frame.lattice != lat or p.lattice != lat:
        raise ValueError("mismatched lattices")
    return float(_coherent_energies(fh, frame, p.a_idx, p.b_idx))


def wielandt_hoffman_gap(fh: FrameHamiltonian) -> tuple[float, float]:
    """Mean eigenvalue drift from 1..d, and its a-priori circulant bound.

    lhs = (1/d) Σ_n |n - λ_n| with λ_n the ascending eigenvalues of
    H + 1/2; rhs is the Frobenius distance (scaled by 1/√d) between
    H + 1/2 and the circulant whose spectrum is exactly 1..d, whose
    difference is one more well plus circulant.  Wielandt-Hoffman plus
    Cauchy-Schwarz guarantees lhs ≤ rhs.
    """
    lat, op = fh.lattice, fh.op
    vals, _ = spectral.eigh(circulant(lat, op.first_column, op.well + 0.5))
    lhs = float(np.mean(np.abs(np.arange(1, lat.d + 1) - vals)))
    col = op.first_column - equidistant_circulant(lat).first_column
    rhs = np.linalg.norm(circulant(lat, col, op.well + 0.5).mat) / np.sqrt(lat.d)
    return lhs, float(rhs)


def raising_operator(frame: CoherentFrame) -> CirculantSpec:
    """Quantized (α - iβ)/√2 from the separable parts q/√2 and -i·q/√2, as (w, c).

    The result is real, with the antisymmetry entry(n, m) = -entry(-n, -m).
    """
    lat = frame.lattice
    q = lat.points / np.sqrt(2.0)
    well, hop = _separable_parts(frame, q, -1j * q)
    return circulant(lat, _real(hop, "hop coefficients of the raising operator"), well)


def ladder_states(frame: CoherentFrame) -> np.ndarray:
    """The d states f̃_0 = g and f̃_{n+1} = a⁺ f̃_n / √(n+1), n < d - 1, as
    the rows of one (d, d) array, not re-normalized.

    The drift of f̃_n away from unit norm is part of what the ladder
    comparison is meant to expose, so no normalization is applied.  The
    drift grows with the order, and on large grids (d = 1001) a state's
    squared norm leaves the float range: the first order whose entries or
    squared norm are not finite raises ``ArithmeticError``.  The iteration
    runs under ``np.errstate``, so no RuntimeWarning escapes.
    """
    lat = frame.lattice
    ap = raising_operator(frame).mat
    states = np.empty((lat.d, lat.d))
    states[0] = frame.ground.amp
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(lat.d - 1):
            nxt = np.divide(ap @ states[n], np.sqrt(n + 1.0), out=states[n + 1])
            if not (np.all(np.isfinite(nxt)) and np.isfinite(nxt @ nxt)):
                raise ArithmeticError(
                    f"ladder state of order {n + 1} has entries or a squared "
                    f"norm that are not finite at d = {lat.d}"
                )
    return states
