"""Position, momentum, displacements, and the coherent tight frame.

Phase space here is the d×d grid of points (α, β) = (a√δ, b√δ).  The
displacement unitaries

    D(α, β)φ(u) = e^{-iαβ/2}·e^{iβu}·φ(u - α)

shift by whole grid steps (cyclically) and modulate.  On the grid every such
phase is a root of unity indexed by an integer: e^{iβu} = e^{2πi·b·n/d} and
e^{-iαβ/2} = e^{-iπab/d}, formed from b·n reduced mod d and a·b reduced mod
2d, so their rounding stays at ε whatever the grid size.  The displacements
compose up to a phase,

    D(α₁, β₁)·D(α₂, β₂) = e^{-(i/2)(α₁β₂ - α₂β₁)}·D(α₁+α₂, β₁+β₂),

exactly as written whenever the index sums stay in range (wrapping the sum
costs an extra sign, recorded in the tests).  Applying all d² displacements to
the ground state g yields the coherent family |α,β⟩ = D(α,β)·g, a tight frame:
(1/d)·Σ |α,β⟩⟨α,β| = 1, with the Fourier covariance F|α,β⟩ = |β,-α⟩.  The
family is stored as g alone: each state has a closed form computed in O(d),
and the dense d²×d array is built only when a brute-force oracle reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import _root, dft_operator
from .lattice import Lattice, Operator, Signal, _as_int
from .thetagauss import ground_state


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A phase-space grid point: integer indices and the real coordinates."""

    lattice: Lattice
    a_idx: int
    b_idx: int

    def __post_init__(self):
        # frozen: the checked ints replace the given indices once, here
        object.__setattr__(self, "a_idx", _as_int(self.a_idx, "a_idx"))
        object.__setattr__(self, "b_idx", _as_int(self.b_idx, "b_idx"))
        s = self.lattice.s
        if not (-s <= self.a_idx <= s and -s <= self.b_idx <= s):
            raise ValueError(
                f"phase point ({self.a_idx}, {self.b_idx}) outside index range "
                f"-{s}..{s}"
            )

    @property
    def alpha(self) -> float:
        return self.a_idx * self.lattice.sqrt_delta

    @property
    def beta(self) -> float:
        return self.b_idx * self.lattice.sqrt_delta


def position_operator(lat: Lattice) -> Operator:
    """Q = diag(n√δ)."""
    return Operator(lat, np.diag(lat.points))


def momentum_operator(lat: Lattice) -> Operator:
    """P = F⁺·Q·F, the position operator conjugated into the frequency side."""
    F = dft_operator(lat).mat
    return Operator(lat, (F.conj().T * lat.points) @ F)  # F⁺·Q scales columns


def _displacement_parts(lat: Lattice, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals) of D(a, b): row n of the matrix holds vals[..., n] at cols[..., n].

    A displacement is a permutation times a diagonal of roots of unity, so
    each row of its matrix has one nonzero, e^{-iπab/d}·e^{2πi·b·n/d} at
    column (n - a) mod d.  ``a`` and ``b`` are integer index arrays (or
    scalars) that broadcast together; the grid index n runs along a new last
    axis, so k points cost O(k·d).  ``cols`` depends on ``a`` alone and
    broadcasts against ``vals``.  Both phases come from their reduced
    integers, a·b mod 2d and b·n mod d.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = lat.indices
    half = _root(a * b, 2 * lat.d, -1.0)  # e^{-iαβ/2} = e^{-iπab/d}
    vals = half[..., None] * _root(b[..., None] * n, lat.d)
    return lat.pos(n - a[..., None]), vals


def displacement(p: PhasePoint) -> Operator:
    """Matrix of D(α, β) on the lattice of ``p``: the one-point scatter of
    ``_displacement_parts``.

    Row n gets e^{-iαβ/2}·e^{iβ·n√δ} at column (n - a) mod d.
    """
    lat = p.lattice
    cols, vals = _displacement_parts(lat, p.a_idx, p.b_idx)
    mat = np.zeros((lat.d, lat.d), dtype=complex)
    mat[lat.pos(lat.indices), cols] = vals
    return Operator(lat, mat)


def _coherent_amplitudes(lat: Lattice, g: np.ndarray, a, b) -> np.ndarray:
    """|a,b⟩[n] = e^{-iπab/d}·e^{2πi·b·n/d}·g(n - a), broadcast over (a, b).

    ``a`` and ``b`` are integer index arrays (or scalars) that broadcast
    together; the grid index n runs along a new last axis.  It is D(a, b)·g:
    the phases of ``_displacement_parts`` times g gathered at its columns, so
    a single state and a row of the dense sweep come out bit for bit the same.
    """
    cols, vals = _displacement_parts(lat, a, b)
    return vals * g[cols]


class CoherentFrame:
    """The d² coherent states |α,β⟩ = D(α,β)·g, held as their ground state.

    ``state(p)`` computes one state in O(d) from the closed form.  The dense
    ``states`` array is built on first read and kept: row p holds the state
    at flat index p = (a + s)·d + (b + s), the deterministic row-major sweep
    used by every quantization sum.  It costs d³ complex numbers, so only
    the brute-force oracles (``frame_quantize``, ``frame_operator``) and
    small-grid checks read it.  The frame lives on the lattice of its
    ground state, a ``Signal``.
    """

    def __init__(self, ground: Signal):
        self.lattice = ground.lattice
        self.ground = ground

    @cached_property
    def states(self) -> np.ndarray:
        idx = self.lattice.indices
        amps = _coherent_amplitudes(
            self.lattice, self.ground.amp, idx[:, None], idx[None, :]
        )
        return amps.reshape(self.lattice.d**2, self.lattice.d)

    def flat_index(self, p: PhasePoint) -> int:
        return self.flat_indices(p.a_idx, p.b_idx)

    def flat_indices(self, a_idx, b_idx):
        """Rows of ``states`` holding |a, b⟩; integer or array indices, wrapped."""
        d, s = self.lattice.d, self.lattice.s
        return (a_idx + s) % d * d + (b_idx + s) % d

    def state(self, p: PhasePoint) -> Signal:
        if p.lattice != self.lattice:
            raise ValueError("phase point belongs to a different lattice")
        amp = _coherent_amplitudes(self.lattice, self.ground.amp, p.a_idx, p.b_idx)
        return Signal(self.lattice, amp)

    def iter_points(self):
        s = self.lattice.s
        for a in range(-s, s + 1):
            for b in range(-s, s + 1):
                yield PhasePoint(lattice=self.lattice, a_idx=a, b_idx=b)

    def frame_operator(self) -> Operator:
        """S = (1/d)·Σ_p |p⟩⟨p|; equals the identity for a tight frame.

        A brute-force oracle: it reads the dense ``states`` array.
        """
        S = np.einsum("pn,pm->nm", self.states, self.states.conj())
        return Operator(self.lattice, S / self.lattice.d)


def coherent_frame(lat: Lattice) -> CoherentFrame:
    """The coherent family of ``lat``, stored as its ground state."""
    return CoherentFrame(ground_state(lat))


def _overlaps(frame: CoherentFrame, a1, b1, a2, b2) -> np.ndarray:
    """⟨a1,b1|a2,b2⟩ through the ground-state correlation sum, broadcast:

    e^{(i/2)(α₁β₁ - α₂β₂)} Σ_u e^{i(β₂-β₁)u}·g(u-α₁)·g(u-α₂).

    The four integer index arrays (or scalars) broadcast together; each
    overlap costs O(d), with both phases from their reduced integers.
    """
    lat = frame.lattice
    a1, b1, a2, b2 = (np.asarray(x) for x in (a1, b1, a2, b2))
    g = frame.ground.amp
    n = lat.indices
    g1 = g[lat.pos(n - a1[..., None])]
    g2 = g[lat.pos(n - a2[..., None])]
    mod = _root((b2 - b1)[..., None] * n, lat.d)
    front = _root(a1 * b1 - a2 * b2, 2 * lat.d)
    return front * np.sum(mod * g1 * g2, axis=-1)


def overlap(frame: CoherentFrame, p1: PhasePoint, p2: PhasePoint) -> complex:
    """⟨p1|p2⟩: the one-point call of ``_overlaps``."""
    lat = frame.lattice
    if p1.lattice != lat or p2.lattice != lat:
        raise ValueError("phase points belong to a different lattice")
    return complex(_overlaps(frame, p1.a_idx, p1.b_idx, p2.a_idx, p2.b_idx))
