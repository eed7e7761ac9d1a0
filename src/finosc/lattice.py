"""Centered odd grid and the finite signal space living on it.

The configuration space is the set of d = 2s+1 points n·√δ with n = -s..s and
δ = 2π/d.  Everything downstream (transforms, frames, Hamiltonians) acts on
complex d-periodic functions of the grid index.  Signals store their values in
ascending index order; index access wraps modulo d, so sig[n] and sig[n + d]
are the same array element.

Inner products are conjugate-linear in the first argument:
⟨a, b⟩ = Σ_n conj(a[n])·b[n].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_int(value, name: str) -> int:
    """``value`` as an int; anything but an int or a NumPy integer (a bool
    included) is refused with a ValueError that names the argument."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Lattice:
    """Grid descriptor: dimension d = 2s+1, half-width s, spacing² δ = 2π/d.

    The record holds d alone; s, δ and the grids derive from it, so two
    lattices are equal, and hash equal, exactly when their dimensions match.
    d must be an odd integer ≥ 5; even or tiny dimensions are refused, since
    the constructions downstream assume a symmetric index range with a center.
    """

    d: int

    def __post_init__(self):
        d = _as_int(self.d, "dimension")
        if d % 2 == 0:
            raise ValueError(f"dimension must be odd, got {d}")
        if d < 5:
            raise ValueError(f"dimension must be at least 5, got {d}")
        # frozen: the checked int replaces the given dimension once, here
        object.__setattr__(self, "d", d)

    @cached_property
    def s(self) -> int:
        return (self.d - 1) // 2

    @cached_property
    def delta(self) -> float:
        return 2.0 * np.pi / self.d

    @property
    def sqrt_delta(self) -> float:
        return np.sqrt(self.delta)

    @cached_property
    def indices(self) -> np.ndarray:
        """Integer grid indices -s..s in storage order.

        Built once per lattice and read-only: every caller shares the array.
        """
        return _read_only(np.arange(-self.s, self.s + 1))

    @cached_property
    def points(self) -> np.ndarray:
        """Grid coordinates n·√δ in storage order; built once, read-only."""
        return _read_only(self.indices * self.sqrt_delta)

    def wrap(self, n) -> np.ndarray | int:
        """Reduce an index (or array of indices) to the range -s..s."""
        return (np.asarray(n) + self.s) % self.d - self.s

    def pos(self, n) -> np.ndarray | int:
        """Storage position of grid index n, periodic."""
        return (np.asarray(n) + self.s) % self.d


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def make_lattice(d: int) -> Lattice:
    """Build the centered grid with d points; ``Lattice`` checks d."""
    return Lattice(d)


class Signal:
    """A complex (or real) function on the grid, d-periodic in its index."""

    __slots__ = ("lattice", "amp")

    def __init__(self, lattice: Lattice, amp):
        amp = np.asarray(amp)
        if amp.shape != (lattice.d,):
            raise ValueError(
                f"amplitude length {amp.shape} does not match d={lattice.d}"
            )
        self.lattice = lattice
        self.amp = amp

    def __len__(self):
        return self.lattice.d

    def __getitem__(self, n: int):
        # periodic access: n and n + d hit the same stored element
        return self.amp[(_as_int(n, "index") + self.lattice.s) % self.lattice.d]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def __repr__(self):
        return f"Signal(d={self.lattice.d}, amp={self.amp!r})"


def inner_product(a: Signal, b: Signal) -> complex:
    """⟨a, b⟩ = Σ_n conj(a[n])·b[n], conjugate-linear in the first slot."""
    if a.lattice != b.lattice:
        raise ValueError("signals live on different lattices")
    return complex(np.vdot(a.amp, b.amp))


def basis_signal(lat: Lattice, n: int) -> Signal:
    """Unit sample ε_n: one at grid index n (periodically reduced), zero elsewhere."""
    amp = np.zeros(lat.d)
    amp[(_as_int(n, "index") + lat.s) % lat.d] = 1.0
    return Signal(lat, amp)


def coordinate_signal(lat: Lattice) -> Signal:
    """The coordinate function q: value n·√δ at index n."""
    return Signal(lat, lat.points.copy())


class Operator:
    """Dense d×d matrix acting on signals, rows/columns in storage order."""

    __slots__ = ("lattice", "mat")

    def __init__(self, lattice: Lattice, mat):
        mat = np.asarray(mat)
        if mat.shape != (lattice.d, lattice.d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match d={lattice.d}"
            )
        self.lattice = lattice
        self.mat = mat

    def apply(self, sig: Signal) -> Signal:
        if sig.lattice != self.lattice:
            raise ValueError("operator and signal lattices differ")
        return Signal(self.lattice, self.mat @ sig.amp)

    def adjoint(self) -> "Operator":
        return Operator(self.lattice, self.mat.conj().T)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if other.lattice != self.lattice:
                raise ValueError("operator lattices differ")
            return Operator(self.lattice, self.mat @ other.mat)
        if isinstance(other, Signal):
            return self.apply(other)
        return NotImplemented

    def __repr__(self):
        return f"Operator(d={self.lattice.d})"


def identity_operator(lat: Lattice) -> Operator:
    return Operator(lat, np.eye(lat.d))
