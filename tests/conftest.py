"""Shared fixtures: lattices and labeled bases at the standard sizes.

The expensive objects are session-scoped; tests must not mutate them.
"""

import numpy as np
import pytest

from finosc import (
    coherent_frame,
    frame_hamiltonian,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
)


@pytest.fixture(scope="session")
def lat5():
    return make_lattice(5)


@pytest.fixture(scope="session")
def lat7():
    return make_lattice(7)


@pytest.fixture(scope="session")
def lat21():
    return make_lattice(21)


@pytest.fixture(scope="session")
def frame21(lat21):
    return frame_hamiltonian(lat21)


@pytest.fixture(scope="session")
def states21(lat21):
    return coherent_frame(lat21)


@pytest.fixture(scope="session")
def frame_basis21(lat21, frame21):
    return oscillator_basis(frame21.op, lat21, "frame")


@pytest.fixture(scope="session")
def harper_basis21(lat21):
    return oscillator_basis(harper_hamiltonian(lat21), lat21, "harper")


def naive_dft(d):
    """Fourier matrix rebuilt from its definition, for cross-checks."""
    s = (d - 1) // 2
    idx = np.arange(-s, s + 1)
    return np.exp(-2.0j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)


def dense_parity_frame(s):
    """Q = [E | O] as a dense d×d matrix, d = 2s+1, for cross-checks.

    Columns 0..s are δ_0 and (δ_n + δ_{-n})/√2, columns s+1..2s are
    (δ_n - δ_{-n})/√2, n = 1..s.
    """
    d = 2 * s + 1
    q = np.zeros((d, d))
    n = np.arange(1, s + 1)
    q[s, 0] = 1.0
    q[s + n, n] = q[s - n, n] = q[s + n, s + n] = np.sqrt(0.5)
    q[s - n, s + n] = -np.sqrt(0.5)
    return q

