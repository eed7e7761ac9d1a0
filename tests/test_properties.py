"""Property tests: transform and Hamiltonian laws on random odd sizes and orders.

Sizes are drawn from the odd d in [5, 151]; each (d, kind) basis is built
once per session.  Examples are derandomized, so a run is reproducible.
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from finosc import (  # noqa: E402
    Signal,
    apply_frft,
    dft_operator,
    frame_hamiltonian,
    frft_kernel,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
)

from conftest import empty_cache_copy  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

sizes = st.integers(2, 75).map(lambda s: 2 * s + 1)
kinds = st.sampled_from(["frame", "harper"])
orders = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)


@lru_cache(maxsize=None)
def _frame_hamiltonian(d):
    return frame_hamiltonian(make_lattice(d)).op.mat


@lru_cache(maxsize=None)
def _basis(d, kind):
    lat = make_lattice(d)
    h = _frame_hamiltonian(d) if kind == "frame" else harper_hamiltonian(lat)
    return oscillator_basis(h, lat, kind)


def _signal(lat, seed):
    rng = np.random.default_rng(seed)
    return Signal(lat, rng.standard_normal(lat.d) + 1j * rng.standard_normal(lat.d))


def _frft(basis, alpha, sig):
    return apply_frft(frft_kernel(basis, alpha), sig)


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, b=orders, seed=seeds)
def test_orders_add(d, kind, a, b, seed):
    basis = empty_cache_copy(_basis(d, kind))
    x = _signal(basis.lattice, seed)
    lhs = _frft(basis, a, _frft(basis, b, x)).amp
    rhs = _frft(basis, a + b, x).amp
    assert np.linalg.norm(lhs - rhs) < 1e-12 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, seed=seeds)
def test_norm_is_preserved(d, kind, a, seed):
    basis = empty_cache_copy(_basis(d, kind))
    x = _signal(basis.lattice, seed)
    assert abs(_frft(basis, a, x).norm() - x.norm()) < 1e-13 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, seed=seeds)
def test_order_one_is_the_centred_dft(d, kind, seed):
    basis = empty_cache_copy(_basis(d, kind))
    x = _signal(basis.lattice, seed)
    want = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x.amp))) / np.sqrt(d)
    assert np.linalg.norm(_frft(basis, 1.0, x).amp - want) < 1e-12 * x.norm()


@SETTINGS
@given(d=sizes, kind=kinds, a=orders, seed=seeds)
def test_factored_apply_equals_dense_apply(d, kind, a, seed):
    basis = empty_cache_copy(_basis(d, kind))
    x = _signal(basis.lattice, seed)
    kern = frft_kernel(basis, a)
    factored = apply_frft(kern, x).amp
    assert "op" not in kern.__dict__
    dense = apply_frft(frft_kernel(basis, a), x).amp  # a hit builds the kernel
    assert "op" in kern.__dict__
    assert np.linalg.norm(factored - dense) < 1e-13 * x.norm()


@SETTINGS
@given(d=sizes)
def test_frame_hamiltonian_commutes_with_fourier(d):
    h = _frame_hamiltonian(d)
    f = dft_operator(make_lattice(d)).mat
    assert np.linalg.norm(f @ h - h @ f) < 1e-12 * np.linalg.norm(h)
