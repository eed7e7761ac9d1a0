"""Fractional transform families from the two eigenbases."""

import numpy as np
import pytest

from finosc import (
    Signal,
    apply_frft,
    dft_operator,
    frft_kernel,
    harper_hamiltonian,
    oscillator_basis,
    rectangular_signal,
)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.7, 2.9])
def test_kernels_are_unitary(frame_basis21, harper_basis21, alpha):
    for basis in (frame_basis21, harper_basis21):
        K = frft_kernel(basis, alpha).op.mat
        assert np.max(np.abs(K.conj().T @ K - np.eye(21))) < 1e-12


def test_order_zero_is_the_identity(frame_basis21):
    K = frft_kernel(frame_basis21, 0.0).op.mat
    assert np.max(np.abs(K - np.eye(21))) < 1e-12


def test_order_one_is_the_fourier_operator(lat21, frame_basis21, harper_basis21):
    F = dft_operator(lat21).mat
    for basis in (frame_basis21, harper_basis21):
        K = frft_kernel(basis, 1.0).op.mat
        assert np.max(np.abs(K - F)) < 1e-9


def test_order_two_reverses_the_grid(frame_basis21):
    K = frft_kernel(frame_basis21, 2.0).op.mat
    assert np.max(np.abs(K - np.eye(21)[::-1])) < 1e-9


def test_order_four_closes_the_cycle(harper_basis21):
    K = frft_kernel(harper_basis21, 4.0).op.mat
    assert np.max(np.abs(K - np.eye(21))) < 1e-12


@pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.5, 0.5), (1.0, 0.75), (1.5, 2.0)])
def test_orders_add(frame_basis21, harper_basis21, a, b):
    for basis in (frame_basis21, harper_basis21):
        Ka = frft_kernel(basis, a).op.mat
        Kb = frft_kernel(basis, b).op.mat
        Kab = frft_kernel(basis, a + b).op.mat
        assert np.max(np.abs(Ka @ Kb - Kab)) < 1e-12


def test_period_four(frame_basis21):
    for alpha in (0.5, 1.25):
        K1 = frft_kernel(frame_basis21, alpha).op.mat
        K2 = frft_kernel(frame_basis21, alpha + 4.0).op.mat
        assert np.max(np.abs(K1 - K2)) < 1e-12


def test_kernel_cache_returns_the_same_object(frame_basis21):
    assert frft_kernel(frame_basis21, 0.5) is frft_kernel(frame_basis21, 0.5)
    assert frft_kernel(frame_basis21, 0.5) is not frft_kernel(frame_basis21, 0.75)


def test_eigenvectors_pick_up_their_phase(frame_basis21):
    K = frft_kernel(frame_basis21, 0.6).op.mat
    for m in (0, 1, 5, 12):
        v = frame_basis21.vectors[:, m]
        want = np.exp(-0.5j * np.pi * m * 0.6) * v
        assert np.max(np.abs(K @ v - want)) < 1e-13


def test_families_disagree_at_fractional_orders(frame_basis21, harper_basis21):
    Kf = frft_kernel(frame_basis21, 0.5).op.mat
    Kh = frft_kernel(harper_basis21, 0.5).op.mat
    assert np.max(np.abs(Kf - Kh)) > 0.01


def test_apply_checks_the_lattice(lat5, frame_basis21):
    k = frft_kernel(frame_basis21, 0.5)
    with pytest.raises(ValueError):
        apply_frft(k, Signal(lat5, np.ones(5)))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_kernel_refuses_non_finite_orders(lat5, alpha):
    basis = oscillator_basis(harper_hamiltonian(lat5), lat5, "harper")
    with pytest.raises(ValueError, match="finite"):
        frft_kernel(basis, alpha)
    assert basis._kernel_cache == {}


def test_rectangular_signal_support(lat21):
    r = rectangular_signal(lat21)
    assert r[0] == 1.0 and r[1] == 1.0 and r[-1] == 1.0
    assert r[2] == 0.0
    assert float(np.sum(r.amp)) == 3.0


def test_full_turn_of_the_rectangle_has_a_closed_form(lat21, frame_basis21):
    # F applied to the three-point indicator: (1 + 2cos(2πk/d))/√d
    out = apply_frft(frft_kernel(frame_basis21, 1.0), rectangular_signal(lat21))
    k = lat21.indices
    want = (1.0 + 2.0 * np.cos(2.0 * np.pi * k / 21.0)) / np.sqrt(21.0)
    assert np.max(np.abs(out.amp - want)) < 1e-9


def test_half_turn_energy_is_preserved(frame_basis21, harper_basis21, lat21):
    sig = rectangular_signal(lat21)
    for basis in (frame_basis21, harper_basis21):
        out = apply_frft(frft_kernel(basis, 0.5), sig)
        assert np.linalg.norm(out.amp) == pytest.approx(
            np.linalg.norm(sig.amp), abs=1e-12
        )
