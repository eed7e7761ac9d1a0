"""Fractional transform families from the two eigenbases."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from finosc import (
    Signal,
    SpectralBasis,
    apply_frft,
    continuous_frft_oracle,
    dft_operator,
    frame_hamiltonian,
    frft_kernel,
    gaussian_profile,
    harper_hamiltonian,
    make_lattice,
    oscillator_basis,
    rectangular_signal,
    reference,
)
from finosc.cli import main
from finosc.frft import CACHE_SIZE, _phases
from finosc.reference import _eigenphases


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


def test_a_repeated_order_reuses_its_phases(frame_basis21):
    first, again = frft_kernel(frame_basis21, 0.5), frft_kernel(frame_basis21, 0.5)
    assert again.phases is first.phases
    assert (again.basis, again.alpha) == (first.basis, first.alpha) == (frame_basis21, 0.5)
    assert frft_kernel(frame_basis21, 0.75).phases is not first.phases


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
    frft_kernel(basis, 0.5)
    size = _phases.cache_info().currsize
    with pytest.raises(ValueError, match="finite"):
        frft_kernel(basis, alpha)
    assert _phases.cache_info().currsize == size
    _phases.cache_clear()
    with pytest.raises(ValueError, match="finite"):
        frft_kernel(basis, alpha)
    assert _phases.cache_info().currsize == 0


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


# ---------------------------------------------------------------- cache and factored apply

def _fresh_harper_basis(lat):
    return oscillator_basis(harper_hamiltonian(lat), lat, "harper")


def _held_arrays(kern):
    return [v for v in vars(kern).values() if isinstance(v, np.ndarray)]


def test_first_request_builds_no_dense_matrix(lat21):
    kern = frft_kernel(_fresh_harper_basis(lat21), 0.3)
    assert [a.shape for a in _held_arrays(kern)] == [(21,)]


def test_second_request_shares_the_phases_and_the_output(lat21):
    basis = _fresh_harper_basis(lat21)
    x = Signal(lat21, np.random.default_rng(3).standard_normal(21) + 0.5j)
    first = frft_kernel(basis, 0.3)
    out = apply_frft(first, x).amp
    second = frft_kernel(basis, 0.3)
    assert second.phases is first.phases
    assert np.array_equal(apply_frft(second, x).amp, out)
    first.op  # the dense oracle is built on read and not kept
    assert set(vars(first)) == {"basis", "alpha", "phases"}


def _phases_of(basis, orders):
    return [frft_kernel(basis, alpha).phases for alpha in orders]


def test_cache_keeps_the_last_eight_orders(lat21):
    basis = _fresh_harper_basis(lat21)
    orders = [0.1 * k - 2.0 for k in range(50)]
    _phases.cache_clear()
    held = _phases_of(basis, orders)
    assert CACHE_SIZE == 8
    assert _phases.cache_info().currsize == CACHE_SIZE
    # oldest first, so no hit moves an order ahead of one still to be read
    again = _phases_of(basis, orders[-CACHE_SIZE:])
    assert all(a is b for a, b in zip(again, held[-CACHE_SIZE:]))
    assert frft_kernel(basis, orders[-CACHE_SIZE - 1]).phases is not held[-CACHE_SIZE - 1]


def test_kernels_and_cached_phases_hold_no_array_larger_than_d(lat21):
    basis = _fresh_harper_basis(lat21)
    x = Signal(lat21, np.ones(21))
    for k in range(50):
        for _ in range(2):  # a miss, then a hit
            kern = frft_kernel(basis, 0.1 * k - 2.0)
            apply_frft(kern, x)
            assert max(a.size for a in _held_arrays(kern)) <= 21
    assert kern.phases.shape == (21,) and not kern.phases.flags.writeable


def test_a_hit_keeps_its_order_from_eviction(lat21):
    basis = _fresh_harper_basis(lat21)
    _phases.cache_clear()
    held = _phases_of(basis, [0.1 * k for k in range(CACHE_SIZE)])
    frft_kernel(basis, 0.0)  # now the most recently used
    frft_kernel(basis, 5.0)  # evicts order 0.1, the least recently used
    assert _phases.cache_info().currsize == CACHE_SIZE
    assert frft_kernel(basis, 0.0).phases is held[0]
    assert frft_kernel(basis, 0.1).phases is not held[1]


def test_an_evicted_order_comes_back_equal(lat21):
    basis = _fresh_harper_basis(lat21)
    _phases.cache_clear()
    first = frft_kernel(basis, 0.37)
    mat = first.op.mat
    _phases_of(basis, [1.0 + 0.1 * k for k in range(CACHE_SIZE)])
    again = frft_kernel(basis, 0.37)
    assert again.phases is not first.phases
    assert np.array_equal(again.phases, first.phases)
    assert np.max(np.abs(again.op.mat - mat)) < 1e-13


def test_one_order_shares_its_read_only_phases_across_bases(frame_basis21, harper_basis21):
    frame = frft_kernel(frame_basis21, 0.61)
    harper = frft_kernel(harper_basis21, 0.61)
    assert harper.phases is frame.phases
    assert not frame.phases.flags.writeable
    with pytest.raises(ValueError):
        frame.phases[0] = 0.0
    # the apply reads the shared phases and leaves them as they were
    apply_frft(frame, Signal(frame_basis21.lattice, np.arange(21.0) + 1j))
    assert np.array_equal(harper.phases, _eigenphases(0.61, 21))


def test_a_basis_is_freed_once_it_and_its_kernels_go(lat21):
    # no reference cycle: reference counting alone frees the basis
    basis = _fresh_harper_basis(lat21)
    alive = weakref.ref(basis)
    kernels = [frft_kernel(basis, 0.1 * k) for k in range(3)]
    apply_frft(kernels[0], Signal(lat21, np.ones(21)))
    gc.disable()
    try:
        del basis
        assert alive() is not None  # its kernels still hold it
        del kernels
        assert alive() is None
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def bases_by_size():
    out = {}
    for d in (5, 21, 151, 301):
        lat = make_lattice(d)
        out[d] = {
            "frame": oscillator_basis(frame_hamiltonian(lat).op, lat, "frame"),
            "harper": oscillator_basis(harper_hamiltonian(lat), lat, "harper"),
        }
    return out


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 151, 301])
def test_factored_apply_matches_the_dense_kernel(bases_by_size, d, kind):
    basis = bases_by_size[d][kind]
    rng = np.random.default_rng(d)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    signals = [Signal(basis.lattice, z), Signal(basis.lattice, z.real.copy())]
    for alpha in (-1.3, 0.0, 0.37, 1.0, 2.5, 5.1):
        # each apply requests its kernel: a miss first, then hits
        outs = [apply_frft(frft_kernel(basis, alpha), x).amp
                for _ in range(2) for x in signals]
        mat = frft_kernel(basis, alpha).op.mat
        for x, out in zip(signals * 2, outs):
            assert np.linalg.norm(out - mat @ x.amp) < 1e-13 * np.linalg.norm(x.amp)


@pytest.mark.parametrize("alpha", [4000.5, 2.0**30 + 0.5, -(2.0**30) + 0.5])
def test_large_orders_act_as_their_residue_mod_four(alpha):
    # formed from the raw order, the phase e^{-iπmα/2} loses about ε·|α|·m:
    # at d = 101 the frame kernel at 2³⁰ + 0.5 was off order 0.5 by 4.6e-6·‖x‖
    lat = make_lattice(101)
    rng = np.random.default_rng(4)
    x = Signal(lat, rng.standard_normal(101) + 1j * rng.standard_normal(101))
    for basis in (
        oscillator_basis(frame_hamiltonian(lat).op, lat, "frame"),
        oscillator_basis(harper_hamiltonian(lat), lat, "harper"),
    ):
        want = apply_frft(frft_kernel(basis, 0.5), x).amp
        got = apply_frft(frft_kernel(basis, alpha), x).amp
        assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(x.amp)
    prof = gaussian_profile(2.0)
    want = continuous_frft_oracle(prof, 0.5, lat).amp
    got = continuous_frft_oracle(prof, alpha, lat).amp
    assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha", [0.37, -1.3, 2.0**30 + 0.5])
def test_kernel_phases_are_the_shared_eigenphases(frame_basis21, alpha):
    phases = frft_kernel(frame_basis21, alpha).phases
    assert np.array_equal(phases, _eigenphases(alpha, 21))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kernel_oracle_and_cli_refuse_a_non_finite_order_alike(harper_basis21, capsys, alpha):
    message = f"transform order must be finite, got {alpha}"
    lat = harper_basis21.lattice
    with pytest.raises(ValueError) as kernel:
        frft_kernel(harper_basis21, alpha)
    with pytest.raises(ValueError) as oracle:
        continuous_frft_oracle(gaussian_profile(1.0), alpha, lat)
    assert str(kernel.value) == str(oracle.value) == message
    assert main(["frft", f"--alpha={alpha}"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _outputs(basis, lat):
    rng = np.random.default_rng(7)
    signals = [
        Signal(lat, rng.standard_normal(lat.d) + 1j * rng.standard_normal(lat.d)),
        Signal(lat, rng.standard_normal(lat.d)),
        rectangular_signal(lat),
    ]
    outs = []
    for alpha in (0.0, 1.0, 2.0, -1.3, 0.37, 5.1):
        kern = frft_kernel(basis, alpha)
        outs.append(kern.op.mat)
        outs += [apply_frft(kern, sig).amp for sig in signals]
    return outs


@pytest.mark.parametrize("kind", ["frame", "harper"])
@pytest.mark.parametrize("d", [5, 21, 101, 151])
def test_the_transform_is_bitwise_blind_to_column_signs(d, kind):
    # a negated column negates its coefficient row exactly, and both factors
    # of each product of the second call, so no bit of a sum moves
    lat = make_lattice(d)
    op = frame_hamiltonian(lat).op if kind == "frame" else harper_hamiltonian(lat)
    basis = oscillator_basis(op, lat, kind)
    held = basis._held_vectors()
    unsigned = _outputs(basis, lat)
    flips = np.where(np.random.default_rng(d).random(d) < 0.5, -1.0, 1.0)
    twin = SpectralBasis(lat, kind, basis.values, held * flips,
                         basis.alternations, basis.parities, basis.fourier_indices)
    signed = basis.vectors
    assert np.any(signed != held)
    for outs in (_outputs(twin, lat), _outputs(basis, lat)):
        for a, b in zip(outs, unsigned):
            assert np.array_equal(a.view(np.float64), b.view(np.float64))


def test_spectrum_and_the_transform_run_no_hermite_pass(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a Hermite pass ran")

    monkeypatch.setattr(reference, "_hermite_blocks", refused)
    for method in ("frame", "harper"):
        assert main(["spectrum", "--d", "51", "--method", method]) == 0
    assert main(["frft", "--d", "51", "--alpha", "0.7", "--signal", "gauss:1.3"]) == 0
    lat = make_lattice(51)
    basis = oscillator_basis(harper_hamiltonian(lat), lat, "harper")
    apply_frft(frft_kernel(basis, 0.3), rectangular_signal(lat))
    frft_kernel(basis, 0.3).op
    capsys.readouterr()


def test_a_transform_running_beside_the_first_read_keeps_its_bits(lat21):
    # the first read builds the signed V in a new array, so a transform that
    # holds the old one never reads a half-signed matrix; more threads than
    # cores, switching often
    sig = rectangular_signal(lat21)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            basis = oscillator_basis(frame_hamiltonian(lat21).op, lat21, "frame")
            kern = frft_kernel(basis, 0.37)
            want = apply_frft(kern, sig).amp
            start = threading.Barrier(4, timeout=10)
            outs = []

            def transform():
                start.wait()
                outs.extend(apply_frft(kern, sig).amp for _ in range(200))

            workers = [threading.Thread(target=transform) for _ in range(3)]
            for t in workers:
                t.start()
            start.wait()
            basis.vectors
            for t in workers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in workers)
            assert len(outs) == 600 and all(np.array_equal(out, want) for out in outs)
    finally:
        sys.setswitchinterval(switch)
