"""Line-side references: Hermite-Gaussians, periodizations, the transform oracle."""

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from finosc import (
    coherent_deviation_table,
    coherent_frame,
    continuous_frft_oracle,
    deviation_report,
    displaced_ground_sample,
    frame_hamiltonian,
    gaussian_profile,
    ground_state,
    harper_hamiltonian,
    hermite_gaussian,
    hermite_sample,
    ladder_states,
    make_lattice,
    mehta_function,
    oscillator_basis,
    phase_point,
    rectangular_profile,
    theta_gaussian,
)
from math import factorial


def hermite_oracle(m, x):
    """Ψ_m through the polynomial route, for cross-checking the recurrence."""
    coeff = np.zeros(m + 1)
    coeff[m] = 1.0
    norm = np.pi**0.25 * np.sqrt(2.0**m * factorial(m))
    return hermval(x, coeff) * np.exp(-0.5 * x * x) / norm


@pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 20])
def test_hermite_matches_polynomial_route(m):
    x = np.linspace(-8.0, 8.0, 161)
    assert np.max(np.abs(hermite_gaussian(m, x) - hermite_oracle(m, x))) < 1e-12


def test_hermite_scalar_and_bounds():
    v = hermite_gaussian(0, 0.0)
    assert isinstance(v, float)
    assert v == pytest.approx(np.pi**-0.25)
    x = np.linspace(-30.0, 30.0, 2001)
    for m in (0, 3, 10, 40):
        assert np.max(np.abs(hermite_gaussian(m, x))) < 1.0


def test_hermite_quadrature_orthonormality():
    x = np.linspace(-12.0, 12.0, 24001)
    stack = np.stack([hermite_gaussian(m, x) for m in range(6)])
    gram = np.trapezoid(stack[:, None, :] * stack[None, :, :], x, axis=2)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_hermite_order_range():
    with pytest.raises(ValueError):
        hermite_gaussian(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_gaussian(301, 0.0)


def test_hermite_sample_scaling(lat21):
    hs = hermite_sample(lat21, 0)
    want = lat21.delta**0.25 * np.pi**-0.25 * np.exp(-0.5 * lat21.points**2)
    assert np.max(np.abs(hs.amp - want)) < 1e-16
    assert hs.m == 0


def test_displaced_sample_formula(lat21):
    p = phase_point(lat21, 4, -6)
    out = displaced_ground_sample(lat21, p).amp
    for k, x in enumerate(lat21.points):
        want = (
            lat21.delta**0.25
            * np.exp(-0.5j * p.alpha * p.beta)
            * np.exp(1j * p.beta * x)
            * hermite_gaussian(0, x - p.alpha)
        )
        assert out[k] == pytest.approx(want, abs=1e-15)


def test_displaced_sample_rejects_foreign_point(lat5, lat21):
    with pytest.raises(ValueError):
        displaced_ground_sample(lat21, phase_point(lat5, 0, 0))


def test_deviation_table_frozen_entries(lat21):
    shifts = (1, 3, 6, 9)
    tab = coherent_deviation_table(coherent_frame(lat21), shifts, shifts)
    assert tab.shape == (4, 4)
    assert tab[0, 0] == pytest.approx(2.448945419613173e-10, rel=1e-9)
    assert tab[2, 2] == pytest.approx(3.640473295051802e-4, rel=1e-9)
    assert tab[3, 1] == pytest.approx(5.071983525294349e-2, rel=1e-9)
    # deviations grow with the displacement radius along the diagonal
    assert tab[0, 0] < tab[1, 1] < tab[2, 2] < tab[3, 3]


def test_mehta_against_direct_wrap_sum(lat21):
    for m in (0, 1, 4, 9):
        phi = mehta_function(lat21, m).amp
        brute = np.zeros(21)
        for ell in range(-40, 41):
            brute += hermite_gaussian(
                m, (ell * 21 + lat21.indices) * lat21.sqrt_delta
            )
        assert np.max(np.abs(phi - brute)) < 1e-15


def test_mehta_zeroth_is_the_periodic_gaussian(lat21):
    phi = mehta_function(lat21, 0).amp
    want = np.pi**-0.25 * theta_gaussian(lat21, 1.0).amp
    assert np.max(np.abs(phi - want)) < 1e-15


def test_mehta_order_range(lat5):
    with pytest.raises(ValueError):
        mehta_function(lat5, -1)


def test_deviation_report_anchors(lat21, frame_basis21, harper_basis21):
    ladder = ladder_states(coherent_frame(lat21), 21)
    rep = deviation_report(lat21, frame_basis21, harper_basis21, ladder)
    for arr in (rep.delta_f, rep.delta_h, rep.delta_m, rep.delta_r):
        assert arr.shape == (21,)
        assert np.all(arr >= 0.0)
    assert rep.delta_f[0] == pytest.approx(6.639387432061383e-7, rel=1e-6)
    assert rep.delta_h[0] == pytest.approx(3.2356023102282916e-3, rel=1e-6)
    # the periodized sample and the ladder both start at the ground state
    assert rep.delta_m[0] < 1e-7
    assert rep.delta_r[0] == pytest.approx(rep.delta_m[0], rel=1e-10)
    # the frame basis wins everywhere except at the top of the spectrum
    assert int(np.sum(rep.delta_f < rep.delta_h)) == 20
    assert np.all(rep.delta_f[:13] < rep.delta_h[:13])


@pytest.mark.parametrize("d", [21, 51])
def test_deviation_report_equals_the_per_order_loop(d):
    lat = make_lattice(d)
    fb = oscillator_basis(frame_hamiltonian(lat).op, lat, "frame")
    hb = oscillator_basis(harper_hamiltonian(lat), lat, "harper")
    ladder = ladder_states(coherent_frame(lat), d)
    rep = deviation_report(lat, fb, hb, ladder)
    for m in range(d):
        t = hermite_sample(lat, m).amp
        phi = mehta_function(lat, m).amp
        phi = phi / np.linalg.norm(phi)
        if float(phi @ t) < 0.0:
            phi = -phi
        want = [
            np.max(np.abs(fb.vectors[:, m] - t)),
            np.max(np.abs(hb.vectors[:, m] - t)),
            np.max(np.abs(phi - t)),
            np.max(np.abs(ladder[m].amp - t)),
        ]
        got = [rep.delta_f[m], rep.delta_h[m], rep.delta_m[m], rep.delta_r[m]]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


def test_deviation_report_rejects_short_ladder(lat21, frame_basis21, harper_basis21):
    ladder = ladder_states(coherent_frame(lat21), 5)
    with pytest.raises(ValueError):
        deviation_report(lat21, frame_basis21, harper_basis21, ladder)


def test_profiles():
    lat = make_lattice(21)
    g = gaussian_profile(2.0)
    assert g(0.0) == pytest.approx(1.0)
    assert g(1.0) == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        gaussian_profile(0.0)
    r = rectangular_profile(lat)
    vals = r(lat.points)
    inside = np.abs(lat.indices) <= 1
    assert np.array_equal(vals, inside.astype(float))


def test_oracle_reproduces_an_in_span_profile(lat21):
    # the unit-width Gaussian is exactly the lowest basis function, so both
    # the identity and the full transform come back at machine precision
    g = gaussian_profile(1.0)
    want = lat21.delta**0.25 * np.exp(-0.5 * lat21.points**2)
    for alpha in (0.0, 1.0, 2.0):
        out = continuous_frft_oracle(g, alpha, lat21).amp
        ref = want if alpha != 2.0 else want[:]
        assert np.max(np.abs(out - ref)) < 1e-12


def test_oracle_quarter_turn_of_the_rectangle(lat21):
    # closed-form transform of the indicator: √(2/π)·sin(h·x)/x
    rect = rectangular_profile(lat21)
    h = 1.5 * lat21.sqrt_delta
    x = lat21.points
    safe = np.where(x == 0.0, 1.0, x)
    closed = np.sqrt(2.0 / np.pi) * np.where(
        x == 0.0, h, np.sin(h * safe) / safe
    )
    out = continuous_frft_oracle(rect, 1.0, lat21).amp
    assert np.max(np.abs(out - lat21.delta**0.25 * closed)) < 2e-3


def test_oracle_truncation_floor_for_the_rectangle(lat21):
    # the jump keeps the Hermite expansion from converging fast; the
    # identity transform shows the truncation error directly
    rect = rectangular_profile(lat21)
    out = continuous_frft_oracle(rect, 0.0, lat21).amp
    err = np.max(np.abs(out - lat21.delta**0.25 * rect(lat21.points)))
    assert 1e-3 < err < 0.2


def test_oracle_scalar_profile_fallback(lat5):
    # a profile that only accepts scalars still works through the loop path
    def scalar_only(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar only")
        return np.exp(-0.5 * x * x)

    out = continuous_frft_oracle(scalar_only, 0.0, lat5).amp
    want = lat5.delta**0.25 * np.exp(-0.5 * lat5.points**2)
    assert np.max(np.abs(out - want)) < 1e-12


def test_oracle_validates_order_count(lat5):
    with pytest.raises(ValueError):
        continuous_frft_oracle(gaussian_profile(1.0), 0.0, lat5, M=0)
    with pytest.raises(ValueError):
        continuous_frft_oracle(gaussian_profile(1.0), 0.0, lat5, M=302)
