"""Periodized Gaussians: both series routes, the theta function, the ground state."""

import numpy as np
import pytest

from finosc import (
    Signal,
    dft_operator,
    ground_state,
    jacobi_theta3,
    make_lattice,
    theta_gaussian,
)
from finosc.thetagauss import frequency_series, spatial_series


def normalizer(lat):
    """𝐍 = ‖𝐠₁‖, computed as ``ground_state`` computes it."""
    a = theta_gaussian(lat, 1.0).amp
    return float(np.sqrt(np.sum(a * a)))


def periodized_gaussian(lat, kappa, terms=80):
    """Direct wrap sum with a wide window, used as the reference."""
    period = lat.d * lat.sqrt_delta
    u = lat.points
    total = np.zeros(lat.d)
    for k in range(-terms, terms + 1):
        total += np.exp(-kappa * (u + k * period) ** 2 / 2.0)
    return total


@pytest.mark.parametrize("d", [5, 21])
@pytest.mark.parametrize("kappa", [0.25, 1.0, 10.0])
def test_matches_direct_periodization(d, kappa):
    lat = make_lattice(d)
    tg = theta_gaussian(lat, kappa)
    ref = periodized_gaussian(lat, kappa)
    assert np.max(np.abs(tg.amp - ref)) < 1e-14


def test_wide_gaussian_uses_other_series_and_agrees(lat21):
    # kappa·d < 1 switches the evaluation to the transformed series; the
    # result must still be the same wrap sum
    tg = theta_gaussian(lat21, 1.0 / 50.0)
    ref = periodized_gaussian(lat21, 1.0 / 50.0, terms=200)
    assert np.max(np.abs(tg.amp - ref)) < 1e-13


def test_samples_are_even_and_positive(lat21):
    tg = theta_gaussian(lat21, 1.0)
    assert np.all(tg.amp > 0)
    assert np.array_equal(tg.amp, tg.amp[::-1])
    # periodic access
    assert tg[22] == tg[1]


def test_tail_bound_is_honest(lat5):
    tg = theta_gaussian(lat5, 1.0)
    ref = periodized_gaussian(lat5, 1.0)
    _, _, tail = spatial_series(lat5, 1.0, 1e-18)
    assert tail > 0
    assert np.max(np.abs(tg.amp - ref)) <= 10.0 * tail


@pytest.mark.parametrize("series", [frequency_series, spatial_series])
@pytest.mark.parametrize("d, kappa", [(123, 73.5), (121, 13.9), (5, 0.01)])
def test_series_tails_cover_their_truncation(series, d, kappa):
    # slowly decaying terms: the geometric ratio of the omitted tail is
    # above 0.5 here, so a ratio capped at 0.5 understated the tail
    lat = make_lattice(d)
    amp, _, tail = series(lat, kappa, 1e-8)
    ref = periodized_gaussian(lat, kappa, terms=400)
    assert np.max(np.abs(amp - ref)) <= tail


def test_rejects_bad_parameters(lat5):
    with pytest.raises(ValueError):
        theta_gaussian(lat5, 0.0)
    with pytest.raises(ValueError):
        theta_gaussian(lat5, -1.0)


@pytest.mark.parametrize("d", [5, 21, 101])
@pytest.mark.parametrize("kappa", [0.001, 0.01, 0.2, 1.0, 7.3])
def test_samples_are_the_chosen_series_at_a_fixed_tolerance(d, kappa):
    # the spatial sum from κd = 1 up, the frequency sum below, each truncated
    # at a first omitted term of 1e-18
    lat = make_lattice(d)
    tg = theta_gaussian(lat, kappa)
    series = spatial_series if kappa * d >= 1.0 else frequency_series
    amp = series(lat, kappa, 1e-18)[0]
    assert isinstance(tg, Signal) and tg.lattice == lat
    assert np.array_equal(tg.amp, amp)


# 1e308·π overflows the spatial rate, so its samples would be NaN; at 1e-310
# the frequency scale 1/√(κd) is finite but its square is not
@pytest.mark.parametrize("kappa", [np.inf, np.nan, 1e308, 1e-310])
def test_rejects_non_finite_width(lat5, kappa):
    with pytest.raises(ValueError, match="finite"):
        theta_gaussian(lat5, kappa)


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0, 10.0])
def test_fourier_maps_width_to_reciprocal(lat21, kappa):
    F = dft_operator(lat21)
    lhs = F @ theta_gaussian(lat21, kappa).amp
    rhs = theta_gaussian(lat21, 1.0 / kappa).amp / np.sqrt(kappa)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("d", [5, 21])
def test_square_expands_over_half_and_double_width(d):
    lat = make_lattice(d)
    g1 = theta_gaussian(lat, 1.0)
    g2 = theta_gaussian(lat, 2.0)
    gh = theta_gaussian(lat, 0.5)
    a = 2.0 * g2[0] - gh[0]
    b = g2[0] - gh[0]
    for n in lat.indices:
        rhs = a * g2[n] - b * gh[2 * n]
        assert g1[n] ** 2 == pytest.approx(rhs, abs=1e-13)


def test_center_values_at_21(lat21):
    # the width-2 sample is 1 to machine precision at the center, the
    # width-1/2 one exceeds it by about 1e-14
    g2c = theta_gaussian(lat21, 2.0)[0]
    ghc = theta_gaussian(lat21, 0.5)[0]
    assert abs(g2c - 1.0) < 1e-15
    assert 0.0 < ghc - 1.0 < 1e-13


def test_theta3_against_direct_sum():
    rng = np.random.default_rng(5)
    for z in rng.uniform(-1.0, 1.0, size=4):
        for t in (0.3, 1.0, 2.5):
            direct = 1.0 + 2.0 * sum(
                np.exp(-np.pi * t * a * a) * np.cos(2.0 * np.pi * a * z)
                for a in range(1, 60)
            )
            assert jacobi_theta3(z, t) == pytest.approx(direct, abs=1e-14)


def test_theta3_modular_inversion():
    # θ₃(0, t) = t^{-1/2}·θ₃(0, 1/t)
    for t in (0.2, 0.7, 1.3):
        lhs = jacobi_theta3(0.0, t)
        rhs = jacobi_theta3(0.0, 1.0 / t) / np.sqrt(t)
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("d", [5, 21, 101])
def test_theta3_on_an_array_is_the_scalar_calls_bit_for_bit(d):
    t = 1.0 / d
    z = np.arange(-(d // 2), d // 2 + 1) / d
    vals = jacobi_theta3(z, t)
    assert isinstance(vals, np.ndarray) and vals.shape == z.shape
    assert np.array_equal(vals, [jacobi_theta3(float(x), t) for x in z])
    # a scalar returns a float; a 2-D array keeps its shape
    assert isinstance(jacobi_theta3(float(z[1]), t), float)
    grid = np.random.default_rng(d).uniform(-1.0, 1.0, size=(3, 4))
    vals = jacobi_theta3(grid, t)
    assert vals.shape == (3, 4)
    assert np.array_equal(vals.ravel(), [jacobi_theta3(float(x), t) for x in grid.ravel()])


def test_theta3_rejects_bad_nome():
    # the positive-width rule's one message, as for every other width
    for t in (0.0, -1.0, True, "1", np.nan, np.inf):
        with pytest.raises(ValueError) as err:
            jacobi_theta3(0.0, t)
        assert str(err.value) == (
            f"theta nome parameter t must be a positive, finite real number, got {t!r}"
        )


def test_ground_state_properties(lat21):
    g = ground_state(lat21)
    assert isinstance(g, Signal) and g.lattice == lat21
    assert np.linalg.norm(g.amp) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(g.amp, g.amp[::-1])
    F = dft_operator(lat21)
    assert np.max(np.abs(F @ g.amp - g.amp)) < 1e-12
    # the normalizer approaches (d/2)^(1/4) from above as the wrap tail fades
    norm = normalizer(lat21)
    assert norm - (21.0 / 2.0) ** 0.25 == pytest.approx(1.6875e-14, abs=5e-15)
    assert np.max(np.abs(g.amp * norm - theta_gaussian(lat21, 1.0).amp)) < 1e-15
    assert np.array_equal(g.amp, theta_gaussian(lat21, 1.0).amp / norm)


def test_ground_state_small_d_normalizer(lat5):
    g = ground_state(lat5)
    # at d=5 the wrap contribution is visible in the normalizer
    assert normalizer(lat5) > (5.0 / 2.0) ** 0.25
    assert np.linalg.norm(g.amp) == pytest.approx(1.0, abs=1e-15)
