"""Centered Fourier operator, its projectors, and circulant algebra."""

import numpy as np
import pytest

from finosc import (
    Signal,
    circulant,
    closed_form_coordinate_transforms,
    coordinate_signal,
    dft_operator,
    equidistant_circulant,
    fourier_projectors,
    make_lattice,
)
from finosc.fourier import _root, _root_table, cyclic_windows

from conftest import naive_dft


@pytest.mark.parametrize("d", [5, 7, 21])
def test_dft_matches_definition(d):
    lat = make_lattice(d)
    F = dft_operator(lat)
    assert np.max(np.abs(F - naive_dft(d))) < 1e-15


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("d", [5, 21, 101, 201, 301, 1001])
def test_dft_is_the_exponential_of_the_reduced_phase(d, inverse):
    # each entry is gathered from the root of its own n·m mod d, computed by
    # the same arithmetic as the direct formula, so the two agree bit for bit
    lat = make_lattice(d)
    sign = 1.0 if inverse else -1.0
    n = lat.indices
    phase = np.exp(sign * 2j * np.pi * (np.outer(n, n) % d) / d)
    F = dft_operator(lat)
    assert np.array_equal((F.conj().T if inverse else F), phase / np.sqrt(d))


@pytest.mark.parametrize("d", [5, 21])
def test_dft_unitary_and_inverse(d):
    lat = make_lattice(d)
    F = dft_operator(lat)
    Fi = dft_operator(lat).conj().T
    assert np.max(np.abs(F @ Fi - np.eye(d))) < 1e-14


def test_dft_fourth_power_and_parity(lat21):
    F = dft_operator(lat21)
    F2 = F @ F
    # F² reverses the grid about the center
    reversal = np.eye(21)[::-1]
    assert np.max(np.abs(F2 - reversal)) < 1e-13
    assert np.max(np.abs(F2 @ F2 - np.eye(21))) < 1e-13


def test_projectors_resolve_identity(lat5):
    proj = fourier_projectors(lat5)
    F = dft_operator(lat5)
    total = sum(proj[m] for m in range(4))
    assert np.max(np.abs(total - np.eye(5))) < 1e-14
    for m in range(4):
        pm = proj[m]
        assert np.max(np.abs(pm @ pm - pm)) < 1e-14
        assert np.max(np.abs(F @ pm - (-1j) ** m * pm)) < 1e-13
        for k in range(m + 1, 4):
            assert np.max(np.abs(pm @ proj[k])) < 1e-14
    assert isinstance(proj, tuple) and len(proj) == 4


def _power_sum_projectors(F):
    """π_m = (1/4)·Σ_k i^{mk}·F^k from the dense powers of F, an oracle."""
    powers = [np.eye(len(F)), F, F @ F, F @ F @ F]
    return [sum((1j) ** (m * k) * powers[k] for k in range(4)) / 4.0 for m in range(4)]


@pytest.mark.parametrize("d", [5, 7, 21, 101])
def test_closed_form_projectors_equal_the_power_sum(d):
    lat = make_lattice(d)
    proj = fourier_projectors(lat)
    oracle = _power_sum_projectors(naive_dft(d))
    for m in range(4):
        assert proj[m].dtype == np.float64
        assert np.max(np.abs(proj[m] - oracle[m])) < 1e-13


@pytest.mark.parametrize("d", [5, 21, 51])
def test_coordinate_transform_closed_forms(d):
    lat = make_lattice(d)
    F = naive_dft(d)
    q = lat.points
    fq, fq2 = closed_form_coordinate_transforms(lat)
    assert np.max(np.abs(fq.amp - F @ q)) < 1e-12
    assert np.max(np.abs(fq2.amp - F @ q**2)) < 1e-11
    # both are d-periodic in j: the signals read any integer frequency at
    # its reduced integer, so a far frequency gives the same bits
    for j in (-lat.s, 0, 1, lat.s):
        for k in (1, -3, 10**12):
            assert fq[j + k * d] == fq[j] and fq2[j + k * d] == fq2[j]


def test_transform_of_coordinate_zero_frequency(lat21):
    fq, fq2 = closed_form_coordinate_transforms(lat21)
    assert fq[0] == 0.0
    want = (2.0 * np.pi / np.sqrt(21)) * 10 * 11 / 3.0
    assert fq2[0].real == pytest.approx(want)


def test_circulant_matrix_is_shift_structured(lat5):
    rng = np.random.default_rng(11)
    col = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    mat = circulant(lat5, col).mat
    for n in lat5.indices:
        for m in lat5.indices:
            assert mat[lat5.pos(n), lat5.pos(m)] == col[lat5.pos(n - m)]


@pytest.mark.parametrize("d", [5, 21, 101, 301])
def test_circulant_diagonalized_by_dft(d):
    lat = make_lattice(d)
    rng = np.random.default_rng(d)
    col = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    spec = circulant(lat, col)
    F = dft_operator(lat)
    rebuilt = F.conj().T @ np.diag(spec.eigenvalues()) @ F
    assert np.max(np.abs(spec.mat - rebuilt)) < 1e-12


def test_circulant_rejects_wrong_length(lat5):
    with pytest.raises(ValueError):
        circulant(lat5, np.zeros(4))
    with pytest.raises(ValueError, match=r"well length \(4,\) does not match d=5"):
        circulant(lat5, np.zeros(5), np.zeros(4))
    # a scalar well is the same on every site
    assert np.array_equal(circulant(lat5, np.zeros(5), 2.0).mat, 2.0 * np.eye(5))


@pytest.mark.parametrize("d", [5, 21, 101])
def test_well_plus_circulant_entries_and_rows(d):
    # entry (n, m) is w[n]·δ_nm + c[n - m], written out; a row gather reads
    # the same numbers bit for bit, and the record keeps no dense matrix:
    # each read builds a new one from (w, c)
    lat = make_lattice(d)
    rng = np.random.default_rng(d)
    col, well = rng.standard_normal(d), rng.standard_normal(d)
    spec = circulant(lat, col, well)
    n = lat.indices
    want = col[lat.pos(n[:, None] - n[None, :])] + np.diag(well)
    first, second = spec.mat, spec.mat
    assert np.array_equal(first, want) and np.array_equal(second, want)
    assert first is not second
    assert "mat" not in vars(spec)
    picks = np.array([0, -lat.s, lat.s, 1, -1])
    assert np.array_equal(spec.rows(picks), want[lat.pos(picks)])
    assert not np.any(circulant(lat, col).well)


@pytest.mark.parametrize("kind", ["real", "complex column", "complex well"])
@pytest.mark.parametrize("d", [5, 7, 21, 101])
def test_rows_are_the_index_gather(d, kind):
    # rows are windows of one array; they read what an index table gathers,
    # for indices in any order, repeated, negative or beyond -s..s
    lat = make_lattice(d)
    rng = np.random.default_rng(d)
    col, well = rng.standard_normal(d), rng.standard_normal(d)
    if kind == "complex column":
        col = col + 1j * rng.standard_normal(d)
    if kind == "complex well":
        well = well + 1j * rng.standard_normal(d)
    spec = circulant(lat, col, well)
    n = lat.indices
    for picks in (np.array([2, -lat.s, 0, 2, lat.s, -1, -1]),
                  np.array([lat.s + 1, -lat.s - 1, d + 2, -d, 0]),
                  n[::-1]):
        at = lat.pos(picks)
        want = col[lat.pos(picks[:, None] - n)].astype(np.result_type(col, well))
        want[np.arange(len(picks)), at] += well[at]
        got = spec.rows(picks)
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert np.array_equal(got, want)
    for sign in (-1, 1):
        table = cyclic_windows(lat, col, sign)
        assert not table.flags.writeable
        assert np.array_equal(table, col[lat.pos(n[:, None] + sign * n)])


@pytest.mark.parametrize("d", [5, 21])
def test_equidistant_circulant_spectrum(d):
    lat = make_lattice(d)
    spec = equidistant_circulant(lat)
    ev = np.sort(spec.eigenvalues().real)
    assert np.max(np.abs(spec.eigenvalues().imag)) < 1e-11
    assert np.max(np.abs(ev - np.arange(1, d + 1))) < 1e-11
    assert spec.first_column[lat.pos(0)] == pytest.approx((d + 1) / 2.0)


def test_circulant_applies_as_cyclic_convolution(lat5):
    rng = np.random.default_rng(2)
    col = rng.standard_normal(5)
    x = rng.standard_normal(5)
    out = Signal(lat5, circulant(lat5, col).mat @ x)
    for n in lat5.indices:
        want = sum(col[lat5.pos(n - m)] * x[lat5.pos(m)] for m in lat5.indices)
        assert out[n] == pytest.approx(want, abs=1e-12)


def test_coordinate_signal_round_trip(lat21):
    # F⁺F restores q exactly within round-off
    F = dft_operator(lat21)
    q = coordinate_signal(lat21).amp
    assert np.max(np.abs(F.conj().T @ (F @ q) - q)) < 1e-13


def test_root_tables_are_built_once_and_read_only():
    table = _root_table(7, -1.0)
    assert _root_table(7, -1.0) is table
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert np.array_equal(table, np.exp(-2j * np.pi * np.arange(7) / 7))
    # a gather is a new array: writing into it leaves the table alone
    out = _root(np.arange(-3, 4), 7, -1.0)
    out /= 2.0
    assert np.array_equal(_root_table(7, -1.0), np.exp(-2j * np.pi * np.arange(7) / 7))


def test_dft_has_no_inverse_flag(lat5):
    # F⁺ is dft_operator(lat).conj().T; there is no second way to build it
    with pytest.raises(TypeError):
        dft_operator(lat5, inverse=True)
