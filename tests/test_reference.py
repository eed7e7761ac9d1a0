"""Line-side references: Hermite-Gaussians, periodizations, the transform oracle."""

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from finosc import (
    GaussianProfile,
    PhasePoint,
    RectangularProfile,
    Signal,
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
    rectangular_profile,
    reference,
    spectral,
    theta_gaussian,
)
from math import factorial

from finosc.reference import _hermite_all, _hermite_rows, _sample_table


def hermite_oracle(m, x):
    """Ψ_m through the polynomial route, for cross-checking the recurrence."""
    coeff = np.zeros(m + 1)
    coeff[m] = 1.0
    norm = np.pi**0.25 * np.sqrt(2.0**m * factorial(m))
    return hermval(x, coeff) * np.exp(-0.5 * x * x) / norm


def hermite_table_loop(mmax, x):
    """Ψ_0..Ψ_mmax written row by row into one table: the recurrence's
    arithmetic in a separate loop, the reference for bitwise comparisons."""
    out = np.empty((mmax + 1,) + x.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    prev = np.zeros_like(x)
    for m in range(mmax):
        out[m + 1] = x * np.sqrt(2.0 / (m + 1)) * out[m] - np.sqrt(m / (m + 1.0)) * prev
        prev = out[m]
    return out


@pytest.mark.parametrize("block", [1, 7, 32, "m + 1"])
@pytest.mark.parametrize("m", [0, 1, 5, 50, 300])
def test_hermite_gaussian_is_the_table_row_bit_for_bit(m, block, monkeypatch):
    # the block recurrence does the arithmetic of a row-by-row table loop
    # in the same order, whatever the size of the blocks it writes
    monkeypatch.setattr(reference, "_BLOCK", m + 1 if block == "m + 1" else block)
    x = np.linspace(-25.0, 25.0, 2001)
    assert np.array_equal(hermite_gaussian(m, x), _hermite_all(m, x)[m])
    assert np.array_equal(_hermite_all(m, x), hermite_table_loop(m, x))
    grid = x[:2000].reshape(40, 50)
    assert np.array_equal(hermite_gaussian(m, grid), _hermite_all(m, grid)[m])
    assert hermite_gaussian(m, 1.5) == _hermite_all(m, np.array([1.5]))[m, 0]


@pytest.mark.parametrize("d", [5, 21, 101, 301])
def test_one_pass_hermite_rows_are_the_single_orders_bit_for_bit(d):
    lat = make_lattice(d)
    orders = (d - 1, 0, 3, (d - 1) // 2, 3)  # unsorted, with a repeat
    rows = _hermite_rows(orders, lat.points)
    assert rows.shape == (len(orders), d)
    table = _sample_table(lat)
    loop = hermite_table_loop(d - 1, lat.points)
    assert np.array_equal(table, lat.delta**0.25 * loop)
    for m, row in zip(orders, rows):
        assert np.array_equal(row, loop[m])
        assert np.array_equal(row, hermite_gaussian(m, lat.points))
        assert np.array_equal(lat.delta**0.25 * row, table[m])
    # the orders verify reads, on its grid, and at a scalar point
    x = np.linspace(-12.0, 12.0, 2001)
    loop = hermite_table_loop(300, x)
    for m, row in zip((5, 50, 300), _hermite_rows((5, 50, 300), x)):
        assert np.array_equal(row, loop[m])
    assert _hermite_rows((7,), np.array(1.5))[0] == hermite_gaussian(7, 1.5)


@pytest.mark.parametrize("block", [1, 7, 32, 38, 701])
def test_far_point_blocks_are_the_one_block_pass_bit_for_bit(block, monkeypatch):
    # past |x| ≈ 37.6 the rows carry exponents, rescaled by 2^512 at steps
    # k ≡ 0 mod 38 on this grid (int(256 / log2(1 + √2·70)) = 38): block 38
    # starts a block at every such step, and block 1 at every step.  The
    # near points are the plain loop; the far ones, whose start values
    # underflow, match a single block of all 701 orders
    x = np.linspace(-70.0, 70.0, 1401)
    whole = _hermite_all(700, x)
    monkeypatch.setattr(reference, "_BLOCK", block)
    table = _hermite_all(700, x)
    assert np.array_equal(table, whole)
    near = 0.5 * x * x <= 708.0
    assert np.array_equal(table[:, near], hermite_table_loop(700, x[near]))
    # just past its turning point √1401 ≈ 37.4, Ψ_700 lies between 1e-11
    # and 1e-2, far above its start value e^{-x²/2} < 3e-314: only rows
    # whose exponents were raised by 2^512 reach it
    edge = table[700, (np.abs(x) > 38.0) & (np.abs(x) < 40.0)]
    assert np.all(np.abs(edge) > 1e-12) and np.all(np.abs(edge) < 1e-1)
    rows = _hermite_rows((700, 38, 37, 38, 0), x)
    assert np.array_equal(rows, whole[[700, 38, 37, 38, 0]])
    firsts = [first for first, _ in reference._hermite_blocks(700, x)]
    assert firsts == list(range(0, 701, block))


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
    # the products decay like Gaussians, so the rectangle rule is spectrally
    # accurate on a grid that reaches past their tails
    x, dx = np.linspace(-12.0, 12.0, 24001, retstep=True)
    stack = np.stack([hermite_gaussian(m, x) for m in range(6)])
    gram = (stack @ stack.T) * dx
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_hermite_order_range():
    with pytest.raises(ValueError):
        hermite_gaussian(-1, 0.0)


@pytest.mark.parametrize("m", [700, 1000, 1500, 2000])
def test_high_orders_keep_unit_norm(m):
    # beyond |x| ≈ 37.6 the start value e^{-x²/2} underflows, yet these
    # orders are of unit size out to their turning points √(2m+1) ≤ 63.3; the
    # rectangle rule on [-70, 70] is spectrally accurate for the squares
    x, dx = np.linspace(-70.0, 70.0, 28001, retstep=True)
    row = hermite_gaussian(m, x)
    assert abs(float(np.sum(row * row)) * dx - 1.0) < 1e-12


def test_high_orders_stay_orthogonal():
    x, dx = np.linspace(-70.0, 70.0, 28001, retstep=True)
    low, high = _hermite_rows((1000, 1500), x)
    assert abs(float(np.sum(low * high)) * dx) < 1e-12


def test_high_order_at_the_grid_edge():
    # Ψ_1000 at the d = 1001 grid edge, where e^{-x²/2} is about 1e-341:
    # 40-digit mpmath evaluation of the same recurrence at the same x
    x = make_lattice(1001).points[-1]
    assert hermite_gaussian(1000, x) == pytest.approx(-5.080323388224087e-2, rel=1e-13)


def test_periodized_table_is_the_plain_recurrence_where_it_is_exact(monkeypatch):
    # the far images carry exponents; at every odd d <= 301 the wrap sums
    # match the same sums over the plain table loop, which lets e^{-x²/2}
    # underflow, to far below any value of interest
    def one_block(top, x):
        yield 0, hermite_table_loop(top, x)

    for d in range(5, 302, 2):
        lat = make_lattice(d)
        table = reference._periodized_table(lat, d - 1)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_hermite_blocks", one_block)
            loop = reference._periodized_table(lat, d - 1)
        assert np.max(np.abs(table - loop)) < 1e-250, d


def test_hermite_sample_scaling(lat21):
    hs = hermite_sample(lat21, 0)
    want = lat21.delta**0.25 * np.pi**-0.25 * np.exp(-0.5 * lat21.points**2)
    assert np.max(np.abs(hs.amp - want)) < 1e-16


@pytest.mark.parametrize("m", [0, 5, 20])
def test_hermite_sample_is_a_signal_of_the_scaled_samples(lat21, m):
    hs = hermite_sample(lat21, m)
    assert isinstance(hs, Signal) and hs.lattice == lat21
    assert np.array_equal(hs.amp, lat21.delta**0.25 * hermite_gaussian(m, lat21.points))


def test_displaced_sample_formula(lat21):
    p = PhasePoint(lat21, 4, -6)
    out = displaced_ground_sample(p).amp
    for k, x in enumerate(lat21.points):
        want = (
            lat21.delta**0.25
            * np.exp(-0.5j * p.alpha * p.beta)
            * np.exp(1j * p.beta * x)
            * hermite_gaussian(0, x - p.alpha)
        )
        assert out[k] == pytest.approx(want, abs=1e-15)


def test_deviation_table_frozen_entries(lat21):
    shifts = (1, 3, 6, 9)
    tab = coherent_deviation_table(coherent_frame(lat21), shifts, shifts)
    assert tab.shape == (4, 4)
    assert tab[0, 0] == pytest.approx(2.448945419613173e-10, rel=1e-9)
    assert tab[2, 2] == pytest.approx(3.640473295051802e-4, rel=1e-9)
    assert tab[3, 1] == pytest.approx(5.071983525294349e-2, rel=1e-9)
    # deviations grow with the displacement radius along the diagonal
    assert tab[0, 0] < tab[1, 1] < tab[2, 2] < tab[3, 3]


@pytest.mark.parametrize("d", [21, 101])
def test_deviation_table_equals_the_per_point_loop(d):
    # one broadcast over (a, b) against a state and a sample per point
    lat = make_lattice(d)
    frame = coherent_frame(lat)
    a_idx, b_idx = (1, 3, 6, 9, -4), (0, 3, -7, 9)
    tab = coherent_deviation_table(frame, a_idx, b_idx)
    sel = np.abs(lat.indices) <= 8
    for i, a in enumerate(a_idx):
        for j, b in enumerate(b_idx):
            p = PhasePoint(lat, a, b)
            disc = frame.state(p).amp
            cont = displaced_ground_sample(p).amp
            assert tab[i, j] == np.max(np.abs(disc[sel] - cont[sel]))


def test_deviation_table_rejects_points_off_the_grid(lat21):
    frame = coherent_frame(lat21)
    with pytest.raises(ValueError, match="outside index range"):
        coherent_deviation_table(frame, (1, 11), (0,))
    with pytest.raises(ValueError, match="outside index range"):
        coherent_deviation_table(frame, (0,), (-11,))


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
    ladder = ladder_states(coherent_frame(lat21))
    rep = deviation_report(frame_basis21, harper_basis21, ladder)
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
    ladder = ladder_states(coherent_frame(lat))
    rep = deviation_report(fb, hb, ladder)
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
            np.max(np.abs(ladder[m] - t)),
        ]
        got = [rep.delta_f[m], rep.delta_h[m], rep.delta_m[m], rep.delta_r[m]]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


@pytest.mark.parametrize("d", [5, 21, 51])
def test_deviation_report_reads_the_whole_tables_in_any_block_size(d, monkeypatch):
    # the report runs over blocks of orders; every step is per order, so it
    # reads the bits of the whole-table computation written out here
    lat = make_lattice(d)
    fb = oscillator_basis(frame_hamiltonian(lat).op, lat, "frame")
    hb = oscillator_basis(harper_hamiltonian(lat), lat, "harper")
    ladder = ladder_states(coherent_frame(lat))
    targets = _sample_table(lat)
    phi = reference._periodized_table(lat, d - 1)
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    phi[np.sum(phi * targets, axis=1) < 0.0] *= -1.0
    families = (fb.vectors.T, hb.vectors.T, phi, ladder)
    want = [np.max(np.abs(rows - targets), axis=1) for rows in families]
    for block in (1, 7, 32, d):
        monkeypatch.setattr(reference, "_BLOCK", block)
        rep = deviation_report(fb, hb, ladder)
        got = (rep.delta_f, rep.delta_h, rep.delta_m, rep.delta_r)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), block


def test_deviation_report_rejects_short_ladder(lat21, frame_basis21, harper_basis21):
    ladder = ladder_states(coherent_frame(lat21))[:5]
    with pytest.raises(ValueError, match=r"ladder as a \(21, 21\) array, got \(5, 21\)"):
        deviation_report(frame_basis21, harper_basis21, ladder)


def test_deviation_report_rejects_a_ladder_that_is_not_an_array(
    lat21, frame_basis21, harper_basis21
):
    # a list of rows, or of Signals, is refused before anything iterates it
    rows = list(ladder_states(coherent_frame(lat21)))
    signals = [Signal(lat21, row) for row in rows]
    for ladder in (rows, signals):
        with pytest.raises(ValueError, match=r"ladder as a \(21, 21\) array, got list"):
            deviation_report(frame_basis21, harper_basis21, ladder)


def test_deviation_report_rejects_swapped_bases(lat21, frame_basis21, harper_basis21):
    ladder = ladder_states(coherent_frame(lat21))
    # the delta_f column used to be Harper's, without a word
    want = r"expected a 'frame' and a 'harper' basis, got \('{}', '{}'\)"
    with pytest.raises(ValueError, match=want.format("harper", "frame")):
        deviation_report(harper_basis21, frame_basis21, ladder)
    with pytest.raises(ValueError, match=want.format("frame", "frame")):
        deviation_report(frame_basis21, frame_basis21, ladder)


def _sign_fix_refused(*args):
    raise AssertionError("a basis signed its vectors")


@pytest.mark.parametrize("d", [5, 21, 101])
def test_deviation_report_of_a_read_basis_is_that_of_it_unread(d, monkeypatch):
    # the report signs the held columns itself, by the rule a first read of
    # ``vectors`` applies, and that rule is its own fixed point
    lat = make_lattice(d)
    ladder = ladder_states(coherent_frame(lat))

    def bases():
        return (oscillator_basis(frame_hamiltonian(lat).op, lat, "frame"),
                oscillator_basis(harper_hamiltonian(lat), lat, "harper"))

    unread = bases()
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_signed", _sign_fix_refused)
        fresh = deviation_report(*unread, ladder)
    assert all(isinstance(b._vectors, spectral._Mirrored) for b in unread)
    read = bases()
    for b in read:
        b.vectors
    again = deviation_report(*read, ladder)
    for col in ("delta_f", "delta_h", "delta_m", "delta_r"):
        assert np.array_equal(getattr(fresh, col), getattr(again, col)), col


def test_deviation_report_rejects_a_harper_basis_of_another_size(lat21, frame_basis21):
    lat23 = make_lattice(23)
    hb23 = oscillator_basis(harper_hamiltonian(lat23), lat23, "harper")
    ladder = ladder_states(coherent_frame(lat21))
    with pytest.raises(ValueError, match="Harper basis has d=23, the frame basis d=21"):
        deviation_report(frame_basis21, hb23, ladder)


def test_deviation_report_rejects_a_ladder_of_another_lattice(frame_basis21, harper_basis21):
    ladder = ladder_states(coherent_frame(make_lattice(23)))[:21]
    with pytest.raises(ValueError, match=r"ladder as a \(21, 21\) array, got \(21, 23\)"):
        deviation_report(frame_basis21, harper_basis21, ladder)


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


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -1.0, -3.0, 0.0])
def test_gaussian_profile_refuses_a_bad_width(kappa):
    # the record refuses as the factory does, with the same message
    for build in (GaussianProfile, gaussian_profile):
        with pytest.raises(ValueError) as err:
            build(kappa)
        assert str(err.value) == f"width parameter must be positive and finite, got {kappa}"


@pytest.mark.parametrize("h", [np.nan, np.inf, -1.0, 0.0])
def test_rectangular_record_refuses_a_bad_half_width(h):
    with pytest.raises(ValueError, match="half width must be positive and finite"):
        RectangularProfile(h)


def test_profiles_store_their_checked_floats(lat21):
    assert type(GaussianProfile(2).kappa) is float
    assert type(RectangularProfile(np.float32(0.5)).half_width) is float
    assert rectangular_profile(lat21).half_width == 1.5 * lat21.sqrt_delta


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_oracle_refuses_a_non_finite_order(lat21, alpha):
    # the same refusal as frft_kernel's, before any coefficient is computed
    with pytest.raises(ValueError, match="transform order must be finite, got"):
        continuous_frft_oracle(gaussian_profile(1.0), alpha, lat21)


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


@pytest.mark.parametrize("d", [21, 101])
@pytest.mark.parametrize("kappa", [0.6, 1.0, 1.7])
def test_oracle_matches_the_gaussian_chirp(d, kappa):
    # closed-form transform of e^{-κx²/2} at φ = πα/2 (Namias 1980):
    # e^{iφ/2}·(cos φ + iκ sin φ)^{-1/2}·exp(-x²/2·(κ cos φ + i sin φ)/(cos φ + iκ sin φ));
    # the principal root is the continuous branch for |φ| < π
    lat = make_lattice(d)
    x = lat.points
    for alpha in (-1.9, -0.7, 0.5, 1.3, 1.9):
        phi = 0.5 * np.pi * alpha
        c, s = np.cos(phi), np.sin(phi)
        den = c + 1j * kappa * s
        chirp = np.exp(0.5j * phi) / np.sqrt(den) * np.exp(
            -0.5 * x * x * (kappa * c + 1j * s) / den
        )
        out = continuous_frft_oracle(gaussian_profile(kappa), alpha, lat).amp
        assert np.max(np.abs(out - lat.delta**0.25 * chirp)) < 1e-12


def test_rectangle_coefficients_match_fine_quadrature():
    # trapezoid rule on [-h, h], with the orders from the three-term
    # recurrence accumulated one row at a time (8.5e-12 measured)
    rect = rectangular_profile(make_lattice(101))
    M = 300
    x, dx = np.linspace(-rect.half_width, rect.half_width, 200001, retstep=True)
    weights = np.full(x.shape, dx)
    weights[[0, -1]] *= 0.5
    want = np.empty(M)
    prev, cur = np.zeros_like(x), np.pi**-0.25 * np.exp(-0.5 * x * x)
    for m in range(M):
        want[m] = weights @ cur
        prev, cur = cur, x * np.sqrt(2.0 / (m + 1)) * cur - np.sqrt(m / (m + 1.0)) * prev
    assert np.max(np.abs(rect.coefficients(M) - want)) < 1e-10


def test_oracle_validates_order_count(lat5):
    with pytest.raises(ValueError):
        continuous_frft_oracle(gaussian_profile(1.0), 0.0, lat5, M=0)


@pytest.mark.parametrize(
    "profile", [lambda lat: gaussian_profile(1.0), rectangular_profile],
    ids=["gaussian", "rectangular"],
)
@pytest.mark.parametrize("M", [0, -3])
def test_profile_coefficients_refuse_a_non_positive_count(lat21, profile, M):
    # these raised IndexError or "max() arg is an empty sequence"
    with pytest.raises(ValueError, match=f"^need at least one Hermite order, got M={M}$"):
        profile(lat21).coefficients(M)
