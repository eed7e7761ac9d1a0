"""The invariant suite runner."""

from dataclasses import replace

import numpy as np
import pytest

from finosc import Operator, SpectralBasis, deviation_report, run_suite
from finosc.verify import _CHECKS, _Ctx, _ground_vector_bound


def test_suite_is_green_on_small_grids():
    lines = []
    passed, failed = run_suite([5, 7], emit=lines.append)
    assert failed == 0
    assert passed == len(lines) > 50
    assert all(line.startswith("ok   d=") for line in lines)


def test_suite_reports_sizes_and_names():
    lines = []
    run_suite([5], emit=lines.append)
    assert any("lattice" in line for line in lines)
    assert any("frft" in line for line in lines)
    # the headline comparison needs a larger grid
    assert not any("comparative accuracy" in line for line in lines)


def test_suite_gates_checks_by_size():
    lines21 = []
    run_suite([21], emit=lines21.append)
    assert any("comparative accuracy" in line for line in lines21)


def test_suite_is_green_at_51():
    # pytest turns RuntimeWarning into an error (pyproject.toml), so an
    # overflow or invalid operation inside any check counts as a failure
    lines = []
    passed, failed = run_suite([51], emit=lines.append)
    assert failed == 0, [line for line in lines if line.startswith("FAIL")]
    assert passed == len(lines)


@pytest.mark.parametrize("d", [81, 91, 95, 97, 99])
def test_fourier_checks_hold_their_fixed_bounds_below_101(d):
    # these sizes failed while F's phases were formed from the unreduced n·m:
    # F[q²] at d = 81, 91, 97, 99 and the circulant rebuild at d = 95, 97, 99
    checks = {name: fn for name, fn, _ in _CHECKS}
    ctx = _Ctx(d)
    checks["fourier: coordinate transforms"](ctx)
    checks["fourier: circulant diagonalization"](ctx)


def test_suite_is_green_at_151_and_301():
    # above d = 101 the Fourier and displacement bounds grow with d by a
    # rounding model.  The displacements still form their phases from the
    # unreduced b·n, and the group law exceeds its fixed 1e-12 at d = 301
    lines = []
    passed, failed = run_suite([151, 301], emit=lines.append)
    assert failed == 0, [line for line in lines if line.startswith("FAIL")]
    assert passed == len(lines)


def _deviation_check():
    return {name: fn for name, fn, _ in _CHECKS}["reference: deviation report"]


@pytest.mark.parametrize("d", [13, 15, 17, 19])
def test_deviation_report_passes_where_the_envelope_failed(d):
    # the theta envelope max(1e-6, 10·e^{-π(s+1)²/d}) undercut the frame
    # ground vector here; the a posteriori bound covers it
    ctx = _Ctx(d)
    _deviation_check()(ctx)
    ratio = deviation_report(
        ctx.lat, ctx.frame_basis, ctx.harper_basis, ctx.ladder
    ).delta_f[0] / _ground_vector_bound(ctx)
    assert ratio < 0.1


@pytest.mark.parametrize("d", [5, 21, 51])
def test_deviation_report_catches_a_ground_vector_off_by_twice_its_bound(d):
    ctx = _Ctx(d)
    bound = _ground_vector_bound(ctx)
    basis = ctx.frame_basis
    vecs = basis.vectors.copy()
    vecs[ctx.lat.s, 0] += 2.0 * bound
    ctx._cache["frame_basis"] = SpectralBasis(
        basis.lattice, basis.kind, basis.values, vecs,
        basis.alternations, basis.parities, basis.fourier_indices,
    )
    with pytest.raises(AssertionError, match="Δ\\(0\\)"):
        _deviation_check()(ctx)


@pytest.mark.parametrize("d", [21, 51])
def test_deviation_report_catches_a_fourier_invariant_change_of_h(d):
    # the quartic well q⁴ + F q⁴ F⁺ commutes with F and keeps the parity
    # split, so the basis audits accept the perturbed H, whose ground vector
    # moves by about 2e-5; the a posteriori bound follows H, and only the
    # fixed 1e-6 cap on Δ_f(0) sees the change
    ctx = _Ctx(d)
    fh = ctx.fh
    well = np.diag(ctx.lat.points ** 4)
    swap = (ctx.fmat @ well @ ctx.fmat.conj().T).real
    mat = fh.op.mat + 1e-4 * (well + swap)
    ctx._cache["fh"] = replace(fh, op=Operator(ctx.lat, mat))
    assert ctx.fh.op is not fh.op
    rep = deviation_report(ctx.lat, ctx.frame_basis, ctx.harper_basis, ctx.ladder)
    assert rep.delta_f[0] < _ground_vector_bound(ctx)
    with pytest.raises(AssertionError, match="above 1e-6"):
        _deviation_check()(ctx)
