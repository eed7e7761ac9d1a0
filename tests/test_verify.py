"""The invariant suite runner."""

import pytest

from finosc import run_suite
from finosc.verify import _CHECKS, _Ctx


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
