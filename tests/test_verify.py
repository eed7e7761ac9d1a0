"""The invariant suite runner."""

from finosc import run_suite


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
