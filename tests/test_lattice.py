"""Grid bookkeeping: index conventions, periodic access, inner product."""

import dataclasses
from itertools import islice

import numpy as np
import pytest

from finosc import (
    Lattice,
    Signal,
    basis_signal,
    coordinate_signal,
    inner_product,
    make_lattice,
)


def test_make_lattice_basic(lat21):
    assert lat21.d == 21
    assert lat21.s == 10
    assert lat21.delta == pytest.approx(2.0 * np.pi / 21.0, rel=1e-15)
    assert lat21.sqrt_delta == pytest.approx(np.sqrt(lat21.delta))


def _refusals(d):
    """The messages with which the record and the factory refuse d."""
    messages = []
    for build in (Lattice, make_lattice):
        with pytest.raises(ValueError) as err:
            build(d)
        messages.append(str(err.value))
    return messages


@pytest.mark.parametrize("bad", [4, 2, 3, 1, -5, 0, -7])
def test_make_lattice_rejects_bad_sizes(bad):
    want = "odd" if bad % 2 == 0 else "at least 5"
    assert _refusals(bad) == [f"dimension must be {want}, got {bad}"] * 2


def test_make_lattice_rejects_non_integer():
    for bad in (21.5, 2.5, True):
        assert _refusals(bad) == [f"dimension must be an integer, got {bad!r}"] * 2


def test_points_are_centered_and_ascending(lat5):
    assert np.array_equal(lat5.indices, [-2, -1, 0, 1, 2])
    assert lat5.points[lat5.s] == 0.0
    assert np.all(np.diff(lat5.points) > 0)
    assert lat5.points[0] == -lat5.points[-1]


def test_wrap_and_pos(lat5):
    assert lat5.pos(-2) == 0
    assert lat5.pos(0) == 2
    assert lat5.pos(2) == 4
    assert lat5.wrap(3) == -2
    assert lat5.wrap(-3) == 2
    # both accept arrays
    assert np.array_equal(lat5.pos(np.array([-2, 7])), [0, 4])
    assert np.array_equal(lat5.wrap(np.array([3, -3, 0])), [-2, 2, 0])


def test_lattice_equality_is_by_dimension(lat5):
    assert lat5 == make_lattice(5)
    assert lat5 != make_lattice(7)
    assert hash(lat5) == hash(make_lattice(5))


@pytest.mark.parametrize("d", [5, 7, 21, 101, 3001])
def test_a_lattice_holds_its_dimension_alone(d):
    # d is the whole record: s and δ derive from it, bit for bit the values
    # the constructor once took beside it
    assert [f.name for f in dataclasses.fields(Lattice)] == ["d"]
    lat = Lattice(d)
    assert type(lat.s) is int and lat.s == (d - 1) // 2
    assert lat.delta.hex() == (2.0 * np.pi / d).hex()
    assert lat == make_lattice(d) and hash(lat) == hash(make_lattice(d))
    assert lat != Lattice(d + 2)
    with pytest.raises(TypeError):
        Lattice(d, (d - 1) // 2, 2.0 * np.pi / d)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.s = 0


def test_a_lattice_stores_its_checked_int():
    lat = Lattice(np.int64(21))
    assert type(lat.d) is int and lat == make_lattice(21)


def test_signal_periodic_indexing(lat5):
    sig = Signal(lat5, np.arange(5.0))
    for n in range(-2, 3):
        assert sig[n] == sig[n + 5]
        assert sig[n] == sig[n - 5]
    assert sig[0] == 2.0  # center of storage
    assert len(sig) == 5


@pytest.mark.parametrize("d", [5, 21])
def test_iterating_a_signal_yields_its_stored_values_once(d):
    # the periodic __getitem__ never raises IndexError, so without __iter__
    # iteration would not end; islice bounds it, so a regression fails here
    # rather than hanging
    sig = Signal(make_lattice(d), np.arange(float(d)))
    assert len(list(islice(iter(sig), d + 1))) == d
    assert np.array_equal(list(sig), sig.amp)
    assert np.asarray([sig, sig]).shape == (2, d)


def test_signal_rejects_wrong_length(lat5):
    with pytest.raises(ValueError):
        Signal(lat5, np.zeros(4))


def test_inner_product_conjugate_linear_first_slot(lat5):
    rng = np.random.default_rng(3)
    a = Signal(lat5, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    b = Signal(lat5, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    za = Signal(lat5, (2.0 + 1.0j) * a.amp)
    assert inner_product(za, b) == pytest.approx(
        np.conj(2.0 + 1.0j) * inner_product(a, b)
    )
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    assert inner_product(a, a).real == pytest.approx(a.norm() ** 2)


def test_inner_product_rejects_mixed_lattices(lat5, lat7):
    a = Signal(lat5, np.zeros(5))
    b = Signal(lat7, np.zeros(7))
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_basis_and_coordinate_signals(lat5):
    e = basis_signal(lat5, 1)
    assert e[1] == 1.0 and e.norm() == 1.0
    # index reduces periodically
    assert np.array_equal(basis_signal(lat5, 6).amp, e.amp)
    q = coordinate_signal(lat5)
    assert np.array_equal(q.amp, lat5.points)


def test_grid_arrays_are_built_once_and_read_only():
    lat = make_lattice(9)
    assert lat.indices is lat.indices
    assert lat.points is lat.points
    with pytest.raises(ValueError):
        lat.indices[0] = 0
    with pytest.raises(ValueError):
        lat.points[0] = 0.0
    with pytest.raises(ValueError):
        lat.points[...] *= 2.0
    assert np.array_equal(lat.indices, np.arange(-4, 5))
    assert np.array_equal(lat.points, np.arange(-4, 5) * np.sqrt(2.0 * np.pi / 9))
    # derived arrays are new and writable
    assert coordinate_signal(lat).amp.flags.writeable
