"""Integer arguments: a float is refused up front, with a ValueError that
names the argument, wherever an order, a count, a size or an index is
taken.  A bool is refused too, and a NumPy integer is accepted."""

import numpy as np
import pytest

from finosc import (
    PhasePoint,
    basis_signal,
    coherent_deviation_table,
    coherent_frame,
    continuous_frft_oracle,
    gaussian_profile,
    harper_hamiltonian,
    hermite_gaussian,
    hermite_sample,
    ladder_states,
    make_lattice,
    mehta_function,
    oscillator_basis,
    phase_point,
    transform_of_coordinate_at,
    transform_of_coordinate_squared_at,
)


@pytest.fixture(scope="module")
def lat():
    return make_lattice(21)


@pytest.fixture(scope="module")
def frame(lat):
    return coherent_frame(lat)


@pytest.fixture(scope="module")
def basis(lat):
    return oscillator_basis(harper_hamiltonian(lat), lat, "harper")


# (entry point, call with a non-integer argument, the name the error gives)
_CALLS = {
    "phase_point": (lambda lat, fr, b: phase_point(lat, 1.7, 0), "a_idx"),
    "PhasePoint": (lambda lat, fr, b: PhasePoint(lat, 0, 1.5), "b_idx"),
    "coherent_deviation_table": (
        lambda lat, fr, b: coherent_deviation_table(fr, [1.5], [1]),
        "entry of a_indices",
    ),
    "hermite_gaussian": (lambda lat, fr, b: hermite_gaussian(2.5, lat.points), "order"),
    "hermite_sample": (lambda lat, fr, b: hermite_sample(lat, 2.5), "order"),
    "mehta_function": (lambda lat, fr, b: mehta_function(lat, 2.5), "order"),
    "ladder_states": (lambda lat, fr, b: ladder_states(fr, 2.5), "count"),
    "continuous_frft_oracle": (
        lambda lat, fr, b: continuous_frft_oracle(gaussian_profile(1.0), 0.5, lat, M=2.5),
        "M",
    ),
    "SpectralBasis.vector": (lambda lat, fr, b: b.vector(1.5), "quantum number"),
    "transform_of_coordinate_at": (
        lambda lat, fr, b: transform_of_coordinate_at(lat, 2.5), "frequency"
    ),
    "transform_of_coordinate_squared_at": (
        lambda lat, fr, b: transform_of_coordinate_squared_at(lat, 2.5), "frequency"
    ),
    "basis_signal": (lambda lat, fr, b: basis_signal(lat, 2.5), "index"),
    "Signal.__getitem__": (lambda lat, fr, b: basis_signal(lat, 1)[2.5], "index"),
}


@pytest.mark.parametrize("entry", list(_CALLS))
def test_non_integer_argument_is_refused_by_name(lat, frame, basis, entry):
    call, name = _CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(lat, frame, basis)


def test_bool_is_refused_and_numpy_integers_are_accepted(lat, frame, basis):
    with pytest.raises(ValueError, match="a_idx must be an integer, got True"):
        phase_point(lat, True, 0)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        make_lattice(True)
    with pytest.raises(ValueError, match="frequency must be an integer, got True"):
        transform_of_coordinate_at(lat, True)
    with pytest.raises(ValueError, match="frequency must be an integer, got True"):
        transform_of_coordinate_squared_at(lat, True)
    with pytest.raises(ValueError, match="index must be an integer, got True"):
        basis_signal(lat, True)
    with pytest.raises(ValueError, match="index must be an integer, got True"):
        basis_signal(lat, 1)[True]
    assert basis_signal(lat, 1)[np.int64(1)] == 1.0
    assert np.array_equal(basis_signal(lat, np.int64(3)).amp, basis_signal(lat, 3).amp)
    assert transform_of_coordinate_at(lat, np.int32(3)) == transform_of_coordinate_at(lat, 3)
    p = phase_point(lat, np.int64(3), np.int32(-2))
    assert (p.a_idx, p.b_idx) == (3, -2) and type(p.a_idx) is int
    assert PhasePoint(lat, np.int64(3), 0).a_idx == 3
    assert np.array_equal(basis.vector(np.int64(2)).amp, basis.vectors[:, 2])
    assert len(ladder_states(frame, np.int64(3))) == 3
    assert np.array_equal(
        coherent_deviation_table(frame, np.array([1, 3]), [1]),
        coherent_deviation_table(frame, [1, 3], [1]),
    )
