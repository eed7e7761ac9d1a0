"""Argument rules: each is refused up front, with a ValueError that names
the argument and carries the rule's one message, wherever it is taken.

Integer arguments: a float is refused wherever an order, a count, a size or
an index is taken.  A bool is refused too, and a NumPy integer is accepted.
The other rules are a finite transform order, a positive, finite width, a
phase-point index in -s..s, and an argument on the expected lattice."""

import contextlib
import io
from types import SimpleNamespace

import numpy as np
import pytest

from finosc import (
    CoherentFrame,
    GaussianProfile,
    PhasePoint,
    RectangularProfile,
    Signal,
    apply_frft,
    basis_signal,
    closed_form_coordinate_transforms,
    coherent_deviation_table,
    coherent_expectation,
    coherent_frame,
    continuous_frft_oracle,
    deviation_report,
    frame_hamiltonian,
    frft_kernel,
    harper_hamiltonian,
    inner_product,
    overlap,
    theta_gaussian,
    hermite_gaussian,
    hermite_sample,
    make_lattice,
    mehta_function,
    oscillator_basis,
    rectangular_profile,
)
from finosc.cli import main


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
    "PhasePoint(a_idx)": (lambda lat, fr, b: PhasePoint(lat, 1.7, 0), "a_idx"),
    "PhasePoint": (lambda lat, fr, b: PhasePoint(lat, 0, 1.5), "b_idx"),
    "coherent_deviation_table": (
        lambda lat, fr, b: coherent_deviation_table(fr, [1.5], [1]),
        "entry of a_indices",
    ),
    "hermite_gaussian": (lambda lat, fr, b: hermite_gaussian(2.5, lat.points), "order"),
    "hermite_sample": (lambda lat, fr, b: hermite_sample(lat, 2.5), "order"),
    "mehta_function": (lambda lat, fr, b: mehta_function(lat, 2.5), "order"),
    "continuous_frft_oracle": (
        lambda lat, fr, b: continuous_frft_oracle(GaussianProfile(1.0), 0.5, lat, M=2.5),
        "M",
    ),
    # these raised a TypeError from inside NumPy
    "GaussianProfile.coefficients": (
        lambda lat, fr, b: GaussianProfile(1.0).coefficients(2.5), "M"
    ),
    "RectangularProfile.coefficients": (
        lambda lat, fr, b: rectangular_profile(lat).coefficients(2.5), "M"
    ),
    "SpectralBasis.vector": (lambda lat, fr, b: b.vector(1.5), "quantum number"),
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
        PhasePoint(lat, True, 0)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        make_lattice(True)
    with pytest.raises(ValueError, match="index must be an integer, got True"):
        basis_signal(lat, True)
    with pytest.raises(ValueError, match="index must be an integer, got True"):
        basis_signal(lat, 1)[True]
    with pytest.raises(ValueError, match="M must be an integer, got True"):
        rectangular_profile(lat).coefficients(True)
    assert basis_signal(lat, 1)[np.int64(1)] == 1.0
    assert np.array_equal(basis_signal(lat, np.int64(3)).amp, basis_signal(lat, 3).amp)
    fq = closed_form_coordinate_transforms(lat)[0]
    assert fq[np.int32(3)] == fq[3]
    p = PhasePoint(lat, np.int64(3), np.int32(-2))
    assert (p.a_idx, p.b_idx) == (3, -2) and type(p.a_idx) is int
    assert PhasePoint(lat, np.int64(3), 0).a_idx == 3
    assert np.array_equal(basis.vector(np.int64(2)).amp, basis.vectors[:, 2])
    for psi in (GaussianProfile(1.0), rectangular_profile(lat)):
        assert np.array_equal(psi.coefficients(np.int64(7)), psi.coefficients(7))
    assert np.array_equal(
        coherent_deviation_table(frame, np.array([1, 3]), [1]),
        coherent_deviation_table(frame, [1, 3], [1]),
    )



def _cli(*argv):
    """Run ``finosc`` with ``argv`` and raise the refusal it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code == 2 and err.getvalue().startswith("error: ")
    raise ValueError(err.getvalue()[len("error: "):-1])


def _signal(d):
    return Signal(make_lattice(d), np.ones(d))


def _point(d):
    return PhasePoint(make_lattice(d), 0, 0)


def _harper(d):
    return harper_hamiltonian(make_lattice(d))


_ORDER = "transform order must be a finite real number, got {!r}"
_WIDTH = "{} must be a positive, finite real number, got {!r}"
_ELSEWHERE = "{} must live on the d=21 lattice, got d=23"
_PLAIN = "{} must live on {}, got ndarray"


def _rule_cases():
    """(id, call, message): each call takes the d = 21 fixtures ``f`` and
    breaks one rule with one value."""
    cases = []
    for v in ("0.5", True, np.nan, np.inf):
        cases += [
            (f"frft_kernel-{v}", lambda f, v=v: frft_kernel(f.basis, v), _ORDER.format(v)),
            (
                f"continuous_frft_oracle-{v}",
                lambda f, v=v: continuous_frft_oracle(GaussianProfile(1.0), v, f.lat),
                _ORDER.format(v),
            ),
        ]
        if isinstance(v, float):  # the command line reads the order as a float
            cases.append((f"cli-frft-{v}", lambda f, v=v: _cli("frft", f"--alpha={v}"),
                          _ORDER.format(v)))
    for v in (True, "1", 0, -1, np.nan):
        cases += [
            (f"theta_gaussian-{v}", lambda f, v=v: theta_gaussian(f.lat, v),
             _WIDTH.format("kappa", v)),
            (f"GaussianProfile-{v}", lambda f, v=v: GaussianProfile(v),
             _WIDTH.format("width parameter", v)),
            (f"RectangularProfile-{v}", lambda f, v=v: RectangularProfile(v),
             _WIDTH.format("half width", v)),
        ]
        if not isinstance(v, (bool, str)):  # and the width as a float
            cases.append((f"cli-gauss-{v}", lambda f, v=v: _cli("frft", f"--signal=gauss:{v}"),
                          _WIDTH.format("kappa", float(v))))
    huge = 10**400  # an int beyond the float range
    cases += [
        ("frft_kernel-10**400", lambda f: frft_kernel(f.basis, huge), _ORDER.format(huge)),
        ("continuous_frft_oracle-10**400",
         lambda f: continuous_frft_oracle(GaussianProfile(1.0), huge, f.lat),
         _ORDER.format(huge)),
        ("theta_gaussian-10**400", lambda f: theta_gaussian(f.lat, huge),
         _WIDTH.format("kappa", huge)),
        ("GaussianProfile-10**400", lambda f: GaussianProfile(huge),
         _WIDTH.format("width parameter", huge)),
        ("RectangularProfile-10**400", lambda f: RectangularProfile(huge),
         _WIDTH.format("half width", huge)),
    ]
    return cases + [
        ("PhasePoint-s+1", lambda f: PhasePoint(f.lat, 0, f.lat.s + 1),
         "b_idx 11 outside index range -10..10"),
        ("coherent_deviation_table-s+1",
         lambda f: coherent_deviation_table(f.frame, [1], [f.lat.s + 1]),
         "entry of b_indices 11 outside index range -10..10"),
        ("apply_frft-ndarray", lambda f: apply_frft(frft_kernel(f.basis, 0.5), np.ones(21)),
         _PLAIN.format("signal", "the d=21 lattice")),
        ("inner_product-ndarray", lambda f: inner_product(np.ones(21), _signal(21)),
         _PLAIN.format("signal a", "a lattice")),
        ("CoherentFrame-ndarray", lambda f: CoherentFrame(np.ones(21)),
         _PLAIN.format("ground state", "a lattice")),
        ("inner_product-d=23", lambda f: inner_product(_signal(21), _signal(23)),
         _ELSEWHERE.format("signal b")),
        ("apply_frft-d=23", lambda f: apply_frft(frft_kernel(f.basis, 0.5), _signal(23)),
         _ELSEWHERE.format("signal")),
        ("CoherentFrame.state-d=23", lambda f: f.frame.state(_point(23)),
         _ELSEWHERE.format("phase point")),
        ("overlap-d=23", lambda f: overlap(f.frame, _point(21), _point(23)),
         _ELSEWHERE.format("phase point p2")),
        ("coherent_expectation-d=23",
         lambda f: coherent_expectation(frame_hamiltonian(f.lat), f.frame, _point(23)),
         _ELSEWHERE.format("phase point")),
        ("oscillator_basis-d=23", lambda f: oscillator_basis(_harper(23), f.lat, "harper"),
         _ELSEWHERE.format("operator")),
        ("deviation_report-d=23",
         lambda f: deviation_report(
             f.frame_basis, oscillator_basis(_harper(23), make_lattice(23), "harper"),
             np.zeros((21, 21)),
         ),
         _ELSEWHERE.format("Harper basis")),
    ]


_RULES = _rule_cases()


@pytest.mark.parametrize("call, message", [c[1:] for c in _RULES], ids=[c[0] for c in _RULES])
def test_each_rule_refuses_with_its_one_message(lat, frame, basis, frame_basis21, call, message):
    f = SimpleNamespace(lat=lat, frame=frame, basis=basis, frame_basis=frame_basis21)
    with pytest.raises(ValueError) as err:
        call(f)
    assert str(err.value) == message
