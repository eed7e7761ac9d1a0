"""Finite harmonic oscillators on a centered odd grid.

The library builds the d-point configuration space, its centered Fourier
transform, periodized Gaussians and the coherent tight frame they generate,
the frame-quantized oscillator Hamiltonian with its circulant structure, the
Harper finite-difference oscillator, labeled eigenbases for both, and the
fractional Fourier transforms those bases define, together with continuous
references (Hermite functions, a fractional transform from exact Hermite
coefficients) used to measure how close the discrete constructions come to
the line.

The invariant suite (``finosc.verify``) is loaded on first use: reading
``finosc.run_suite`` or ``finosc.verify`` imports it, so ``import finosc``
and every command but ``verify`` skip compiling it.
"""

from .fourier import (
    CirculantSpec,
    circulant,
    closed_form_coordinate_transforms,
    dft_operator,
    equidistant_circulant,
    fourier_projectors,
)
from .frft import FrftKernel, apply_frft, frft_kernel, rectangular_signal
from .lattice import (
    Lattice,
    Signal,
    basis_signal,
    coordinate_signal,
    inner_product,
    make_lattice,
)
from .phasespace import (
    CoherentFrame,
    PhasePoint,
    coherent_frame,
    displacement,
    momentum_operator,
    overlap,
    position_operator,
)
from .quantize import (
    FrameHamiltonian,
    coherent_expectation,
    frame_hamiltonian,
    frame_quantize,
    harmonic_symbol,
    ladder_states,
    raising_operator,
    raising_symbol,
    trace_ratio,
    wielandt_hoffman_gap,
)
from .reference import (
    DeviationReport,
    GaussianProfile,
    RectangularProfile,
    coherent_deviation_table,
    continuous_frft_oracle,
    deviation_report,
    displaced_ground_sample,
    hermite_gaussian,
    hermite_sample,
    mehta_function,
    rectangular_profile,
)
from .spectral import (
    ConvergenceError,
    SpectralBasis,
    eigh,
    harper_hamiltonian,
    oscillator_basis,
    sign_alternations,
)
from .thetagauss import (
    ground_state,
    jacobi_theta3,
    theta_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantSpec",
    "CoherentFrame",
    "ConvergenceError",
    "DeviationReport",
    "FrameHamiltonian",
    "FrftKernel",
    "GaussianProfile",
    "Lattice",
    "PhasePoint",
    "RectangularProfile",
    "Signal",
    "SpectralBasis",
    "apply_frft",
    "basis_signal",
    "circulant",
    "closed_form_coordinate_transforms",
    "coherent_deviation_table",
    "coherent_expectation",
    "coherent_frame",
    "continuous_frft_oracle",
    "coordinate_signal",
    "deviation_report",
    "dft_operator",
    "displaced_ground_sample",
    "displacement",
    "eigh",
    "equidistant_circulant",
    "fourier_projectors",
    "frame_hamiltonian",
    "frame_quantize",
    "frft_kernel",
    "ground_state",
    "harmonic_symbol",
    "harper_hamiltonian",
    "hermite_gaussian",
    "hermite_sample",
    "inner_product",
    "jacobi_theta3",
    "ladder_states",
    "make_lattice",
    "mehta_function",
    "momentum_operator",
    "oscillator_basis",
    "overlap",
    "position_operator",
    "raising_operator",
    "raising_symbol",
    "rectangular_profile",
    "rectangular_signal",
    "run_suite",
    "sign_alternations",
    "theta_gaussian",
    "trace_ratio",
    "wielandt_hoffman_gap",
]


def __getattr__(name):
    # PEP 562: the suite is imported on first use and then bound in this
    # namespace, so later lookups (and anything that rebinds the name, such
    # as a tracer's wrapper) go straight through the package
    if name in ("run_suite", "verify"):
        import importlib

        verify = importlib.import_module(".verify", __name__)
        globals()["run_suite"] = verify.run_suite
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
