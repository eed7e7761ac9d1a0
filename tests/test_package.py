"""The package namespace: the invariant suite loads on first use only, and
every dense operator it builds is a plain (d, d) array."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finosc
from finosc import (
    PhasePoint,
    cli,
    coherent_frame,
    dft_operator,
    displacement,
    fourier_projectors,
    frame_quantize,
    frft_kernel,
    harmonic_symbol,
    harper_hamiltonian,
    make_lattice,
    momentum_operator,
    oscillator_basis,
    position_operator,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_the_suite_unloaded():
    # a fresh interpreter: this one has loaded the suite through other tests
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = "import sys, finosc, finosc.cli; print('finosc.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_run_suite_is_the_suite_entry_point():
    assert finosc.run_suite is finosc.verify.run_suite


def test_star_import_binds_run_suite():
    names = {}
    exec("from finosc import *", names)
    assert names["run_suite"] is finosc.verify.run_suite


def test_every_exported_name_is_bound():
    assert [name for name in finosc.__all__ if not hasattr(finosc, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        finosc.no_such_name


def test_verify_command_calls_run_suite_through_the_package(monkeypatch, tmp_path):
    # a wrapper bound in the package namespace is the one the command calls
    calls = []
    original = finosc.run_suite

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(finosc, "run_suite", counting)
    assert cli.main(["verify", "--d", "5", "--out", str(tmp_path / "v.txt")]) == 0
    assert len(calls) == 1


def _kernel(lat):
    basis = oscillator_basis(harper_hamiltonian(lat), lat, "harper")
    return frft_kernel(basis, 0.3).mat


# each dense constructor, with the dtype of the array it returns
_DENSE = {
    "dft_operator": (dft_operator, np.complex128),
    **{f"fourier_projectors[{m}]": (lambda lat, m=m: fourier_projectors(lat)[m], np.float64)
       for m in range(4)},
    "position_operator": (position_operator, np.float64),
    "momentum_operator": (momentum_operator, np.complex128),
    "displacement": (lambda lat: displacement(PhasePoint(lat, 1, -2)), np.complex128),
    "frame_operator": (lambda lat: coherent_frame(lat).frame_operator(), np.complex128),
    "frame_quantize": (lambda lat: frame_quantize(coherent_frame(lat), harmonic_symbol),
                       np.complex128),
    "FrftKernel.mat": (_kernel, np.complex128),
}


@pytest.mark.parametrize("name", list(_DENSE))
@pytest.mark.parametrize("d", [5, 21])
def test_dense_constructors_return_plain_arrays(d, name):
    build, dtype = _DENSE[name]
    mat = build(make_lattice(d))
    assert isinstance(mat, np.ndarray)
    assert mat.shape == (d, d)
    assert mat.dtype == dtype
