"""The package namespace: the invariant suite loads on first use only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finosc
from finosc import cli

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
