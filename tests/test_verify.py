"""The invariant suite runner."""

import re
from dataclasses import replace

import numpy as np
import pytest

from finosc import (
    CirculantSpec,
    Signal,
    SpectralBasis,
    circulant,
    deviation_report,
    frft,
    quantize,
    run_suite,
    verify,
)
from finosc.cli import main
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


# the checks whose reading grows with d unless each phase comes from its
# reduced integer, or whose bound is relative to the scale of what it measures
_SIZE_SENSITIVE = [
    "fourier: transform unitary",
    "fourier: fourth power is identity",
    "fourier: square reverses the grid",
    "fourier: root-of-unity sums",
    "fourier: coordinate transforms",
    "fourier: circulant diagonalization",
    "fourier: equidistant circulant",
    "phasespace: momentum operator",
    "phasespace: momentum convolution form",
    "phasespace: displacement group law",
    "phasespace: wraparound sign rule",
]


def _check(name):
    return {n: fn for n, fn, _ in _CHECKS}[name]


def _check_id(name):
    return name.split(": ")[1].replace(" ", "-")


@pytest.mark.parametrize("d", [81, 91, 95, 97, 99, 601])
@pytest.mark.parametrize("name", _SIZE_SENSITIVE, ids=_check_id)
def test_size_sensitive_checks_hold_their_bounds(name, d):
    # while F's phases were formed from the unreduced n·m, F[q²] failed a
    # fixed 1e-12 at d = 81, 91, 97, 99 and the circulant rebuild at d = 95,
    # 97, 99; at d = 601 the displacement laws needed a size model
    _check(name)(_Ctx(d))


@pytest.mark.parametrize(
    "name",
    ["fourier: equidistant circulant", "phasespace: momentum operator"],
    ids=_check_id,
)
def test_scale_relative_checks_hold_at_1001(name):
    # absolute bounds of 1e-11 on the spectrum and 1e-13 on ‖P - P⁺‖ failed
    # here: both readings grow with the scale of the operator
    _check(name)(_Ctx(1001))


def test_suite_is_green_at_151_and_301():
    # every bound is fixed or relative to the scale of what the check
    # measures; none branches on d
    lines = []
    passed, failed = run_suite([151, 301], emit=lines.append)
    assert failed == 0, [line for line in lines if line.startswith("FAIL")]
    assert passed == len(lines)


def _deviation_check():
    return _check("reference: deviation report")


@pytest.mark.parametrize("d", [13, 15, 17, 19])
def test_deviation_report_passes_where_the_envelope_failed(d):
    # the theta envelope max(1e-6, 10·e^{-π(s+1)²/d}) undercut the frame
    # ground vector here; the a posteriori bound covers it
    ctx = _Ctx(d)
    _deviation_check()(ctx)
    ratio = deviation_report(
        ctx.frame_basis, ctx.harper_basis, ctx.ladder
    ).delta_f[0] / _ground_vector_bound(ctx)
    assert ratio < 0.1


@pytest.mark.parametrize("d", [5, 21, 51])
def test_deviation_report_catches_a_ground_vector_off_by_twice_its_bound(d):
    ctx = _Ctx(d)
    bound = _ground_vector_bound(ctx)
    basis = ctx.frame_basis
    vecs = basis.vectors.copy()
    vecs[ctx.lat.s, 0] += 2.0 * bound
    ctx.frame_basis = SpectralBasis(
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
    # fixed 1e-6 cap on Δ_f(0) sees the change.  F q⁴ F⁺ is a circulant,
    # so H stays a record: q⁴ joins the well, and column pos(0) of the
    # dense F q⁴ F⁺, its first column, joins the hop
    ctx = _Ctx(d)
    fh = ctx.fh
    quartic = ctx.lat.points ** 4
    swap = ((ctx.fmat * quartic) @ ctx.fmat.conj().T)[:, ctx.lat.pos(0)].real
    col, well = fh.op.first_column + 1e-4 * swap, fh.op.well + 1e-4 * quartic
    ctx.fh = replace(fh, op=circulant(ctx.lat, col, well))
    assert ctx.fh.op is not fh.op
    rep = deviation_report(ctx.frame_basis, ctx.harper_basis, ctx.ladder)
    assert rep.delta_f[0] < _ground_vector_bound(ctx)
    with pytest.raises(AssertionError, match="above 1e-6"):
        _deviation_check()(ctx)


# every check in suite order; a check removed, renamed or moved changes the
# lines ``verify`` prints
_NAMES = (
    "lattice: size validation",
    "lattice: inner product sesquilinear",
    "lattice: periodic index access",
    "fourier: transform unitary",
    "fourier: fourth power is identity",
    "fourier: square reverses the grid",
    "fourier: root-of-unity sums",
    "fourier: spectral projectors",
    "fourier: projector multiplicities",
    "fourier: projectors vs eigensolver",
    "fourier: coordinate transforms",
    "fourier: circulant shift symmetry",
    "fourier: circulant diagonalization",
    "fourier: equidistant circulant",
    "thetagauss: dual series agreement",
    "thetagauss: theta-function form",
    "thetagauss: Fourier width law",
    "thetagauss: square identity",
    "thetagauss: ground state",
    "thetagauss: autocorrelation law",
    "phasespace: momentum operator",
    "phasespace: momentum convolution form",
    "phasespace: displacement unitarity",
    "phasespace: displacement group law",
    "phasespace: wraparound sign rule",
    "phasespace: coherent frame tight",
    "phasespace: frame Parseval",
    "phasespace: Fourier rotation of states",
    "phasespace: overlap formula",
    "quantize: unit symbol",
    "quantize: fast path vs brute force",
    "quantize: Hamiltonian layout",
    "quantize: Fourier invariance",
    "quantize: trace closed forms",
    "quantize: off-diagonal product law",
    "quantize: energy positivity",
    "quantize: coherent mean energy",
    "quantize: eigenvalue drift bound",
    "quantize: raising operator",
    "quantize: ladder recurrence",
    "spectral: eigensolver vs closed forms",
    "spectral: asymmetric input rejected",
    "spectral: finite-difference oscillator",
    "spectral: frame eigenbasis labels",
    "spectral: Harper eigenbasis labels",
    "spectral: eigenpair residuals",
    "reference: Hermite recurrence",
    "reference: ground-state approximation",
    "reference: periodized ground identity",
    "reference: periodized near-eigenvectors",
    "reference: deviation report",
    "reference: oracle at order 0",
    "reference: oracle Fourier laws",
    "frft: kernel group laws",
    "frft: factored apply matches the kernel",
    "frft: kernel Gaussian action",
    "frft: rectangular test signal",
    "frft: comparative accuracy",
)


_SIZE_FREE = ("lattice: size validation", "reference: Hermite recurrence")


def test_verify_21_prints_every_check_in_order(capsys):
    assert main(["verify", "--d", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "168 checks: 168 passed, 0 failed"
    seen = [re.match(r"ok   d=(\d+) +(\w+: [^:]+):", line).groups() for line in lines[:-1]]
    # the comparative-accuracy check starts at d = 11, and the two checks
    # that do not depend on d run at the first size only
    want = [
        (str(d), name)
        for d in (5, 7, 21)
        for name in _NAMES
        if (d >= 11 or name != "frft: comparative accuracy")
        and (d == 5 or name not in _SIZE_FREE)
    ]
    assert seen == want


@pytest.mark.parametrize("sizes", [[21], [5, 7], [7, 21, 5]])
def test_size_free_checks_run_once_at_the_first_size(sizes):
    lines = []
    assert run_suite(sizes, emit=lines.append)[1] == 0
    for name in _SIZE_FREE:
        runs = [line for line in lines if f" {name}: " in line]
        assert len(runs) == 1 and runs[0].startswith(f"ok   d={sizes[0]:<4d} ")


def test_verify_output_stays_in_the_basic_plane(capsys):
    # one character above U+FFFF makes CPython store the whole text at four
    # bytes per character instead of two
    assert main(["verify", "--d", "21"]) == 0
    assert max(map(ord, capsys.readouterr().out)) < 0x10000


def test_allocation_failure_in_a_check_exits_2_not_as_a_failed_check(capsys, monkeypatch):
    def too_large(ctx):
        raise MemoryError(f"cannot allocate at d = {ctx.d}")

    name, _, span = _CHECKS[1]
    monkeypatch.setattr(verify, "_CHECKS", [_CHECKS[0], (name, too_large, span), *_CHECKS[2:]])
    assert main(["verify", "--d", "21"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: cannot allocate at d = 5\n"
    assert "FAIL" not in out and " checks: " not in out


# Injected faults: each rewritten check must fail when the quantity it
# compares is off by a little more than its bound.  Every fault is applied
# to a fresh workspace, in the function or batched core the check reads.

def _nth_entry_off_by(fn, n, delta):
    def faulty(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        out.flat[n - 1] += delta
        return out

    return faulty


def _overlap_off(monkeypatch, ctx):
    monkeypatch.setattr(verify, "_overlaps", _nth_entry_off_by(verify._overlaps, 17, 1e-10))


def _mean_energy_off(monkeypatch, ctx):
    fn = _nth_entry_off_by(quantize._coherent_energies, 17, 1e-10)
    monkeypatch.setattr(quantize, "_coherent_energies", fn)


def _raising_sign_broken(monkeypatch, ctx):
    # the same entry is broken in the fast and the brute-force matrices, so
    # the comparison between them passes and only the antisymmetry is left
    def flip(mat):
        mat = mat.copy()
        mat[0, 1] = -mat[0, 1]
        return mat

    def flipped(op):
        return _reading(monkeypatch, op, flip(op.mat))

    fast, brute = quantize.raising_operator, quantize.frame_quantize
    monkeypatch.setattr(quantize, "raising_operator", lambda fr: flipped(fast(fr)))
    raising = quantize.raising_symbol
    monkeypatch.setattr(
        quantize, "frame_quantize",
        lambda fr, sym: flip(brute(fr, sym)) if sym is raising else brute(fr, sym),
    )


def _reading(monkeypatch, op, mat, **changes):
    """A copy of the record ``op``, with ``changes`` to its fields, whose
    dense matrix reads ``mat``: the patched ``CirculantSpec.mat`` hands that
    copy ``mat`` and builds every other record's matrix as before."""
    moved = replace(op, **changes)
    real = CirculantSpec.mat.fget
    monkeypatch.setattr(
        CirculantSpec, "mat", property(lambda spec: mat if spec is moved else real(spec))
    )
    return moved


def _with_matrix(monkeypatch, ctx, mat, **changes):
    """Put in ``ctx`` a copy of the Hamiltonian's record, with ``changes`` to
    its fields, whose dense matrix reads ``mat``."""
    ctx.fh = replace(ctx.fh, op=_reading(monkeypatch, ctx.fh.op, mat, **changes))


def _tau_moved(monkeypatch, ctx):
    # the hop τ₁ (c at k = ±1) moves in the record but not in its dense matrix
    col = ctx.fh.op.first_column.copy()
    col[ctx.lat.pos([-1, 1])] += 1e-11
    _with_matrix(monkeypatch, ctx, ctx.fh.op.mat, first_column=col)


def _hamiltonian_entry_moved(monkeypatch, ctx):
    mat = ctx.fh.op.mat.copy()
    mat[1, 3] += 1e-10
    _with_matrix(monkeypatch, ctx, mat)


def _edit_parts(monkeypatch, edit):
    """Apply ``edit(cols, vals)`` to every output of the displacement core."""
    real = verify._displacement_parts

    def faulty(lat, a, b):
        cols, vals = (x.copy() for x in real(lat, a, b))
        edit(cols, vals)
        return cols, vals

    monkeypatch.setattr(verify, "_displacement_parts", faulty)


def _displacement_second_nonzero(monkeypatch, ctx):
    # in the parts form a second nonzero in a column is a column collision:
    # rows 0 and 1 both land on row 1's column
    def edit(cols, vals):
        cols[..., 0] = cols[..., 1]

    _edit_parts(monkeypatch, edit)


def _displacement_entry_scaled(monkeypatch, ctx):
    def edit(cols, vals):
        vals[..., 0] *= 1.0 + 1e-11

    _edit_parts(monkeypatch, edit)


def _displacement_rows_swapped(monkeypatch, ctx):
    # still monomial and unitary, but the composition lands on other columns
    def edit(cols, vals):
        cols[..., [0, 1]] = cols[..., [1, 0]]
        vals[..., [0, 1]] = vals[..., [1, 0]]

    _edit_parts(monkeypatch, edit)


def _edit_dense(monkeypatch, edit):
    """Apply ``edit(mat)`` to every matrix ``displacement`` returns to verify."""
    real = verify.displacement

    def faulty(p):
        mat = real(p).copy()
        edit(mat)
        return mat

    monkeypatch.setattr(verify, "displacement", faulty)


def _dense_second_nonzero(monkeypatch, ctx):
    def edit(mat):
        row = mat[0]
        row[np.argmax(row == 0)] = 1e-300

    _edit_dense(monkeypatch, edit)


def _dense_entry_scaled(monkeypatch, ctx):
    # the parts stay exact, so only the bitwise comparison sees it
    def edit(mat):
        mat[0] *= 1.0 + 1e-15

    _edit_dense(monkeypatch, edit)


def _quantizer_weight_moved(monkeypatch, ctx):
    real = quantize.frame_quantize

    def faulty(frame, symbol):
        def fn(a, b):
            return symbol(a, b) + (1e-9 if a == b == 0.0 else 0.0)

        return real(frame, fn)

    monkeypatch.setattr(quantize, "frame_quantize", faulty)


def _root_off(monkeypatch, ctx):
    real = verify._root

    def faulty(k, period, sign=1.0):
        out = np.array(real(k, period, sign))
        out[out.real == out.real.max()] += 1e-9
        return out

    monkeypatch.setattr(verify, "_root", faulty)


def _ground_moved(monkeypatch, ctx):
    amp = ctx.ground.amp.copy()
    amp[ctx.lat.s + 2] += 1e-9
    ctx.ground = Signal(ctx.lat, amp)


def _theta_moved(monkeypatch, ctx):
    real = verify.theta_gaussian

    def faulty(lat, kappa, *args):
        tg = real(lat, kappa, *args)
        if kappa != 2.0:
            return tg
        amp = tg.amp.copy()
        amp[lat.s + 1] += 1e-12
        return Signal(lat, amp)

    monkeypatch.setattr(verify, "theta_gaussian", faulty)


def _projector_entry_moved(delta):
    """A fault that moves entry (0, 1) of π₁ by ``delta``."""

    def fault(monkeypatch, ctx):
        pr = ctx.projectors
        mat = pr[1].copy()
        mat[0, 1] += delta
        ctx.projectors = (pr[0], mat, *pr[2:])

    fault.__name__ = f"_projector_entry_moved_by_{delta:.0e}"
    return fault


def _fourier_column_moved(monkeypatch, ctx):
    # column pos(0) of F is F·δ_0, and row pos(0) of F⁺ its conjugate; a
    # move δ there moves the stepped δ_0 by 2δ/√d, so δ = √d·1e-12 moves the
    # reading by twice the bound
    f = ctx.fmat.copy()
    f[0, ctx.lat.pos(0)] += np.sqrt(ctx.d) * 1e-12
    ctx.fmat = f


def _apply_output_moved(monkeypatch, ctx):
    # the reading is relative to ‖x‖, so the move is too
    real = frft.apply_frft

    def faulty(kernel, sig):
        amp = real(kernel, sig).amp.copy()
        amp[1] += 2e-13 * sig.norm()
        return Signal(sig.lattice, amp)

    monkeypatch.setattr(frft, "apply_frft", faulty)


def _circulant_entry_moved(size, label):
    """A fault that moves entry (0, 1) of every circulant's dense matrix by ``size(mat)``."""

    def fault(monkeypatch, ctx):
        real = CirculantSpec.mat.fget

        def faulty(spec):
            mat = real(spec)  # built anew on each read
            mat[0, 1] += size(mat)
            return mat

        monkeypatch.setattr(CirculantSpec, "mat", property(faulty))

    fault.__name__ = f"_circulant_entry_moved_by_{label}"
    return fault


_DISPLACEMENT_CHECKS = (
    "phasespace: displacement unitarity",
    "phasespace: displacement group law",
    "phasespace: wraparound sign rule",
)

_FAULTS = [
    ("phasespace: overlap formula", _overlap_off, "overlap formula off"),
    ("quantize: coherent mean energy", _mean_energy_off, "expectation law off"),
    ("quantize: raising operator", _raising_sign_broken, "antisymmetry off"),
    ("quantize: Hamiltonian layout", _tau_moved, "τ/ω layout off"),
    ("quantize: off-diagonal product law", _hamiltonian_entry_moved, "entry product law off"),
    ("quantize: Hamiltonian layout", _hamiltonian_entry_moved, "Fourier form off"),
    *[(name, _displacement_second_nonzero, "not monomial") for name in _DISPLACEMENT_CHECKS],
    ("phasespace: displacement unitarity", _displacement_entry_scaled, "unitarity off"),
    ("phasespace: displacement group law", _displacement_entry_scaled, "group law off"),
    ("phasespace: wraparound sign rule", _displacement_entry_scaled, "wrap sign rule off"),
    ("phasespace: displacement group law", _displacement_rows_swapped, "group law off"),
    ("phasespace: wraparound sign rule", _displacement_rows_swapped, "wrap sign rule off"),
    ("phasespace: displacement unitarity", _dense_second_nonzero, "not monomial"),
    ("phasespace: displacement unitarity", _dense_entry_scaled, "not its parts"),
    ("quantize: unit symbol", _quantizer_weight_moved, "off identity"),
    ("quantize: fast path vs brute force", _quantizer_weight_moved, "off brute force"),
    ("quantize: raising operator", _quantizer_weight_moved, "factorized form off"),
    ("fourier: root-of-unity sums", _root_off, "geometric sum off"),
    ("thetagauss: autocorrelation law", _ground_moved, "autocorrelation law off"),
    ("thetagauss: square identity", _theta_moved, "square identity off"),
    # each move below is twice the check's bound
    ("fourier: spectral projectors", _projector_entry_moved(2e-12), "Σπ - I"),
    ("fourier: projectors vs eigensolver", _projector_entry_moved(2e-11), "projector mismatch"),
    ("phasespace: momentum operator", _fourier_column_moved, "site shift off"),
    ("frft: factored apply matches the kernel", _apply_output_moved, "factored apply off"),
    (
        "fourier: circulant shift symmetry",
        _circulant_entry_moved(lambda mat: 2e-12, "2e-12"),
        "shift commutator",
    ),
    (
        "fourier: circulant diagonalization",
        _circulant_entry_moved(lambda mat: 2e-14 * np.linalg.norm(mat), "2e-14-of-norm"),
        "F⁺·diag·F off",
    ),
]


@pytest.mark.parametrize("d", [5, 21])
@pytest.mark.parametrize(
    "name, fault, message", _FAULTS,
    ids=[f"{_check_id(n)}-{f.__name__.strip('_')}" for n, f, _ in _FAULTS],
)
def test_rewritten_checks_fail_under_an_injected_fault(monkeypatch, name, fault, message, d):
    ctx = _Ctx(d)
    _check(name)(ctx)  # passes as built
    ctx = _Ctx(d)
    fault(monkeypatch, ctx)
    with pytest.raises(AssertionError, match=message):
        _check(name)(ctx)


_LABEL_CHECKS = [
    ("spectral: frame eigenbasis labels", "frame", "frame basis", "ground state"),
    ("spectral: Harper eigenbasis labels", "harper", "Harper basis", "nodeless state"),
]


@pytest.mark.parametrize("d", [5, 21])
@pytest.mark.parametrize(
    "name, kind, what, first", _LABEL_CHECKS, ids=[k for _, k, _, _ in _LABEL_CHECKS]
)
def test_each_basis_label_check_reads_its_own_basis(monkeypatch, name, kind, what, first, d):
    monkeypatch.setattr(verify, "_CHECKS", [c for c in _CHECKS if c[0] == name])
    lines = []
    assert run_suite([d], emit=lines.append) == (1, 0)
    assert lines[0].startswith(f"ok   d={d:<4d} {name}: {what}: labels consistent, ")
    # swapping the first two levels keeps every rank within one of its level,
    # so only the level-0 test sees it
    ctx = _Ctx(d)
    basis = getattr(ctx, f"{kind}_basis")
    values = basis.values.copy()
    values[[0, 1]] = values[[1, 0]]
    setattr(ctx, f"{kind}_basis", replace(basis, values=values))
    with pytest.raises(AssertionError, match=f"^{first} not at m=0$"):
        _check(name)(ctx)
