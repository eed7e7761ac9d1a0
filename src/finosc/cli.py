"""Command-line front end: invariant verification and table exports.

Five subcommands cover everything the library computes:

    verify    run every module's invariant checks, one line per check
    table1    deviation grid between discrete and sampled coherent states
    spectrum  labeled eigenvalues of one oscillator (frame or Harper)
    compare   per-level deviations of the four discrete eigenfunction families
    frft      fractional transform of a test signal, optionally with the
              continuous reference alongside

Tables are emitted as CSV (17 significant digits, header row) or as a minimal
800×500 SVG polyline plot.  Output goes to stdout unless --out is given, in
which case the file is written atomically.  Exit codes: 0 on success, 1 when
verification finds a failing check, 2 on a bad configuration or when a
result leaves the float range or memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from .frft import apply_frft, frft_kernel, rectangular_signal
from .lattice import make_lattice
from .phasespace import coherent_frame
from .quantize import frame_hamiltonian, ladder_states
from .reference import (
    _eigenphases,
    coherent_deviation_table,
    continuous_frft_oracle,
    deviation_report,
    gaussian_profile,
    rectangular_profile,
)
from .spectral import harper_hamiltonian, oscillator_basis
from .thetagauss import theta_gaussian

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# one printf format per column, chosen by the column's dtype kind: integers
# in full, floats to 17 significant digits (every double round-trips), text
# as is
_CELL = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def _render_csv(header, cols) -> str:
    """Header row, then one line per entry of the equal-length columns."""
    fmt = ",".join(_CELL[c.dtype.kind] for c in cols)
    rows = [fmt % row for row in zip(*(c.tolist() for c in cols))]
    return "\n".join([",".join(header), *rows]) + "\n"


def _render_svg(header, cols) -> str:
    """Line plot in a fixed 800×500 viewbox: the first column is the x axis
    and every other numeric column becomes one polyline; text columns are
    skipped."""
    numeric = [j for j in range(1, len(cols)) if cols[j].dtype.kind in "biuf"]
    xs = cols[0].astype(float)
    x0, x1 = float(xs.min()), float(xs.max())
    if numeric:
        y0 = min(float(cols[j].min()) for j in numeric)
        y1 = max(float(cols[j].max()) for j in numeric)
    else:
        y0, y1 = 0.0, 1.0
    # degenerate ranges still need a nonzero span to map onto pixels
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    left, top, width, height = 60.0, 20.0, 720.0, 420.0
    px = (left + width * (xs - x0) / (x1 - x0)).tolist()

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 500" '
        'width="800" height="500">',
        '<rect x="0" y="0" width="800" height="500" fill="white"/>',
        f'<line x1="{left}" y1="{top + height}" x2="{left + width}" '
        f'y2="{top + height}" stroke="#444"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + height}" '
        f'stroke="#444"/>',
        f'<text x="{left}" y="{top + height + 18}" font-size="12">'
        f"{x0:.6g}</text>",
        f'<text x="{left + width - 40}" y="{top + height + 18}" '
        f'font-size="12">{x1:.6g}</text>',
        f'<text x="4" y="{top + height}" font-size="12">{y0:.6g}</text>',
        f'<text x="4" y="{top + 12}" font-size="12">{y1:.6g}</text>',
    ]
    for k, j in enumerate(numeric):
        color = _PALETTE[k % len(_PALETTE)]
        py = top + height * (1.0 - (cols[j].astype(float) - y0) / (y1 - y0))
        pts = " ".join("%.2f,%.2f" % xy for xy in zip(px, py.tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{left + 8 + 130 * k:.0f}" y="{top + 14:.0f}" '
            f'font-size="12" fill="{color}">{header[j]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: str, text: str) -> None:
    # temp file in the destination directory, then an atomic rename
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".finosc-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit_table(header, cols, cfg) -> int:
    """Write a table given as columns: arrays or lists of equal length."""
    cols = [np.asarray(c) for c in cols]
    render = _render_csv if cfg.format == "csv" else _render_svg
    text = render(header, cols)
    if cfg.out:
        _write_text(cfg.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _labeled_basis(lat, method: str):
    if method == "frame":
        return oscillator_basis(frame_hamiltonian(lat).op, lat, "frame")
    return oscillator_basis(harper_hamiltonian(lat), lat, "harper")


def _parse_signal(lat, spec: str):
    """Return (grid signal, continuous profile) for a --signal argument."""
    if spec == "rect":
        return rectangular_signal(lat), rectangular_profile(lat)
    if spec.startswith("gauss:"):
        try:
            kappa = float(spec[6:])
        except ValueError:
            raise ValueError(f"bad width in signal {spec!r}") from None
        if not 0 < kappa < math.inf:
            raise ValueError(f"signal width must be positive and finite, got {kappa}")
        return theta_gaussian(lat, kappa), gaussian_profile(kappa)
    raise ValueError(f"unknown signal {spec!r}; use rect or gauss:<width>")


def cmd_verify(cfg) -> int:
    # the suite loads on first use; it is read through the package so that
    # a wrapper bound there (as the benchmark's tracer binds one) is called
    from . import run_suite

    make_lattice(cfg.d)  # reject a bad size before any check runs
    lines = []
    emit = lines.append if cfg.out else print
    passed, failed = run_suite(sorted({5, 7, cfg.d}), emit=emit)
    emit(f"{passed + failed} checks: {passed} passed, {failed} failed")
    if cfg.out:
        _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


def cmd_table1(cfg) -> int:
    lat = make_lattice(cfg.d)
    shifts = (1, 3, 6, 9)
    if lat.s < shifts[-1]:
        raise ValueError(f"shift index {shifts[-1]} needs d >= 19, got {cfg.d}")
    if cfg.d != 21:
        print(
            f"warning: the paper's Table 1 is at d = 21; this grid is at d = {cfg.d}",
            file=sys.stderr,
        )
    table = coherent_deviation_table(coherent_frame(lat), shifts, shifts)
    a, b = np.meshgrid(shifts, shifts, indexing="ij")
    cols = (a.ravel(), b.ravel(), table.ravel())
    return _emit_table(("alpha_idx", "beta_idx", "deviation"), cols, cfg)


def cmd_spectrum(cfg) -> int:
    lat = make_lattice(cfg.d)
    basis = _labeled_basis(lat, cfg.method)
    cols = (
        np.arange(lat.d),
        basis.values,
        np.where(basis.parities == 0, "even", "odd"),
        basis.alternations,
        basis.fourier_indices,
    )
    header = ("m", "eigenvalue", "parity", "alternations", "fourier_index")
    return _emit_table(header, cols, cfg)


def cmd_compare(cfg) -> int:
    lat = make_lattice(cfg.d)
    frame = coherent_frame(lat)
    frame_basis = _labeled_basis(lat, "frame")
    harper_basis = _labeled_basis(lat, "harper")
    ladder = ladder_states(frame)
    if cfg.normalize_ladder:
        ladder /= np.array([np.linalg.norm(row) for row in ladder])[:, None]
    rep = deviation_report(frame_basis, harper_basis, ladder)
    cols = (np.arange(lat.d), rep.delta_f, rep.delta_h, rep.delta_m, rep.delta_r)
    return _emit_table(("m", "delta_f", "delta_h", "delta_m", "delta_r"), cols, cfg)


def cmd_frft(cfg) -> int:
    lat = make_lattice(cfg.d)
    _eigenphases(cfg.alpha, 0)  # refuse a NaN or infinite order before any basis
    sig, profile = _parse_signal(lat, cfg.signal)
    methods = ("frame", "harper") if cfg.method == "both" else (cfg.method,)
    outs = {}
    for method in methods:
        kern = frft_kernel(_labeled_basis(lat, method), cfg.alpha)
        outs[method] = apply_frft(kern, sig).amp
    header = ["n", "in_re"]
    cols = [lat.indices, sig.amp.real.astype(float)]
    if cfg.method == "both":
        for method in methods:
            header += [f"{method}_re", f"{method}_im"]
            cols += [outs[method].real, outs[method].imag]
    else:
        header += ["out_re", "out_im"]
        cols += [outs[methods[0]].real, outs[methods[0]].imag]
    if cfg.oracle:
        # the continuous reference carries the sampling factor ⁴√δ; divide it
        # out so the columns are directly comparable with the transform
        ref = continuous_frft_oracle(profile, cfg.alpha, lat).amp / lat.delta**0.25
        header += ["oracle_re", "oracle_im"]
        cols += [ref.real, ref.imag]
    return _emit_table(header, cols, cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finosc",
        description="Finite oscillator toolkit: verification and table exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=int, default=21, help="grid size (odd, >= 5)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def tabular(p):
        common(p)
        p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("verify", help="run every invariant check")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table1", help="coherent-state deviation grid")
    tabular(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("spectrum", help="labeled oscillator spectrum")
    tabular(p)
    p.add_argument("--method", choices=("frame", "harper"), default="frame")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("compare", help="eigenfunction family deviations")
    tabular(p)
    p.add_argument(
        "--normalize-ladder",
        action="store_true",
        help="rescale ladder states to unit norm before comparing",
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("frft", help="fractional transform of a test signal")
    tabular(p)
    p.add_argument("--alpha", type=float, default=0.5, help="transform order")
    p.add_argument("--signal", default="rect", help="rect or gauss:<width>")
    p.add_argument("--method", choices=("frame", "harper", "both"), default="both")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="append continuous reference columns (Hermite expansion to order 63)",
    )
    p.set_defaults(fn=cmd_frft)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses: each parse starts from a fresh
    namespace, so nothing of one call reaches the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
