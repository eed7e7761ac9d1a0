"""Command-line interface: formats, exit codes, frozen numbers, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from finosc import (
    apply_frft,
    coherent_deviation_table,
    coherent_frame,
    continuous_frft_oracle,
    deviation_report,
    frame_hamiltonian,
    frft_kernel,
    harper_hamiltonian,
    ladder_states,
    make_lattice,
    oscillator_basis,
    rectangular_profile,
    rectangular_signal,
)
from finosc import cli, reference, spectral, verify
from finosc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_verify_small_grid_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--d", "5")
    assert code == 0
    assert "0 failed" in out.strip().split("\n")[-1]


@pytest.mark.parametrize("fails", [False, True])
def test_verify_out_writes_only_the_file(capsys, monkeypatch, tmp_path, fails):
    # with --out the lines go to the file alone, byte for byte the stdout of
    # a run without it, and the exit code is the same either way
    if fails:
        def broken(ctx):
            raise AssertionError("injected")

        checks = [*verify._CHECKS[:3], ("broken", broken, (5, 5))]
        monkeypatch.setattr(verify, "_CHECKS", checks)
    code, out, err = run_cli(capsys, "verify", "--d", "5")
    path = tmp_path / "v.txt"
    code_out, out_out, err_out = run_cli(capsys, "verify", "--d", "5", "--out", str(path))
    assert (code, code_out) == ((1, 1) if fails else (0, 0))
    assert out_out == "" and err_out == err
    assert path.read_bytes() == out.encode("utf-8")


def test_verify_rejects_even_grid(capsys):
    code, out, err = run_cli(capsys, "verify", "--d", "4")
    assert code == 2
    assert err.startswith("error:")
    assert "odd" in err


def test_table_frozen_entries(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["alpha_idx", "beta_idx", "deviation"]
    assert len(rows) == 16
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    assert table[("1", "1")] == pytest.approx(2.448945419613173e-10, rel=1e-12)
    assert table[("6", "6")] == pytest.approx(3.640473295051802e-4, rel=1e-12)
    assert table[("9", "3")] == pytest.approx(5.071983525294349e-2, rel=1e-12)


def test_table_warns_off_reference_grid(capsys):
    code, out, err = run_cli(capsys, "table1", "--d", "25")
    assert code == 0
    assert err == "warning: the paper's Table 1 is at d = 21; this grid is at d = 25\n"
    # the grid is computed at d = 25, and differs from the paper's d = 21
    assert out == rowwise_csv(*table1_rows(25))
    assert out != rowwise_csv(*table1_rows(21))


def test_table_needs_room_for_the_shifts(capsys):
    code, out, err = run_cli(capsys, "table1", "--d", "5")
    assert code == 2
    assert "needs d >= 19" in err


def test_spectrum_harper_runs_downward(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--method", "harper")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["m", "eigenvalue", "parity", "alternations", "fourier_index"]
    assert len(rows) == 21
    vals = [float(r[1]) for r in rows]
    assert vals[0] == pytest.approx(-0.2881375941, abs=1e-9)
    assert min(vals) == pytest.approx(-7.7118624056, abs=1e-9)
    for m, r in enumerate(rows):
        assert int(r[0]) == m
        assert r[2] == ("even" if m % 2 == 0 else "odd")
        assert int(r[3]) == m
        assert int(r[4]) == m % 4


def test_spectrum_frame_small_grid(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--method", "frame", "--d", "5")
    assert code == 0
    _, rows = csv_rows(out)
    vals = [float(r[1]) for r in rows]
    want = [0.4685102359, 1.4183509120, 1.8207466201, 3.6162844260, 2.7424784205]
    assert np.max(np.abs(np.array(vals) - want)) < 1e-9


def test_compare_columns_and_winner(capsys):
    code, out, err = run_cli(capsys, "compare")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["m", "delta_f", "delta_h", "delta_m", "delta_r"]
    df = np.array([float(r[1]) for r in rows])
    dh = np.array([float(r[2]) for r in rows])
    assert df[0] == pytest.approx(6.639387432061383e-7, rel=1e-9)
    assert int(np.sum(df < dh)) == 20


def test_compare_normalized_ladder_differs(capsys):
    code, raw, _ = run_cli(capsys, "compare")
    code2, normed, _ = run_cli(capsys, "compare", "--normalize-ladder")
    assert code == code2 == 0
    _, rows_raw = csv_rows(raw)
    _, rows_norm = csv_rows(normed)
    dr_raw = np.array([float(r[4]) for r in rows_raw])
    dr_norm = np.array([float(r[4]) for r in rows_norm])
    assert not np.array_equal(dr_raw, dr_norm)
    # the ground rung is already unit norm, so its row cannot move
    assert dr_norm[0] == dr_raw[0]


def test_compare_runs_one_hermite_pass_over_the_grid(monkeypatch, capsys):
    # the report signs both bases against the targets it computes anyway,
    # so no basis runs a pass of its own for its signs
    lat = make_lattice(101)
    grid_passes = []
    hermite = reference._hermite_blocks

    def counted(top, x):
        x = np.asarray(x)
        grid_passes.append(x.shape == lat.points.shape and np.array_equal(x, lat.points))
        return hermite(top, x)

    monkeypatch.setattr(reference, "_hermite_blocks", counted)
    code, _, _ = run_cli(capsys, "compare", "--d", "101")
    # the other pass is the periodized samples', over the wrapped points
    assert code == 0 and sorted(grid_passes) == [False, True]


def test_compare_leaves_both_bases_unsigned(monkeypatch, capsys):
    built = []
    build = cli.oscillator_basis

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "oscillator_basis", recorded)
    code, _, _ = run_cli(capsys, "compare", "--d", "21")
    assert code == 0 and [b.kind for b in built] == ["frame", "harper"]
    assert all(isinstance(b._vectors, spectral._Mirrored) for b in built)


def test_frft_both_methods_layout(capsys):
    code, out, err = run_cli(capsys, "frft")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "in_re", "frame_re", "frame_im", "harper_re", "harper_im"]
    assert len(rows) == 21
    assert [int(r[0]) for r in rows] == list(range(-10, 11))
    # both transforms preserve the input energy
    energy_in = sum(float(r[1]) ** 2 for r in rows)
    for re_col, im_col in ((2, 3), (4, 5)):
        energy = sum(float(r[re_col]) ** 2 + float(r[im_col]) ** 2 for r in rows)
        assert energy == pytest.approx(energy_in, abs=1e-10)


def test_frft_single_method_layout(capsys):
    code, out, err = run_cli(capsys, "frft", "--method", "frame", "--oracle")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "in_re", "out_re", "out_im", "oracle_re", "oracle_im"]


def test_frft_identity_order(capsys):
    code, out, err = run_cli(capsys, "frft", "--method", "frame", "--alpha", "0")
    assert code == 0
    _, rows = csv_rows(out)
    for r in rows:
        assert float(r[2]) == pytest.approx(float(r[1]), abs=1e-12)
        assert abs(float(r[3])) < 1e-12


def test_frft_frame_tracks_the_oracle_closer(capsys):
    code, out, err = run_cli(
        capsys, "frft", "--signal", "gauss:10", "--alpha", "0.5", "--oracle"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header[-2:] == ["oracle_re", "oracle_im"]
    fr = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    ha = np.array([complex(float(r[4]), float(r[5])) for r in rows])
    orc = np.array([complex(float(r[6]), float(r[7])) for r in rows])
    err_f = np.max(np.abs(fr - orc))
    err_h = np.max(np.abs(ha - orc))
    assert err_f == pytest.approx(5.680e-2, rel=1e-3)
    assert err_h == pytest.approx(9.402e-2, rel=1e-3)
    assert err_f < err_h


def test_frft_rejects_unknown_signal(capsys):
    code, out, err = run_cli(capsys, "frft", "--signal", "tri")
    assert code == 2
    assert "unknown signal" in err


def test_frft_rejects_bad_width(capsys):
    code, out, err = run_cli(capsys, "frft", "--signal", "gauss:abc")
    assert code == 2
    assert "bad width" in err
    code, out, err = run_cli(capsys, "frft", "--signal", "gauss:-2")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--alpha", "nan"),
        ("--alpha", "inf"),
        ("--signal", "gauss:inf"),
        # widths whose theta samples or squared norm overflow
        ("--signal", "gauss:1e308"),
        ("--signal", "gauss:1e-310"),
    ],
)
def test_frft_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, "frft", *argv)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert out == ""


def test_frft_accepts_a_tiny_but_representable_width(capsys):
    code, out, err = run_cli(
        capsys, "frft", "--d", "21", "--signal", "gauss:1e-300", "--oracle"
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = np.array(rows, dtype=float)
    assert values.shape == (21, 8) and np.all(np.isfinite(values))


@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--method", "frame"), ("spectrum", "--method", "harper"), ("compare",)],
)
def test_grid_past_301_is_labeled(capsys, argv):
    # Ψ_m exists at every order, so bases past d = 301 are sign-fixed and
    # pass every label audit in oscillator_basis
    code, out, err = run_cli(capsys, *argv, "--d", "303")
    assert code == 0 and err == ""
    _, rows = csv_rows(out)
    assert [int(r[0]) for r in rows] == list(range(303))
    if argv[0] == "spectrum":
        m = np.arange(303)
        assert [r[2] for r in rows] == ["even" if k % 2 == 0 else "odd" for k in m]
        assert np.array_equal([int(r[4]) for r in rows], m % 4)
        deficit = m - np.array([int(r[3]) for r in rows])
        assert np.all(deficit >= 0) and np.all(deficit % 2 == 0)
    else:
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_ladder_overflow_exits_2(capsys):
    # from d = 691 a ladder norm leaves the float range; that cannot be
    # known before the ladder runs, so it is reported, not a traceback
    code, out, err = run_cli(capsys, "compare", "--d", "691")
    assert code == 2
    assert err.startswith("error:") and "ladder" in err
    assert out == ""


def test_memory_error_exits_2(capsys, monkeypatch):
    def too_large(lat):
        raise MemoryError(f"cannot allocate a d = {lat.d} Hamiltonian")

    monkeypatch.setattr(cli, "frame_hamiltonian", too_large)
    code, out, err = run_cli(capsys, "spectrum", "--d", "21")
    assert code == 2
    assert err == "error: cannot allocate a d = 21 Hamiltonian\n"
    assert out == ""


@pytest.mark.parametrize("argv", [("table1",), ("compare", "--d", "21")])
def test_commands_never_build_the_dense_frame(capsys, monkeypatch, argv):
    frames = []
    build = cli.coherent_frame

    def recording(lat):
        frames.append(build(lat))
        return frames[-1]

    monkeypatch.setattr(cli, "coherent_frame", recording)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert len(frames) == 1
    assert "states" not in frames[0].__dict__


def test_table1_runs_far_past_the_basis_limit(capsys):
    # 16 states of a d = 1001 frame; the dense family would be 16 GB
    code, out, err = run_cli(capsys, "table1", "--d", "1001")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["alpha_idx", "beta_idx", "deviation"]
    assert len(rows) == 16


def test_svg_output_shape(capsys):
    code, out, err = run_cli(capsys, "frft", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") == 5
    assert 'viewBox="0 0 800 500"' in out


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, err = run_cli(capsys, "table1")
    path = tmp_path / "table.csv"
    code2 = main(["table1", "--out", str(path)])
    capsys.readouterr()
    assert code == code2 == 0
    assert path.read_text() == out


def test_out_rejects_missing_directory(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "table1", "--out", str(tmp_path / "no" / "dir" / "t.csv")
    )
    assert code == 2
    assert err.startswith("error:")


def test_runs_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "frft", "--signal", "gauss:0.5", "--alpha", "1.25")
    code2, out2, _ = run_cli(capsys, "frft", "--signal", "gauss:0.5", "--alpha", "1.25")
    assert code1 == code2 == 0
    assert out1 == out2


def test_values_round_trip_at_full_precision(capsys):
    # %.17g keeps every double exactly; parsing the CSV must reproduce the
    # library value bit for bit
    from finosc import coherent_deviation_table, coherent_frame, make_lattice

    code, out, err = run_cli(capsys, "table1")
    _, rows = csv_rows(out)
    lat = make_lattice(21)
    table = coherent_deviation_table(coherent_frame(lat), (1, 3, 6, 9), (1, 3, 6, 9))
    assert float(rows[0][2]) == table[0, 0]
    assert float(rows[5][2]) == table[1, 1]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finosc.cli", "spectrum", "--d", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,eigenvalue")


# --- the column renderer against the row-wise rule -------------------------


def rowwise_cell(x):
    """One cell by the row-wise rule: text as is, Python and NumPy integers
    in full, anything else as a float to 17 significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def rowwise_csv(header, rows):
    lines = [",".join(header)] + [",".join(rowwise_cell(x) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


def rowwise_svg(header, rows):
    """The 800×500 polyline plot, one cell and one point at a time."""
    numeric = [
        j for j in range(1, len(header))
        if all(isinstance(r[j], (int, float, np.integer, np.floating)) for r in rows)
    ]
    xs = [float(r[0]) for r in rows]
    x0, x1 = min(xs), max(xs)
    flat = [float(r[j]) for r in rows for j in numeric]
    y0, y1 = (min(flat), max(flat)) if numeric else (0.0, 1.0)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    left, top, width, height = 60.0, 20.0, 720.0, 420.0

    def sx(x):
        return left + width * (x - x0) / (x1 - x0)

    def sy(y):
        return top + height * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 500" '
        'width="800" height="500">',
        '<rect x="0" y="0" width="800" height="500" fill="white"/>',
        f'<line x1="{left}" y1="{top + height}" x2="{left + width}" '
        f'y2="{top + height}" stroke="#444"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + height}" stroke="#444"/>',
        f'<text x="{left}" y="{top + height + 18}" font-size="12">{x0:.6g}</text>',
        f'<text x="{left + width - 40}" y="{top + height + 18}" '
        f'font-size="12">{x1:.6g}</text>',
        f'<text x="4" y="{top + height}" font-size="12">{y0:.6g}</text>',
        f'<text x="4" y="{top + 12}" font-size="12">{y1:.6g}</text>',
    ]
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for k, j in enumerate(numeric):
        color = palette[k % len(palette)]
        pts = " ".join(f"{sx(float(r[0])):.2f},{sy(float(r[j])):.2f}" for r in rows)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{left + 8 + 130 * k:.0f}" y="{top + 14:.0f}" '
                     f'font-size="12" fill="{color}">{header[j]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def labeled(lat, method):
    if method == "frame":
        return oscillator_basis(frame_hamiltonian(lat).op, lat, "frame")
    return oscillator_basis(harper_hamiltonian(lat), lat, "harper")


def spectrum_rows(d, method):
    basis = labeled(make_lattice(d), method)
    rows = [(m, basis.values[m], "even" if basis.parities[m] == 0 else "odd",
             basis.alternations[m], basis.fourier_indices[m]) for m in range(d)]
    return ("m", "eigenvalue", "parity", "alternations", "fourier_index"), rows


def compare_rows(d):
    lat = make_lattice(d)
    rep = deviation_report(labeled(lat, "frame"), labeled(lat, "harper"),
                           ladder_states(coherent_frame(lat)))
    rows = [(m, rep.delta_f[m], rep.delta_h[m], rep.delta_m[m], rep.delta_r[m])
            for m in range(d)]
    return ("m", "delta_f", "delta_h", "delta_m", "delta_r"), rows


def frft_rows(d, method, oracle, alpha=0.5):
    lat = make_lattice(d)
    sig = rectangular_signal(lat)
    methods = ("frame", "harper") if method == "both" else (method,)
    outs = [apply_frft(frft_kernel(labeled(lat, m), alpha), sig).amp for m in methods]
    header = ["n", "in_re"]
    for m in methods:
        header += [f"{m}_re", f"{m}_im"] if method == "both" else ["out_re", "out_im"]
    if oracle:
        header += ["oracle_re", "oracle_im"]
        ref = continuous_frft_oracle(rectangular_profile(lat), alpha, lat).amp
        outs.append(ref / lat.delta**0.25)
    rows = []
    for i, n in enumerate(range(-lat.s, lat.s + 1)):
        row = [n, float(sig.amp[i].real)]
        for out in outs:
            row += [float(out[i].real), float(out[i].imag)]
        rows.append(tuple(row))
    return tuple(header), rows


def table1_rows(d):
    shifts = (1, 3, 6, 9)
    table = coherent_deviation_table(coherent_frame(make_lattice(d)), shifts, shifts)
    rows = [(a, b, table[i, j]) for i, a in enumerate(shifts) for j, b in enumerate(shifts)]
    return ("alpha_idx", "beta_idx", "deviation"), rows


RENDERED = [
    (("spectrum", "--method", "frame"), lambda d: spectrum_rows(d, "frame")),
    (("spectrum", "--method", "harper"), lambda d: spectrum_rows(d, "harper")),
    (("compare",), compare_rows),
    (("frft", "--method", "frame"), lambda d: frft_rows(d, "frame", False)),
    (("frft", "--method", "harper", "--oracle"), lambda d: frft_rows(d, "harper", True)),
    (("frft", "--method", "both"), lambda d: frft_rows(d, "both", False)),
    (("frft", "--method", "both", "--oracle"), lambda d: frft_rows(d, "both", True)),
]


@pytest.mark.parametrize("fmt", ["csv", "svg"])
@pytest.mark.parametrize("d", [5, 21])
@pytest.mark.parametrize("argv, rows_of", RENDERED)
def test_tables_match_the_rowwise_rendering(capsys, argv, rows_of, d, fmt):
    code, out, err = run_cli(capsys, *argv, "--d", str(d), "--format", fmt)
    assert code == 0
    render = rowwise_csv if fmt == "csv" else rowwise_svg
    assert out == render(*rows_of(d))


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_table1_matches_the_rowwise_rendering(capsys, fmt):
    # table1 needs d >= 19, so d = 5 is refused (see above)
    code, out, err = run_cli(capsys, "table1", "--d", "21", "--format", fmt)
    assert code == 0
    render = rowwise_csv if fmt == "csv" else rowwise_svg
    assert out == render(*table1_rows(21))


def test_renderer_keeps_negative_zero_and_numpy_integers():
    header = ("k", "x", "label", "count", "small", "big")
    cols = (
        np.array([-2, 0, 3], dtype=np.int32),
        np.array([-0.0, 0.1, -1e-300]),
        ["a", "b%s", "c"],
        np.array([7, 0, 255], dtype=np.uint8),
        [1.5, -0.0, 2.0],
        np.array([2**62 + 1, -(2**62), 1], dtype=np.int64),
    )
    rows = list(zip(cols[0], cols[1].tolist(), *cols[2:]))
    arrays = [np.asarray(c) for c in cols]
    csv = cli._render_csv(header, arrays)
    assert csv == rowwise_csv(header, rows)
    assert csv.split("\n")[1] == "-2,-0,a,7,1.5,4611686018427387905"
    assert cli._render_svg(header, arrays) == rowwise_svg(header, rows)


# --- one parser per process -------------------------------------------------


def test_parser_is_reused_and_keeps_no_state(capsys):
    assert cli._parser() is cli._parser()
    valid = ("spectrum", "--d", "5", "--method", "harper")
    code, first, _ = run_cli(capsys, *valid)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--d", "5", "--method", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    code, again, _ = run_cli(capsys, *valid)
    assert code == 0
    assert again == first
    # an option given once falls back to its default on the next call
    code, frame, _ = run_cli(capsys, "spectrum", "--d", "5")
    assert frame != first
    assert frame == rowwise_csv(*spectrum_rows(5, "frame"))


def test_normalize_ladder_does_not_carry_over(capsys):
    code, plain, _ = run_cli(capsys, "compare", "--d", "7")
    code2, normed, _ = run_cli(capsys, "compare", "--d", "7", "--normalize-ladder")
    code3, after, _ = run_cli(capsys, "compare", "--d", "7")
    assert code == code2 == code3 == 0
    assert normed != plain
    assert after == plain


def test_verify_takes_no_format(capsys):
    # verify prints text lines; a --format it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "5", "--format", "svg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format svg" in capsys.readouterr().err


def test_table_too_small_is_refused_without_the_grid_warning(capsys):
    code, out, err = run_cli(capsys, "table1", "--d", "17")
    assert code == 2
    assert err == "error: shift index 9 needs d >= 19, got 17\n"
    assert out == ""
