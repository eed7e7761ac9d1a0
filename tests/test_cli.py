"""Command-line interface: formats, exit codes, frozen numbers, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from finosc import cli
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
    assert "not 25" in err


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
    "argv", [("--alpha", "nan"), ("--alpha", "inf"), ("--signal", "gauss:inf")]
)
def test_frft_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, "frft", *argv)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert out == ""


@pytest.mark.parametrize("command", ["spectrum", "compare"])
def test_unsupported_grid_is_refused_before_any_work(capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("frame_hamiltonian", "harper_hamiltonian", "coherent_frame"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, command, "--d", "303")
    assert code == 2
    assert "labeled bases need d <= 301" in err
    assert out == ""


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
