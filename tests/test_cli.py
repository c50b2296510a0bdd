import argparse
import csv
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_code, toy_pair_a
from nestedtbcc import cli
from nestedtbcc.bounds import solve_crossover
from nestedtbcc.cli import main
from nestedtbcc.encoder import load_code, save_code
from nestedtbcc.gf2 import BitVector
from nestedtbcc.keyagree import enroll, enroll_many, reconstruct, reconstruct_many, save_pair
from nestedtbcc.trellis import weight_enumerator


def _bit_text(words) -> str:
    """The bit-file text of some words: one line of 0/1 characters each."""
    return "".join("".join(str(b) for b in word) + "\n" for word in words)


@pytest.fixture
def toy_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_pair(toy_pair_a(), str(path))
    return str(path)


def test_design_fec_and_spectrum_and_dfree_and_bound(tmp_path):
    code_path = tmp_path / "fec.json"
    rc = main([
        "design-fec", "--n", "2", "--m", "3", "--kfec", "8",
        "--target-pb", "1e-2", "--wmax", "8", "--seed", "3",
        "--out", str(code_path),
    ])
    assert rc == 0
    loaded = json.loads(code_path.read_text())
    assert loaded["k"] == 1 and loaded["ell"] == 8
    assert "p_c_union_bound" in loaded["provenance"]
    prov = loaded["provenance"]
    assert prov["skipped_candidates"] + prov["pruned_candidates"] <= 8
    code = load_code(str(code_path))
    assert code.N == 16

    spec_path = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--code", str(code_path), "--out", str(spec_path)]) == 0
    rows = list(csv.DictReader(spec_path.open()))
    assert rows[0]["d"] == "0" and rows[0]["A_d"] == "1"
    total = sum(int(r["A_d"]) for r in rows)
    assert total == 2 ** code.K

    dfree_path = tmp_path / "dfree.csv"
    assert main(["dfree", "--code", str(code_path), "--out", str(dfree_path)]) == 0
    row = next(csv.DictReader(dfree_path.open()))
    assert int(row["d_free"]) >= 1

    bound_path = tmp_path / "bound.csv"
    assert main([
        "bound", "--spectrum", str(spec_path), "--pc", "0.05", "--pc", "0.1",
        "--out", str(bound_path),
    ]) == 0
    brs = list(csv.DictReader(bound_path.open()))
    assert len(brs) == 2 and float(brs[0]["PB_UB"]) < float(brs[1]["PB_UB"])


def test_spectrum_truncation_note_and_default_bound_grid(tmp_path, capsys):
    code_path, spec_path, bound_path = (tmp_path / f for f in ("fec.json", "sp.csv", "b.csv"))
    save_code(toy_pair_a().fec_code, str(code_path))  # N = 12, d_min = 4
    capsys.readouterr()
    assert main(["spectrum", "--code", str(code_path), "--dmax", "6",
                 "--out", str(spec_path)]) == 0
    assert capsys.readouterr().err == "note: spectrum truncated at d_max=6\n"
    assert max(int(r["d"]) for r in csv.DictReader(spec_path.open())) <= 6

    # without --pc the bound is tabulated on the default --pc-grid 0.01 .. 0.2, 20 points
    assert main(["bound", "--spectrum", str(spec_path), "--out", str(bound_path)]) == 0
    rows = list(csv.DictReader(bound_path.open()))
    assert [float(r["pc"]) for r in rows] == pytest.approx(np.linspace(0.01, 0.2, 20), rel=1e-5)
    pbs = [float(r["PB_UB"]) for r in rows]
    assert all(0.0 < a < b for a, b in zip(pbs, pbs[1:]))


def test_design_vq_extension(tmp_path):
    code_path = tmp_path / "fec.json"
    main(["design-fec", "--n", "2", "--m", "3", "--kfec", "8",
          "--target-pb", "1e-2", "--wmax", "4", "--seed", "5",
          "--out", str(code_path)])
    vq_path = tmp_path / "vq.json"
    rc = main(["design-vq", "--code", str(code_path), "--kvq", "2",
               "--wmax", "10", "--seed", "6", "--out", str(vq_path)])
    assert rc == 0
    loaded = json.loads(vq_path.read_text())
    assert loaded["k"] == 2
    assert loaded["provenance"]["d_free"] >= 0


def test_sim_fer_and_distortion_cli(tmp_path, toy_pair_file):
    code_path = tmp_path / "code.json"
    save_code(toy_pair_a().fec_code, str(code_path))
    out = tmp_path / "fer.json"
    rc = main(["sim-fer", "--code", str(code_path), "--pc", "0.05",
               "--max-trials", "2000", "--target-errors", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["trials"] >= 1 and 0 <= rep["estimate"] <= 1

    out2 = tmp_path / "dist.json"
    rc = main(["sim-distortion", "--code", str(code_path), "--trials", "512",
               "--seed", "2", "--out", str(out2)])
    assert rc == 0
    rep2 = json.loads(out2.read_text())
    assert 0 <= rep2["estimate"] <= 0.5


def test_sim_e2e_cli(tmp_path, toy_pair_file):
    out = tmp_path / "e2e.json"
    rc = main(["sim-e2e", "--pair", toy_pair_file, "--pa", "0.01",
               "--max-trials", "2000", "--target-errors", "5",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["trials"] >= 1


def test_enroll_reconstruct_files_round_trip(tmp_path, toy_pair_file):
    pair = toy_pair_a()
    rng = np.random.default_rng(9)
    x_path = tmp_path / "x.txt"
    x_path.write_text(_bit_text(rng.integers(0, 2, (3, pair.N))))

    key_path = tmp_path / "key.txt"
    helper_path = tmp_path / "helper.txt"
    rc = main(["enroll", "--pair", toy_pair_file, "--x", str(x_path),
               "--out-key", str(key_path), "--out-helper", str(helper_path)])
    assert rc == 0
    keys = key_path.read_text().splitlines()
    assert len(keys) == 3 and all(len(k) == pair.K_fec for k in keys)
    assert len(helper_path.read_text().splitlines()) == 3

    # noiseless reconstruction from the same measurements
    out_path = tmp_path / "rec.txt"
    rc = main(["reconstruct", "--pair", toy_pair_file, "--y", str(x_path),
               "--helper", str(helper_path), "--out-key", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == key_path.read_text()


def test_enroll_reconstruct_files_match_per_word_calls(tmp_path, toy_pair_file, capsys):
    pair = toy_pair_a()
    rng = np.random.default_rng(10)
    xs = [BitVector.from_bits(rng.integers(0, 2, pair.N).tolist()) for _ in range(7)]
    ys = [x ^ BitVector.from_bits((rng.random(pair.N) < 0.1).astype(int).tolist()) for x in xs]
    recs = [enroll(pair, x) for x in xs]
    x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
    x_path.write_text(_bit_text(xs))
    y_path.write_text(_bit_text(ys))

    key_path, helper_path = tmp_path / "key.txt", tmp_path / "helper.txt"
    capsys.readouterr()
    assert main(["enroll", "--pair", toy_pair_file, "--x", str(x_path),
                 "--out-key", str(key_path), "--out-helper", str(helper_path)]) == 0
    assert capsys.readouterr().err == "".join(f"distortion {r.distortion:.6g}\n" for r in recs)
    assert key_path.read_text() == _bit_text(r.secret_key for r in recs)
    assert helper_path.read_text() == _bit_text(r.helper_data for r in recs)

    out_path = tmp_path / "rec.txt"
    assert main(["reconstruct", "--pair", toy_pair_file, "--y", str(y_path),
                 "--helper", str(helper_path), "--out-key", str(out_path)]) == 0
    assert out_path.read_text() == _bit_text(
        reconstruct(pair, y, r.helper_data) for y, r in zip(ys, recs)
    )


def test_enroll_reconstruct_large_file_matches_batch_calls(tmp_path, toy_pair_file):
    pair = toy_pair_a()
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, (2000, pair.N), dtype=np.uint8)
    y = x ^ (rng.random(x.shape) < 0.05).astype(np.uint8)
    keys, helpers, _ = enroll_many(pair, x)
    x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
    x_path.write_text(_bit_text(x))
    y_path.write_text(_bit_text(y))
    key_path, helper_path = tmp_path / "key.txt", tmp_path / "helper.txt"
    assert main(["enroll", "--pair", toy_pair_file, "--x", str(x_path),
                 "--out-key", str(key_path), "--out-helper", str(helper_path)]) == 0
    assert key_path.read_text() == _bit_text(keys)
    assert helper_path.read_text() == _bit_text(helpers)
    out_path = tmp_path / "rec.txt"
    assert main(["reconstruct", "--pair", toy_pair_file, "--y", str(y_path),
                 "--helper", str(helper_path), "--out-key", str(out_path)]) == 0
    assert out_path.read_text() == _bit_text(reconstruct_many(pair, y, helpers))


def test_bit_files_skip_blank_lines_and_carriage_returns(tmp_path, toy_pair_file):
    pair = toy_pair_a()
    x = np.random.default_rng(13).integers(0, 2, (4, pair.N), dtype=np.uint8)
    keys, helpers, _ = enroll_many(pair, x)
    x_path = tmp_path / "x.txt"
    rows = _bit_text(x).splitlines()
    x_path.write_bytes(("\r\n" + rows[0] + "\r\n\r\n  " + rows[1] + " \t\r\n   \r\n"
                        + rows[2] + "\r\n" + rows[3]).encode())
    key_path, helper_path = tmp_path / "key.txt", tmp_path / "helper.txt"
    assert main(["enroll", "--pair", toy_pair_file, "--x", str(x_path),
                 "--out-key", str(key_path), "--out-helper", str(helper_path)]) == 0
    assert key_path.read_bytes() == _bit_text(keys).encode()
    assert helper_path.read_bytes() == _bit_text(helpers).encode()


def test_enroll_reconstruct_empty_files(tmp_path, toy_pair_file):
    for text in ("", "\n \r\n\t\n"):  # no line at all, or only blank lines
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        key_path, helper_path = tmp_path / "key.txt", tmp_path / "helper.txt"
        assert main(["enroll", "--pair", toy_pair_file, "--x", str(empty),
                     "--out-key", str(key_path), "--out-helper", str(helper_path)]) == 0
        assert key_path.read_text() == "" and helper_path.read_text() == ""
        out_path = tmp_path / "rec.txt"
        assert main(["reconstruct", "--pair", toy_pair_file, "--y", str(empty),
                     "--helper", str(empty), "--out-key", str(out_path)]) == 0
        assert out_path.read_text() == ""


@pytest.mark.parametrize("cmd, lines, bad, message", [
    ("enroll", {"x": ["0" * 12, "1" * 11]}, "x", "line 2: length 11, expected 12"),
    ("reconstruct", {"y": ["0" * 12, "1" * 11], "helper": ["0" * 4, "1" * 4]},
     "y", "line 2: length 11, expected 12"),
    ("reconstruct", {"y": ["0" * 12, "1" * 12], "helper": ["0" * 4, "1" * 3]},
     "helper", "line 2: length 3, expected 4"),
    # the blank line counts: the bad word is on line 3 of the file
    ("enroll", {"x": ["0" * 12, "", "0" * 11 + "2"]}, "x", "line 3: '2' is not a bit"),
    ("enroll", {"x": ["0" * 12, "", "x" + "0" * 11]}, "x", "line 3: 'x' is not a bit"),
    ("enroll", {"x": ["0" * 12, "", "00000 000000"]}, "x", "line 3: ' ' is not a bit"),
    ("enroll", {"x": ["0" * 12, "", "0" * 11 + "\u00e9"]}, "x", "line 3: '\u00e9' is not a bit"),
])
def test_bad_bit_line_exit_code(tmp_path, toy_pair_file, capsys, cmd, lines, bad, message):
    argv = [cmd, "--pair", toy_pair_file, "--out-key", str(tmp_path / "k.txt")]
    if cmd == "enroll":
        argv += ["--out-helper", str(tmp_path / "w.txt")]
    for name, rows in lines.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(r + "\n" for r in rows))
        argv += [f"--{name}", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / bad}.txt, {message}\n"


def test_evaluate_cli(tmp_path, toy_pair_file):
    out = tmp_path / "row.json"
    rc = main(["evaluate", "--pair", toy_pair_file,
               "--target-pb", "1e-2", "--l-ref", "8",
               "--max-trials", "20000", "--distortion-trials", "512",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())
    assert row["helper_bits"] == 4
    assert row["R_vq"] == pytest.approx(row["R_fec"] + row["R_w"])
    assert "pc_reference_log2" in row


def test_region_cli(tmp_path):
    out = tmp_path / "region.csv"
    rc = main(["region", "--pa", "0.0149", "--points", "11", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 11
    assert float(rows[0]["Rs"]) == pytest.approx(0.8882, abs=1e-4)

    from nestedtbcc.fixtures import fixture_path

    out2 = tmp_path / "region_aux.csv"
    rc = main(["region", "--pa", "0.0149", "--points", "21", "--aux",
               "--blocklength", "384",
               "--fixture", str(fixture_path("mc_rcu_n384_r13")),
               "--fixture", str(fixture_path("table2_reference")),
               "--out", str(out2)])
    assert rc == 0
    series = [r["series"] for r in csv.DictReader(out2.open())]
    assert series.count("gs_boundary") == 21
    assert {"gs_boundary", "sw_line", "quantizer_rate_approx",
            "quantizer_converse_min_rate", "mc", "rcu", "tbcc_rate_point"} <= set(series)


def test_invalid_input_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--code", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "n": 1}')
    assert main(["spectrum", "--code", str(bad)]) == 2


@pytest.mark.parametrize("field, value", [
    ("m", None), ("C", None), ("B_tilde", 3), ("frozen", [["a"]] * 4),
    ("frozen", [[1.5]] * 4), ("m", 2.7), ("frozen", [[2], [], [], []]),
])
def test_malformed_code_and_pair_json_exit_code(tmp_path, toy_pair_file, field, value):
    d = json.loads((tmp_path / "pair.json").read_text())
    d[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    x = tmp_path / "x.txt"
    x.write_text("0" * 12 + "\n")
    for argv in (
        ["dfree", "--code", str(bad)],
        ["enroll", "--pair", str(bad), "--x", str(x),
         "--out-key", str(tmp_path / "k.txt"), "--out-helper", str(tmp_path / "w.txt")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "nestedtbcc.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dmax", "-1"],
    ["spectrum", "--dmax", "-3"],
    ["design-fec", "--n", "2", "--m", "3", "--kfec", "8", "--target-pb", "1e-2",
     "--wmax", "2", "--dmax", "-1"],
])
def test_negative_truncation_exit_code(tmp_path, argv):
    code_path = tmp_path / "code.json"
    save_code(toy_pair_a().fec_code, str(code_path))
    if argv[0] == "spectrum":
        argv = argv + ["--code", str(code_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", *argv, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "d_max" in proc.stderr


def test_code_past_the_decoder_widths_exit_code(tmp_path):
    # k = 9: 512 in-edges per state, whose edge ranks overflow one-byte backpointers
    code_path = tmp_path / "code.json"
    save_code(random_code(np.random.default_rng(19), m=1, k=9, n=9, ell=4), str(code_path))
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "sim-distortion", "--code", str(code_path),
         "--trials", "8", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "one-byte WAVA backpointers (k <= 8)" in lines[0]


@pytest.mark.parametrize("cmd", ["dfree", "spectrum"])
def test_code_too_large_to_allocate_exit_code(tmp_path, cmd):
    # m = 56: the [2^56, 2] transition table asks for 2^59 bytes, more than any
    # address space, so the request fails before a page is written
    code_path = tmp_path / "code.json"
    save_code(random_code(np.random.default_rng(23), m=56, k=1, n=3, ell=56), str(code_path))
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", cmd, "--code", str(code_path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("kvq, wmax, message", [
    ("1", "4", "need k_vq > k = 1"),
    ("2", "0", "need w_max >= 1"),
])
def test_design_vq_bad_arguments_exit_code(tmp_path, kvq, wmax, message):
    code_path = tmp_path / "code.json"
    save_code(toy_pair_a().fec_code, str(code_path))
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "design-vq", "--code", str(code_path),
         "--kvq", kvq, "--wmax", wmax, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr


@pytest.mark.parametrize("m, kfec, dmax, moved", [
    ("2", "12", None, False),   # truncation 4mn = 16 < N = 24: rechecked at 24
    ("3", "8", "3", True),      # rechecked at 6, where the crossover differs from 7 and 9
    ("3", "8", None, False),    # truncation N = 16: nothing to recheck
])
def test_design_fec_recheck_at_doubled_truncation(tmp_path, m, kfec, dmax, moved):
    out = tmp_path / "fec.json"
    argv = ["design-fec", "--n", "2", "--m", m, "--kfec", kfec, "--target-pb", "1e-2",
            "--wmax", "8", "--seed", "1", "--out", str(out)]
    assert main(argv + (["--dmax", dmax] if dmax else [])) == 0
    prov = json.loads(out.read_text())["provenance"]
    code = load_code(str(out))
    t = int(dmax) if dmax else min(code.N, 4 * int(m) * 2)
    p2 = solve_crossover(weight_enumerator(code, min(code.N, 2 * t)), 1e-2)
    assert prov["p_c_recheck"] == p2
    assert prov["recheck_moved"] == (abs(p2 - prov["p_c_union_bound"])
                                     > 0.01 * prov["p_c_union_bound"]) == moved


def test_design_nested_without_an_input_to_add_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "design-nested", "--pa", "0",
         "--target-pb", "0.1", "--kfec", "8", "--n", "1", "--m", "2", "--wmax", "4",
         "--max-trials", "2000"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "n=1" in proc.stderr


@pytest.mark.parametrize("pa, message", [
    ("0.5", "p_A must be in [0, 0.5), got 0.5"),
    ("0.6", "p_A must be in [0, 0.5), got 0.6"),
    ("-0.1", "p_A must be in [0, 0.5), got -0.1"),
])
def test_design_nested_checks_arguments_before_the_search(monkeypatch, capsys, pa, message):
    # an invalid p_A used to surface only after the whole subcode search, as
    # exit code 3 ("unreachable even at p_A=0.6")
    def search_fec(*args, **kwargs):
        raise AssertionError("search_fec ran before the arguments were checked")

    monkeypatch.setattr(cli.design, "search_fec", search_fec)
    rc = main(["design-nested", "--pa", pa, "--target-pb", "0.1", "--kfec", "16",
               "--n", "3", "--m", "4", "--wmax", "30"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["design-nested", "--distortion-trials", "0"], "need distortion_trials >= 1, got 0"),
    (["design-nested", "--workers", "0"], "need workers >= 1, got 0"),
    (["design-nested", "--workers", "-2"], "need workers >= 1, got -2"),
    (["evaluate", "--l-ref", "0"], "need L >= 1 and N >= 2, got L=0, N=12"),
    (["evaluate", "--l-ref", "-3"], "need L >= 1 and N >= 2, got L=-3, N=12"),
    (["evaluate", "--distortion-trials", "0"], "need distortion_trials >= 1, got 0"),
])
def test_bad_option_exits_before_any_work(monkeypatch, capsys, toy_pair_file, argv, message):
    # --distortion-trials 0 used to fail only after the search and the
    # calibration, --workers 0 ran serially, --l-ref 0 was dropped silently
    # and --l-ref -3 failed after the whole evaluation, as evaluate
    # --distortion-trials 0 did after the whole calibration
    def fail(*args, **kwargs):
        raise AssertionError("the run started before the options were checked")

    monkeypatch.setattr(cli.design, "search_fec", fail)
    monkeypatch.setattr(cli.simulate, "calibrate_pc", fail)
    if argv[0] == "design-nested":
        argv = argv + ["--pa", "0.0149", "--target-pb", "0.1", "--kfec", "16",
                       "--n", "3", "--m", "4", "--wmax", "10"]
    else:
        argv = argv + ["--pair", toy_pair_file, "--target-pb", "0.1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cmd", ["sim-fer", "sim-distortion", "sim-e2e", "evaluate"])
def test_monte_carlo_commands_reject_zero_workers(tmp_path, toy_pair_file, capsys, cmd):
    code_path = tmp_path / "code.json"
    save_code(toy_pair_a().fec_code, str(code_path))
    extra = {"sim-fer": ["--code", str(code_path), "--pc", "0.05"],
             "sim-distortion": ["--code", str(code_path)],
             "sim-e2e": ["--pair", toy_pair_file, "--pa", "0.01"],
             "evaluate": ["--pair", toy_pair_file, "--target-pb", "0.1"]}[cmd]
    assert main([cmd, *extra, "--workers", "0", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: need workers >= 1, got 0\n"


CALIBRATION_FAILURE = ("design failure: crossover calibration failed: target P_B={} "
                       "unreachable even at p_A=0.45\n")


def test_design_failure_exit_code(capsys):
    rc = main([
        "design-nested", "--pa", "0.45", "--target-pb", "1e-6",
        "--kfec", "8", "--n", "2", "--m", "3", "--wmax", "4",
        "--max-trials", "2000", "--seed", "1",
    ])
    assert rc == 3
    assert capsys.readouterr().err == CALIBRATION_FAILURE.format("1e-06")


def test_evaluate_calibration_failure_exit_code(capsys, toy_pair_file):
    # evaluate calibrates from p_A = 0; 500 trials certify no crossover at 1e-9
    assert main(["evaluate", "--pair", toy_pair_file, "--target-pb", "1e-9",
                 "--max-trials", "500"]) == 3
    assert capsys.readouterr().err == ("design failure: crossover calibration failed: target "
                                       "P_B=1e-09 unreachable even at p=0.001953125\n")


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "design-nested" in proc.stdout


def test_runtime_imports_no_scipy():
    # numpy is the package's only runtime dependency; scipy is a test extra
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, nestedtbcc, nestedtbcc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_design_nested_cli_smoke(tmp_path, capsys):
    out = tmp_path / "pair.json"
    rc = main([
        "design-nested", "--pa", "0.0", "--target-pb", "1e-2",
        "--kfec", "8", "--n", "3", "--m", "3", "--wmax", "16",
        "--max-trials", "50000", "--distortion-trials", "512",
        "--seed", "21", "--out", str(out),
    ])
    assert rc == 0
    # the summary prints the stage times, which stay out of the pair file
    assert re.search(r"stage seconds: search_fec [0-9.]+ calibrate [0-9.]+ extend [0-9.]+ "
                     r"freeze [0-9.]+$", capsys.readouterr().err, re.M)
    d = json.loads(out.read_text())
    assert "stage" not in out.read_text()
    assert d["provenance"]["q_bar"] <= d["provenance"]["q_max"]
    from nestedtbcc.keyagree import load_pair

    pair = load_pair(str(out))
    assert pair.K_vq > pair.K_fec == 8


def test_every_option_reaches_its_handler():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    helpers = {"_stop(args)": cli._stop}
    for name, p in sub.choices.items():
        src = inspect.getsource(p.get_default("fn"))
        src += "".join(inspect.getsource(h) for call, h in helpers.items() if call in src)
        for action in p._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in src, (name, action.option_strings)


def test_unread_option_is_rejected(tmp_path, toy_pair_file):
    # --v: the sweep cap is the decoder's own, no subcommand sets it
    pair = toy_pair_a()
    code_path, x_path, out = tmp_path / "code.json", tmp_path / "x.txt", str(tmp_path / "o")
    save_code(pair.fec_code, str(code_path))
    x_path.write_text("0" * pair.N + "\n")
    for argv in (["spectrum", "--code", str(code_path), "--workers", "2"],
                 ["sim-fer", "--code", str(code_path), "--pc", "0.1", "--max-trials", "10",
                  "--v", "4", "--out", out],
                 ["enroll", "--pair", toy_pair_file, "--x", str(x_path), "--out-key", out,
                  "--out-helper", out, "--v", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_spectrum_csv_row_without_a_field_exit_code(tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    path.write_text("d,A_d\n0,1\n3\n")
    assert main(["bound", "--spectrum", str(path), "--pc", "0.1"]) == 2
    assert "lacks a d or A_d field" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["-2,3", "3,0", "3,-1"])
def test_spectrum_csv_row_out_of_range_exit_code(tmp_path, row):
    # a negative weight used to be dropped silently, a count of 0 or less
    # ended in a bare "math domain error"
    path = tmp_path / "spectrum.csv"
    path.write_text(f"d,A_d\n0,1\n{row}\n4,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "bound", "--spectrum", str(path),
         "--pc", "0.1", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    d, a_d = row.split(",")
    assert proc.stderr.startswith("error:") and "needs d >= 0 and A_d > 0" in proc.stderr
    assert f"'d': '{d}', 'A_d': '{a_d}'" in proc.stderr


@pytest.mark.parametrize("argv, content, message", [
    # a spectrum with only A_0 has nothing to bound
    (["bound", "--pc", "0.1", "--spectrum"], "d,A_d\n0,1\n",
     "spectrum has no nonzero-weight term"),
    # a channel-bound header without rows, and a header no fixture has
    (["region", "--pa", "0.0149", "--points", "3", "--fixture"], "p,mc,rcu\n",
     "{}: expected header p,mc,rcu"),
    (["region", "--pa", "0.0149", "--points", "3", "--fixture"], "p,x\n0.1,2\n",
     "{}: unrecognized fixture header ['p', 'x']"),
])
def test_unusable_csv_exits_2_with_one_error_line(tmp_path, capsys, argv, content, message):
    path = tmp_path / "in.csv"
    path.write_text(content)
    assert main([*argv, str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"


# Fuzzing the file readers: every call returns 0 or 2 and raises nothing.
# Generated codes keep m, k, n <= 4 and ell <= 8, so no trellis is large.

_FUZZ = settings(max_examples=60, deadline=None, derandomize=True)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8) | st.text(max_size=2),
    lambda c: st.lists(c, max_size=4) | st.dictionaries(st.text(max_size=2), c, max_size=2),
    max_leaves=6,
)


def _mutate(draw, value):
    """Replace `value`, or one element at some depth inside it, by any JSON value."""
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        value[i] = _mutate(draw, value[i])
        return value
    return draw(_json)


@st.composite
def _code_dicts(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    ell = draw(st.integers(m, 8))

    def bits(rows, cols):
        return [[draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]

    d = {
        "m": m, "k": k, "n": n, "B_tilde": bits(m, k - 1), "C": bits(n, m),
        "D_tilde": bits(n, k - 1), "ell": ell,
        "frozen": [sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
                   for _ in range(ell)],
        "provenance": {},
    }
    key = draw(st.sampled_from(sorted(d)))
    action = draw(st.sampled_from(["keep", "delete", "mutate"]))
    if action == "delete":
        del d[key]
    elif action == "mutate":
        d[key] = _mutate(draw, d[key])
    return d, ell * n


def _assert_exit_0_or_2(argv):
    assert main(argv) in (0, 2), argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_pair(toy_pair_a(), str(path / "pair.json"))
    return path


@_FUZZ
@given(code=_code_dicts(), x=st.lists(st.integers(0, 1), min_size=32, max_size=32))
def test_fuzz_code_and_pair_json(fuzz_dir, code, x):
    d, n_block = code  # n_block: the block length before the mutation
    bad = fuzz_dir / "code.json"
    bad.write_text(json.dumps(d))
    x_path = fuzz_dir / "x.txt"
    x_path.write_text("".join(map(str, x[:n_block])) + "\n")
    out = str(fuzz_dir / "out")
    _assert_exit_0_or_2(["dfree", "--code", str(bad), "--out", out])
    _assert_exit_0_or_2(["spectrum", "--code", str(bad), "--out", out])
    _assert_exit_0_or_2(["enroll", "--pair", str(bad), "--x", str(x_path),
                         "--out-key", out, "--out-helper", out + ".w"])


_cell = st.integers(-3, 40).map(str) | st.text(alphabet="0123456789-.,xe \"\n", max_size=4)


@_FUZZ
@given(
    header=st.sampled_from([["d", "A_d"], ["A_d", "d"], ["d"], ["x", "A_d"], []]),
    rows=st.lists(st.lists(_cell, max_size=3), max_size=5),
    raw=st.none() | st.binary(max_size=24),
)
def test_fuzz_spectrum_csv(fuzz_dir, header, rows, raw):
    path = fuzz_dir / "spectrum.csv"
    if raw is None:
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    else:
        path.write_bytes(raw)
    _assert_exit_0_or_2(["bound", "--spectrum", str(path), "--pc", "0.1",
                         "--out", str(fuzz_dir / "out")])


_lines = st.lists(
    st.text("01", min_size=12, max_size=12) | st.text("01", min_size=4, max_size=4)
    | st.text(st.characters(codec="utf-8"), max_size=14),
    max_size=3,
).map(lambda ls: "".join(line + "\n" for line in ls).encode())


@_FUZZ
@given(x=_lines | st.binary(max_size=30), y=_lines, w=_lines)
def test_fuzz_bit_files(fuzz_dir, x, y, w):
    paths = {}
    for name, content in (("x", x), ("y", y), ("w", w)):
        paths[name] = fuzz_dir / f"{name}.txt"
        paths[name].write_bytes(content)
    pair, out = str(fuzz_dir / "pair.json"), str(fuzz_dir / "out")
    _assert_exit_0_or_2(["enroll", "--pair", pair, "--x", str(paths["x"]),
                         "--out-key", out, "--out-helper", out + ".w"])
    _assert_exit_0_or_2(["reconstruct", "--pair", pair, "--y", str(paths["y"]),
                         "--helper", str(paths["w"]), "--out-key", out])
