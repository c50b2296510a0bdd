import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import toy_pair_a
from nestedtbcc.cli import main
from nestedtbcc.encoder import load_code, save_code
from nestedtbcc.gf2 import BitVector
from nestedtbcc.keyagree import read_bit_lines, save_pair, write_bit_lines


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
    xs = [BitVector.from_bits(rng.integers(0, 2, pair.N).tolist()) for _ in range(3)]
    x_path = tmp_path / "x.txt"
    write_bit_lines(str(x_path), xs)

    key_path = tmp_path / "key.txt"
    helper_path = tmp_path / "helper.txt"
    rc = main(["enroll", "--pair", toy_pair_file, "--x", str(x_path),
               "--out-key", str(key_path), "--out-helper", str(helper_path)])
    assert rc == 0
    keys = read_bit_lines(str(key_path))
    helpers = read_bit_lines(str(helper_path))
    assert len(keys) == 3 and all(k.n == pair.K_fec for k in keys)

    # noiseless reconstruction from the same measurements
    out_path = tmp_path / "rec.txt"
    rc = main(["reconstruct", "--pair", toy_pair_file, "--y", str(x_path),
               "--helper", str(helper_path), "--out-key", str(out_path)])
    assert rc == 0
    rec = read_bit_lines(str(out_path))
    assert rec == keys


def test_evaluate_cli(tmp_path, toy_pair_file):
    out = tmp_path / "row.json"
    rc = main(["evaluate", "--pair", toy_pair_file, "--pa", "0.0149",
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
    series = {r["series"] for r in csv.DictReader(out2.open())}
    assert {"gs_boundary", "sw_line", "quantizer_rate_approx",
            "quantizer_converse_min_rate", "mc", "rcu", "tbcc_rate_point"} <= series


def test_invalid_input_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--code", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "n": 1}')
    assert main(["spectrum", "--code", str(bad)]) == 2


@pytest.mark.parametrize("field, value", [
    ("m", None), ("C", None), ("B_tilde", 3), ("frozen", [["a"]] * 4),
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
        assert proc.stderr.startswith("error:")


def test_design_failure_exit_code():
    rc = main([
        "design-nested", "--pa", "0.45", "--target-pb", "1e-6",
        "--kfec", "8", "--n", "2", "--m", "3", "--wmax", "4",
        "--max-trials", "2000", "--seed", "1",
    ])
    assert rc == 3


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "nestedtbcc.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "design-nested" in proc.stdout


def test_design_nested_cli_smoke(tmp_path):
    out = tmp_path / "pair.json"
    rc = main([
        "design-nested", "--pa", "0.0", "--target-pb", "1e-2",
        "--kfec", "8", "--n", "3", "--m", "3", "--wmax", "16",
        "--max-trials", "50000", "--distortion-trials", "512",
        "--seed", "21", "--out", str(out),
    ])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["provenance"]["q_bar"] <= d["provenance"]["q_max"]
    from nestedtbcc.keyagree import load_pair

    pair = load_pair(str(out))
    assert pair.K_vq > pair.K_fec == 8
