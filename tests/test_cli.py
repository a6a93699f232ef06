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


@pytest.mark.parametrize("text", ["0e0..1e3", "-1e2..1e3", "5,0e1..1e2"])
def test_decade_range_below_1_is_rejected(tmp_path, capsys, text):
    """A decade range whose low end is 0 or negative never reached hi and
    grew its list without end; it is a ValueError, and the CLI exits 2."""
    with pytest.raises(ValueError, match="low end >= 1"):
        parse_int_list(text)
    code, out = run(tmp_path, "verify", "theorem22", "--x", text)
    assert code == 2
    assert "--x" in capsys.readouterr().err
    assert not out.exists()


def test_sieve_and_cache(tmp_path):
    code, out = run(tmp_path, "sieve", "--k", "2", "--hi", "5000")
    assert code == 0
    blob = json.loads((out / "sieve_k2_1_5000.json").read_text())
    assert blob["sample_values"]["12"] == 6
    assert "cache" not in blob  # the file name hashes the cache layout
    assert len(os.listdir(tmp_path / "cache")) == 1
    code2, _ = run(tmp_path, "sieve", "--k", "2", "--hi", "5000")
    assert code2 == 0  # second run reads the cache


def test_damaged_cache_is_resieved(tmp_path):
    """A cache file that fails its checksum is a miss: sieved again and rewritten."""
    code, out = run(tmp_path, "sieve", "--k", "3", "--hi", "5000")
    assert code == 0
    report = (out / "sieve_k3_1_5000.json").read_bytes()
    (cache,) = (tmp_path / "cache").iterdir()
    good = cache.read_bytes()
    damaged = bytearray(good)
    damaged[25 + 8 * 11] ^= 0x01  # the value of n = 12
    cache.write_bytes(bytes(damaged))
    code, out = run(tmp_path, "sieve", "--k", "3", "--hi", "5000")
    assert code == 0
    assert (out / "sieve_k3_1_5000.json").read_bytes() == report
    assert cache.read_bytes() == good


@pytest.mark.parametrize("damage", ["truncated", "flipped crc"])
def test_short_or_bad_crc_cache_is_resieved(tmp_path, damage):
    """A cache file cut short, or with a flipped CRC byte, is sieved again
    and rewritten whole, and the report does not change."""
    code, out = run(tmp_path, "sieve", "--k", "3", "--lo", "1000", "--hi", "9000")
    assert code == 0
    report = (out / "sieve_k3_1000_9000.json").read_bytes()
    (cache,) = (tmp_path / "cache").iterdir()
    good = cache.read_bytes()
    if damage == "truncated":
        cache.write_bytes(good[: len(good) // 2])
    else:
        cache.write_bytes(good[:-1] + bytes([good[-1] ^ 0x80]))
    code, out = run(tmp_path, "sieve", "--k", "3", "--lo", "1000", "--hi", "9000")
    assert code == 0
    assert (out / "sieve_k3_1000_9000.json").read_bytes() == report
    assert cache.read_bytes() == good
    assert os.listdir(tmp_path / "cache") == [cache.name]


def test_sieve_streams_in_window_memory(tmp_path):
    """`sieve` over 2^22 cells, a miss and then a hit, each traces under
    8 MB of allocations: the values (32 MB as one int64 array) stream to
    the file window by window, and a hit checks the CRC in chunks and maps
    the file."""
    import tracemalloc

    lo = 10**8
    argv = ("sieve", "--k", "3", "--lo", str(lo), "--hi", str(lo + 2**22 - 1))
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, _ = run(tmp_path, *argv)
            assert code == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    (cache,) = (tmp_path / "cache").iterdir()
    assert cache.stat().st_size == 25 + 8 * 2**22 + 4
    assert max(peaks) < 8 * 2**20, peaks


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


@pytest.mark.parametrize("dps", ["29", "101", "0", "5"])
def test_dps_outside_its_range_exits_2(tmp_path, dps):
    """--dps 5 used to exit 0 with a wrong c0, and 120 to exit 4 at the
    Stieltjes ceiling; a config file goes through the same parser."""
    code, out = run(tmp_path, "predict", "--k", "2", "--l", "2", "--dps", dps)
    assert code == 2 and not out.exists()
    conf = tmp_path / "run.conf"
    conf.write_text(f"dps = {dps}\n")
    code, out = run(tmp_path, "predict", "--config", str(conf))
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_below_1_exits_2(tmp_path, capsys, digits):
    """--digits 0 exited 0 and wrote ".0e+0" for every number."""
    code, out = run(tmp_path, "constants", "--digits", digits)
    assert code == 2 and not out.exists()
    assert "--digits must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["polynomial", "--A", "1/0"],
                                  ["distribution", "--A", "1/0"],
                                  ["verify", "theorem22", "--B", "1/0", "--x", "1e3"],
                                  ["polynomial", "--config", "{conf}"]],
                         ids=["polynomial", "distribution", "verify", "config"])
def test_zero_denominator_exits_2(tmp_path, capsys, argv):
    """A = 1/0 raised ZeroDivisionError out of main: exit 1 and a traceback."""
    conf = tmp_path / "zero.conf"
    conf.write_text("A = 1/0\n")
    code, out = run(tmp_path, *[a.format(conf=conf) for a in argv])
    assert code == 2 and not out.exists()
    assert "1/0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (("polynomial", "--A", "1/0"), "argument --A: RationalExponent '1/0' has a zero denominator"),
    (("distribution", "--A", "5/4"), "argument --A: RationalExponent requires 0 <= a/b <= 1"),
])
def test_refused_value_shows_its_reason(tmp_path, capsys, argv, reason):
    """argparse printed only "invalid parse_rational_list value: '1/0'" for
    a type's ValueError; its reason now reaches stderr, and the exit is 2."""
    code, out = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert reason in err and "invalid" not in err


@pytest.mark.parametrize("dps", [30, 100])
def test_dps_range_ends_are_accepted(tmp_path, dps):
    code, out = run(tmp_path, "predict", "--k", "2", "--l", "2", "--dps", str(dps))
    assert code == 0
    assert json.loads((out / "predict.json").read_text())["config"]["dps"] == dps


def test_polynomial_with_l_1(tmp_path):
    """l = 1 used to exit 2: the empty log series of the C-factor had no max."""
    code, out = run(tmp_path, "polynomial", "--k", "2", "--l", "1", "--h", "2")
    assert code == 0
    poly = json.loads((out / "polynomial.json").read_text())["polynomials"][0]
    assert poly["coefficients"][0].startswith("0.154431329803065721")  # 2 gamma - 1
    assert float(poly["coefficients"][1]) == 1


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


def test_config_values_are_typed_by_the_parser(tmp_path):
    """A config value goes through its flag's type: k = 3 is an int."""
    conf = tmp_path / "dist.conf"
    conf.write_text("k = 3\nx = 1e4\n")
    code, out = run(tmp_path, "distribution", "--config", str(conf))
    assert code == 0
    blob = json.loads((out / "distribution_k3.json").read_text())
    assert blob["config"]["k"] == 3 and blob["config"]["x"] == [10**4]


def test_config_supplies_required_flags(tmp_path):
    conf = tmp_path / "sieve.conf"
    conf.write_text("k = 2\nhi = 5000\n")
    code, out = run(tmp_path, "sieve", "--config", str(conf))
    assert code == 0
    assert json.loads((out / "sieve_k2_1_5000.json").read_text())["sample_values"]["12"] == 6


def test_config_values_meet_the_flag_choices(tmp_path, capsys):
    conf = tmp_path / "bogus.conf"
    conf.write_text("source = bogus\n")
    code, out = run(tmp_path, "polynomial", "--config", str(conf))
    assert code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_resource_exit_3(tmp_path):
    code, _ = run(tmp_path, "sieve", "--k", "2", "--hi", str(10**9 + 7))
    assert code == 3


def test_brute_budget_exit_3(tmp_path):
    """Streaming holds memory to a window, but x past MAX_BRUTE_X still exits 3."""
    code, _ = run(tmp_path, "verify", "theorem22", "--k", "2", "--l", "2", "--A", "1/2",
                  "--B", "1/2", "--h", "1", "--x", str(10**8 + 1))
    assert code == 3


def test_negative_shift_exits_2_before_any_sum(tmp_path):
    """A negative h is a configuration error, raised before any window is
    sieved; no report is written."""
    code, out = run(tmp_path, "verify", "theorem22", "--k", "2", "--l", "2", "--A", "1/2",
                    "--B", "1/2", "--h=-3", "--x", "1e3..1e4")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify theorem22", "verify theorem23",
                                     "verify corollary3", "predict", "constants",
                                     "polynomial", "estermann"])
def test_zero_shift_exits_2_before_any_sum(tmp_path, capsys, command):
    """h = 0 used to reach factorize (in verify, after the brute sums) and
    fail there, with a message that named neither h nor the command."""
    cutoffs = ["--x", "1e3"] if command.startswith("verify") else []
    code, out = run(tmp_path, *command.split(), "--h", "1,0", *cutoffs)
    assert code == 2
    err = capsys.readouterr().err
    assert command in err and "h=0" in err
    assert not out.exists()


def test_theorem21_takes_residue_class_0(tmp_path):
    """In theorem21 h is a residue class mod q, and h = 0 is one."""
    code, out = run(tmp_path, "verify", "theorem21", "--k", "2", "--A", "1/2", "--q", "3",
                    "--h", "0", "--x", "1e3")
    assert code == 0
    assert (out / "theorem21_k2_q3_h0_A1d2.csv").exists()


@pytest.mark.parametrize("command", ["theorem21", "theorem22", "theorem23", "corollary3",
                                     "distribution"])
def test_empty_cutoff_list_exits_2(tmp_path, capsys, command):
    """`--x ,` is a configuration error, not an IndexError traceback."""
    argv = ["distribution"] if command == "distribution" else ["verify", command]
    code, out = run(tmp_path, *argv, "--x", ",")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_corollary3_with_B_0_exits_2(tmp_path, capsys):
    """B = 0 is a configuration error for every l, not a ZeroDivisionError."""
    for l in ("1", "2", "3"):
        code, out = run(tmp_path, "verify", "corollary3", "--k", "2", "--l", l, "--A", "1/2",
                        "--B", "1/4,0", "--h", "1", "--x", "1e3")
        assert code == 2
        assert "requires B > 0" in capsys.readouterr().err
        assert not out.exists()


def test_large_orders_exit_0_or_4(tmp_path):
    """(k, l) = (6, 5) ended in an OverflowError traceback (exit 1) from the
    Euler base's rounding amplifier."""
    code, _ = run(tmp_path, "polynomial", "--k", "6", "--l", "5", "--h", "1", "--A", "1/2")
    assert code in (0, 4)


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


def test_distribution_rows_follow_x_not_its_order(tmp_path):
    def rows(xs):
        out = tmp_path / xs
        code = main(["distribution", "--k", "3", "--A", "1/2", "--x", xs,
                     "--out-dir", str(out), "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        blob = json.loads((out / "distribution_k3.json").read_text())
        return {row["x"]: row for row in blob["rows"]}, [row["x"] for row in blob["rows"]]

    ascending, order = rows("1000,5000,20000")
    assert order == [1000, 5000, 20000]
    shuffled, order = rows("20000,1000,5000")
    assert order == [20000, 1000, 5000]
    assert shuffled == ascending
    single, _ = rows("5000")
    assert single[5000] == ascending[5000]


def test_determinism_across_threads(tmp_path):
    """The sieve, the one threaded path, writes identical reports and cache
    files for different thread counts, byte for byte (three segments)."""

    def run_with(threads):
        out = tmp_path / f"rep{threads}"
        cache = tmp_path / f"cache{threads}"
        argv = ["sieve", "--k", "3", "--lo", "1000", "--hi", "600000",
                "--threads", str(threads), "--out-dir", str(out), "--cache-dir", str(cache)]
        assert main(argv) == 0
        (table,) = cache.iterdir()
        return (out / "sieve_k3_1000_600000.json").read_bytes(), table.read_bytes()

    a = run_with(1)
    b = run_with(3)
    assert a[0] and a == b
