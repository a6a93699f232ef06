import copy
from decimal import Decimal

import check

REF = {"exact": {"ok": True}, "approx": {"c0": "1.2345678901234567890"},
       "digits": 20, "bound": "1e-6"}


def _with(value=None, bound=None, ok=True):
    row = copy.deepcopy(REF)
    row["exact"]["ok"] = ok
    if value is not None:
        row["approx"]["c0"] = value
    if bound is not None:
        row["bound"] = bound
    return row


def test_value_within_its_bound_passes():
    moved = str(Decimal(REF["approx"]["c0"]) + Decimal("0.9e-6"))
    assert check.compare_row(_with(moved), REF) == []


def test_value_perturbed_past_its_bound_is_flagged():
    moved = str(Decimal(REF["approx"]["c0"]) + Decimal("1.1e-6"))
    assert check.compare_row(_with(moved), REF)


def test_exact_field_and_looser_bound_are_flagged():
    assert check.compare_row(_with(ok=False), REF)
    assert check.compare_row(_with(bound="1.2e-6"), REF)
    assert check.compare_row(_with(bound="1.05e-6"), REF) == []


def test_nonzero_exit_fails_every_row():
    golden = {"a": REF, "b": REF}
    rows = {"a": _with(), "b": _with()}
    assert check.check_rows(["a", "b"], 0, rows, golden) == (0, [])
    failed, problems = check.check_rows(["a", "b"], 5, rows, golden)
    assert failed == 2 and "exit code 5" in problems[0]


def test_missing_row_fails():
    failed, _ = check.check_rows(["a"], 0, {}, {"a": REF})
    assert failed == 1


def test_sieve_reference_is_trial_division():
    assert check.dk_trial_division(100000000, 3) == 2025
    assert check.dk_trial_division(97, 3) == 3
    assert check.dk_trial_division(1, 3) == 1
    key = check.sieve_key(3, 100000000, 100000099)
    ref = check.reference_row(key, {})
    assert ref["exact"]["sample_values"]["100000000"] == 2025
    bad = copy.deepcopy(ref)
    bad["exact"]["sample_values"]["100000000"] = 2024
    assert check.compare_row(bad, ref)
