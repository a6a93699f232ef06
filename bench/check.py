"""Output checker: divcorr report files -> keyed rows -> pass/fail against references.

An operation is one report row: one estermann shift, one theorem23 decade,
one distribution x, one polynomial, or one sieve table.  Each row is a dict

    {"exact": {field: value}, "approx": {field: decimal string},
     "digits": significant digits the report prints approx fields with,
     "bound": the truncation/tail bound the report states, or None}

Exact fields (brute sums, distribution means, sieve samples, flags) must
equal the reference.  An approx field may differ from the reference by the
larger of the two stated bounds plus the rounding of the printed digits.  A
row whose stated bound is looser than the reference's by more than
BOUND_SLACK also fails: a speed-up bought by cutting Q, P or precision shows
up as failed rows.  Sieve samples are checked against trial division, so
they need no stored reference; everything else is compared with
bench/golden.json, which bench/golden.py writes.
"""

from __future__ import annotations

import csv
import glob
import json
import os
from decimal import Decimal, localcontext

BOUND_SLACK = Decimal("0.1")


def estermann_key(Q: int, h: int) -> str:
    return f"estermann Q={Q} h={h}"


def theorem23_key(k: int, l: int, A: str, h: int, x: int) -> str:
    return f"theorem23 k={k} l={l} A={A} h={h} x={x}"


def distribution_key(k: int, A: str, x: int) -> str:
    return f"distribution k={k} A={A} x={x}"


def polynomial_key(source: str, Q: int | None, k: int, l: int, h: int, A: str) -> str:
    q = Q if source == "dirichlet" else "-"
    return f"polynomial {source} Q={q} k={k} l={l} h={h} A={A}"


def sieve_key(k: int, lo: int, hi: int) -> str:
    return f"sieve k={k} lo={lo} hi={hi}"


def _row(exact=None, approx=None, digits=0, bound=None) -> dict:
    return {"exact": exact or {}, "approx": approx or {}, "digits": digits, "bound": bound}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def parse_reports(out_dir: str) -> dict:
    """Every row found in the report files of one invocation's --out-dir."""
    rows = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        name = os.path.basename(path)
        if name == "estermann.json":
            rep = _load_json(path)
            Q = rep["config"]["Q"]
            for c in rep["checks"]:
                approx = {f"closed{i}": v for i, v in enumerate(c["closed"])}
                approx.update({f"assembled{i}": v for i, v in enumerate(c["assembled"])})
                rows[estermann_key(Q, c["h"])] = _row(
                    exact={"ok": c["ok"]}, approx=approx, digits=20, bound=c["tolerance"])
        elif name == "polynomial.json":
            rep = _load_json(path)
            cfg = rep["config"]
            for p in rep["polynomials"]:
                key = polynomial_key(cfg["source"], cfg["Q"], p["k"], p["l"], p["h"], p["A"])
                rows[key] = _row(
                    exact={"degree": p["degree"], "in_proven_range": p["in_proven_range"]},
                    approx={f"c{d}": c for d, c in enumerate(p["coefficients"])},
                    digits=25, bound=p["tail_bound"])
        elif name.startswith("distribution_") and name.endswith(".json"):
            rep = _load_json(path)
            cfg = rep["config"]
            for r in rep["rows"]:
                rows[distribution_key(cfg["k"], cfg["A"], r["x"])] = _row(
                    exact={"mean": r["mean"]},
                    approx={"beta_law_cdf": r["beta_law_cdf"]}, digits=15)
        elif name.startswith("theorem23_") and name.endswith(".csv"):
            meta, table = _read_report_csv(path)
            for r in table:
                key = theorem23_key(int(meta["k"]), int(meta["l"]), meta["A"],
                                    int(meta["h"]), int(r["x"]))
                rows[key] = _row(exact={"observed": r["observed"]},
                                 approx={"predicted": r["predicted"]}, digits=17)
        elif name.startswith("sieve_") and name.endswith(".json"):
            rep = _load_json(path)
            rows[sieve_key(rep["k"], rep["lo"], rep["hi"])] = _row(
                exact={"sample_values": rep["sample_values"]})
    return rows


def _read_report_csv(path):
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def dk_trial_division(n: int, k: int) -> int:
    """d_k(n) from a trial-division factorization: prod over p^e || n of C(e+k-1, k-1)."""
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out *= _binom(e + k - 1, k - 1)
        p += 1 if p == 2 else 2
    if n > 1:
        out *= k
    return out


def _binom(n: int, r: int) -> int:
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out


def reference_row(key: str, golden: dict) -> dict | None:
    if key.startswith("sieve "):
        fields = dict(part.split("=") for part in key.split()[1:])
        k, lo, hi = int(fields["k"]), int(fields["lo"]), int(fields["hi"])
        samples = (lo, min(lo + 11, hi), hi)
        return _row(exact={"sample_values": {str(n): dk_trial_division(n, k) for n in samples}})
    return golden.get(key)


def _bound(row) -> Decimal:
    return Decimal(row["bound"]) if row.get("bound") is not None else Decimal(0)


def compare_row(row: dict, ref: dict) -> list[str]:
    """Reasons the row misses its reference; empty when it passes."""
    problems = []
    for field, want in ref["exact"].items():
        if row["exact"].get(field) != want:
            problems.append(f"{field}: {row['exact'].get(field)!r} != reference {want!r}")
    bound, ref_bound = _bound(row), _bound(ref)
    if bound > ref_bound * (1 + BOUND_SLACK):
        problems.append(f"stated bound {bound} looser than reference {ref_bound}")
    with localcontext() as ctx:
        ctx.prec = 60
        rounding = Decimal(10) ** (1 - max(ref["digits"], 1))
        for field, want in ref["approx"].items():
            got = row["approx"].get(field)
            if got is None:
                problems.append(f"{field}: missing")
                continue
            g, w = Decimal(got), Decimal(want)
            tol = max(bound, ref_bound) + rounding * max(abs(g), abs(w))
            if abs(g - w) > tol:
                problems.append(f"{field}: {got} misses reference {want} by more than {tol:.3e}")
    return problems


def check_rows(expected: list[str], rc: int, rows: dict, golden: dict) -> tuple[int, list[str]]:
    """(failed row count, problems) for one invocation that should produce `expected`."""
    if rc != 0:
        return len(expected), [f"exit code {rc}: all {len(expected)} rows fail"]
    failed, problems = 0, []
    for key in expected:
        ref = reference_row(key, golden)
        row = rows.get(key)
        if ref is None:
            why = ["no reference"]
        elif row is None:
            why = ["row missing from the reports"]
        else:
            why = compare_row(row, ref)
        if why:
            failed += 1
            problems.extend(f"{key}: {w}" for w in why)
    return failed, problems


def tail_bound_max(rows: dict) -> float:
    """Largest truncation or tail bound the rows state; 0 when all are exact."""
    return max((float(_bound(r)) for r in rows.values()), default=0.0)
