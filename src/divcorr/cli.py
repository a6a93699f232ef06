"""Command-line front end: parameter grids, cached sieves, report emission.

Subcommands:
  sieve         build or refresh a cached divisor table
  constants     singular series constants and zeta-power coefficient tables
  polynomial    full asymptotic polynomial with per-coefficient provenance
  predict       conjectured leading constants, lower bounds, exponent table
  verify        brute-force vs predicted comparison reports per decade
  estermann     two-route consistency check of the degree-2 closed forms
  distribution  empirical partial-to-full divisor ratio vs the beta law

`main` refuses an empty list flag, and an --h below 1 wherever h is a shift,
before any command runs.  Each verify target yields (grid values, header
fields, rows) per report into the one report loop of `cmd_verify`.

Exit codes: 0 success, 2 configuration error, 3 resource budget, 4 precision
target unattainable, 5 two-route consistency failure.  Reports carry their
full configuration in header comments / JSON fields and contain no
timestamps, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache, partial

import mpmath as mp

from . import asympt, oracle
from .arith import DivisorTable, RationalExponent, sieve_dk
from .errors import ConsistencyError, PrecisionError, ResourceBudgetError
from .euler import DEFAULT_PRIME_CUTOFF, evaluate_singular_series
from .zeta_series import c_coeffs, stieltjes_table, zeta_power_coeffs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_PRECISION = 4
EXIT_CONSISTENCY = 5

ONE = RationalExponent(1, 1)


def parse_dps(text: str) -> int:
    """--dps: working digits, 30 to 100 (the Stieltjes-constant ceiling)."""
    if not 30 <= (dps := int(text)) <= 100:
        raise argparse.ArgumentTypeError(f"--dps must be 30 to 100, not {dps}")
    return dps


def _at_least_1(flag: str):
    """The argparse type of an int flag that must be at least 1 (--digits,
    --threads), naming the flag when it refuses a value."""
    def int_at_least_1(text: str) -> int:
        if (value := int(text)) < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be at least 1, not {value}")
        return value
    return int_at_least_1


def parse_tol(text: str) -> float:
    """--tol: the estermann check's absolute tolerance, finite and above 0."""
    if not (math.isfinite(tol := float(text)) and tol > 0):
        raise argparse.ArgumentTypeError(f"--tol must be finite and above 0, not {text}")
    return tol


def parse_int_list(text: str) -> list[int]:
    """Comma lists and ranges: '3,5,7', '1..20' (unit step), '1e4..1e7'
    (decade steps for scientific-notation endpoints)."""
    out = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if ".." in piece:
            lo_s, hi_s = piece.split("..")
            scientific = "e" in lo_s.lower() or "e" in hi_s.lower()
            lo, hi = int(float(lo_s)), int(float(hi_s))
            if scientific:
                if lo < 1:  # x *= 10 would never pass hi
                    raise ValueError(f"decade range {piece!r} needs a low end >= 1")
                x = lo
                while x <= hi:
                    out.append(x)
                    x *= 10
            else:
                out.extend(range(lo, hi + 1))
        elif piece:
            out.append(int(float(piece)))
    return out


def parse_rational_list(text: str) -> list[RationalExponent]:
    return [RationalExponent.parse(p) for p in str(text).split(",") if p.strip()]


def _arg_type(parse):
    """`parse` as an argparse type that shows why a value was refused:
    argparse prints only "invalid <type> value" for a bare ValueError."""
    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return typed


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _write_report(args, name: str, text) -> str:
    """Writes the text, or a payload dict as sorted, indented JSON."""
    if isinstance(text, dict):
        text = json.dumps(text, sort_keys=True, indent=2) + "\n"
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


MAX_GRID_POINTS = 1000


def _grid_guard(*lists):
    total = 1
    for seq in lists:
        total *= max(len(seq), 1)
    if total > MAX_GRID_POINTS:
        raise ValueError(
            f"parameter grid of {total} points exceeds the limit {MAX_GRID_POINTS}")


def _meta(args, **extra) -> dict:
    # thread count deliberately omitted: it cannot affect results, and
    # reports must stay byte-identical across thread counts
    return {"precision_dps": args.dps, **extra}


def _table_cache_path(args, k: int, lo: int, hi: int) -> str:
    # the suffix names the file layout (int64 values, CRC-32 trailer), so
    # files written in an older layout are cache misses
    key = hashlib.sha256(f"dk:{k}:{lo}:{hi}:w8crc".encode()).hexdigest()[:16]
    os.makedirs(args.cache_dir, exist_ok=True)
    return os.path.join(args.cache_dir, f"dk_{k}_{lo}_{hi}_{key}.divtab")


def _cached_table(args, k: int, lo: int, hi: int) -> DivisorTable:
    """The cached table, or a fresh sieve written to the cache when the file
    is missing or refused by DivisorTable.load (truncated, bad checksum)."""
    path = _table_cache_path(args, k, lo, hi)
    if os.path.exists(path):
        try:
            return DivisorTable.load(path)
        except ValueError:
            pass
    table = sieve_dk(k, lo, hi, threads=args.threads)
    table.dump(path)
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sieve(args) -> int:
    table = _cached_table(args, args.k, args.lo, args.hi)
    sample = {n: table.dk(n) for n in (args.lo, min(args.lo + 11, args.hi), args.hi)}
    payload = {
        "command": "sieve",
        "k": args.k,
        "lo": args.lo,
        "hi": args.hi,
        "sample_values": {str(n): v for n, v in sample.items()},
    }
    _write_report(args, f"sieve_k{args.k}_{args.lo}_{args.hi}.json", payload)
    return EXIT_OK


def _require_at_least(command: str, low: int, **values):
    """Reject a value below `low` before any sum, naming the command, the
    flag and the value: h < 1 where h is a shift, k or l < 2 where the
    prediction needs them."""
    for name, seq in values.items():
        if bad := [v for v in seq if v < low]:
            raise ValueError(f"{command} requires {name} >= {low}, got {name}={bad[0]}")


def _require_values(args):
    """Reject an empty list flag (`--h 5..1`, `--A ,`) before any sum."""
    for name in ("k", "l", "h", "q", "A", "B"):
        if getattr(args, name, None) == []:
            raise ValueError(f"--{name} needs at least one value")


def cmd_constants(args) -> int:
    _grid_guard(args.k, args.l, args.h)
    with mp.workdps(args.digits):  # the table reads its digits from the context
        gammas = stieltjes_table(args.stieltjes_terms)
    results = []
    with mp.workdps(max(args.dps, args.digits)):  # every printed digit computed
        for k in args.k:
            for l in args.l:
                for h in args.h:
                    record = evaluate_singular_series(h, k, l, Q=args.Q, P=args.P)
                    results.append(json.loads(record.to_json(digits=args.digits)))
                    print(f"k={k} l={l} h={h}: C={mp.nstr(record.C, 12)} "
                          f"f={mp.nstr(record.f, 12)}")
        tables = {
            "stieltjes": [mp.nstr(g, args.digits) for g in gammas],
            "zeta_power_a": {
                str(j): [mp.nstr(v, args.digits) for v in zeta_power_coeffs(j, 6)]
                for j in range(0, 5)
            },
            "zeta_power_c": {
                str(j): [mp.nstr(v, args.digits) for v in c_coeffs(j, 6)]
                for j in range(0, 5)
            },
        }
    payload = {
        "command": "constants",
        "config": {"k": args.k, "l": args.l, "h": args.h, "P": args.P,
                   "Q": args.Q, "digits": args.digits, "dps": args.dps},
        "singular_series": results,
        "tables": tables,
    }
    _write_report(args, "constants.json", payload)
    return EXIT_OK


def cmd_polynomial(args) -> int:
    _grid_guard(args.k, args.l, args.h, args.A)
    payloads = []
    csv_lines = ["k,l,h,A,degree," +
                 ",".join(f"c{d}" for d in range(9))]
    for k in args.k:
        for l in args.l:
            for h in args.h:
                ctx = asympt.coefficient_context(h, k, l, source=args.source, Q=args.Q)
                for A in args.A:
                    poly = asympt.main_polynomial(A, ctx)
                    payloads.append(json.loads(poly.to_json()))
                    coeffs = [mp.nstr(c, 17) for c in poly.coeffs]
                    coeffs += [""] * (9 - len(coeffs))
                    csv_lines.append(
                        f"{k},{l},{h},{A},{poly.degree}," + ",".join(coeffs))
                    print(f"k={k} l={l} h={h} A={A}: degree {poly.degree}, "
                          f"leading {mp.nstr(poly.leading(), 12)}"
                          + ("" if poly.in_proven_range else "  [outside proven range]"))
    payload = {
        "command": "polynomial",
        "config": {"k": args.k, "l": args.l, "h": args.h,
                   "A": [str(a) for a in args.A], "source": args.source,
                   "Q": args.Q, "dps": args.dps},
        "polynomials": payloads,
    }
    _write_report(args, "polynomial.json", payload)
    _write_report(args, "polynomial_coefficients.csv", "\n".join(csv_lines) + "\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    rows = []
    for k in args.k:
        for l in args.l:
            for h in args.h:
                lead = asympt.conjecture_leading(h, k, l)
                bound = asympt.corollary_lower_bound(h, k, l)
                theta = asympt.theta_exponent(k, 0)
                rows.append({
                    "k": k, "l": l, "h": h,
                    "conjectured_leading": mp.nstr(lead, 20),
                    "proven_lower_bound": mp.nstr(bound, 20),
                    "theta_k": str(theta),
                })
                print(f"k={k} l={l} h={h}: leading {mp.nstr(lead, 12)}, "
                      f"lower bound {mp.nstr(bound, 12)}, theta_{k} = {theta}")
    payload = {
        "command": "predict",
        "config": {"k": args.k, "l": args.l, "h": args.h, "dps": args.dps},
        "predictions": rows,
        "exponent_table": {str(kk): str(asympt.theta_base(kk)) for kk in range(2, 9)},
    }
    _write_report(args, "predict.json", payload)
    return EXIT_OK


def _correlation_grid(args, As, Bs, swept=()):
    """(k, l, h, A, B, sweep) in report order, with one brute pass per (k, l)
    for every h, A in `As` and B in `Bs`, and for each B in `swept` too."""
    for k in args.k:
        for l in args.l:
            sweep = oracle.brute_correlation_decades(args.h, k, l, As, [*swept, *Bs], args.x)
            for h in args.h:
                for A in As:
                    for B in Bs:
                        yield k, l, h, A, B, sweep


def _verify_theorem23(args):
    if ONE in args.A and (set(args.k), set(args.l)) != ({2}, {2}):
        raise ValueError("verify theorem23 at A = 1 predicts only k = l = 2, "
                         "by Estermann's polynomial")
    context = cache(partial(asympt.coefficient_context, source="euler"))  # one per (h, k, l)
    for k, l, h, _, A, sweep in _correlation_grid(args, [ONE], args.A):
        poly = asympt.main_polynomial(A, context(h, k, l))
        predict, extra = poly, {}
        if A == ONE:  # the full sum, whose main term is not poly's A -> 1 limit
            predict = partial(mp.polyval, asympt.estermann_closed_forms(h))
            extra = {"prediction": "estermann"}
        yield (dict(k=k, l=l, h=h, A=A), dict(in_proven_range=poly.in_proven_range, **extra),
               [(r.x, r.value, mp.mpf(r.x) * predict(mp.log(r.x))) for r in sweep[h, ONE, A]])


def _verify_theorem22(args):
    _require_at_least("verify theorem22", 2, k=args.k, l=args.l)
    for k, l, h, A, B, sweep in _correlation_grid(args, args.A, args.B):
        lead = asympt.correlation_leading(h, k, l, A, B)
        yield (dict(k=k, l=l, h=h, A=A, B=B),
               dict(in_proven_range=asympt.correlation_validity(k, l, A, B)),
               [(r.x, r.value, lead * r.x * mp.log(r.x) ** (k + l - 2)) for r in sweep[h, A, B]])


def _verify_theorem21(args):
    for k in args.k:
        for A in args.A:
            # one stream of d_k(n, A) for every q, h and x
            sums = oracle.brute_ap_sweep(k, A, [(q, h) for q in args.q for h in args.h], args.x)
            for q in args.q:
                for h in args.h:
                    terms = [asympt.ap_main_term(x, q, h, k, A) for x in args.x]
                    yield (dict(k=k, q=q, h=h, A=A), dict(residue_class_ok=terms[0].residue_ok),
                           [(t.x, obs, t.value) for t, obs in zip(terms, sums[q, h])])


def _verify_corollary3(args):
    if any(B.a == 0 for B in args.B):
        raise ValueError("corollary3 requires B > 0")
    _require_at_least("verify corollary3", 2, k=args.k, l=args.l)
    for k, l, h, A, B, sweep in _correlation_grid(args, args.A, args.B, [ONE]):
        gap = asympt.partial_vs_full_leading_gap(h, k, l, A, B)
        rows, Bf = [], B.as_fraction()
        for rf, rp in zip(sweep[h, A, ONE], sweep[h, A, B]):
            observed = Fraction(rf.value) - Fraction(rp.value) / Bf ** (l - 1)
            scale = rf.x * mp.log(rf.x) ** (k + l - 3)
            rows.append((rf.x, mp.mpf(observed.numerator) / observed.denominator, scale))
        yield (dict(k=k, l=l, h=h, A=A, B=B),
               dict(leading_gap=mp.nstr(abs(gap), 6),
                    note="predicted column is the x log^(k+l-3) x scale"), rows)


_VERIFY_TARGETS = {"theorem21": _verify_theorem21, "theorem22": _verify_theorem22,
                   "theorem23": _verify_theorem23, "corollary3": _verify_corollary3}


def cmd_verify(args) -> int:
    """Each target yields, per report, the grid values that name it (a
    rational a/b written adb), its own header fields and its rows (x,
    observed, predicted); every report is built before the first is written."""
    reports = []
    for params, header, rows in _VERIFY_TARGETS[args.target](args):
        title = "_".join([args.target, *(f"{name}{value}".replace("/", "d")
                                         for name, value in params.items())])
        rep = oracle.ComparisonReport(title, _meta(args, mode=args.target, **params, **header))
        for row in rows:
            rep.add(*row)
        reports.append(rep)
    for rep in reports:
        _write_report(args, rep.title + ".csv", rep.to_csv())
        print(f"{rep.title}: final ratio {mp.nstr(rep.rows[-1]['ratio'], 8)}")
    return EXIT_OK


def cmd_estermann(args) -> int:
    failures = 0
    rows = []
    for h in args.h:
        ctx = asympt.coefficient_context(h, 2, 2, source=args.source, Q=args.Q)
        chk = asympt.estermann_coefficients(ctx, tol=args.tol)
        rows.append({
            "h": h,
            "closed": [mp.nstr(c, 20) for c in chk.closed],
            "assembled": [mp.nstr(c, 20) for c in chk.assembled],
            "max_diff": mp.nstr(chk.max_diff, 6),
            "tolerance": mp.nstr(chk.tolerance, 6),
            "relaxed_to_tail_bound": chk.relaxed,
            "ok": chk.ok,
        })
        status = "ok" if chk.ok else "FAIL"
        note = " (tolerance relaxed to reported tail bound)" if chk.relaxed else ""
        print(f"h={h}: max diff {mp.nstr(chk.max_diff, 4)} vs "
              f"tol {mp.nstr(chk.tolerance, 4)} -> {status}{note}")
        if not chk.ok:
            failures += 1
    payload = {
        "command": "estermann",
        "config": {"h": args.h, "Q": args.Q, "source": args.source,
                   "tol": args.tol, "dps": args.dps},
        "checks": rows,
    }
    _write_report(args, "estermann.json", payload)
    if failures:
        raise ConsistencyError(f"{failures} shift(s) failed the two-route check")
    return EXIT_OK


def cmd_distribution(args) -> int:
    _require_at_least("distribution", 2, k=[args.k])
    rows = []
    dists = oracle.empirical_distribution(args.k, args.A, args.x)
    limit = asympt.bareikis_cdf(args.k, args.A)
    for x, dist in zip(args.x, dists):
        resid = dist.scaling_residual()
        resid_x = mp.mpf(resid.numerator) / resid.denominator / x
        rows.append({
            "x": x,
            "mean": f"{dist.mean.numerator}/{dist.mean.denominator}",
            "mean_float": mp.nstr(mp.mpf(dist.mean.numerator) / dist.mean.denominator, 15),
            "beta_law_cdf": mp.nstr(limit, 15),
            "scaling_residual_over_x": mp.nstr(resid_x, 8),
            "histogram": dist.histogram,
        })
        print(f"x={x}: mean {float(dist.mean):.6f}, beta-law limit "
              f"{mp.nstr(limit, 8)}, scaling residual/x {mp.nstr(resid_x, 4)}")
    payload = {
        "command": "distribution",
        "config": {"k": args.k, "A": str(args.A), "x": args.x, "dps": args.dps},
        "rows": rows,
    }
    _write_report(args, f"distribution_k{args.k}.json", payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file, read as flags; CLI flags win")
    p.add_argument("--out-dir", default="reports", help="report directory")
    p.add_argument("--cache-dir", default=".divcorr-cache")
    p.add_argument("--threads", type=_at_least_1("--threads"), default=1)
    p.add_argument("--dps", type=parse_dps, default=40, help="working decimal digits, 30 to 100")


def build_parser() -> argparse.ArgumentParser:
    ints, rationals = _arg_type(parse_int_list), _arg_type(parse_rational_list)
    ap = argparse.ArgumentParser(
        prog="divcorr",
        description="Divisor correlation sums: exact oracles and predictions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build/cache a divisor table")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("constants", help="singular series and zeta tables")
    _add_common(p)
    p.add_argument("--k", type=ints, default=[2])
    p.add_argument("--l", type=ints, default=[2])
    p.add_argument("--h", type=ints, default=[1])
    p.add_argument("--P", type=int, default=DEFAULT_PRIME_CUTOFF, help="prime cutoff")
    p.add_argument("--Q", type=int, default=10**4, help="Dirichlet truncation")
    p.add_argument("--digits", type=_at_least_1("--digits"), default=30)
    p.add_argument("--stieltjes-terms", type=int, default=6)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("polynomial", help="asymptotic polynomial + provenance")
    _add_common(p)
    p.add_argument("--k", type=ints, default=[2])
    p.add_argument("--l", type=ints, default=[2])
    p.add_argument("--h", type=ints, default=[1])
    p.add_argument("--A", type=rationals, default=[RationalExponent(1, 2)])
    p.add_argument("--source", choices=["euler", "dirichlet"], default="euler")
    p.add_argument("--Q", type=int, default=10**6)
    p.set_defaults(func=cmd_polynomial)

    p = sub.add_parser("predict", help="leading constants and exponent table")
    _add_common(p)
    p.add_argument("--k", type=ints, default=[2])
    p.add_argument("--l", type=ints, default=[2])
    p.add_argument("--h", type=ints, default=[1])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="brute-force vs predicted reports")
    _add_common(p)
    p.add_argument("target", choices=list(_VERIFY_TARGETS))
    p.add_argument("--k", type=ints, default=[2])
    p.add_argument("--l", type=ints, default=[2])
    p.add_argument("--h", type=ints, default=[1])
    p.add_argument("--q", type=ints, default=[3])
    p.add_argument("--A", type=rationals, default=[RationalExponent(1, 2)])
    p.add_argument("--B", type=rationals, default=[RationalExponent(1, 4)])
    p.add_argument("--x", type=ints, default=[10**4, 10**5, 10**6])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estermann", help="two-route closed-form check")
    _add_common(p)
    p.add_argument("--h", type=ints, default=parse_int_list("1..20"))
    p.add_argument("--Q", type=int, default=10**6)
    p.add_argument("--source", choices=["euler", "dirichlet"], default="dirichlet")
    p.add_argument("--tol", type=parse_tol, default=1e-8)
    p.set_defaults(func=cmd_estermann)

    p = sub.add_parser("distribution", help="partial/full ratio distribution")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--A", type=_arg_type(RationalExponent.parse), default=RationalExponent(1, 2))
    p.add_argument("--x", type=ints, default=[10**5, 10**6])
    p.set_defaults(func=cmd_distribution)

    return ap


def _with_config_flags(argv: list[str]) -> list[str]:
    """argv with each `key = value` of its --config file put in as the flag
    --key=value right after the subcommand, so the parser types and checks
    it like any flag, and a flag the user gives, coming later, wins."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    flags = [f"--{key.replace('_', '-')}={val}" for key, val in load_config_file(path).items()]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _with_config_flags(sys.argv[1:] if argv is None else list(argv)))
        _require_values(args)
        command = " ".join(filter(None, [args.command, getattr(args, "target", None)]))
        if hasattr(args, "h") and command != "verify theorem21":  # there h is a residue class
            _require_at_least(command, 1, h=args.h)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:  # a refused value, an unreadable config file
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        mp.mp.dps = args.dps
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
