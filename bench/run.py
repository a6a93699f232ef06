"""divcorr benchmark: real CLI invocations on seeded workloads, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout that holds `src/divcorr`.  Each invocation is
a fresh interpreter with `--threads 1`, started one at a time from this
process (a closed loop with one client), with a fresh --out-dir and
--cache-dir inside `.bench-tmp/`, so every lru_cache starts cold.  One
iteration is the workload's invocations in order; iterations repeat until
the next one would end after S seconds (there is always at least one).
Reports are checked against bench/golden.json after each invocation,
outside the timed region.  Right before each invocation the runner times a
fixed job in a fresh interpreter (speed.py); the run's times are rescaled by
the median of those job times to the speed at which the job takes
speed.REF_S, so that a slow spell of the shared machine cancels.  A workload
whose time the job does not follow (Workload.rescale) reports raw times.

--trace 0 reports the end-to-end metrics:
    wall_s       first compute call to last report written, summed over the
                 invocations of an iteration, at the reference speed; median
                 over iterations
    setup_s      process start to the first compute call, at the reference
                 speed; median over every untraced invocation
    peak_rss_mb  largest ru_maxrss among an iteration's processes; median
--trace 1 traces the first iteration (spans.py) and reports the per-layer
metrics of BENCHMARK.json, with the untraced iterations after it giving
trace.overhead_frac, and the wall time before rescaling (wall_raw_s) and the
job's time (ref_s) as diagnostics.

Failed report rows and exits go to `failed` / `attempted` in the last line,
which is one JSON object; the lines before it print each metric with its
unit, and the run's metadata.  --out appends the full result record to FILE
as one JSON line; bench/compare.py diffs two such files.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("arith", "asympt", "cli", "errors", "euler", "jets", "oracle", "zeta_series")
INVOCATION_TIMEOUT_S = 120
# a run must end well inside 180 s, whatever --seconds says
RUN_BUDGET_S = 150

# layer spans whose self time the per-layer metrics account for; the rest of
# the traced wall time is trace.unattributed_s
LISTED_SPANS = (
    "euler.varphi_table", "euler.dirichlet_partials", "euler.cf_euler_jet",
    "euler.PrimeTailMoments", "jets.Jet2.mul", "zeta_series.prime_power_log_moments",
    "euler.singular_constant", "zeta_series.stieltjes_table", "asympt.main_polynomial",
    "asympt.estermann_coefficients", "asympt.coefficient_context",
    "arith.divisor_count_array", "oracle.partial_divisor_array",
    "oracle.brute_correlation_decades", "oracle.empirical_distribution",
    "arith.sieve_dk", "arith.DivisorTable.dump", "arith.DivisorTable.load",
    "arith.spf_array", "cli",
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(argv, mode: str, out_dir: Path, cache_dir: Path, workdir: Path) -> dict:
    """One divcorr process; its exit code, set-up and compute times, and rusage."""
    side = workdir / f"{out_dir.name}.side.json"
    log = workdir / f"{out_dir.name}.log"
    cmd = [sys.executable, str(BENCH / "launch.py"), str(side), mode, *argv,
           "--out-dir", str(out_dir), "--cache-dir", str(cache_dir), "--threads", "1"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    with open(log, "wb") as fh:
        t0 = _now()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    result = {"argv": list(argv), "rc": rc, "setup_s": None, "wall_s": None, "cpu_s": None,
              "spans": [], "rss_mb": usage.ru_maxrss / 1024}
    if side.exists():
        rec = json.loads(side.read_text())
        if rec["t_start"] is not None:
            result["setup_s"] = rec["t_start"] - t0
        if rec["t_end"] is not None:
            result["wall_s"] = rec["t_end"] - rec["t_start"]
            result["cpu_s"] = rec["cpu_end"] - rec["cpu_start"]
        result["spans"] = rec.get("spans", [])
    if rc != 0:
        result["log_tail"] = log.read_text(errors="replace")[-400:]
    return result


def run_iteration(wl, mode: str, golden: dict, tmp: Path) -> dict:
    """All invocations of one workload iteration, each checked after it ends."""
    workdir = Path(tempfile.mkdtemp(prefix="it-", dir=tmp))
    try:
        cache_dir = workdir / "cache"
        invs = []
        for i, inv in enumerate(wl.invocations):
            out_dir = workdir / f"out{i}"
            ref_s = speed.reference_s()
            r = invoke(inv.argv, mode, out_dir, cache_dir, workdir)
            r["ref_s"] = ref_s
            rows = check.parse_reports(str(out_dir)) if out_dir.is_dir() else {}
            r["attempted"] = len(inv.rows)
            r["failed"], r["problems"] = check.check_rows(list(inv.rows), r["rc"], rows, golden)
            r["tail_bound_max"] = check.tail_bound_max(rows)
            r["report_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir()) \
                if out_dir.is_dir() else 0
            invs.append(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    def total(field):
        values = [r[field] for r in invs]
        return sum(values) if None not in values else None

    return {
        "mode": mode,
        "invocations": invs,
        "wall_s": total("wall_s"),
        "cpu_s": total("cpu_s"),
        "peak_rss_mb": max(r["rss_mb"] for r in invs),
    }


def src_loc() -> dict:
    out = {}
    for m in MODULES:
        with open(SRC / "divcorr" / f"{m}.py", "rb") as fh:
            out[m] = sum(1 for _ in fh)
    return out


def git_commit():
    """The checkout's git commit, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except OSError:
        return None


def metadata(args, wl, started: float) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": started,
        "inputs": wl.inputs,
        "commands": [["divcorr", *inv.argv] for inv in wl.invocations],
        "cores": len(os.sched_getaffinity(0)), "threads": 1,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "git_commit": git_commit(),
        "src_loc": src_loc(),
    }


def layer_metrics(traced: dict, untraced: list[dict]) -> dict:
    totals = {}
    for r in traced["invocations"]:
        for name, t in spans.layer_totals(r["spans"]).items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for field, v in t.items():
                acc[field] += v

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def rate(name, field):
        s = get(name, "s")
        return get(name, field) / s if s > 0 else 0.0

    metrics = {}
    for name in LISTED_SPANS:
        for field in ("s", "self_s", "calls"):
            metrics[f"{name}.{field}"] = get(name, field)
    metrics["euler.varphi_table.entries_per_s"] = rate("euler.varphi_table", "work")
    metrics["arith.divisor_count_array.cells"] = get("arith.divisor_count_array", "work")
    metrics["arith.divisor_count_array.cells_per_s"] = rate("arith.divisor_count_array", "work")
    metrics["cli.report_bytes"] = sum(r["report_bytes"] for r in traced["invocations"])
    metrics["cpu_s"] = statistics.median(i["cpu_s"] for i in untraced)
    metrics["wall_raw_s"] = statistics.median(i["wall_s"] for i in untraced)
    metrics["ref_s"] = statistics.median(r["ref_s"] for i in untraced for r in i["invocations"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / metrics["wall_raw_s"] - 1
    metrics["trace.unattributed_s"] = traced["wall_s"] - sum(get(n, "self_s") for n in LISTED_SPANS)
    metrics["tail_bound_max"] = max(r["tail_bound_max"] for r in traced["invocations"])
    for m, n in src_loc().items():
        metrics[f"src_loc.{m}"] = n
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (SRC / "divcorr" / "cli.py").is_file():
        print(f"error: {SRC / 'divcorr'} not found; run from a divcorr checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())["rows"]
    wl = workloads.build(args.workload, args.seed)
    tmp_root = ROOT / ".bench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    started_at = time.time()
    started = _now()
    try:
        iterations = []
        while True:
            mode = "trace" if args.trace and not iterations else "run"
            t0 = _now()
            it = run_iteration(wl, mode, golden, tmp)
            it["elapsed_s"] = _now() - t0
            iterations.append(it)
            if args.trace and len(iterations) < 2:  # overhead needs an untraced one
                continue
            typical = statistics.median(i["elapsed_s"] for i in iterations)
            elapsed = _now() - started
            if elapsed + typical > min(args.seconds, RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    untraced = [i for i in iterations if i["mode"] == "run"]
    invs = [r for i in iterations for r in i["invocations"]]
    attempted = sum(r["attempted"] for r in invs)
    failed = sum(r["failed"] for r in invs)
    # one speed for the whole run: a single job is too short to average out
    # the machine's jitter, the median of a run's jobs follows its drift
    refs = [r["ref_s"] for i in untraced for r in i["invocations"]]
    ref_s = statistics.median(refs) if wl.rescale else speed.REF_S
    setups = [speed.at_reference_speed(r["setup_s"], ref_s)
              for i in untraced for r in i["invocations"] if r["setup_s"] is not None]
    walls = [speed.at_reference_speed(i["wall_s"], ref_s)
             for i in untraced if i["wall_s"] is not None]
    stats = {
        "iterations": len(iterations),
        "wall_s_samples": walls,
        "wall_raw_s_samples": [i["wall_s"] for i in untraced],
        "ref_s_samples": refs,
        "cpu_s_samples": [i["cpu_s"] for i in untraced],
        "setup_s_samples": setups,
        "failed_frac": failed / attempted,
        "tail_bound_max": max(r["tail_bound_max"] for r in invs),
        "problems": [p for r in invs for p in r["problems"]][:20],
    }
    complete = bool(walls) and bool(setups) and all(r["rc"] == 0 for r in invs)
    correct = failed == 0 and complete
    if args.trace:
        spec = bench["per_layer"]
        values = layer_metrics(iterations[0], untraced) if complete else {}
    else:
        spec = bench["end_to_end"]
        values = {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in untraced),
        }
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec}

    meta = metadata(args, wl, started_at)
    print(f"# {wl.name} seed={args.seed} inputs={json.dumps(wl.inputs)} "
          f"iterations={len(iterations)} cores={meta['cores']} threads=1")
    for m in spec:
        print(f"{m['name']} = {metrics[m['name']]['value']} {m['unit']}")
    print(f"failed_frac = {stats['failed_frac']} (failed {failed} of {attempted} rows)")
    for p in stats["problems"]:
        print(f"problem: {p}")
    for r in invs:
        if r["rc"] != 0:
            print(f"exit {r['rc']}: divcorr {' '.join(r['argv'])}\n{r.get('log_tail', '')}")
    if args.out:
        record = {"meta": meta, "stats": stats, "correct": correct,
                  "attempted": attempted, "failed": failed, "metrics": metrics}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
