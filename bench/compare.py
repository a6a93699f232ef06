"""Diff two benchmark result files, one row per workload x end-to-end metric.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines `bench/run.py --out FILE` appends; untraced
records count.  Runs are paired by workload and seed: the n-th run of a seed
in one file with the n-th run of that seed in the other.  The pairs are
interleaved when the two runs of every pair ran one right after the other
(among that workload's runs) and each side ran first in at least one pair.
For each workload and metric it prints both sides' median and quartiles, the
pair win rate (ties count for neither side) and a verdict:

  improved    the pairs are interleaved, the change wins at least 9 in 10
              of them and the medians differ, in its favour, by more than
              the base's quartile spread;
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the metric's bound in BENCHMARK.json, unless every change
              run beats every base run; or the pairs are not interleaved and
              the medians differ by more than the bound, which a drift of
              the machine's speed between the two sets causes as readily as
              the change does;
  worse       the change's median is worse than the base's by more than the
              bound;
  unchanged   otherwise.

Under the table, for each workload it gives each side's wall_s samples pooled
over the iterations of all its runs: their count, median, and the highest
percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{workload: [run, ...]} from the untraced records of a file, in file order."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            meta = rec["meta"]
            if meta["trace"]:
                continue
            out.setdefault(meta["workload"], []).append({
                "seed": meta["seed"], "started": meta.get("started"),
                "metrics": {k: m["value"] for k, m in rec["metrics"].items()},
                "wall_s_samples": rec["stats"]["wall_s_samples"]})
    return out


def pair(base: list, change: list) -> list:
    """(base run, change run) pairs: the n-th run of a seed on each side."""
    left = {}
    for r in change:
        left.setdefault(r["seed"], []).append(r)
    return [(r, left[r["seed"]].pop(0)) for r in base if left.get(r["seed"])]


def interleaved(base: list, change: list, pairs: list) -> bool:
    """Whether each pair's runs are adjacent in time, with each side first at least once."""
    runs = base + change
    if len(pairs) < 2 or any(r["started"] is None for r in runs):
        return False
    order = {id(r): i for i, r in enumerate(sorted(runs, key=lambda r: r["started"]))}
    if any(abs(order[id(b)] - order[id(c)]) != 1 for b, c in pairs):
        return False
    base_first = sum(order[id(b)] < order[id(c)] for b, c in pairs)
    return 0 < base_first < len(pairs)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(samples):
    """(percentile, value): the highest percentile with ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def verdict(b: list, c: list, pairs: list, better: str, bound: float,
            alternated: bool) -> dict:
    """Verdict on one metric: b, c are each side's values, pairs the (b, c) value pairs."""
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    gain = sign * (bmed - cmed)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    shift = abs(gain) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (x - y) > 0 for x in b for y in c)
    if alternated and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif not alternated and shift > bound:
        v = "unresolved"
    elif bmed and -gain / abs(bmed) > bound:
        v = "worse"
    else:
        v = "unchanged"
    return {"base": (bmed, bq1, bq3, len(b)), "change": (cmed, cq1, cq3, len(c)),
            "wins": wins, "pairs": len(pairs), "verdict": v}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':16} {'metric':12} {'base median [q1, q3] n':36} "
          f"{'change median [q1, q3] n':36} {'wins':>7}  verdict")
    pooled = []
    for w in spec["workloads"]:
        bruns, cruns = base.get(w["name"], []), change.get(w["name"], [])
        if not bruns or not cruns:
            continue
        pairs = pair(bruns, cruns)
        alternated = interleaved(bruns, cruns, pairs)
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name] for r in bruns if r["metrics"].get(name) is not None]
            c = [r["metrics"][name] for r in cruns if r["metrics"].get(name) is not None]
            p = [(x["metrics"][name], y["metrics"][name]) for x, y in pairs
                 if x["metrics"].get(name) is not None and y["metrics"].get(name) is not None]
            if not b or not c:
                continue
            r = verdict(b, c, p, m["better"], m["bound"], alternated)
            side = ["{:.4g} [{:.4g}, {:.4g}] n={}".format(*r[s]) for s in ("base", "change")]
            print(f"{w['name']:16} {name:12} {side[0]:36} {side[1]:36} "
                  f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
        if not alternated:
            pooled.append(f"{w['name']}: pairs not interleaved")
        for label, runs in (("base", bruns), ("change", cruns)):
            samples = [s for r in runs for s in r["wall_s_samples"]]
            if not samples:
                continue
            t = tail(samples)
            pct = f", p{t[0]:.0f} {t[1]:.4g}" if t else ""
            pooled.append(f"{w['name']} {label}: wall_s n={len(samples)} "
                          f"median {statistics.median(samples):.4g}{pct}")
    print()
    print("\n".join(pooled))
    return 0


if __name__ == "__main__":
    sys.exit(main())
