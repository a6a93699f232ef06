"""Write bench/golden.json: reference rows for every input any seed can generate.

    python3 bench/golden.py

Run from the root of a checkout.  It runs the CLI lines of
workloads.golden_invocations() through the benchmark's own launcher and keeps
the parsed report rows (check.parse_reports).  Sieve rows need no entry:
check.py recomputes them by trial division.  Regenerating the file on other
code changes what the benchmark accepts, so it is done only in a change to
the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def main() -> int:
    tmp_root = run.ROOT / ".bench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=tmp_root))
    rows = {}
    try:
        for i, argv in enumerate(workloads.golden_invocations()):
            out_dir = workdir / f"out{i}"
            r = run.invoke(argv, "run", out_dir, workdir / "cache", workdir)
            if r["rc"] != 0:
                print(f"exit {r['rc']}: divcorr {' '.join(argv)}\n{r['log_tail']}", file=sys.stderr)
                return 1
            found = check.parse_reports(str(out_dir))
            print(f"{len(found)} rows from divcorr {' '.join(argv)}")
            rows.update(found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        tmp_root.rmdir()
    payload = {"source_commit": run.git_commit(), "rows": rows}
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
