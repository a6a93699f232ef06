import tempfile
from pathlib import Path

import run
import workloads
from check import sieve_key


def _snapshot(root):
    return {p.name for p in root.iterdir()} - {".bench-tmp"}


def test_a_run_writes_nothing_into_the_repo():
    before = _snapshot(run.ROOT)
    inv = workloads.Invocation(argv=("sieve", "--k", "2", "--lo", "1", "--hi", "1000"),
                               rows=(sieve_key(2, 1, 1000),))
    wl = workloads.Workload("tiny", {}, (inv, inv))
    tmp_root = run.ROOT / ".bench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        it = run.run_iteration(wl, "run", {}, tmp)
        assert list(tmp.iterdir()) == []
    finally:
        tmp.rmdir()
        try:
            tmp_root.rmdir()
        except OSError:  # another benchmark run is using it
            pass
    assert [r["failed"] for r in it["invocations"]] == [0, 0]
    assert all(r["wall_s"] > 0 and r["cpu_s"] > 0 and r["setup_s"] > 0
               for r in it["invocations"])
    # no reports/ or .divcorr-cache/ (the CLI defaults) nor anything else
    assert _snapshot(run.ROOT) == before


def test_a_traced_invocation_records_layer_spans(tmp_path):
    r = run.invoke(("sieve", "--k", "2", "--lo", "1", "--hi", "1000"), "trace",
                   tmp_path / "out", tmp_path / "cache", tmp_path)
    assert r["rc"] == 0
    names = {s[0] for s in r["spans"]}
    assert {"cli", "arith.sieve_dk", "arith.DivisorTable.dump"} <= names
    assert [s[3] for s in r["spans"] if s[0] == "cli"] == [-1]
