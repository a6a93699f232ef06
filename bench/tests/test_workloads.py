import json
from pathlib import Path

import pytest

import workloads

GOLDEN = json.loads((Path(workloads.__file__).parent / "golden.json").read_text())["rows"]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_inputs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert len({json.dumps(workloads.build(name, s).inputs) for s in range(20)}) > 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_seeded_row_has_a_reference(name):
    for seed in range(50):
        for inv in workloads.build(name, seed).invocations:
            for key in inv.rows:
                assert key.startswith("sieve ") or key in GOLDEN, key
