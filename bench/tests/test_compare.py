import compare

BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def _verdict(change, better="lower", alternated=True):
    pairs = list(zip(BASE, change))
    return compare.verdict(BASE, change, pairs, better, 0.1, alternated)


def test_verdicts():
    faster = [v * 0.8 for v in BASE]
    slower = [v * 1.2 for v in BASE]
    same = [v * 1.01 for v in BASE]
    noisy = [10, 14, 7, 12, 8, 13, 6, 11, 9, 15]
    assert _verdict(faster)["verdict"] == "improved"
    assert _verdict(slower)["verdict"] == "worse"
    assert _verdict(same)["verdict"] == "unchanged"
    assert _verdict(noisy)["verdict"] == "unresolved"
    assert _verdict(slower, better="higher")["verdict"] == "improved"
    r = _verdict(faster)
    assert (r["wins"], r["pairs"]) == (10, 10)


def test_a_shift_between_sets_run_apart_is_unresolved():
    slower = [v * 1.2 for v in BASE]
    assert _verdict(slower, alternated=False)["verdict"] == "unresolved"
    assert _verdict([v * 0.8 for v in BASE], alternated=False)["verdict"] == "unresolved"
    assert _verdict([v * 1.01 for v in BASE], alternated=False)["verdict"] == "unchanged"


def _run(seed, started):
    return {"seed": seed, "started": started}


def test_repeated_seeds_pair_in_order():
    base = [_run(1, 0), _run(2, 2), _run(1, 4)]
    change = [_run(1, 1), _run(1, 5), _run(3, 3)]
    pairs = compare.pair(base, change)
    assert [(b["started"], c["started"]) for b, c in pairs] == [(0, 1), (4, 5)]


def test_interleaving_needs_adjacent_pairs_and_both_orders():
    alternating = ([_run(1, 0), _run(2, 3)], [_run(1, 1), _run(2, 2)])
    one_order = ([_run(1, 0), _run(2, 2)], [_run(1, 1), _run(2, 3)])
    apart = ([_run(1, 0), _run(2, 1)], [_run(1, 2), _run(2, 3)])
    for (base, change), expected in ((alternating, True), (one_order, False), (apart, False)):
        assert compare.interleaved(base, change, compare.pair(base, change)) is expected


def test_tail_needs_ten_samples_beyond_it():
    assert compare.tail(list(range(10))) is None
    assert compare.tail(list(range(20))) == (50.0, 9)
