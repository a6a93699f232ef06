import pytest

import spans


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, as
    # threads could make them), a grandchild under b, and a sibling root
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 5],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 4.0, 5.0, 2, 0],
        ["a", 20.0, 21.0, -1, 7],
    ]
    t = spans.layer_totals(tree)
    assert t["root"]["self_s"] == pytest.approx(10 - 5)
    assert t["b"]["self_s"] == pytest.approx(2)
    assert t["c"]["self_s"] == pytest.approx(1)
    assert t["a"] == {"calls": 2, "s": pytest.approx(4), "self_s": pytest.approx(4), "work": 12}


def test_recursion_counts_inclusive_time_once():
    tree = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 3.0, 0, 0]]
    t = spans.layer_totals(tree)["f"]
    assert t["calls"] == 2
    assert t["s"] == pytest.approx(4)
    assert t["self_s"] == pytest.approx(4)


def test_recorder_nests_spans():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, work=lambda x: x)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    (o_name, _, _, o_parent, _), (i_name, _, _, i_parent, i_work) = rec.spans
    assert (o_name, o_parent, i_name, i_parent, i_work) == ("outer", -1, "inner", 0, 3)
