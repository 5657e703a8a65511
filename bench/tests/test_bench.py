"""Tests for the benchmark's own code: python3 -m pytest bench/tests"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def test_tail_leaves_ten_samples_above():
    xs = list(range(1, 101))
    value, pct, n = run.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10
    value, pct, n = run.tail(list(range(31, 0, -1)))
    assert (value, n) == (21, 31)
    assert abs(pct - 100 * 21 / 31) < 1e-12


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(list(range(10)))[0] == 9


def test_self_time_subtracts_children_once():
    spans = [
        ["a", 0, -1, 0.0, 10.0, None],
        ["b", 0, 0, 1.0, 4.0, None],
        ["c", 0, 1, 2.0, 3.0, None],   # grandchild: charged to b, not a
        ["d", 0, 0, 5.0, 6.5, None],
        ["e", 1, -1, 20.0, 21.0, None],
    ]
    assert tracer.self_times(spans) == [10 - 3 - 1.5, 3 - 1, 1, 1.5, 1]
    agg = tracer.aggregate(spans)
    assert agg["a"] == {"calls": 1, "self_s": 5.5, "entries": 0}


def test_self_time_clips_overlapping_children():
    spans = [["a", 0, -1, 0.0, 4.0, None],
             ["b", 0, 0, 1.0, 3.0, None],
             ["c", 0, 0, 2.0, 5.0, None]]
    assert tracer.self_times(spans)[0] == 1.0


def _ghz_op(tmp_path):
    item = corpus._item("6/GHZ/canonical", 6, "GHZ", "float", "GHZ", "",
                        str(tmp_path / "ghz.json"))
    corpus.write_state(item["path"], 6, {(1, 2, 3): (1.0, 0.0), (4, 5, 6): (1.0, 0.0)},
                       "float")
    return run.classify_op(item)


def _report(label, occupations):
    return json.dumps({"classification": {"dimension": 6, "label": label},
                       "spectrum": {"occupations_descending": occupations},
                       "invariants": {}})


def test_checker_fails_a_wrong_label(tmp_path):
    op = _ghz_op(tmp_path)
    checker = check.Checker({"stdout": {}, "rows": {}})
    good = {"rc": 0, "out": _report("GHZ", [0.5] * 6), "tb": None}
    assert checker(op, good) == ("ok", "")
    verdict, reason = checker(op, dict(good, out=_report("W", [0.5] * 6)))
    assert verdict == "fail" and "label W" in reason
    verdict, _ = checker(op, dict(good, out=_report("Unclassified", [0.5] * 6)))
    assert verdict == "fail"   # exit code 0 with Unclassified


def test_checker_fails_occupations_and_tracebacks(tmp_path):
    op = _ghz_op(tmp_path)
    checker = check.Checker({"stdout": {}, "rows": {}})
    off = [0.5] * 5 + [0.5 + 1e-6]
    assert checker(op, {"rc": 0, "out": _report("GHZ", off), "tb": None})[0] == "fail"
    res = {"rc": None, "out": "", "tb": "Traceback\nZeroDivisionError: x"}
    assert checker(op, res) == ("fail", "traceback: ZeroDivisionError: x")


def test_known_defect_is_reported_not_failed(tmp_path):
    item = corpus._item("9/family5/canonical", 9, "family5", "float", "family5", "",
                        "unused")
    assert check.known_defect(item, "family1")
    assert not check.known_defect(item, "family3")
    assert not check.known_defect(dict(item, mode="rational"), "family1")


def test_exact_stdout_must_match_its_digest(tmp_path):
    item = corpus._item("6/GHZ/canonical", 6, "GHZ", "rational", "GHZ", "",
                        str(tmp_path / "ghz.json"))
    corpus.write_state(item["path"], 6, {(1, 2, 3): (1, 0), (4, 5, 6): (1, 0)},
                       "rational")
    op = run.classify_op(item)
    out = _report("GHZ", [0.5] * 6)
    checker = check.Checker({"stdout": {check.command_key(op): check.sha(out)},
                             "rows": {}})
    assert checker(op, {"rc": 0, "out": out, "tb": None})[0] == "ok"
    drifted = out.replace('"GHZ"', '"GHZ" ')
    assert checker(op, {"rc": 0, "out": drifted, "tb": None})[0] == "fail"


def test_numpy_references():
    ghz = {(1, 2, 3): 1.0, (4, 5, 6): 1.0}
    assert max(abs(x - 0.5) for x in corpus.occupations(6, ghz)) < 1e-12
    assert corpus.orbit_dimension(6, ghz) == 20          # GHZ: the open orbit
    w = {(1, 2, 6): 1.0, (2, 3, 4): 1.0, (1, 3, 5): 1.0}
    assert corpus.orbit_dimension(6, w) < 20


def test_move_is_the_third_compound():
    # e1 -> e4 sends e1^e2^e3 to e4^e2^e3 = +e2^e3^e4; e2 -> 2 e1 + e2 adds
    # 2 e1^e1^e3 = 0
    swap = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    assert corpus.move({(1, 2, 3): (1, 0)}, swap) == {(2, 3, 4): (1, 0)}
    shear = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    assert corpus.move({(1, 2, 3): (3, 1)}, shear) == {(1, 2, 3): (3, 1)}


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.WORKLOADS)


def test_known_defects_cover_only_the_rows_and_labels_seen():
    moved = corpus._item("9/family1/canonical/invertible7", 9, "family1", "float",
                         "family1", "", "unused", moved="invertible")
    assert check.known_defect(moved, "family7")
    assert check.known_defect(moved, "family6")
    assert not check.known_defect(moved, "family3")
    assert not check.known_defect(dict(moved, row="family2"), "family7")
    xv = corpus._item("8/XV/canonical/invertible7", 8, "XV", "float", "XV", "",
                      "unused", moved="invertible")
    assert check.known_defect(xv, "Unclassified")
    assert not check.known_defect(dict(xv, row="XVI"), "Unclassified")
    assert not check.known_defect(dict(xv, moved="unimodular"), "Unclassified")


def test_clock_scales_by_the_speed_during_the_interval():
    clock = object.__new__(speed.Clock)
    # a unit took 1 ms of CPU time until t = 1 s, then 2 ms
    clock.walls = [0.1 * k for k in range(21)]
    clock.cpus = [0.001 * min(k, 10) + 0.002 * max(k - 10, 0) for k in range(21)]
    assert abs(clock.unit_s(0.2, 0.8) - 0.001) < 1e-12
    assert abs(clock.unit_s(1.2, 1.8) - 0.002) < 1e-12
    assert abs(clock.factor(1.2, 1.8) - speed.REFERENCE_S / 0.002) < 1e-9
    # a short interval is widened to the samples around it
    assert abs(clock.unit_s(0.55, 0.55) - 0.001) < 1e-12
    assert abs(clock.unit_s(5.0, 5.0) - 0.002) < 1e-12
