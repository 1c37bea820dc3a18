"""
Tests of the benchmark's own checkers, and a smoke run of each workload at
n = 3.  Run from the repository root:

    python3 -m pytest bench
"""

import copy
import json
import os
import shutil
import tempfile
import time

import pytest

from checks import (
    bipartitions, check_classes, check_conjecture, check_insertion,
    domino_tableaux, group_order, involutions, partitions,
)
from run import BENCH_DIR, WORKLOADS, Tally, Workload, measure, trace
from speed import REFERENCE_S, Speedometer

INSERTION_N5 = {
    "check": "insertion", "params": {"n": 5, "rmax": 5}, "status": "pass",
    "counts": {"elements": 3840, "pairs_checked": 23040, "ranks": 6},
}
CLASSES_N5_RANK2 = {
    "check": "classes", "params": {"n": 5, "rank": 2}, "status": "pass",
    "counts": {"tableaux": 312},
}
CONJECTURE_N4 = {
    "check": "conjecture", "params": {"n": 4, "ratios": [1, 2, 3, 4]}, "status": "pass",
    "counts": {
        "blocks_r1_L": 50, "blocks_r1_R": 50, "blocks_r1_LR": 10,
        "blocks_r2_L": 58, "blocks_r2_R": 58, "blocks_r2_LR": 14,
        "blocks_r3_L": 68, "blocks_r3_R": 68, "blocks_r3_LR": 16,
        "blocks_r4_L": 76, "blocks_r4_R": 76, "blocks_r4_LR": 20,
    },
}

# (checker, accepted report, the counts it pins by a formula or by another count)
CASES = [
    (lambda r: check_insertion(r, 5, 5), INSERTION_N5,
     ["elements", "pairs_checked", "ranks"]),
    (lambda r: check_classes(r, 5, 2), CLASSES_N5_RANK2, ["tableaux"]),
    (lambda r: check_conjecture(r, 4), CONJECTURE_N4,
     [f"blocks_r{rt}_{side}" for rt in range(1, 5) for side in ("L", "R")]
     + ["blocks_r4_LR"]),
]


def test_formulas():
    assert [involutions(k) for k in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert [partitions(k) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert group_order(5) == 3840
    assert (domino_tableaux(4), domino_tableaux(5)) == (76, 312)
    assert (bipartitions(3), bipartitions(4)) == (10, 20)


@pytest.mark.parametrize("checker,report,_keys", CASES)
def test_checker_accepts_the_expected_report(checker, report, _keys):
    assert checker(report) == []


@pytest.mark.parametrize("checker,report,_keys", CASES)
def test_checker_rejects_a_failed_report(checker, report, _keys):
    failed = dict(report, status="fail")
    assert any("status" in p for p in checker(failed))


@pytest.mark.parametrize("checker,report,key", [
    (checker, report, key) for checker, report, keys in CASES for key in keys
])
@pytest.mark.parametrize("delta", [-1, 1])
def test_checker_rejects_a_count_off_by_one(checker, report, key, delta):
    bad = copy.deepcopy(report)
    bad["counts"][key] += delta
    assert checker(bad)


def test_conjecture_checker_rejects_more_two_sided_than_left_cells():
    bad = copy.deepcopy(CONJECTURE_N4)
    bad["counts"]["blocks_r2_LR"] = 59
    assert check_conjecture(bad, 4)


def test_checker_rejects_wrong_params():
    assert check_classes(CLASSES_N5_RANK2, 5, 3)
    assert check_insertion(INSERTION_N5, 5, 4)


def test_rescale_removes_the_timed_loops_and_scales_by_their_mean_speed():
    meter = Speedometer()
    # One loop at half the reference speed and one at it, inside [10, 12);
    # the loop before 10 is outside.
    meter.samples = [(9.0, 9.0 + REFERENCE_S),
                     (10.0, 10.0 + 2 * REFERENCE_S), (11.0, 11.0 + REFERENCE_S)]
    assert meter.rescale(10.0, 12.0) == pytest.approx((2.0 - 3 * REFERENCE_S) * 0.75)


def test_rescale_of_an_interval_without_a_loop_uses_every_loop():
    meter = Speedometer()
    meter.samples = [(0.0, 2 * REFERENCE_S), (5.0, 5.0 + 2 * REFERENCE_S)]
    assert meter.rescale(1.0, 1.5) == pytest.approx(0.25)


def test_rescaled_time_of_a_live_interval():
    meter = Speedometer()
    meter.start()
    try:
        begin = time.monotonic()
        while time.monotonic() - begin < 0.2:
            pass
        end = time.monotonic()
    finally:
        meter.stop()
    assert len(meter.samples) >= 5  # the timer fired
    assert meter.rescale(begin, end) > 0.0


@pytest.fixture
def out_dir():
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=os.path.join(BENCH_DIR, "out"))
    yield path
    shutil.rmtree(path)


def _write_report(run_dir, payload):
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(payload, fh)


def test_tally_counts_failed_reports_apart_from_wrong_ones(out_dir):
    workload = Workload("insertion", 5)
    tally = Tally()
    _write_report(os.path.join(out_dir, "ok"), INSERTION_N5)
    tally.add(workload, os.path.join(out_dir, "ok"), 0)
    _write_report(os.path.join(out_dir, "failed"), dict(INSERTION_N5, status="fail"))
    tally.add(workload, os.path.join(out_dir, "failed"), 1)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 1, [])
    wrong = copy.deepcopy(INSERTION_N5)
    wrong["counts"]["elements"] = 3839
    _write_report(os.path.join(out_dir, "wrong"), wrong)
    tally.add(workload, os.path.join(out_dir, "wrong"), 0)
    assert tally.failed == 1 and len(tally.problems) == 1


def test_tally_rejects_an_exit_code_that_contradicts_the_reports(out_dir):
    tally = Tally()
    _write_report(os.path.join(out_dir, "ok"), INSERTION_N5)
    tally.add(Workload("insertion", 5), os.path.join(out_dir, "ok"), 1)
    assert tally.problems


@pytest.mark.parametrize("suite", ["insertion", "classes", "conjecture"])
def test_smoke_run_at_n3(suite, out_dir):
    workload = Workload(suite, 3)
    tally = Tally()
    metrics = measure(workload, out_dir, 0.0, time.monotonic() + 120, tally)
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (workload.reports, 0)
    assert set(metrics) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _unit in metrics.values())


def test_traced_smoke_run_at_n3(out_dir):
    tally = Tally()
    metrics = trace(Workload("conjecture", 3), out_dir, time.monotonic() + 120, tally)
    assert tally.problems == [] and tally.attempted == 2
    assert metrics["hecke.edges.calls"] == (9, "count")  # 3 ratios x L, R, LR
    assert metrics["hecke.cache.bytes"][0] > 0
    traced = os.path.join(out_dir, "traced")
    assert os.path.getsize(os.path.join(traced, "trace.jsonl")) > 0
    assert os.path.exists(os.path.join(traced, "layers.json"))
