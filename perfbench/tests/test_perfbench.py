"""Tests of the benchmark itself: span arithmetic, output checks, seeded inputs, unwrapping.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import filecmp
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from perfbench import run, tracing, workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.op = "op0"
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9]
    tracer.enter("a")
    clock.now = 1.0
    tracer.enter("b")
    clock.now = 2.0
    tracer.enter("c")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 5.0
    tracer.enter("b")
    clock.now = 9.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    totals = tracer.totals()
    assert totals["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert totals["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert tracer.records[("op0", "c", "b")] == [1, 1.0, 0.0]
    assert tracer.records[("op0", "a", None)] == [1, 10.0, 7.0]


def test_spans_outside_an_op_are_not_recorded():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.enter("a")
    clock.now = 1.0
    tracer.exit()
    assert tracer.records == {}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second, other = (tmp_path / tag for tag in ("first", "second", "other"))
    for directory, seed in ((first, 11), (second, 11), (other, 12)):
        directory.mkdir()
        workloads.WORKLOADS[name](seed, directory)
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
    assert (mismatch, errors) == ([], [])
    _, differ, _ = filecmp.cmpfiles(first, other, files, shallow=False)
    assert differ, "another seed should change the inputs"


def _spot_rotation(workdir, expected):
    workdir.mkdir()
    workload = workloads.spot_check(0, workdir)
    check = run.Checker(expected)
    attempted, failed = run.counts(run.measure(workload, 0.0, check))
    return attempted, failed, check


def test_expected_records_pass_and_a_corrupted_one_fails(tmp_path):
    expected = run.load_expected("spot-check", 0)
    assert expected, "expected.json holds no spot-check records for seed 0"
    attempted, failed, check = _spot_rotation(tmp_path / "good", expected)
    assert (attempted, failed) == (3 * run.MIN_ROTATIONS, 0), check.problems

    corrupted = copy.deepcopy(expected)
    corrupted["pooled"]["collisions"] += 1
    attempted, failed, check = _spot_rotation(tmp_path / "bad", corrupted)
    assert failed / attempted > 0
    assert any(problem.startswith("pooled:") for problem in check.problems)


def test_a_failing_audit_op_is_counted_not_fatal(tmp_path):
    workload = workloads.audit_cli(0, tmp_path)
    (tmp_path / "gauss3.csv").unlink()  # the CLI now exits with an i/o error and writes no report
    check = run.Checker(None)
    rotations = [{"traced": False, "ops": [run.run_op(op, check) for op in workload.ops]}]
    attempted, failed = run.counts(rotations)
    assert (attempted, failed) == (len(workload.ops), 2)
    assert all(problem.startswith("gauss3-") for problem in check.problems)
    assert run.end_to_end([1.0], rotations, 100.0)["units_per_s"] > 0


def test_an_op_that_exits_or_fails_everywhere_still_gives_a_result():
    def leave():
        raise SystemExit(2)

    check = run.Checker(None)
    op = workloads.Op(key="exits", call=leave, inspect=lambda result: None)
    rotations = [{"traced": False, "ops": [run.run_op(op, check)]}]
    assert run.counts(rotations) == (1, 1)
    metrics = run.end_to_end([1.0, 3.0], rotations, 100.0)
    assert metrics["setup_s"] == 2.0
    assert (metrics["wall_s"], metrics["op_p50_s"], metrics["units_per_s"]) == (0, 0.0, 0.0)


def test_wrappers_are_removed_after_a_traced_op(tmp_path):
    targets = tracing._targets()
    originals = [(ns, attr, getattr(ns, attr)) for _name, ns, attr in targets]
    assert any(name == "metrics.orbit_distance" and ns.__name__ == "permorb.audit"
               for name, ns, _attr in targets)

    original_sort = numpy.sort
    workload = workloads.spot_check(0, tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert numpy.sort is not original_sort
        tracer.op = "op0"
        workload.ops[0].call()
        tracer.op = None
    for ns, attr, original in originals:
        assert getattr(ns, attr) is original, f"{ns.__name__}.{attr} is still wrapped"

    totals = tracer.totals()
    assert totals["separation.spot_check_injectivity"]["calls"] == 1
    assert totals["metrics.orbit_distance"]["calls"] >= workloads.SPOT_TRIALS
    assert totals["kernel.lsap"]["calls"] == totals["metrics.orbit_distance"]["calls"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    gated = [w["name"] for w in spec["workloads"]]
    assert set(gated) <= set(run.WORKLOAD_NAMES)
