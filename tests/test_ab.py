"""The gain and no-regression rules of ``scripts/ab.py``, on hand-made series, and its exit code."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

_PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # median 10.0, IQR 0.275


@pytest.mark.parametrize("change, direction, expected", [
    # ten wins, the median 1.0 below the parent's, its IQR 0.275 wide
    ([value - 1.0 for value in _PARENT], "lower", True),
    ([value + 1.0 for value in _PARENT], "higher", True),
    # the median moves the wrong way
    ([value + 1.0 for value in _PARENT], "lower", False),
    # ten wins, but the medians lie 0.1 apart, inside the parent's IQR
    ([value - 0.1 for value in _PARENT], "lower", False),
    # eight wins in ten are not enough
    ([value - 1.0 for value in _PARENT[:8]] + [11.0, 11.0], "lower", False),
    # nine are
    ([value - 1.0 for value in _PARENT[:9]] + [11.0], "lower", True),
])
def test_gain_rule(change, direction, expected):
    assert ab.gain(_PARENT, change, direction) is expected


@pytest.mark.parametrize("change, direction, bound, expected", [
    # medians 10.0 against 12.6: 26% worse than a lower-is-better parent
    ([value + 2.6 for value in _PARENT], "lower", 0.25, True),
    ([value + 2.4 for value in _PARENT], "lower", 0.25, False),
    # 2% more RSS against a 10% bound, and 11% more
    ([value + 0.2 for value in _PARENT], "lower", 0.1, False),
    ([value + 1.1 for value in _PARENT], "lower", 0.1, True),
    # a higher-is-better metric is worse when it falls
    ([value - 2.6 for value in _PARENT], "higher", 0.25, True),
    ([value - 2.4 for value in _PARENT], "higher", 0.25, False),
    # a gain is never worse
    ([value - 5.0 for value in _PARENT], "lower", 0.1, False),
    ([value + 5.0 for value in _PARENT], "higher", 0.1, False),
])
def test_regression_rule(change, direction, bound, expected):
    assert ab.worse(_PARENT, change, direction, bound) is expected


@pytest.mark.parametrize("slower, wrong_run, digests_differ, code", [
    # the same times: no metric worse
    (0.0, False, False, 0),
    # 30% slower against a 25% bound
    (3.0, False, False, 2),
    # a wrong run, or differing digests, takes precedence over a slower metric
    (3.0, True, False, 1),
    (3.0, False, True, 1),
])
def test_exit_code(monkeypatch, capsys, slower, wrong_run, digests_differ, code):
    def export(revision, into):
        into.mkdir()
        (into / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25}]}))
        return revision

    def run(tree, args):
        change = tree.name == "change"
        return {"correct": not (change and wrong_run), "failures": [],
                "metrics": {"wall_s": {"value": 10.0 + slower * change}},
                "digests": {"op": "d1" if change and digests_differ else "d0"}}

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run", run)
    assert ab.main(["p", "c", "--workload", "audit-cli", "--pairs", "4"]) == code
    assert ("# WORSE wall_s" in capsys.readouterr().out) == (slower > 0)
