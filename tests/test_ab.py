"""The gain and no-regression rules of ``scripts/ab.py``, on hand-made series."""

import importlib.util
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
