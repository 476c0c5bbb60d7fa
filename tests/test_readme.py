"""The README's library tour runs against the current API."""

import re
from pathlib import Path

from permorb import SeparationStatus


def test_the_library_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    names = {}
    exec(compile(tour, "README.md", "exec"), names)
    assert names["verdict"].status is SeparationStatus.SEPARATING
    bound = names["report"].blueprint_bound
    assert type(bound) is float and bound > 0.0
