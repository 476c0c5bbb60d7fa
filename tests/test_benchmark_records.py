"""The benchmark's recorded outputs: one seed-0 rotation must reproduce perfbench/expected.json.

perfbench/run.py checks every op's output record against expected.json,
but only when the benchmark is run.  This test runs one rotation of each
workload's ops (``audit-cli``, ``spot-check``, ``certify-exhaustive`` and
``certify-flagship``) in a temporary directory and asserts that each op
passes its own checks and that its record equals the recorded one, so a
change that moves a report or a certify verdict fails the test suite.
expected.json is only read.

The rotation runs in a child process with one BLAS thread, as the
benchmark runs it: the OSE check's reference norms are long dot products,
whose bits depend on how many threads share them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())

ROTATION = """
import json, sys
from pathlib import Path
from perfbench import workloads

workload = workloads.WORKLOADS[sys.argv[1]](0, Path(sys.argv[2]))
records, problems = {}, {}
for op in workload.ops:
    op.prepare()
    outcome = op.inspect(op.call())
    records[op.key] = outcome.record
    problems[op.key] = outcome.problems
print(json.dumps({"records": records, "problems": problems}))
"""


@pytest.mark.parametrize("name", ["audit-cli", "spot-check", "certify-exhaustive", "certify-flagship"])
def test_one_rotation_reproduces_the_expected_records(tmp_path, name):
    assert EXPECTED["seed"] == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.pop("PERMORB_BUDGET", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", ROTATION, name, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["problems"] == {key: [] for key in result["records"]}
    assert result["records"] == EXPECTED["workloads"][name]
