"""permorb imports scipy only when it first solves an assignment, its executors only when it first uses one, and each module only when one of its names is used.

An audit solves none: its reference distances enumerate the n! matchings
of its n <= 8 clouds.  Only ``audit --check-ose`` starts a thread executor
(``concurrent.futures.thread``), and only ``certify --threads k > 1`` a
process pool (``multiprocessing``).  ``import permorb`` loads no submodule
and not numpy; the spot checks and ``certify`` load no ``audit``,
``constructions`` or ``tables``; ``audit`` loads no ``separation`` or
``tables``; ``construct`` and ``counterexample`` load no ``audit``.  Checked in fresh interpreters, since this test process has
loaded them all already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import permorb

SRC = str(Path(permorb.__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    def loaded(*packages):
        return sorted(m for m in sys.modules for p in packages if m == p or m.startswith(p + "."))

    def check(step, executors=("concurrent.futures", "multiprocessing")):
        assert not loaded("scipy", *executors), f"{step} loaded {loaded('scipy', *executors)[:3]}"

    import permorb
    check("import permorb")
    assert loaded("numpy", "permorb") == ["permorb"], loaded("numpy", "permorb")[-3:]

    from permorb import cli, metrics, separation
    check("import permorb.cli")

    for kind, n, d, D, M in [("sorted", 3, 2, 6, None), ("pooled", 3, 2, 10, None),
                             ("sketched", 3, 2, 6, 24)]:
        separation.spot_check_injectivity(kind, n, d, D, M=M, trials=200, seed=1)
        check(f"the {kind} spot check")

    separation.certify_separation(separation.known_separating_matrix(4, 2, 4), 4, budget=2000)
    check("certify_separation")
    UNUSED = ("permorb.audit", "permorb.constructions", "permorb.tables")
    assert not loaded(*UNUSED), f"the spot checks and certify loaded {loaded(*UNUSED)}"

    permorb.sorted_embedding(permorb.circle_directions(5), [[0.0, 1.0], [2.0, 3.0]])
    check("sorted_embedding")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        permorb.save_matrix_csv(out / "tail.csv", [[1.0, 2.0], [3.0, 5.0]])
        permorb.save_matrix_csv(out / "X.csv", [[0.0, 1.0], [2.0, 3.0], [1.0, -1.0]])
        permorb.save_matrix_csv(out / "B.csv", [[1.0, 0.5, 0.25, 2.0]] * 3)
        permorb.save_matrix_csv(out / "L.csv", [[0.5] * 12, [-0.25] * 12])
        for argv in (["circle", "--D", "6"], ["gaussian", "--d", "2", "--D", "4"],
                     ["sphere", "--d", "2", "--D", "4"],
                     ["identity-augmented", "--tail", str(out / "tail.csv")]):
            assert cli.main(["construct", *argv, "--out", str(out / argv[0])]) == 0
            check(f"permorb construct {argv[0]}")
        A = str(out / "identity-augmented" / "A.csv")
        for argv in (["--kind", "sorted"], ["--kind", "pooled", "--pooling", str(out / "B.csv")],
                     ["--kind", "sketched", "--sketch", str(out / "L.csv")]):
            assert cli.main(["embed", "--directions", A, "--cloud", str(out / "X.csv"), *argv,
                             "--out", str(out / "E.csv")]) == 0
            check(f"permorb embed {argv[1]}")
        assert not loaded("permorb.tables")
        assert cli.main(["reproduce", "--out", str(out / "tables")]) == 0
        check("permorb reproduce")
        assert loaded("permorb.tables")
        circle = str(out / "circle" / "A.csv")
        ose = ["--check-ose", "--ose-trials", "100"]
        for extra in ([], ["--pu-m", "3"], ose, [*ose, "--pu-m", "3"]):
            for n in ("4", "8"):
                argv = ["--n", n, "--subset-r", "1", *extra]
                assert cli.main(["audit", "--directions", circle, "--trials", "60",
                                 *argv, "--out", str(out / "audit.json")]) == 0
                if "--check-ose" in extra:
                    check(f"permorb audit {' '.join(argv)}", executors=("multiprocessing",))
                    assert "concurrent.futures.thread" in sys.modules
                else:
                    check(f"permorb audit {' '.join(argv)}")
        assert cli.main(["construct", "adversarial-pair", "--n", "8", "--d", "3",
                         "--out", str(out / "adversarial-pair")]) == 0
        check("permorb construct adversarial-pair --n 8", executors=("multiprocessing",))

    solver = metrics.linear_sum_assignment
    costs = []

    def recording(cost):
        costs.append(cost.shape)
        return solver(cost)

    metrics.linear_sum_assignment = recording
    result = permorb.orbit_distance([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 3.0]])
    assert result.distance == 3.0, result
    assert costs == [(2, 2)], costs
    assert "scipy.optimize" in sys.modules
    print("ok")
    """
)

AUDIT_SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    import permorb
    from permorb import cli

    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["construct", "gaussian", "--d", "2", "--D", "3"],
                     ["construct", "sphere", "--d", "2", "--D", "3"],
                     ["counterexample", "--directions", str(Path(tmp) / "A.csv")]):
            assert cli.main([*argv, "--out", tmp]) == 0
        assert "permorb.audit" not in sys.modules, "construct or counterexample loaded audit"
        A = Path(tmp) / "A.csv"
        permorb.save_matrix_csv(A, permorb.circle_directions(8))
        assert cli.main(["audit", "--directions", str(A), "--n", "3", "--trials", "40",
                         "--subset-r", "1", "--pu-m", "2", "--out", str(Path(tmp) / "r.json")]) == 0
    assert "permorb.audit" in sys.modules
    unused = [m for m in ("permorb.separation", "permorb.tables") if m in sys.modules]
    assert not unused, f"permorb audit loaded {unused}"
    print("ok")
    """
)


def run_fresh(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_scipy_is_imported_on_the_first_assignment_solve_only():
    run_fresh(SCRIPT)


def test_audit_loads_neither_the_certifier_nor_the_tables():
    run_fresh(AUDIT_SCRIPT)
