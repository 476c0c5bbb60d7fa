import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permorb
from permorb import (
    cli,
    circle_directions,
    gaussian_directions,
    load_matrix_csv,
    orbit_distance,
    save_matrix_csv,
)
from permorb.audit import OseReport, subset_sigma_lower_bound
from permorb.cli import main
from permorb.separation import known_separating_matrix


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_circle(tmp_path):
    code = main(["construct", "circle", "--D", "64", "--out", str(tmp_path)])
    assert code == 0
    A = load_matrix_csv(tmp_path / "A.csv")
    assert A.shape == (2, 64)
    cert = _read_json(tmp_path / "certificate.json")
    assert abs(cert["sigma1"] - math.sqrt(32.0)) < 1e-9


def test_construct_circle_rejects_wrong_dimension(tmp_path):
    assert main(["construct", "circle", "--D", "16", "--d", "1", "--out", str(tmp_path)]) == 1


def test_construct_adversarial_pair(tmp_path):
    code = main(["construct", "adversarial-pair", "--n", "8", "--d", "3", "--out", str(tmp_path)])
    assert code == 0
    X = load_matrix_csv(tmp_path / "X.csv")
    Y = load_matrix_csv(tmp_path / "Y.csv")
    assert X.shape == (8, 3) and Y.shape == (8, 3)
    cert = _read_json(tmp_path / "certificate.json")
    assert abs(cert["orbit_distance"] - 1.0) < 1e-9


def test_construct_gaussian_reproducible(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        assert main(["construct", "gaussian", "--d", "3", "--D", "5", "--seed", "9",
                     "--out", str(out)]) == 0
    assert (a_dir / "A.csv").read_bytes() == (b_dir / "A.csv").read_bytes()


def test_construct_parity_pair(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    out = tmp_path / "pair"
    code = main(["construct", "parity-pair", "--directions", str(tmp_path / "A.csv"),
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    cert = _read_json(out / "certificate.json")
    assert cert["rows"] == 4


# ---------------------------------------------------------------------------
# embed / distance
# ---------------------------------------------------------------------------


def test_embed_and_distance_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 4))
    X = rng.standard_normal((3, 2))
    Y = X[[2, 0, 1]]
    save_matrix_csv(tmp_path / "A.csv", A)
    save_matrix_csv(tmp_path / "X.csv", X)
    save_matrix_csv(tmp_path / "Y.csv", Y)

    out = tmp_path / "E.csv"
    assert main(["embed", "--directions", str(tmp_path / "A.csv"),
                 "--cloud", str(tmp_path / "X.csv"), "--out", str(out)]) == 0
    E = load_matrix_csv(out)
    assert E.shape == (3, 4)
    assert np.all(np.diff(E, axis=0) >= 0)

    report_path = tmp_path / "dist.json"
    assert main(["distance", str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"),
                 "--out", str(report_path)]) == 0
    report = _read_json(report_path)
    assert report["distance"] < 1e-12
    assert report["n"] == 3


def test_distance_missing_file_is_io_error(tmp_path):
    save_matrix_csv(tmp_path / "X.csv", np.eye(2))
    assert main(["distance", str(tmp_path / "X.csv"), str(tmp_path / "nope.csv")]) == 2


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_deterministic_bytes(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(1).standard_normal((2, 8)))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3",
            "--trials", "50", "--seed", "11"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


_AUDIT_CASES = """
import sys
from permorb.cli import main

out, long, *matrices = sys.argv[1:]
for seed in ("0", "1", "2", "3"):
    assert main(["audit", "--directions", long, "--n", "8", "--trials", "300", "--seed", seed,
                 "--out", f"{out}/8-{seed}-long.json"]) == 0
for directions in matrices:
    for n in ("6", "8"):
        for seed in ("0", "1"):
            name = f"{out}/{n}-{seed}-{directions.rsplit('/', 1)[1]}.json"
            assert main(["audit", "--directions", directions, "--n", n, "--seed", seed,
                         "--pu-m", "3", "--subset-r", "1", "--out", name]) == 0
"""


def test_audit_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the pool's gap norms are BLAS dots, and a BLAS sets its thread count
    # when it loads, so each count runs in a fresh interpreter
    src = str(Path(permorb.__file__).resolve().parent.parent)
    matrices = [tmp_path / "gauss.csv", tmp_path / "circle.csv"]
    save_matrix_csv(matrices[0], gaussian_directions(3, 24, 4))
    save_matrix_csv(matrices[1], circle_directions(256))  # gap rows of 2,048 floats at n = 8
    # gap rows of 10,008 floats at n = 8, more than OpenBLAS takes in one thread
    save_matrix_csv(tmp_path / "long.csv", gaussian_directions(3, 1251, 1))
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _AUDIT_CASES, str(out), str(tmp_path / "long.csv"),
                        *map(str, matrices)], env=env, check=True)
        reports[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(reports["1"]) == 12
    assert reports["1"] == reports["2"]


def test_one_parser_serves_every_call(tmp_path):
    # each call's flags and defaults must not leak into the next one
    save_matrix_csv(tmp_path / "A.csv", gaussian_directions(2, 6, 3))
    A = str(tmp_path / "A.csv")
    calls = [
        ["audit", "--directions", A, "--n", "3", "--trials", "40", "--seed", "2", "--pu-m", "2",
         "--check-ose", "--ose-trials", "30", "--epsilon", "0.5"],
        ["construct", "gaussian", "--d", "2", "--D", "5", "--seed", "4"],
        ["audit", "--directions", A, "--n", "4", "--trials", "30"],
        ["construct", "circle", "--D", "8"],
        ["audit", "--directions", A, "--n", "3", "--trials", "40", "--subset-r", "1"],
    ]

    def run(call, out):
        out.mkdir()
        assert main(call + ["--out", str(out if call[0] == "construct" else out / "r.json")]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert cli.build_parser() is cli.build_parser()
    shared = [run(call, tmp_path / f"shared{i}") for i, call in enumerate(calls)]
    fresh = []
    for i, call in enumerate(calls):
        cli.build_parser.cache_clear()
        fresh.append(run(call, tmp_path / f"fresh{i}"))
    assert shared == fresh


def test_audit_with_ose_block(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(2).standard_normal((2, 7)))
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3",
                 "--trials", "20", "--seed", "5", "--check-ose",
                 "--ose-trials", "50", "--out", str(out)]) == 0
    report = _read_json(out)
    assert "ose_check" in report and "ose_dimension" in report
    assert report["ose_check"]["violations"] == 0


def _readme_audit_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Audit report schema", 1)[1].split("\n\n")[2]
    fields = set()
    for row in table.splitlines()[2:]:
        fields.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    return fields


def test_audit_report_keys_match_the_readme_schema(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(4).standard_normal((2, 6)))
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", "2",
                 "--trials", "20", "--seed", "5", "--subset-r", "1", "--pu-m", "3",
                 "--check-ose", "--ose-trials", "20", "--out", str(out)]) == 0
    report = _read_json(out)
    assert set(report) == _readme_audit_fields() - {"skipped"}
    assert set(report["ose_check"]) == {f.name for f in dataclasses.fields(OseReport)}


def test_audit_skips_oversized_subset_bound(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(3).standard_normal((2, 30)))
    out, plain = tmp_path / "r.json", tmp_path / "plain.json"
    args = ["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3",
            "--trials", "20", "--seed", "5"]
    code = main(args + ["--subset-r", "3", "--budget", "100", "--out", str(out)])
    assert code == 3
    report = _read_json(out)
    assert "subset_bound" in report.pop("skipped")
    assert main(args + ["--out", str(plain)]) == 0
    assert report == _read_json(plain)


@pytest.mark.parametrize(
    "d, D, n, certified",
    [
        (3, 24, 4, False),  # the audit-cli benchmark's gauss3 shape: n = 4 needs D >= 30
        (3, 24, 6, False),  # and n = 6 needs D >= 78
        (3, 29, 4, False),
        (3, 30, 4, True),
        (2, 10, 3, True),  # acceptance criterion 6: D = r d ((n-1)^2 + 1) exactly
    ],
)
def test_audit_labels_the_subset_bound_certified_only_where_it_holds(tmp_path, d, D, n, certified):
    A = np.random.default_rng(D + d).standard_normal((d, D))
    save_matrix_csv(tmp_path / "A.csv", A)
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", str(n),
                 "--trials", "20", "--subset-r", "1", "--out", str(out)]) == 0
    bound = _read_json(out)["subset_bound"]
    assert bound["certified"] is certified
    # the bound itself is the standalone function's, which always says certified
    alone = subset_sigma_lower_bound(A, 1)
    assert alone.certified
    assert bound == dict(dataclasses.asdict(alone), certified=certified)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_exit_codes(tmp_path):
    save_matrix_csv(tmp_path / "sep.csv", known_separating_matrix(4, 2, 4))
    assert main(["certify", "--directions", str(tmp_path / "sep.csv"), "--n", "4",
                 "--out", str(tmp_path / "v1.json")]) == 0

    rng = np.random.default_rng(4)
    A = np.hstack([np.eye(2), rng.standard_normal((2, 1))])
    save_matrix_csv(tmp_path / "wit.csv", A)
    assert main(["certify", "--directions", str(tmp_path / "wit.csv"), "--n", "3",
                 "--out", str(tmp_path / "v2.json")]) == 4
    verdict = _read_json(tmp_path / "v2.json")
    assert verdict["status"] == "WitnessFound"
    assert verdict["witness"]["X"] is not None

    assert main(["certify", "--directions", str(tmp_path / "sep.csv"), "--n", "4",
                 "--budget", "10", "--out", str(tmp_path / "v3.json")]) == 5


def test_certify_checkpoints_with_threads(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", known_separating_matrix(4, 2, 4))
    checkpoint = tmp_path / "cp.json"
    args = ["certify", "--directions", str(tmp_path / "A.csv"), "--n", "4",
            "--threads", "2", "--checkpoint", str(checkpoint)]
    assert main(args + ["--budget", "2000", "--out", str(tmp_path / "v1.json")]) == 5
    assert checkpoint.exists()
    assert main(args + ["--out", str(tmp_path / "v2.json")]) == 0
    verdict = _read_json(tmp_path / "v2.json")
    assert verdict["tuples_examined"] == verdict["total_tuples"]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_audit_rejects_a_subset_budget_below_one(tmp_path, capsys, budget):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(3).standard_normal((2, 6)))
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3", "--trials", "20",
                 "--subset-r", "1", "--budget", budget, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: budget must be >= 1, got {budget}\n"
    assert not out.exists()


def test_certify_rejects_general_matrices(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(5).standard_normal((2, 4)))
    assert main(["certify", "--directions", str(tmp_path / "A.csv"), "--n", "3"]) == 1


def test_environment_budget_override(tmp_path, monkeypatch):
    save_matrix_csv(tmp_path / "A.csv", known_separating_matrix(4, 2, 4))
    monkeypatch.setenv("PERMORB_BUDGET", "10")
    out = tmp_path / "v.json"
    assert main(["certify", "--directions", str(tmp_path / "A.csv"), "--n", "4",
                 "--out", str(out)]) == 5
    assert _read_json(out)["status"] == "Inconclusive"
    monkeypatch.setenv("PERMORB_BUDGET", "junk")
    assert main(["certify", "--directions", str(tmp_path / "A.csv"), "--n", "4"]) == 1


def test_audit_circle_distortion_within_theory(tmp_path):
    import math

    from permorb import circle_directions

    n = 4
    save_matrix_csv(tmp_path / "A.csv", circle_directions(4 * n * n))
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", str(n),
                 "--trials", "300", "--seed", "1", "--out", str(out)]) == 0
    report = _read_json(out)
    assert report["distortion"] <= 2 * n * n
    assert abs(report["sigma1"] - math.sqrt(2.0) * n) < 1e-9


def test_audit_reports_matrices_of_extreme_scale(tmp_path):
    from permorb import gaussian_directions

    G = gaussian_directions(3, 5, 4)
    reports = []
    for scale in (1.0, 1e-200, 1e152):
        save_matrix_csv(tmp_path / "A.csv", scale * G)
        out = tmp_path / "r.json"
        assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", "4",
                     "--trials", "50", "--seed", "0", "--check-ose", "--ose-trials", "200",
                     "--out", str(out)]) == 0
        reports.append(_read_json(out))
    want = reports[0]["ose_check"]
    assert want["pairs_used"] == 200
    for report in reports[1:]:
        assert abs(report["distortion"] / reports[0]["distortion"] - 1.0) <= 1e-12
        got = report["ose_check"]
        for key in ("violations", "pairs_used", "pairs_skipped"):
            assert got[key] == want[key]
        assert abs(got["max_ratio_error"] - want["max_ratio_error"]) <= 1e-12


@pytest.mark.parametrize(
    "extra",
    [("--check-ose", "--epsilon", "1e-5"), ("--trials", str(10**13))],
    ids=["sketch", "pool"],
)
def test_audit_reports_an_array_too_large_to_allocate(tmp_path, capsys, extra):
    # both arrays are far beyond any address space, so nothing is committed
    save_matrix_csv(tmp_path / "A.csv", gaussian_directions(3, 24, 0))
    argv = ["audit", "--directions", str(tmp_path / "A.csv"), "--n", "6", "--trials", "50",
            "--seed", "0", "--out", str(tmp_path / "r.json")]
    largest = cli._largest_sketch_bytes
    assert main(argv + list(extra)) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "r.json").exists()
    # a sketch that was never allocated does not stop later audits trimming the heap
    assert cli._largest_sketch_bytes == largest


def test_audit_rejects_all_zero_directions(tmp_path, capsys):
    save_matrix_csv(tmp_path / "A.csv", np.zeros((2, 4)))
    assert main(["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3",
                 "--trials", "50", "--seed", "0", "--out", str(tmp_path / "r.json")]) == 1
    assert "error: every sampled gap is zero" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_command(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(6).standard_normal((2, 3)))
    out = tmp_path / "pair"
    assert main(["counterexample", "--directions", str(tmp_path / "A.csv"),
                 "--seed", "8", "--out", str(out)]) == 0
    X = load_matrix_csv(out / "X.csv")
    Y = load_matrix_csv(out / "Y.csv")
    payload = _read_json(out / "certificate.json")
    assert payload["verification"]["embedding_gap"] < 1e-9
    assert payload["verification"]["orbit_distance"] > 1e-3
    assert orbit_distance(X, Y).distance > 1e-3


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_tables(tmp_path, capsys):
    assert main(["reproduce"]) == 0
    text = capsys.readouterr().out
    assert "21" in text and "90" in text

    assert main(["reproduce", "--out", str(tmp_path), "--gap-n", "4"]) == 0
    minimal = (tmp_path / "minimal_nd.csv").read_text(encoding="utf-8")
    assert minimal.splitlines()[0] == "n,2,3,4,5,6"
    assert (tmp_path / "gap_grid_n4.json").exists()


@pytest.mark.parametrize("gap_n", ["0", "1", "-3"])
@pytest.mark.parametrize("to_files", [False, True], ids=["print", "out"])
def test_reproduce_rejects_a_gap_n_below_two_before_any_output(tmp_path, capsys, gap_n, to_files):
    out = tmp_path / "tables"
    argv = ["reproduce", "--gap-n", gap_n] + (["--out", str(out)] if to_files else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --gap-n must be >= 2, got {gap_n}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n-max", "--d-max"])
@pytest.mark.parametrize("value", ["1", "0", "-3", "17"])
@pytest.mark.parametrize("to_files", [False, True], ids=["print", "out"])
def test_reproduce_rejects_a_table_range_outside_two_to_sixteen(tmp_path, capsys, flag, value,
                                                                to_files):
    # below 2 the tables would have no rows or columns, only their headers
    out = tmp_path / "tables"
    argv = ["reproduce", flag, value] + (["--out", str(out)] if to_files else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must lie in 2..16, got {value}\n"
    assert not out.exists()
