import dataclasses
import hashlib
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
    audit,
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "circle", "--D", "1"], "D must be >= 2, got 1"),
        (["construct", "circle"], "circle needs --D"),
        (["construct", "gaussian", "--d", "0", "--D", "5"], "d must be >= 1, got 0"),
        (["construct", "sphere", "--d", "2", "--D", "0"], "D must be >= 1, got 0"),
        (["construct", "sphere", "--D", "4"], "sphere needs --d"),
        (["construct", "adversarial-pair", "--n", "1", "--d", "2"], "n must be >= 2, got 1"),
        (["construct", "adversarial-pair", "--n", "3", "--d", "1"], "d must be >= 2, got 1"),
        (["construct", "parity-pair", "--directions", "LINE"], "construction needs d >= 2, got d=1"),
        (["counterexample", "--directions", "LINE"], "construction needs d >= 2, got d=1"),
    ],
)
def test_a_failed_construction_writes_nothing(tmp_path, capsys, argv, message):
    # range errors are the generators' own, and come before the --out directory exists
    save_matrix_csv(tmp_path / "line.csv", np.array([[1.0, 2.0, 3.0]]))
    out = tmp_path / "out"
    argv = [str(tmp_path / "line.csv") if arg == "LINE" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The valid flags of each construct kind, and each flag it would ignore.
_CONSTRUCT_BASE = {
    "circle": ["--D", "8"],
    "gaussian": ["--d", "2", "--D", "5"],
    "sphere": ["--d", "2", "--D", "5"],
    "identity-augmented": ["--tail", "MISSING"],
    "parity-pair": ["--directions", "MISSING"],
    "adversarial-pair": ["--n", "3", "--d", "2"],
}
_CONSTRUCT_IGNORES = {
    "circle": ["--n", "--seed", "--tol", "--tail", "--directions"],
    "gaussian": ["--n", "--tol", "--tail", "--directions"],
    "sphere": ["--n", "--tol", "--tail", "--directions"],
    "identity-augmented": ["--n", "--d", "--D", "--seed", "--directions"],
    "parity-pair": ["--n", "--d", "--D", "--tol", "--tail"],
    "adversarial-pair": ["--D", "--seed", "--tol", "--tail", "--directions"],
}
_FLAG_VALUES = {"--n": "3", "--d": "2", "--D": "8", "--seed": "5", "--tol": "0.5",
                "--tail": "MISSING", "--directions": "MISSING"}


def _ignored_flags():
    """(id, argv, message) for each flag a command would ignore, added to a valid call."""
    for kind, flags in _CONSTRUCT_IGNORES.items():
        for flag in flags:
            argv = ["construct", kind, *_CONSTRUCT_BASE[kind], flag, _FLAG_VALUES[flag]]
            yield f"construct {kind} {flag}", argv, f"{flag} does not apply to construct {kind}"
    files = {"sorted": [], "pooled": ["--pooling", "MISSING"], "sketched": ["--sketch", "MISSING"]}
    for kind, flag, reader in [("sorted", "--pooling", "pooled"), ("sorted", "--sketch", "sketched"),
                               ("pooled", "--sketch", "sketched"),
                               ("sketched", "--pooling", "pooled")]:
        argv = ["embed", "--directions", "MISSING", "--cloud", "MISSING", "--kind", kind,
                *files[kind], flag, "MISSING"]
        yield f"embed {kind} {flag}", argv, f"{flag} applies only with --kind {reader}"


_IGNORED = list(_ignored_flags())


def test_thirty_two_ignored_flags_are_listed():
    assert len(_IGNORED) == 32


@pytest.mark.parametrize("argv, message", [case[1:] for case in _IGNORED],
                         ids=[case[0] for case in _IGNORED])
def test_a_flag_the_command_would_ignore_is_refused(tmp_path, capsys, argv, message):
    # every file named is missing, so the refusal comes before any input is
    # read, and it comes before the --out path exists
    out = tmp_path / "out"
    argv = [str(tmp_path / "missing.csv") if arg == "MISSING" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, digests", [
    # seed 0 unless --seed is given; the file bytes predate the refusals
    (["gaussian", "--d", "3", "--D", "5"],
     {"A.csv": "94bc57515ef3c897c5728b6e02fa223672cca50c766aa701080efa17333dd7ae",
      "certificate.json": "daedf072c52a16c22eff2a9b0b002356583cdedd5c7dafe8cfbd8926a21da634"}),
    (["circle", "--D", "8"],
     {"A.csv": "679e906c31ac940cad9ef2bceb4b688135b46d0257789a0af802093e844af317",
      "certificate.json": "5f10ff962f9a3a8e7afbfff8ffbd61cc68386515fe4292948b2639e1a0842232"}),
], ids=["gaussian", "circle"])
def test_construct_writes_the_recorded_bytes(tmp_path, argv, digests):
    assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == digests


@pytest.mark.parametrize("argv", [
    ["audit", "--directions", "A.csv"],                     # a missing required flag
    ["construct", "circle", "--D", "8", "--bogus", "1"],    # an unrecognised flag
    ["construct", "cone", "--D", "8"],                      # a bad choice
    ["construct", "circle", "--D", "8.5"],                  # a count that is not an integer
], ids=["missing", "unrecognised", "choice", "integer"])
def test_a_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind, message", [
    ("pooled", "pooled embedding needs --pooling B.csv"),
    ("sketched", "sketched embedding needs --sketch L.csv"),
])
def test_embed_refuses_a_missing_kind_flag_before_reading_a_file(tmp_path, capsys, kind, message):
    # both input files are missing too, yet the flag error comes first (exit 1, not 2)
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "E.csv"
    assert main(["embed", "--kind", kind, "--directions", missing, "--cloud", missing,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
    assert bound == dataclasses.asdict(subset_sigma_lower_bound(A, 1, n))


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


def test_audit_rejects_a_budget_without_a_subset_bound(tmp_path, capsys):
    # the flag would bound nothing, so it is refused before the matrix is even read
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "missing.csv"), "--n", "3",
                 "--trials", "20", "--budget", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --budget applies only with --subset-r\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--epsilon", "0.5"), ("--eta", "0.2"),
                                         ("--ose-constant", "2"), ("--ose-trials", "10")])
def test_audit_rejects_an_ose_flag_without_check_ose(tmp_path, capsys, flag, value):
    # the flag would change nothing, so it is refused before the matrix is even read
    out = tmp_path / "r.json"
    assert main(["audit", "--directions", str(tmp_path / "missing.csv"), "--n", "3",
                 "--trials", "20", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag} applies only with --check-ose\n"
    assert not out.exists()


def test_certify_rejects_general_matrices(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(5).standard_normal((2, 4)))
    assert main(["certify", "--directions", str(tmp_path / "A.csv"), "--n", "3"]) == 1


def test_audit_takes_a_subset_budget_flag(tmp_path):
    save_matrix_csv(tmp_path / "A.csv", np.random.default_rng(2).standard_normal((2, 6)))
    args = ["audit", "--directions", str(tmp_path / "A.csv"), "--n", "3", "--trials", "20",
            "--pu-m", "2", "--check-ose", "--ose-trials", "10"]
    out = tmp_path / "r.json"
    assert main(args + ["--subset-r", "1", "--budget", "100", "--out", str(out)]) == 0
    assert _read_json(out)["subset_bound"]["subsets"] == 15


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
    largest = audit._largest_sketch_bytes
    assert main(argv + list(extra)) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "r.json").exists()
    # a sketch that was never allocated does not stop later audits trimming the heap
    assert audit._largest_sketch_bytes == largest


@pytest.mark.parametrize("shape, flags, message", [
    ((3, 24), ["--n", "12"], "n must lie in 2..8, got 12"),
    ((3, 24), ["--n", "1"], "n must lie in 2..8, got 1"),
    ((3, 24), ["--n", "3", "--trials", "0"], "trials must be >= 1, got 0"),
    ((1, 24), ["--n", "3"], "empirical distortion needs d >= 2, got d = 1"),
])
def test_audit_that_fails_before_the_check_draws_no_sketch(tmp_path, capsys, monkeypatch,
                                                             shape, flags, message):
    def drawn_sketch(*args):
        raise AssertionError("the sketch was drawn")

    monkeypatch.setattr(audit, "_drawn_sketch", drawn_sketch)
    save_matrix_csv(tmp_path / "A.csv", gaussian_directions(*shape, 0))
    argv = ["audit", "--directions", str(tmp_path / "A.csv"), *flags, "--seed", "0",
            "--out", str(tmp_path / "r.json")]
    for extra in (["--check-ose", "--epsilon", "2.0"], ["--check-ose"], []):
        assert main(argv + extra) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


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
