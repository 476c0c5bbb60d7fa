"""The benchmark's four workloads: seeded inputs, ops and output checks.

Each workload writes its inputs into a work directory from the workload
seed alone (``generate``), then exposes one rotation of ops.  An op is one
public permorb call, looked up on its module at call time so that a
trace's wrappers see it; ``prepare`` runs untimed before it, and
``inspect`` turns its result into an ``Outcome``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import permorb
from permorb import cli, separation
from permorb.separation import known_separating_matrix

# certify-flagship: one checkpoint offset per equal slice of the (5,2,5) tuple
# space.  The cost of a window varies about 15x with its position, so the
# seed jitters each offset by less than a quarter window: a jitter over the
# whole slice made the per-seed total vary by about 30%.
FLAGSHIP_SLICES = 32
FLAGSHIP_BUDGET = 5_000
FLAGSHIP_JITTER = FLAGSHIP_BUDGET // 4
FLAGSHIP_TOTAL = math.factorial(5) ** 4
# The flagship certifies with permorb's default seed: the certify seed keys
# the null-space samples and so changes the work, by up to 35% per rotation
# between seeds on (3,4,8) windows, and the workload seed moves only the offsets.
FLAGSHIP_CERTIFY_SEED = 0

# certify-exhaustive warm-up: enough tuples to start the pool and walk a few subtrees.
EXHAUSTIVE_WARMUP_BUDGET = 20_000

AUDIT_TRIALS = 400
AUDIT_OSE_TRIALS = 200
AUDIT_PU_M = 3
AUDIT_NS = (4, 6)
# Fields whose values ROADMAP-planned correctness fixes may change: checked
# for presence and finiteness, kept out of the stable digest.
AUDIT_VOLATILE = ("subset_bound", "pu", "blueprint_bound")

SPOT_TRIALS = 600
SPOT_SHAPES = {  # kind -> (n, d, D, M)
    "pooled": (3, 2, 10, None),
    "sketched": (4, 3, 12, 48),
    "sorted": (4, 3, 12, None),
}


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, A: np.ndarray) -> None:
    """Matrix CSV in permorb's exchange format (repr floats, bit exact)."""
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in A))


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


@dataclass
class Outcome:
    record: dict  # the part of the output pinned by expected.json
    units: int  # work done, in the workload's unit
    digest: str  # sha256 of the full output
    problems: list[str]  # failed invariants


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    inspect: Callable[[object], Outcome]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Workload:
    name: str
    workers: int
    ops: list[Op]
    warmup: Callable[[], object]
    plan: dict


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _verdict_record(verdict) -> tuple[dict, str]:
    w = verdict.witness
    record = {
        "status": verdict.status.value,
        "tuples_examined": verdict.tuples_examined,
        "next_index": verdict.next_index,
        "leaf_index": None if w is None else w.leaf_index,
    }
    full = dict(record, total_tuples=verdict.total_tuples, budget=verdict.budget)
    if w is not None:
        full["witness"] = [np.asarray(w.X).tolist(), [p.tolist() for p in w.P_tuple],
                           [q.tolist() for q in w.Q_tuple]]
    return record, sha256(canonical(full))


def generate_certify_exhaustive(seed: int, workdir: Path) -> dict:
    write_csv(workdir / "A.csv", known_separating_matrix(3, 4, 8))
    plan = {"n": 3, "threads": 2, "certify_seed": seed % 2**31}
    (workdir / "plan.json").write_text(canonical(plan))
    return plan


def certify_exhaustive(seed: int, workdir: Path) -> Workload:
    plan = generate_certify_exhaustive(seed, workdir)
    A = permorb.load_matrix_csv(workdir / "A.csv")
    n, threads, cseed = plan["n"], plan["threads"], plan["certify_seed"]
    total = math.factorial(n) ** (A.shape[1] - 1)

    def inspect(verdict):
        record, digest = _verdict_record(verdict)
        problems = []
        if record["status"] != "Separating":
            problems.append(f"status {record['status']} != Separating")
        if record["tuples_examined"] != total:
            problems.append(f"tuples_examined {record['tuples_examined']} != {total}")
        return Outcome(record, verdict.tuples_examined, digest, problems)

    op = Op(
        key="certify-3-4-8",
        call=lambda: separation.certify_separation(A, n, seed=cseed, threads=threads),
        inspect=inspect,
    )
    return Workload(
        name="certify-exhaustive",
        workers=threads,
        ops=[op],
        warmup=lambda: separation.certify_separation(
            A, n, budget=EXHAUSTIVE_WARMUP_BUDGET, seed=cseed, threads=threads
        ),
        plan=plan,
    )


def generate_certify_flagship(seed: int, workdir: Path) -> dict:
    A = known_separating_matrix(5, 2, 5)
    write_csv(workdir / "A.csv", A)
    rng = _rng(seed, "flagship")
    width = FLAGSHIP_TOTAL // FLAGSHIP_SLICES
    centre = (width - FLAGSHIP_BUDGET) // 2
    offsets = [
        k * width + centre + int(rng.integers(FLAGSHIP_JITTER)) for k in range(FLAGSHIP_SLICES)
    ]
    cseed = FLAGSHIP_CERTIFY_SEED
    digest = sha256(np.ascontiguousarray(A).tobytes())
    for k, offset in enumerate(offsets):
        checkpoint = {
            "format": 1, "n": 5, "d": 2, "D": 5, "reduced": True, "seed": cseed,
            "matrix_sha256": digest, "next_index": offset, "tuples_examined": offset,
        }
        (workdir / f"start-{k:02d}.json").write_text(json.dumps(checkpoint, indent=2) + "\n")
    plan = {"n": 5, "budget": FLAGSHIP_BUDGET, "certify_seed": cseed, "offsets": offsets}
    (workdir / "plan.json").write_text(canonical(plan))
    return plan


def certify_flagship(seed: int, workdir: Path) -> Workload:
    plan = generate_certify_flagship(seed, workdir)
    A = permorb.load_matrix_csv(workdir / "A.csv")
    n, budget, cseed = plan["n"], plan["budget"], plan["certify_seed"]
    checkpoint = workdir / "checkpoint.json"

    def make_op(k: int, offset: int) -> Op:
        start = (workdir / f"start-{k:02d}.json").read_bytes()

        def inspect(verdict):
            record, digest = _verdict_record(verdict)
            saved = json.loads(checkpoint.read_text())
            record["checkpoint"] = [saved["next_index"], saved["tuples_examined"]]
            problems = []
            if record["status"] != "Inconclusive":
                problems.append(f"status {record['status']} != Inconclusive")
            if record["tuples_examined"] - offset < budget:
                problems.append(f"decided {record['tuples_examined'] - offset} < budget {budget}")
            if record["checkpoint"] != [record["next_index"], record["tuples_examined"]]:
                problems.append(f"budget-stop checkpoint {record['checkpoint']} disagrees with the verdict")
            return Outcome(record, verdict.tuples_examined - offset, digest, problems)

        return Op(
            key=f"slice-{k:02d}",
            prepare=lambda: checkpoint.write_bytes(start),
            call=lambda: separation.certify_separation(
                A, n, budget=offset + budget, seed=cseed, checkpoint_path=str(checkpoint)
            ),
            inspect=inspect,
        )

    ops = [make_op(k, offset) for k, offset in enumerate(plan["offsets"])]

    def warmup():
        ops[0].prepare()
        return ops[0].call()

    return Workload(name="certify-flagship", workers=1, ops=ops,
                    warmup=warmup, plan=plan)


# ---------------------------------------------------------------------------
# audit-cli
# ---------------------------------------------------------------------------

# config -> (matrix file, extra audit flags)
AUDIT_CONFIGS = {
    "gauss3": ("gauss3.csv", ["--subset-r", "1", "--check-ose", "--ose-trials", str(AUDIT_OSE_TRIALS)]),
    "gauss2": ("gauss2.csv", ["--pu-m", str(AUDIT_PU_M)]),
    "circle": ("circle.csv", ["--pu-m", str(AUDIT_PU_M)]),
}


def generate_audit_cli(seed: int, workdir: Path) -> dict:
    rng = _rng(seed, "audit")
    write_csv(workdir / "gauss3.csv", rng.standard_normal((3, 24)))
    write_csv(workdir / "gauss2.csv", rng.standard_normal((2, 24)))
    write_csv(workdir / "circle.csv", permorb.circle_directions(64))
    ops = [
        {"config": config, "n": n, "seed": int(rng.integers(2**31))}
        for n in AUDIT_NS
        for config in AUDIT_CONFIGS
    ]
    plan = {"trials": AUDIT_TRIALS, "ops": ops}
    (workdir / "plan.json").write_text(canonical(plan))
    return plan


def _finite_field(value) -> bool:
    """A volatile report field: a number, or an object whose numbers are all finite."""
    if isinstance(value, dict):
        numbers = [v for v in value.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
        return bool(numbers) and all(math.isfinite(v) for v in numbers)
    return isinstance(value, (int, float)) and math.isfinite(value)


def audit_cli(seed: int, workdir: Path) -> Workload:
    plan = generate_audit_cli(seed, workdir)

    def make_op(spec: dict) -> Op:
        config, n = spec["config"], spec["n"]
        key = f"{config}-n{n}"
        matrix, flags = AUDIT_CONFIGS[config]
        out = workdir / f"report-{key}.json"
        argv = ["audit", "--directions", str(workdir / matrix), "--n", str(n),
                "--trials", str(plan["trials"]), "--seed", str(spec["seed"]), *flags,
                "--out", str(out)]

        def inspect(code):
            if code != 0 or not out.is_file():
                problem = f"exit code {code} != 0" if code != 0 else "no report written"
                return Outcome({"exit": code}, 0, sha256(str(code)), [problem])
            text = out.read_text()
            payload = json.loads(text)
            stable = {k: v for k, v in payload.items() if k not in AUDIT_VOLATILE}
            record = {"exit": code, "stable_sha256": sha256(canonical(stable))}
            problems = []
            wanted = "subset_bound" if "--subset-r" in flags else "pu"
            if payload.get(wanted) is None:
                problems.append(f"report lacks {wanted}")
            bad = [k for k in AUDIT_VOLATILE if payload.get(k) is not None and not _finite_field(payload[k])]
            if bad:
                problems.append(f"non-finite {bad}")
            units = payload["trials"]
            if "ose_check" in payload:
                units += payload["ose_check"]["pairs_used"] + payload["ose_check"]["pairs_skipped"]
            return Outcome(record, units, sha256(text), problems)

        def call():
            out.unlink(missing_ok=True)
            return cli.main(argv)

        return Op(key=key, call=call, inspect=inspect)

    ops = [make_op(spec) for spec in plan["ops"]]
    return Workload(name="audit-cli", workers=1, ops=ops,
                    warmup=ops[0].call, plan=plan)


# ---------------------------------------------------------------------------
# spot-check
# ---------------------------------------------------------------------------


def generate_spot_check(seed: int, workdir: Path) -> dict:
    rng = _rng(seed, "spot")
    plan = {"trials": SPOT_TRIALS,
            "seeds": {kind: int(rng.integers(2**31)) for kind in SPOT_SHAPES}}
    (workdir / "plan.json").write_text(canonical(plan))
    return plan


def spot_check(seed: int, workdir: Path) -> Workload:
    plan = generate_spot_check(seed, workdir)

    def make_op(kind: str, trials: int) -> Op:
        n, d, D, M = SPOT_SHAPES[kind]

        def inspect(report):
            record = {"collisions": report.collisions, "false_separations": report.false_separations}
            problems = []
            if report.collisions or report.false_separations:
                problems.append(f"{report.collisions} collisions, {report.false_separations} false separations")
            return Outcome(record, report.trials, sha256(canonical(vars(report))), problems)

        return Op(
            key=kind,
            call=lambda: separation.spot_check_injectivity(kind, n, d, D, M=M, trials=trials,
                                                seed=plan["seeds"][kind]),
            inspect=inspect,
        )

    ops = [make_op(kind, plan["trials"]) for kind in SPOT_SHAPES]
    warm = [make_op(kind, 20) for kind in SPOT_SHAPES]
    return Workload(name="spot-check", workers=1, ops=ops,
                    warmup=lambda: [op.call() for op in warm], plan=plan)


WORKLOADS = {
    "certify-exhaustive": certify_exhaustive,
    "certify-flagship": certify_flagship,
    "audit-cli": audit_cli,
    "spot-check": spot_check,
}
