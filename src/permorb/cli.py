"""Command-line front end.

Subcommands: construct, embed, distance, audit, certify, counterexample,
reproduce.  Matrices travel as CSV (one row per line, '#' comments),
structured results as JSON with floats at 17 significant digits; every
seeded command is byte-reproducible, except that the reference norms of
``audit --check-ose`` are long BLAS dot products whose bits a
multi-threaded BLAS may change with its thread count (one BLAS thread,
OPENBLAS_NUM_THREADS=1, gives the recorded digests).  Exit codes are a
stable contract:

    0  success (for certify: Separating)
    1  invalid parameters, unsupported matrix form, or an array too large
       to allocate
    2  I/O failure
    3  audit finished but skipped a requested bound (budget exceeded)
    4  certify found a witness
    5  certify was inconclusive within budget
    6  reproduce found table mismatches

The PERMORB_BUDGET environment variable overrides the default enumeration
budgets (certify tuples, audit subset enumeration) when no --budget flag
is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import (
    DEFAULT_OSE_CONSTANT,
    _SketchDraw,
    _audit_subset_bound,
    empirical_distortion,
    ose_check,
    ose_dimension,
    upper_lipschitz,
)
from .constructions import (
    adversarial_circle_pair,
    circle_directions,
    gaussian_directions,
    identity_augmented,
    parity_counterexample,
    sphere_directions,
)
from .core import (
    BudgetExceededError,
    DEFAULT_SPARK_TOL,
    DEFAULT_SUBSET_BUDGET,
    UnsupportedFormError,
    default_enumeration_budget,
    is_full_spark,
    json_dumps,
    load_matrix_csv,
    save_matrix_csv,
    singular_values,
)
from .embeddings import pooled_embedding, sketched_embedding, sorted_embedding
from .metrics import orbit_distance, wasserstein2
from .separation import SeparationStatus, certify_separation
from .tables import (
    format_table,
    gap_grid,
    injectivity_summary,
    maximal_nd_table,
    minimal_nd_table,
    verify_tables,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_PARTIAL = 3
EXIT_WITNESS = 4
EXIT_INCONCLUSIVE = 5
EXIT_TABLE_MISMATCH = 6

_CONSTRUCT_KINDS = (
    "circle",
    "gaussian",
    "sphere",
    "identity-augmented",
    "parity-pair",
    "adversarial-pair",
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _outdir(args) -> Path:
    directory = Path(args.out) if args.out else Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    kind = args.kind
    directory = _outdir(args)
    tol = args.tol if args.tol is not None else DEFAULT_SPARK_TOL

    if kind == "circle":
        _require(args.d is None or args.d == 2, "circle directions are 2-dimensional")
        _require(args.D is not None and args.D >= 2, "circle needs --D >= 2")
        A = circle_directions(args.D)
        sv = singular_values(A)
        certificate = {
            "kind": kind,
            "d": 2,
            "D": args.D,
            "sigma1": float(sv[0]),
            "sigma2": float(sv[1]),
        }
        save_matrix_csv(directory / "A.csv", A)
    elif kind in ("gaussian", "sphere"):
        _require(args.d is not None and args.d >= 1, f"{kind} needs --d >= 1")
        _require(args.D is not None and args.D >= 1, f"{kind} needs --D >= 1")
        maker = gaussian_directions if kind == "gaussian" else sphere_directions
        A = maker(args.d, args.D, args.seed)
        certificate = {
            "kind": kind,
            "d": args.d,
            "D": args.D,
            "seed": args.seed,
            "sigma1": upper_lipschitz(A),
        }
        save_matrix_csv(directory / "A.csv", A)
    elif kind == "identity-augmented":
        _require(args.tail is not None, "identity-augmented needs --tail TAIL.csv")
        tail = load_matrix_csv(args.tail)
        A = identity_augmented(tail)
        certificate = {
            "kind": kind,
            "d": A.shape[0],
            "D": A.shape[1],
            "full_spark": bool(is_full_spark(A, tol)),
            "spark_tol": tol,
        }
        save_matrix_csv(directory / "A.csv", A)
    elif kind == "parity-pair":
        _require(args.directions is not None, "parity-pair needs --directions A.csv")
        certificate = _parity_pair(load_matrix_csv(args.directions), args.seed, directory)
    elif kind == "adversarial-pair":
        _require(args.n is not None and args.n >= 2, "adversarial-pair needs --n >= 2")
        _require(args.d is not None and args.d >= 2, "adversarial-pair needs --d >= 2")
        pair = adversarial_circle_pair(args.n, args.d)
        save_matrix_csv(directory / "X.csv", pair.X)
        save_matrix_csv(directory / "Y.csv", pair.Y)
        certificate = pair.certificate
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construction kind {kind!r}")

    (directory / "certificate.json").write_text(json_dumps(certificate), encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed / distance
# ---------------------------------------------------------------------------


def cmd_embed(args) -> int:
    A = load_matrix_csv(args.directions)
    X = load_matrix_csv(args.cloud)
    if args.kind == "sorted":
        E = sorted_embedding(A, X)
    elif args.kind == "pooled":
        _require(args.pooling is not None, "pooled embedding needs --pooling B.csv")
        E = pooled_embedding(A, load_matrix_csv(args.pooling), X)[None, :]
    else:
        _require(args.sketch is not None, "sketched embedding needs --sketch L.csv")
        E = sketched_embedding(A, load_matrix_csv(args.sketch), X)[None, :]
    if args.out:
        save_matrix_csv(args.out, E)
    else:
        sys.stdout.write(json_dumps(np.asarray(E).tolist()))
    return EXIT_OK


def cmd_distance(args) -> int:
    X = load_matrix_csv(args.cloud_x)
    Y = load_matrix_csv(args.cloud_y)
    result = orbit_distance(X, Y)
    report = {
        "distance": result.distance,
        "matching": result.sigma.tolist(),
        "wasserstein2": wasserstein2(X, Y),
        "n": X.shape[0],
        "d": X.shape[1],
    }
    _emit(json_dumps(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


# Bytes of the largest OSE sketch this process has allocated so far.
_largest_sketch_bytes = 0


def _start_sketch(n: int, D: int, M: int, seed: int) -> _SketchDraw:
    """Start drawing the audit's OSE sketch, handing free heap pages back first if it is the largest yet.

    glibc serves a block at least as large as its mmap threshold by a
    mapping of its own, and raises that threshold to the largest block
    freed so far.  So a sketch larger than every earlier one is mapped
    apart from the heap, and cannot reuse the heap's free memory, which
    glibc keeps resident until a free leaves more than its trim threshold
    at the top of the heap.  In a process that runs many audits the two
    then add up: 8-second runs of the ``audit-cli`` benchmark, whose first
    n = 6 sketch is 18,921 x 144, peak at 77.3-77.4 MB untrimmed against
    70.3-73.4 MB trimmed (seeds 0 and 1, two runs each, 2 cores, scipy not
    loaded).  A sketch no larger than an earlier one comes from the heap
    and reuses that memory, so the heap is trimmed only before a new
    largest sketch (glibc's malloc_trim; elsewhere this does nothing).  A
    sketch counts once it is allocated: one too large to allocate leaves
    the record as it was.
    """
    global _largest_sketch_bytes
    nbytes = 8 * M * n * D
    if nbytes > _largest_sketch_bytes:
        try:
            import ctypes

            ctypes.CDLL(None).malloc_trim(0)
        except (AttributeError, OSError, TypeError):
            pass  # no glibc, so nothing to trim
    sketch = _SketchDraw.start(n, D, M, seed)
    _largest_sketch_bytes = max(_largest_sketch_bytes, nbytes)
    return sketch


def cmd_audit(args) -> int:
    A = load_matrix_csv(args.directions)
    subset_budget = (
        args.budget
        if args.budget is not None
        else default_enumeration_budget(DEFAULT_SUBSET_BUDGET)
    )
    # The OSE sketch is drawn by a worker thread while the pool runs.  An
    # invalid OSE flag, or a sketch too large to allocate, is raised where
    # the audit reaches the check, after the errors of everything before it.
    sketch = sketch_error = None
    if args.check_ose:
        n, D = args.n, A.shape[1]
        try:
            M = ose_dimension(n, A.shape[0], D, args.epsilon, args.eta, args.ose_constant)
            sketch = _start_sketch(n, D, M, args.seed)
        except (ValueError, MemoryError) as exc:
            sketch_error = exc
    try:
        report = empirical_distortion(A, args.n, args.trials, args.seed, pu_m=args.pu_m)
        skipped: dict[str, str] = {}
        if args.subset_r is not None:
            try:
                report.subset_bound = _audit_subset_bound(
                    A, args.subset_r, args.n, budget=subset_budget
                )
            except BudgetExceededError as exc:
                skipped["subset_bound"] = str(exc)
        payload = dataclasses.asdict(report)
        if skipped:
            payload["skipped"] = skipped
        if args.check_ose:
            if sketch_error is not None:
                raise sketch_error
            payload["ose_check"] = dataclasses.asdict(
                ose_check(A, sketch, args.n, args.epsilon, args.ose_trials, args.seed)
            )
            payload["ose_dimension"] = M
    finally:
        if sketch is not None:
            sketch.close()
    _emit(json_dumps(payload), args.out)
    return EXIT_PARTIAL if skipped else EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    A = load_matrix_csv(args.directions)
    verdict = certify_separation(
        A,
        args.n,
        budget=args.budget,
        seed=args.seed,
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    payload = dataclasses.asdict(verdict)
    payload["status"] = verdict.status.value
    _emit(json_dumps(payload), args.out)
    if verdict.status is SeparationStatus.SEPARATING:
        return EXIT_OK
    if verdict.status is SeparationStatus.WITNESS_FOUND:
        return EXIT_WITNESS
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _parity_pair(A: np.ndarray, seed: int, directory: Path) -> dict:
    """Build the parity counterexample for A, write X.csv and Y.csv, return its certificate."""
    pair = parity_counterexample(A, seed)
    save_matrix_csv(directory / "X.csv", pair.X)
    save_matrix_csv(directory / "Y.csv", pair.Y)
    return pair.certificate


def cmd_counterexample(args) -> int:
    A = load_matrix_csv(args.directions)
    directory = _outdir(args)
    certificate = _parity_pair(A, args.seed, directory)
    payload = {
        "certificate": certificate,
        "verification": {
            "embedding_gap": certificate["embedding_gap"],
            "orbit_distance": certificate["orbit_distance"],
            "sigma1": upper_lipschitz(A),
        },
    }
    (directory / "certificate.json").write_text(json_dumps(payload), encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _table_csv(table, ns, ds) -> str:
    lines = ["n," + ",".join(str(d) for d in ds)]
    for n in ns:
        lines.append(f"{n}," + ",".join(str(table[(n, d)]) for d in ds))
    return "\n".join(lines) + "\n"


def cmd_reproduce(args) -> int:
    ns = tuple(range(2, args.n_max + 1))
    ds = tuple(range(2, args.d_max + 1))
    for flag, value in (("--n-max", args.n_max), ("--d-max", args.d_max)):
        _require(2 <= value <= 16, f"{flag} must lie in 2..16, got {value}")
    _require(args.gap_n is None or args.gap_n >= 2, f"--gap-n must be >= 2, got {args.gap_n}")
    mismatches = verify_tables()
    minimal = minimal_nd_table(ns, ds)
    maximal = maximal_nd_table(ns, ds)
    summary = injectivity_summary(ns, ds)
    if args.out:
        directory = _outdir(args)
        (directory / "minimal_nd.csv").write_text(_table_csv(minimal, ns, ds), encoding="utf-8")
        (directory / "maximal_nd.csv").write_text(_table_csv(maximal, ns, ds), encoding="utf-8")
        (directory / "injectivity_summary.json").write_text(json_dumps(summary), encoding="utf-8")
        if args.gap_n is not None:
            (directory / f"gap_grid_n{args.gap_n}.json").write_text(
                json_dumps(gap_grid(args.gap_n, ds)), encoding="utf-8"
            )
    else:
        sys.stdout.write("minimal separating embedding dimension n*D\n")
        sys.stdout.write(format_table(minimal, ns, ds) + "\n\n")
        sys.stdout.write("maximal non-separating embedding dimension n*D\n")
        sys.stdout.write(format_table(maximal, ns, ds) + "\n")
        if args.gap_n is not None:
            sys.stdout.write(f"\nseparation gap at n={args.gap_n}\n")
            sys.stdout.write(json_dumps(gap_grid(args.gap_n, ds)))
    if mismatches:
        for table, n, d, got, want in mismatches:
            sys.stderr.write(
                f"mismatch in {table} table at n={n}, d={d}: computed {got}, expected {want}\n"
            )
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The permorb argument parser, built once per process.

    ``parse_args`` leaves no state behind in it (no ``append`` actions, no
    mutable defaults), so every call may share one.
    """
    parser = argparse.ArgumentParser(
        prog="permorb",
        description="Sorted permutation-invariant embeddings: construction, "
        "distances, distortion audits, and orbit-separation certification.",
    )
    parser.add_argument("--version", action="version", version=f"permorb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate direction matrices and cloud pairs")
    p.add_argument("kind", choices=_CONSTRUCT_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="full-spark tolerance for certificates")
    p.add_argument("--tail", help="CSV tail matrix for identity-augmented")
    p.add_argument("--directions", help="CSV direction matrix for parity-pair")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("embed", help="apply an embedding to a cloud CSV")
    p.add_argument("--kind", choices=("sorted", "pooled", "sketched"), default="sorted")
    p.add_argument("--directions", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--pooling", help="CSV pooling matrix (pooled kind)")
    p.add_argument("--sketch", help="CSV sketch matrix (sketched kind)")
    p.add_argument("--out", help="output CSV (default: JSON to stdout)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("distance", help="exact orbit distance between two clouds")
    p.add_argument("cloud_x")
    p.add_argument("cloud_y")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("audit", help="empirical and certified distortion bounds")
    p.add_argument("--directions", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subset-r", type=int, default=None, help="attach the size-(r*d) subset bound")
    p.add_argument("--pu-m", type=int, default=None,
                   help="attach the (m, delta) projective uniformity (a proven floor for d = 2)")
    p.add_argument("--budget", type=int, default=None, help="subset enumeration budget")
    p.add_argument("--check-ose", action="store_true", help="attach a sketch norm-preservation check")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--ose-constant", type=float, default=DEFAULT_OSE_CONSTANT)
    p.add_argument("--ose-trials", type=int, default=1000)
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("certify", help="exhaustive orbit-separation certification")
    p.add_argument("--directions", required=True, help="identity-augmented CSV matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; changes only the speed, not the verdict")
    p.add_argument("--checkpoint", help="JSON checkpoint path for resumable runs")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("counterexample", help="generate and verify an indistinguishable pair")
    p.add_argument("--directions", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("reproduce", help="regenerate the small-dimension tables")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--gap-n", type=int, default=None, help="also emit the gap grid for this n")
    p.add_argument("--out", help="output directory (default: print)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFormError, BudgetExceededError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
