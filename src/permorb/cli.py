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
    1  invalid parameters (a flag the command would ignore among them),
       unsupported matrix form, or an array too large to allocate
    2  I/O failure, or a usage error that argparse reports: an
       unrecognised flag, a missing required flag, a bad choice, or a
       count that is not an integer
    3  audit finished but skipped a requested bound (budget exceeded)
    4  certify found a witness
    5  certify was inconclusive within budget
    6  reproduce found table mismatches

Only ``core`` is imported with this module.  Each command imports the
modules it runs when it starts, so ``certify`` never loads ``audit`` and
``audit`` never loads ``separation`` or ``tables``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    BudgetExceededError,
    DEFAULT_OSE_CONSTANT,
    DEFAULT_SPARK_TOL,
    DEFAULT_SUBSET_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    UnsupportedFormError,
    is_full_spark,
    json_dumps,
    load_matrix_csv,
    save_matrix_csv,
    singular_values,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_PARTIAL = 3
EXIT_WITNESS = 4
EXIT_INCONCLUSIVE = 5
EXIT_TABLE_MISMATCH = 6

# The flags each construct kind reads; it refuses the others.
_CONSTRUCT_FLAGS = {
    "circle": ("d", "D"),
    "gaussian": ("d", "D", "seed"),
    "sphere": ("d", "D", "seed"),
    "identity-augmented": ("tol", "tail"),
    "parity-pair": ("seed", "directions"),
    "adversarial-pair": ("n", "d"),
}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _outdir(args) -> Path:
    directory = Path(args.out) if args.out else Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_outputs(args, matrices: dict[str, np.ndarray], certificate: dict) -> None:
    """Write each matrix CSV and certificate.json into the --out directory, creating it."""
    directory = _outdir(args)
    for name, matrix in matrices.items():
        save_matrix_csv(directory / name, matrix)
    (directory / "certificate.json").write_text(json_dumps(certificate), encoding="utf-8")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _refuse_given(args, names, reason: str) -> None:
    """Refuse the first of ``names`` that the command line set, as the command would ignore it."""
    for name in names:
        _require(getattr(args, name) is None, f"--{name.replace('_', '-')} {reason}")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    from .constructions import (
        adversarial_circle_pair,
        circle_directions,
        gaussian_directions,
        identity_augmented,
        parity_counterexample,
        sphere_directions,
    )

    kind = args.kind
    unread = set().union(*_CONSTRUCT_FLAGS.values()).difference(_CONSTRUCT_FLAGS[kind])
    _refuse_given(args, sorted(unread), f"does not apply to construct {kind}")
    tol = args.tol if args.tol is not None else DEFAULT_SPARK_TOL
    seed = args.seed if args.seed is not None else 0

    # range errors come from the generators, before anything is written
    if kind == "circle":
        _require(args.d is None or args.d == 2, "circle directions are 2-dimensional")
        _require(args.D is not None, "circle needs --D")
        A = circle_directions(args.D)
        sv = singular_values(A)
        matrices = {"A.csv": A}
        certificate = {
            "kind": kind,
            "d": 2,
            "D": args.D,
            "sigma1": float(sv[0]),
            "sigma2": float(sv[1]),
        }
    elif kind in ("gaussian", "sphere"):
        _require(args.d is not None, f"{kind} needs --d")
        _require(args.D is not None, f"{kind} needs --D")
        maker = gaussian_directions if kind == "gaussian" else sphere_directions
        A = maker(args.d, args.D, seed)
        matrices = {"A.csv": A}
        certificate = {
            "kind": kind,
            "d": args.d,
            "D": args.D,
            "seed": seed,
            "sigma1": float(singular_values(A)[0]),
        }
    elif kind == "identity-augmented":
        _require(args.tail is not None, "identity-augmented needs --tail TAIL.csv")
        A = identity_augmented(load_matrix_csv(args.tail))
        matrices = {"A.csv": A}
        certificate = {
            "kind": kind,
            "d": A.shape[0],
            "D": A.shape[1],
            "full_spark": bool(is_full_spark(A, tol)),
            "spark_tol": tol,
        }
    else:  # parity-pair or adversarial-pair
        if kind == "parity-pair":
            _require(args.directions is not None, "parity-pair needs --directions A.csv")
            pair = parity_counterexample(load_matrix_csv(args.directions), seed)
        else:
            _require(args.n is not None, "adversarial-pair needs --n")
            _require(args.d is not None, "adversarial-pair needs --d")
            pair = adversarial_circle_pair(args.n, args.d)
        matrices, certificate = {"X.csv": pair.X, "Y.csv": pair.Y}, pair.certificate

    _write_outputs(args, matrices, certificate)
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed / distance
# ---------------------------------------------------------------------------


def cmd_embed(args) -> int:
    from .embeddings import pooled_embedding, sketched_embedding, sorted_embedding

    # flag errors come before any file is read
    for name, kind, path in (("pooling", "pooled", "B.csv"), ("sketch", "sketched", "L.csv")):
        if args.kind != kind:
            _refuse_given(args, (name,), f"applies only with --kind {kind}")
        else:
            _require(getattr(args, name) is not None, f"{kind} embedding needs --{name} {path}")
    A = load_matrix_csv(args.directions)
    X = load_matrix_csv(args.cloud)
    if args.kind == "sorted":
        E = sorted_embedding(A, X)
    elif args.kind == "pooled":
        E = pooled_embedding(A, load_matrix_csv(args.pooling), X)[None, :]
    else:
        E = sketched_embedding(A, load_matrix_csv(args.sketch), X)[None, :]
    if args.out:
        save_matrix_csv(args.out, E)
    else:
        sys.stdout.write(json_dumps(np.asarray(E).tolist()))
    return EXIT_OK


def cmd_distance(args) -> int:
    from .metrics import orbit_distance, wasserstein2

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


# Defaults of the flags that apply only with --check-ose.
_OSE_DEFAULTS = {"epsilon": 0.25, "eta": 0.1, "ose_constant": DEFAULT_OSE_CONSTANT,
                 "ose_trials": 1000}


def cmd_audit(args) -> int:
    from .audit import (
        _distortion_args,
        _drawn_sketch,
        _ose_check,
        empirical_distortion,
        ose_dimension,
        subset_sigma_lower_bound,
    )

    if args.subset_r is None:
        _refuse_given(args, ("budget",), "applies only with --subset-r")
    if not args.check_ose:
        _refuse_given(args, _OSE_DEFAULTS, "applies only with --check-ose")
    ose = {name: default if getattr(args, name) is None else getattr(args, name)
           for name, default in _OSE_DEFAULTS.items()}
    A = load_matrix_csv(args.directions)
    with contextlib.ExitStack() as stack:
        # A worker thread draws half the OSE sketch while the pool runs, and
        # the sketch check draws the rest before its first screen
        # (_drawn_sketch), so an audit that fails before the check draws
        # at most that half.  An invalid OSE flag, or a sketch too large to
        # allocate, is raised where the audit reaches the check, after the
        # errors of everything before it.  An audit whose pool arguments
        # fail draws no sketch: empirical_distortion raises their error
        # first.
        sketch = sketch_error = None
        if args.check_ose:
            n, D = args.n, A.shape[1]
            try:
                _distortion_args(A, n, args.trials)
                M = ose_dimension(n, A.shape[0], D, ose["epsilon"], ose["eta"],
                                  ose["ose_constant"])
                sketch = stack.enter_context(_drawn_sketch(n, D, M, args.seed))
            except (ValueError, MemoryError) as exc:
                sketch_error = exc
        report = empirical_distortion(A, args.n, args.trials, args.seed, pu_m=args.pu_m)
        skipped: dict[str, str] = {}
        if args.subset_r is not None:
            budget = DEFAULT_SUBSET_BUDGET if args.budget is None else args.budget
            try:
                report.subset_bound = subset_sigma_lower_bound(
                    A, args.subset_r, args.n, budget=budget
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
                _ose_check(A, *sketch, args.n, ose["epsilon"], ose["ose_trials"], args.seed)
            )
            payload["ose_dimension"] = M
    _emit(json_dumps(payload), args.out)
    return EXIT_PARTIAL if skipped else EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    from .separation import SeparationStatus, certify_separation

    A = load_matrix_csv(args.directions)
    verdict = certify_separation(
        A,
        args.n,
        budget=args.budget,
        seed=args.seed,
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    _emit(json_dumps(verdict), args.out)
    if verdict.status is SeparationStatus.SEPARATING:
        return EXIT_OK
    if verdict.status is SeparationStatus.WITNESS_FOUND:
        return EXIT_WITNESS
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def cmd_counterexample(args) -> int:
    from .constructions import parity_counterexample

    A = load_matrix_csv(args.directions)
    pair = parity_counterexample(A, args.seed)
    payload = {
        "certificate": pair.certificate,
        "verification": {
            "embedding_gap": pair.certificate["embedding_gap"],
            "orbit_distance": pair.certificate["orbit_distance"],
            "sigma1": float(singular_values(A)[0]),
        },
    }
    _write_outputs(args, {"X.csv": pair.X, "Y.csv": pair.Y}, payload)
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
    from .tables import (
        format_table,
        gap_grid,
        injectivity_summary,
        maximal_nd_table,
        minimal_nd_table,
        verify_tables,
    )

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
    p.add_argument("kind", choices=_CONSTRUCT_FLAGS)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--seed", type=int, help="for gaussian, sphere and parity-pair (default 0)")
    p.add_argument("--tol", type=float, help="full-spark tolerance for identity-augmented")
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
    p.add_argument("--budget", type=int, default=None,
                   help="subset enumeration budget (with --subset-r only)")
    p.add_argument("--check-ose", action="store_true", help="attach a sketch norm-preservation check")
    p.add_argument("--epsilon", type=float, help="with --check-ose only (default 0.25)")
    p.add_argument("--eta", type=float, help="with --check-ose only (default 0.1)")
    p.add_argument("--ose-constant", type=float,
                   help=f"with --check-ose only (default {DEFAULT_OSE_CONSTANT})")
    p.add_argument("--ose-trials", type=int, help="with --check-ose only (default 1000)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("certify", help="exhaustive orbit-separation certification")
    p.add_argument("--directions", required=True, help="identity-augmented CSV matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_TUPLE_BUDGET)
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
