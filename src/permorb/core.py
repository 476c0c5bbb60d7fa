"""Shared numeric foundations.

Validation helpers, sorting, permutations, singular values, full-spark
checks, seeded randomness, CSV matrix I/O and deterministic JSON report
serialization.  Everything here is pure: inputs are never mutated, so
values can be shared freely across threads.  No module reads the
environment: budgets arrive as arguments.

Reproducibility notes:

* Random streams come from the counter-based Philox generator.  A 64-bit
  seed always produces the same stream, independent of platform.  The one
  keyed scheme is ``separation._hash_coefficients``: it draws from a
  ``(seed, leaf index)`` pair, so resumed or partitioned certification
  runs test identical elements regardless of visit order.
* CSV files store one matrix row per line; entries use ``repr`` so a
  save/load round trip is bit exact.  Lines starting with ``#`` are
  comments.
* JSON reports serialize floats with 17 significant digits, which is
  enough to round-trip an IEEE double exactly.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
import numbers
from pathlib import Path

import numpy as np

from . import __version__

__all__ = [
    "__version__",
    "BudgetExceededError",
    "ConstructionError",
    "UnsupportedFormError",
    "DEFAULT_SPARK_TOL",
    "DEFAULT_SUBSET_BUDGET",
    "DEFAULT_TUPLE_BUDGET",
    "DEFAULT_OSE_CONSTANT",
    "as_matrix",
    "as_vector",
    "make_rng",
    "sort_ascending",
    "validate_permutation",
    "permute_rows",
    "singular_values",
    "is_full_spark",
    "flatten_embedding",
    "load_matrix_csv",
    "save_matrix_csv",
    "json_dumps",
]

# Relative tolerance separating "genuinely rank deficient" from "small but
# real" singular values at desk scale (matrices up to a few hundred
# rows/columns).
DEFAULT_SPARK_TOL = 1e-9

# Cap on exhaustive column-subset enumerations before the caller is asked
# to switch to a sampled (non-certified) mode.
DEFAULT_SUBSET_BUDGET = 2_000_000

# Cap on the permutation tuples one certify_separation run decides.
DEFAULT_TUPLE_BUDGET = 10**9

# The sketch-dimension formula of audit.ose_dimension hides an absolute
# constant; 4 is the default calibration knob, checked empirically by
# audit.ose_check.
DEFAULT_OSE_CONSTANT = 4.0

# Column subsets per batched SVD of _subset_singular_values.
_SUBSET_CHUNK = 2048

# Spaces per nesting level in json_dumps output.
_JSON_INDENT = 2


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


class ConstructionError(RuntimeError):
    """A generator could not produce an object meeting its certificate."""


class UnsupportedFormError(ValueError):
    """An operation received a matrix outside its required normal form."""


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_count(name: str, value, least=1, most: int | None = None) -> int:
    """value as a Python int, once it is an integer, not a bool, in least..most.

    Counts and seeds of the public API all pass through here, so a report
    or certificate holds the Python int its run used.  ``least`` may be
    -math.inf where the caller states the range itself.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in {least}..{most}, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with at least one row/column, all finite."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _unit_scaled(*arrays: np.ndarray) -> tuple:
    """Each array times 2**-k, then k, where their largest |entry| is f 2**k, 0.5 <= f < 1.

    A quantity that scales with the arrays, computed on the scaled ones and
    multiplied by 2**k, neither overflows nor underflows on the way, whatever
    their scale.  Scaling by a power of two is exact, so arrays already in
    [0.5, 1) keep their bits.
    """
    k = math.frexp(float(max(np.max(np.abs(a)) for a in arrays)))[1]
    return (*(np.ldexp(a, -k) for a in arrays), k)


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------


def _check_seed(seed: int) -> int:
    seed = _check_count("seed", seed, least=-math.inf)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox); identical streams everywhere."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


# ---------------------------------------------------------------------------
# Sorting and permutations
# ---------------------------------------------------------------------------


def sort_ascending(v) -> np.ndarray:
    """Sort a vector non-decreasingly; rejects non-finite input."""
    return np.sort(as_vector(v))


def validate_permutation(sigma, n: int | None = None) -> np.ndarray:
    """Check that sigma is a bijection on 0..len-1 (and has length n if given).

    Integer-valued finite floats are accepted; booleans are not integers here.
    """
    arr = np.asarray(sigma)
    if arr.ndim != 1:
        raise ValueError(f"permutation must be 1-D, got shape {arr.shape}")
    if arr.dtype == np.bool_:
        raise ValueError("permutation entries must be integers, got booleans")
    if not np.issubdtype(arr.dtype, np.integer):
        # inf == floor(inf), and casting it to an integer is undefined
        if not (np.isfinite(arr).all() and np.all(arr == np.floor(arr))):
            raise ValueError("permutation entries must be finite integers")
    arr = arr.astype(np.intp)
    if n is not None and arr.size != n:
        raise ValueError(f"permutation has length {arr.size}, expected {n}")
    if not np.array_equal(np.sort(arr), np.arange(arr.size)):
        raise ValueError("permutation is not a bijection on 0..n-1")
    return arr


def permute_rows(X, sigma) -> np.ndarray:
    """Row i of the output is row sigma[i] of X."""
    X = as_matrix(X, "X")
    sigma = validate_permutation(sigma, X.shape[0])
    return X[sigma]


# ---------------------------------------------------------------------------
# Spectral helpers
# ---------------------------------------------------------------------------


def singular_values(A) -> np.ndarray:
    """Singular values in non-increasing order."""
    return np.linalg.svd(as_matrix(A, "A"), compute_uv=False)


def _subset_singular_values(A: np.ndarray, k: int):
    """Singular values of A's size-k column submatrices, one batched SVD per chunk.

    Subsets come in lexicographic order, _SUBSET_CHUNK at a time; each
    yield is a (chunk, min(d, k)) array, its rows non-increasing.
    """
    it = itertools.combinations(range(A.shape[1]), k)
    while block := list(itertools.islice(it, _SUBSET_CHUNK)):
        sub = A[:, np.asarray(block, dtype=np.intp)].transpose(1, 0, 2)  # (chunk, d, k)
        yield np.linalg.svd(sub, compute_uv=False)


def is_full_spark(A, tol: float = DEFAULT_SPARK_TOL) -> bool:
    """Whether every d-column submatrix of the d x D matrix A is invertible.

    A subset counts as invertible when its smallest singular value exceeds
    ``tol`` times its own largest singular value.  Requires enumerating all
    C(D, d) subsets; raises BudgetExceededError if that count exceeds
    ``DEFAULT_SUBSET_BUDGET``.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if D < d:
        raise ValueError(f"full spark needs D >= d, got shape {A.shape}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    count = math.comb(D, d)
    if count > DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(
            f"full-spark check needs {count} subset evaluations, "
            f"budget is {DEFAULT_SUBSET_BUDGET}"
        )
    # any() stops at the first chunk holding a singular subset
    return not any(np.any(sv[:, -1] <= tol * sv[:, 0]) for sv in _subset_singular_values(A, d))


def flatten_embedding(E) -> np.ndarray:
    """Column-major flattening: entry (k*n + i) holds E[i, k].

    This order is a fixed contract so sketch operators are portable.
    """
    E = as_matrix(E, "E")
    return E.ravel(order="F")


# ---------------------------------------------------------------------------
# CSV matrix I/O
# ---------------------------------------------------------------------------


def load_matrix_csv(path) -> np.ndarray:
    """Load a matrix from CSV; dimensions are inferred, '#' lines ignored."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            row = []
            for colno, token in enumerate(text.split(","), start=1):
                token = token.strip()
                try:
                    value = float(token)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: row {lineno}, column {colno}: cannot parse {token!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno}, column {colno}: non-finite value {token!r}"
                    )
                row.append(value)
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} columns, expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return np.asarray(rows, dtype=float)


def save_matrix_csv(path, A) -> None:
    """Write a matrix as CSV with exact (round-trippable) float formatting."""
    A = as_matrix(A, "matrix")
    lines = [",".join(repr(float(x)) for x in row) for row in A]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _render_json(obj, depth: int) -> str:
    pad = " " * (_JSON_INDENT * depth)
    pad_in = " " * (_JSON_INDENT * (depth + 1))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, enum.Enum):
        return _render_json(obj.value, depth)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), depth)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return _render_json(fields, depth)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_render_json(v, depth + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_render_json(v, depth + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Deterministic JSON, indented by two spaces, with floats at 17 significant digits."""
    return _render_json(obj, 0) + "\n"
