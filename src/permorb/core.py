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
import functools
import itertools
import json
import math
import numbers
import operator
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

# Column subsets per batched SVD, and per batched floor of the subset screen.
_SUBSET_CHUNK = 2048

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53

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


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): bounds the relative error of a length-k dot product."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _subset_chunks(D: int, k: int):
    """The size-k subsets of range(D) in lexicographic order, _SUBSET_CHUNK at a time.

    Each yield is a (chunk, k) index array, its rows increasing.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(D), k))
    while (block := np.fromiter(itertools.islice(flat, _SUBSET_CHUNK * k), dtype=np.intp)).size:
        yield block.reshape(-1, k)


def _gram_floor(As: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """lam per row s of idx: lambda_min(B B^T) >= lam >= 0, B = As[:, s].

    As is d x D with every |entry| < 1, as ``_unit_scaled`` leaves a matrix,
    and B is d x k, k >= d.  Write C = B B^T, u = 2**-53 and gamma_j =
    j u / (1 - j u).  The floor is AM-GM on C's eigenvalues l_1 >= ... >=
    l_d >= 0: l_1 ... l_{d-1} <= (tr C / (d - 1))**(d - 1), so
    sigma_d(B)**2 = l_d >= det C / (tr C / (d - 1))**(d - 1); for d = 1,
    l_1 = C.  It is evaluated through a Cholesky factorisation of the
    computed Gram matrix ^C: pivots s_j = ^C_jj - sum_{i<j} ^R_ij**2 and
    ^R_jl = (^C_jl - sum_{i<j} ^R_ij ^R_il) / sqrt(s_j).  With t = fl(tr ^C)
    and w = t / (d - 1), g = w prod_j (s_j / w), or g = s_0 for d = 1, and
    lam = g (1 - gamma_{2 (d+1)**2 + 4}) - d k gamma_{k + 2d + 4}, clamped
    at 0.  A subset gets lam = 0 unless every s_j > 0 and, for d > 1,
    prod_j (s_j / w) >= 2**-470, w >= 2**-500 and d <= 1024.  That lam is
    a floor:

    * Each ^C_jl sums k products of entries below 1, so |^C - C| <= gamma_k
      |B| |B|^T in any summation order (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.1), and ||^C - C||_2 <= gamma_k ||B||_F**2
      < gamma_k d k.  Each ^C_jj <= k.
    * A Cholesky factorisation run to completion gives M = ^R^T ^R = ^C + E,
      |E| <= gamma_{d+1} |^R^T| |^R| (Higham, Theorem 10.3), so ||E||_2 <=
      gamma_{d+1} tr M and M_jj <= ^C_jj / (1 - gamma_{d+1}): ||E||_2 <=
      gamma_{2d+2} d k.  By Weyl, lambda_min(C) >= lambda_min(M) - d k
      gamma_{k+2d+2}.
    * M is symmetric positive semidefinite, so lambda_min(M) >= det M /
      (tr M / (d - 1))**(d - 1).  det M = prod ^R_jj**2 is at least
      prod s_j (1 - u)**(2d), tr M <= t / ((1 - u)**(d-1) (1 - gamma_{d+1})),
      and g errs from prod s_j / w**(d-1) by its 2d roundings and w's one,
      raised to d - 1.  Multiplying the factors, lambda_min(M) >= g (1 -
      gamma_{2 (d+1)**2}).
    * Underflow.  A product that underflows errs by at most 2**-1075, and a
      quotient by ^R_jj <= sqrt(k / (1 - gamma_{d+1})) by that much times
      ^R_jj in the relation it enters.  An entry of ^C or M meets at most
      2k + d of them, so they add at most 3 d k 2**-1075 to ||M - C||_2
      (d <= k), which the + 1 in gamma_{k+2d+3} covers.  In g: each
      s_j <= ^C_jj (1 + u), so the s_j / w sum to at
      most (d - 1)(1 + gamma_{d+2}), and by AM-GM every partial product of
      them is below e**((d-1)/e) (1 + gamma_{d+2})**d < 2**543 for d <=
      1024.  None overflows, and one that underflowed would leave the
      product below 2**-479; with it >= 2**-470 and w >= 2**-500, no step
      of g underflows.
    * Forming lam rounds three more times, with two rounded constants; the
      extra 4 and 1 in the gamma indices cover them.
    """
    d, k = As.shape[0], idx.shape[1]
    B = As[:, idx]  # (d, chunk, k)
    C = {(i, j): np.einsum("ck,ck->c", B[i], B[j]) for i in range(d) for j in range(i, d)}
    t = sum(C[j, j] for j in range(d))
    ok = np.full(len(idx), d <= 1024)
    R, pivots = {}, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for j in range(d):
            s = C[j, j] - sum(R[i, j] * R[i, j] for i in range(j))
            ok &= s > 0
            pivots.append(s)
            root = np.sqrt(s)
            for m in range(j + 1, d):
                R[j, m] = (C[j, m] - sum(R[i, j] * R[i, m] for i in range(j))) / root
        if d == 1:
            g = pivots[0]
        else:
            w = t / (d - 1)
            ratio = functools.reduce(operator.mul, (s / w for s in pivots))
            ok &= (ratio >= 2.0**-470) & (w >= 2.0**-500)
            g = w * ratio
        lam = g * (1.0 - _gamma(2 * (d + 1) ** 2 + 4)) - d * k * _gamma(k + 2 * d + 4)
    return np.where(ok & (lam > 0.0), lam, 0.0)


def _svd_error(d: int, k: int) -> float:
    """p u, p = 64 d k: the assumed error of LAPACK's singular values of a d x k X, over sigma_1(X).

    Only the least-subset minimum's screen assumes
    |computed sigma_i - sigma_i| <= p u sigma_1(X) + 2**-1074, the last
    term for a value in the subnormal range.  LAPACK's error analysis
    bounds it by "a modestly growing function" p(d, k) times u sigma_1
    (LAPACK Users' Guide, 4.9): Householder bidiagonalisation is backward
    stable with an error of a small multiple of d k u ||X||_F (Higham,
    Theorem 19.4), and the bidiagonal singular values are found to high
    relative accuracy.  p = 64 d k is an assumption on LAPACK, not a proof.
    """
    return 64 * d * k * _UNIT_ROUNDOFF


def _least_subset_sigma(A: np.ndarray, k: int, chunks) -> float:
    """The least d-th singular value of A[:, s] over the rows s of each (chunk, k) array in chunks.

    The value is the least that np.linalg.svd returns for any of the
    subsets, bit for bit, as a subset's singular values do not depend on the
    batch they are computed in; but only subsets that can hold it reach the
    SVD.  Each index array, k >= d, is screened by ``_gram_floor`` on
    As = 2**-e A (``_unit_scaled``): its least-floor subset goes to the SVD
    first, then, in one batched SVD, every other subset with
    lam <= ((2**-e best + a)(1 + 4u))**2, best the least value so far and
    a = (p + 2) u sqrt(d k) + 2**(-e - 1072), p u = ``_svd_error``.  A
    subset left out has a computed sigma_d of at least best:

    * Let B = 2**-e A[:, s] and Bs = As[:, s].  They differ only where the
      scaling underflows, by at most 2**-1075 an entry, so sigma_d(B) >=
      sigma_d(Bs) - sqrt(d k) 2**-1075; and sigma_1(B) < sqrt(d k), as
      every |entry| of B is below 1.
    * By ``_svd_error``'s assumption, the computed value is thus at least
      2**e (sigma_d(Bs) - p u sqrt(d k) - sqrt(d k) 2**-1075 - 2**(-e-1074)),
      and fl(2**-e best) is 2**-e best within 2**-1075.  Where e <= 2,
      2**(-e-1072) covers 2**(-e-1074) + 2**-1075; where e > 2, both are
      below 2**-1074.  The 2 in p + 2 covers what is left, all below
      u sqrt(d k), and a's own two roundings; the factor 1 + 4u covers the
      roundings of the sum, the product and the square.
    * So lam above that level proves sigma_d(Bs) > 2**-e best + p u sqrt(d k)
      + the absolute terms, and the computed value is at least best.
    """
    d = A.shape[0]
    As, e = _unit_scaled(A)
    a = (_svd_error(d, k) + 2.0 * _UNIT_ROUNDOFF) * math.sqrt(d * k) + math.ldexp(1.0, -e - 1072)
    best = math.inf

    def level() -> float:
        return ((math.ldexp(best, -e) + a) * (1.0 + 4.0 * _UNIT_ROUNDOFF)) ** 2

    def sigma_d(subsets: np.ndarray) -> float:
        sv = np.linalg.svd(A[:, subsets].transpose(1, 0, 2), compute_uv=False)
        return float(sv[:, d - 1].min())

    for idx in chunks:
        lam = _gram_floor(As, idx)
        first = int(np.argmin(lam))
        if lam[first] > level():
            continue
        best = min(best, sigma_d(idx[first : first + 1]))
        rest = lam <= level()
        rest[first] = False
        if rest.any():
            best = min(best, sigma_d(idx[rest]))
    return best


def is_full_spark(A, tol: float = DEFAULT_SPARK_TOL) -> bool:
    """Whether every d-column submatrix of the d x D matrix A is invertible.

    A subset counts as invertible when its smallest computed singular value
    exceeds ``tol`` times its largest.  Requires enumerating all C(D, d)
    subsets; raises BudgetExceededError if that count exceeds
    ``DEFAULT_SUBSET_BUDGET``.  Every subset goes to the batched SVD, a
    chunk at a time, and the first chunk holding a singular subset decides.
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
    for idx in _subset_chunks(D, d):
        sv = np.linalg.svd(A[:, idx].transpose(1, 0, 2), compute_uv=False)
        # a huge tol overflows to inf here, which counts the subset as singular
        with np.errstate(over="ignore"):
            if np.any(sv[:, -1] <= tol * sv[:, 0]):
                return False
    return True


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
