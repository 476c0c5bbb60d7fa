"""Permutation-invariant embeddings of point clouds.

Three maps built from a direction matrix A (d x D, columns are projection
directions) applied to a cloud X (n x d, rows are points):

* ``sorted_embedding``  -- project onto every direction and sort each
  projection column non-decreasingly; an n x D matrix.
* ``pooled_embedding``  -- additionally pool each sorted column with a
  per-direction weight vector (the columns of an n x D matrix B); a
  D-vector.
* ``sketched_embedding`` -- apply a linear sketch L (M x nD) to the
  column-major flattening of the sorted embedding; an M-vector.

All three are invariant under row permutations of X, exactly: sorting a
column depends only on the multiset of its values, so no tolerance is
needed anywhere in this module.

The public maps validate their input and then call ``_sort_project``, the
one sort-projection kernel.  It also takes a stack of clouds, which is how
the empirical checks (audit pool, sketch check, spot checks) embed many
clouds in one call, and it can write into a caller's buffer; ``_blocks``
cuts their trials into blocks of bounded size, and the spot check cuts
each block again into sub-blocks.  A stacked call gives the same bits per
cloud as a single one: the product runs one matrix multiply per cloud and
sorting is exact.

Columns are sorted by ``_sort_columns``.  The clouds of the empirical checks
are short (n = 3..6), and ``np.sort`` pays one C-level sort call per column,
so for n <= 6 a wide stack is sorted by a fixed compare-exchange network
(Knuth, TAOCP vol. 3, 5.3.4): a few ``np.minimum``/``np.maximum`` passes over
whole rows of the stack.  Its result equals ``np.sort``'s entry by entry
under ``==``, so a zero may carry the other sign (-0.0 == 0.0).  Longer
columns and narrow stacks, where the network is slower, use ``np.sort``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_cloud, as_matrix, as_vector

__all__ = [
    "sorted_embedding",
    "pooled_embedding",
    "sketched_embedding",
    "translation_offset",
]


# Cap on the floats one batched call over a block of trials may allocate,
# so a long pool or a wide sketch is embedded in bounded blocks.
_BLOCK_ELEMENTS = 1 << 20


# Floats per slice of a sketch draw: one standard_normal call each.  A thread
# drawing the audit's sketch hands its rows over one slice at a time.
_DRAW_FLOATS = 1 << 18


# Size-optimal sorting networks for columns of n <= 6 entries: 0, 1, 3, 5, 9
# and 12 compare-exchanges (i, j), i < j, each leaving the smaller value in
# row i.  Past n = 6 the network costs more than np.sort.  On a 2-core Xeon
# with one BLAS thread, np.sort against the network: 0.75 vs 0.15 ms at
# (1800, 4, 12), 1.9 vs 1.8 ms at (800, 6, 64), 2.0 vs 2.3 ms at (800, 7, 64)
# and 2.0 vs 2.8 ms at (800, 8, 64).
_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)),
}

# Each compare-exchange costs about 1 us of call overhead, which np.sort
# (about 35 ns a column) makes up for from a few hundred columns on.
_NETWORK_MIN_COLUMNS = 512


def _sort_columns(P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.sort(P, axis=-2) for a float array (..., n, D), in out or a new array.

    out may be P itself.  Short columns in a wide stack go through the
    sorting network on n contiguous rows.  minimum and maximum carry a NaN
    to both outputs, and the last row (the maximum) depends on every entry
    of its column, so a NaN anywhere shows in the last row; np.sort, which
    puts NaNs last, then sorts the stack instead.
    """
    n = P.shape[-2]
    if n in _NETWORKS and P.size >= n * _NETWORK_MIN_COLUMNS:
        rows = [P[..., i, :].copy() for i in range(n)]
        for i, j in _NETWORKS[n]:
            lo = np.minimum(rows[i], rows[j])
            np.maximum(rows[i], rows[j], out=rows[j])
            rows[i] = lo
        if not np.isnan(rows[-1]).any():
            if out is None:
                out = np.empty_like(P)
            for i, row in enumerate(rows):
                out[..., i, :] = row
            return out
    if out is None:
        return np.sort(P, axis=-2)
    out[...] = np.sort(P, axis=-2)
    return out


def _sort_project(A: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sorted projections of a cloud (n, d), or of a stack of clouds (..., n, d).

    No validation: callers pass float arrays whose last axis matches A's
    rows, and may pass an out of the projections' shape to write them to
    (they are sorted in place there).  _sort_columns sorts the projected
    columns, with a sorting network where they are short (n <= 6) and
    many, and gives np.sort's values either way.
    """
    return _sort_columns(np.matmul(X, A, out=out), out=out)


def _gaussian_rows(rng: np.random.Generator, L: np.ndarray):
    """Fill L (M x columns) with i.i.d. N(0, 1/M) entries from rng, one row slice at a time.

    Yields the number of rows filled after each slice.  The slices continue
    one stream and the division is exact per entry, so L gets the bits of a
    single standard_normal call for all of it divided by sqrt(M).
    """
    M = L.shape[0]
    scale = math.sqrt(M)
    step = max(1, _DRAW_FLOATS // L.shape[1])
    for lo in range(0, M, step):
        rows = L[lo : lo + step]
        rng.standard_normal(out=rows)
        rows /= scale
        yield lo + len(rows)


def _gaussian_sketch(rng: np.random.Generator, M: int, columns: int) -> np.ndarray:
    """M x columns sketch with i.i.d. N(0, 1/M) entries drawn from rng, unvalidated."""
    L = np.empty((M, columns))
    for _ in _gaussian_rows(rng, L):
        pass
    return L


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices of range(count) whose items, ``width`` floats each, fit one block."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_pair(A: np.ndarray, X: np.ndarray) -> None:
    if X.shape[1] != A.shape[0]:
        raise ValueError(
            f"cloud has {X.shape[1]} features but directions expect {A.shape[0]}"
        )


def sorted_embedding(A, X) -> np.ndarray:
    """Column-wise sorted projections: column k is sort(X @ a_k)."""
    A = as_matrix(A, "A")
    X = as_cloud(X)
    _check_pair(A, X)
    return _sort_project(A, X)


def pooled_embedding(A, B, X) -> np.ndarray:
    """Entry k is dot(b_k, sort(X @ a_k)) for the columns b_k of B."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    X = as_cloud(X)
    _check_pair(A, X)
    if B.shape != (X.shape[0], A.shape[1]):
        raise ValueError(
            f"pooling matrix must be {X.shape[0]} x {A.shape[1]}, got {B.shape}"
        )
    return np.einsum("nk,nk->k", B, _sort_project(A, X))


def sketched_embedding(A, L, X) -> np.ndarray:
    """Linear sketch of the flattened sorted embedding: L @ vec(sorted)."""
    A = as_matrix(A, "A")
    L = as_matrix(L, "L")
    X = as_cloud(X)
    _check_pair(A, X)
    n, D = X.shape[0], A.shape[1]
    if L.shape[1] != n * D:
        raise ValueError(f"sketch must have {n * D} columns, got {L.shape[1]}")
    return L @ _sort_project(A, X).ravel(order="F")


def translation_offset(A, z, n: int) -> np.ndarray:
    """Sorted embedding of the rank-one cloud whose n rows all equal z.

    Shifting every point of a cloud by z shifts its sorted embedding by
    exactly this matrix (column k is the constant dot(z, a_k)), which is
    what makes mean-centering harmless for separation questions.
    """
    A = as_matrix(A, "A")
    z = as_vector(z, "z")
    if z.size != A.shape[0]:
        raise ValueError(f"offset has {z.size} features, directions expect {A.shape[0]}")
    if n < 1:
        raise ValueError(f"row count must be >= 1, got {n}")
    return np.tile(z @ A, (n, 1))
