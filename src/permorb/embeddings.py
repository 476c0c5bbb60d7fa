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
the empirical checks (audit pool, sketch check, spot checks) embed every
cloud of a block in one call; ``_blocks`` cuts their trials into blocks of
bounded size.  A stacked call gives the same bits per cloud as a single
one: the product runs one matrix multiply per cloud and sorting is exact.
"""

from __future__ import annotations

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


def _sort_project(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Sorted projections of a cloud (n, d), or of a stack of clouds (..., n, d).

    No validation: callers pass float arrays whose last axis matches A's rows.
    """
    return np.sort(X @ A, axis=-2)


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
