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
the spot checks embed many clouds in one call, and it can write into a
caller's buffer; ``_blocks`` cuts the trials of the empirical checks into
blocks of bounded size, and the spot check cuts each block again into
sub-blocks.  The spot check's block and sub-block buffers, and the
point-major rows that the kernel sorts its stacks in, outlive the call:
``_held`` keeps them per thread, grown to the largest size asked for, so
a warmed spot check maps no pages.  The audit pool and the sketch
check need only the gaps between the sorted embeddings of their pairs:
``_sorted_gaps`` projects and sorts their pairs as ``_sort_project``
does, in cache-sized sub-blocks, and subtracts the sorted rows straight
into the gap vectors, so no sorted embedding of theirs is built; it
allocates its gap vectors and point-major buffer per call, as the public
maps allocate their result.  A stacked call gives the same bits per
cloud as a single one up to the sign of a zero.
Where the network below sorts, the stack is projected point-major, one
BLAS call per point index over all its clouds, and elsewhere one per
cloud; either way each entry comes out as in the cloud's own product,
which the tests check bit for bit at one and two BLAS threads.  Sorting
is exact, but the network may sort a stack where a single cloud goes
through ``np.sort``.

Projection columns are sorted by ``_sort_project`` and ``_sorted_gaps``
alone.  The clouds of the empirical checks are short (n = 3..6), and
``np.sort`` pays one C-level sort call per column, so for n <= 6 a stack
of two or more clouds is sorted by a fixed compare-exchange network
(Knuth, TAOCP vol. 3, 5.3.4): a few ``np.minimum``/``np.maximum`` passes,
in place, over whole point-major rows of the stack (``_network_sort``).
Its result equals ``np.sort``'s entry by entry under ``==``, so a zero
may carry the other sign (-0.0 == 0.0).  Longer columns, a single cloud,
a stack that ``_sort_project`` has no out for and a stack that holds a
NaN use ``np.sort``.

Gap norms, of the audit pool, the sketch check and the spot checks alike,
come from ``_dot_norms``: one BLAS dot of each gap with itself.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .core import _check_count, as_matrix, as_vector

__all__ = [
    "sorted_embedding",
    "pooled_embedding",
    "sketched_embedding",
    "translation_offset",
]


# Cap on the floats one batched call over a block of trials may allocate,
# so a long pool or a wide sketch is embedded in bounded blocks.
_BLOCK_ELEMENTS = 1 << 20


# Size-optimal sorting networks for columns of 2 <= n <= 6 entries: 1, 3, 5,
# 9 and 12 compare-exchanges (i, j), i < j, each leaving the smaller value in
# row i.  Past n = 6 the network costs more than np.sort.  On a 2-core Xeon
# with one BLAS thread, np.sort against the network: 0.75 vs 0.15 ms at
# (1800, 4, 12), 1.9 vs 1.8 ms at (800, 6, 64), 2.0 vs 2.3 ms at (800, 7, 64)
# and 2.0 vs 2.8 ms at (800, 8, 64).  A one-point column is sorted as it
# stands, so a stack of one-point clouds keeps the per-cloud product, whose
# vector-matrix bits a single one-point cloud gets.
_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)),
}

class _Held(threading.local):
    """One thread's float buffers that outlive a call, by role."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_HELD = _Held()


def _held(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of shape, in this thread's buffer for role.

    The buffer grows to the largest size asked of it and is kept, so a
    warmed caller maps no pages.  Every request for a role returns the same
    memory, so a role has one user at a time: each array is filled and
    used up before its role is asked for again.
    """
    size = math.prod(shape)
    buffer = _HELD.buffers.get(role)
    if buffer is None or buffer.size < size:
        buffer = _HELD.buffers[role] = np.empty(size)
    return buffer[:size].reshape(shape)


def _network_sort(buffer: np.ndarray) -> list[np.ndarray] | None:
    """Sort point-major columns in place by the sorting network; its sorted rows, or None on a NaN.

    buffer (n + 1, ..., D) holds in row i, buffer[i][..., k], the i-th
    entry of every column k, and a spare row last.  Each compare-exchange
    (i, j) writes the minimum of rows i and j to the spare row and their
    maximum over row j, and row i becomes the spare, so the network runs
    in place and copies no row.  The n sorted rows are returned in order,
    as views of buffer; which n of its n + 1 rows they are depends on the
    network.  minimum and maximum carry a NaN to both outputs, and the last
    row (the maximum) depends on every entry of its column, so a NaN
    anywhere shows there: then None is returned.
    """
    *rows, spare = buffer
    for i, j in _NETWORKS[len(rows)]:
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    if np.isnan(rows[-1]).any():
        return None
    return rows


def _sort_project(A: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sorted projections of a cloud (n, d), or of a stack of clouds (..., n, d).

    No validation: callers pass float arrays whose last axis matches A's
    rows, and may pass an out of the projections' shape (..., n, D) to
    write them to.  Given out, m >= 2 clouds of 2 <= n <= 6 points are
    projected point-major, straight into the n rows of this thread's held
    buffer (n + 1, ..., D) with a spare row, which ``_network_sort`` sorts
    in place; its sorted rows are then written once into out.  The spot
    check gives out, for the X, Y and same-orbit thirds of a sub-block as
    one (3, m, n, d) stack and for each extra pair.  Row i is the product
    of the i-th points of all the clouds, an (m, d) matrix read in place
    with row stride n d, so the stack takes n BLAS calls in all: a copy of
    the clouds transposed to (n m, d) for a single call costs more than the
    n - 1 calls it saves.  A stack whose leading axes do not merge into one
    stride, as a slice of the spot check's block, is first copied whole.
    Elsewhere, and when a NaN shows, the stacked product (one BLAS call a
    cloud) is sorted in place by ndarray.sort.  Either way the values are
    np.sort's.
    """
    *lead, n, d = X.shape
    D = A.shape[1]
    m = math.prod(lead)
    # one cloud stays one gemm: its points apart would be vector-matrix
    # products, whose bits differ
    if out is not None and m > 1 and n in _NETWORKS:
        buffer = _held("rows", (n + 1, *lead, D))
        np.matmul(X.reshape(m, n, d).swapaxes(0, 1), A, out=buffer[:-1].reshape(n, m, D))
        rows = _network_sort(buffer)
        if rows is not None:
            for i, row in enumerate(rows):
                out[..., i, :] = row
            return out
    P = np.matmul(X, A, out=out)
    P.sort(axis=-2)
    return P


# Cap on the floats of the point-major buffer that ``_sorted_gaps`` sorts a
# sub-block of pairs in: 1 MB, so the network's passes and the subtractions
# that read its rows stay in a core's L2 cache.
_GAP_ELEMENTS = 1 << 17


def _sorted_gaps(A: np.ndarray, pairs: np.ndarray, *, column_major: bool = False) -> np.ndarray:
    """The gaps sort(X A) - sort(Y A) of a stack of pairs (count, 2, n, d), one row (n D,) each.

    Row t holds the gap of pairs[t] = (X, Y) with entry i D + k, the i-th
    sorted value of column k, or, with column_major, entry k n + i (the
    column-major vectors of the sketch check).  Every entry is the one
    ``_sort_project(A, pairs.reshape(-1, n, d), out)`` followed by E[0::2]
    - E[1::2] gives: the same subtraction of the same two sorted values.
    No sorted embedding of the whole stack is built.  The pairs are taken
    in sub-blocks whose point-major buffer (n + 1 rows, as
    ``_sort_project``'s) holds at most ``_GAP_ELEMENTS`` floats, or one
    pair.  For n <= 6, each sub-block is projected point-major into the
    buffer, sorted there by ``_network_sort``, and each sorted row's Y
    columns are subtracted from its X columns straight into the gap rows.
    For other n, and in a sub-block that holds a NaN, a sub-block takes
    ``_sort_project`` without out (np.sort) and one subtraction.  A NaN
    sends the whole stack of the single call to np.sort, but only its own
    sub-block here, so then the other sub-blocks' gaps may differ from
    that call's in the sign of a zero.
    """
    count, _, n, d = pairs.shape
    D = A.shape[1]
    gaps = np.empty((count, n * D))
    # gap t's entries by (sorted row i, column k)
    at = gaps.reshape(count, D, n).transpose(0, 2, 1) if column_major else gaps.reshape(count, n, D)
    network = n in _NETWORKS
    subs = _blocks(count, 2 * (n + 1) * D, _GAP_ELEMENTS)
    if network:
        buffer = np.empty((n + 1, 2 * (subs[0].stop - subs[0].start), D))
    for sub in subs:
        clouds = pairs[sub].reshape(-1, n, d)
        rows = None
        if network:
            part = buffer[:, : len(clouds)]
            np.matmul(clouds.swapaxes(0, 1), A, out=part[:-1])
            rows = _network_sort(part)
        if rows is None:
            E = _sort_project(A, clouds)
            np.subtract(E[0::2], E[1::2], out=at[sub])
        else:
            for i, row in enumerate(rows):
                np.subtract(row[0::2], row[1::2], out=at[sub, i])
    return gaps


# OpenBLAS splits a dot of more floats than this across its threads, which
# can change the dot's bits with the thread count.
_BLAS_SERIAL_DOT = 10_000


def _dot_norms(G: np.ndarray) -> np.ndarray:
    """||g|| of each row g of G (count, N), at any BLAS thread count.

    A stacked matmul of (1, N) by (N, 1) makes one BLAS dot of each row
    with itself.  For N <= 10,000 that is the dot np.linalg.norm(g) takes,
    and gives its bits.  Longer rows are cut into dots of at most 10,000
    floats, added from the left, since OpenBLAS splits a longer dot across
    its threads and its bits would then depend on their number.
    """
    total = 0.0
    for lo in range(0, G.shape[1], _BLAS_SERIAL_DOT):
        part = G[:, lo : lo + _BLAS_SERIAL_DOT]
        total = total + np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]
    return np.sqrt(total)


def _gaussian_sketch(rng: np.random.Generator, M: int, columns: int) -> np.ndarray:
    """M x columns sketch with i.i.d. N(0, 1/M) entries drawn from rng, unvalidated."""
    L = rng.standard_normal((M, columns))
    L /= math.sqrt(M)
    return L


def _blocks(count: int, width: int, cap: int | None = None) -> list[slice]:
    """Consecutive slices of range(count) whose items, ``width`` floats each, fit one block.

    A block holds ``cap`` floats, by default ``_BLOCK_ELEMENTS``, or one item.
    """
    step = max(1, (cap or _BLOCK_ELEMENTS) // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_pair(A: np.ndarray, X: np.ndarray) -> None:
    if X.shape[1] != A.shape[0]:
        raise ValueError(
            f"cloud has {X.shape[1]} features but directions expect {A.shape[0]}"
        )


def sorted_embedding(A, X) -> np.ndarray:
    """Column-wise sorted projections: column k is sort(X @ a_k)."""
    A = as_matrix(A, "A")
    X = as_matrix(X, "point cloud")
    _check_pair(A, X)
    return _sort_project(A, X)


def pooled_embedding(A, B, X) -> np.ndarray:
    """Entry k is dot(b_k, sort(X @ a_k)) for the columns b_k of B."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    X = as_matrix(X, "point cloud")
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
    X = as_matrix(X, "point cloud")
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
    n = _check_count("n", n)
    return np.tile(z @ A, (n, 1))
