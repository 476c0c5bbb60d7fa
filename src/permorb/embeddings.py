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

The public maps validate their input and then call ``_sort_project``:
the product X @ A, sorted down each column by np.sort.  Every stack of
clouds the empirical checks embed goes to ``_sorted_rows``, which
projects it point-major into a caller's buffer and sorts it there, by
the sorting network ``_network_sort`` (its only caller) or by np.sort;
its docstring tells when the network runs and why each cloud gets the
bits of its own product, up to the sign of a zero.  ``_blocks`` cuts the
trials of the empirical checks into blocks of bounded size, and the spot
check cuts each block again into sub-blocks, whose sorted rows it writes
into its projection buffer.

``_held`` keeps the buffers that outlive a call, per thread, each grown
to the largest size asked for and kept: the spot check's block and
sub-block buffers and the point-major rows it sorts them in, so a warmed
spot check maps no pages, and the sketch that ``permorb audit
--check-ose`` draws, one live sketch per thread, so a process keeps its
largest sketch after an audit.  The audit pool and the sketch check need only
the gaps between the sorted embeddings of their pairs: ``_sorted_gaps``
sorts their pairs in cache-sized sub-blocks and subtracts the sorted
rows straight into the gap vectors, so no sorted embedding of theirs is
built; it allocates its gap vectors and point-major buffer per call, as
the public maps allocate their result.

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
    used up before its role is asked for again.  The spot check holds its
    block and sub-block buffers here, and the ``--check-ose`` audit its
    sketch, in the role "sketch": a thread has one live sketch, and a
    process keeps its largest sketch after an audit.  A buffer too large
    to allocate raises MemoryError and leaves the role's buffer as it was.
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


def _sort_project(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Sorted projections of a cloud (n, d), or of a stack of clouds (..., n, d).

    No validation: callers pass float arrays whose last axis matches A's
    rows.  The product X @ A, one BLAS call a cloud, is sorted down each
    column in place by ndarray.sort.  The public maps take it for their one
    cloud, which stays one gemm (its points apart would be vector-matrix
    products, whose bits differ).
    """
    P = X @ A
    P.sort(axis=-2)
    return P


def _sorted_rows(A: np.ndarray, clouds: np.ndarray, buffer: np.ndarray) -> list[np.ndarray]:
    """The n sorted rows (m, D) of the projections of a stack of m >= 2 clouds (m, n, d).

    Row i holds entry i of every sorted column: row[t, k] is
    sort(clouds[t] @ A)[i, k], with np.sort's value, up to the sign of a
    zero.  Every stack of clouds the empirical checks embed is sorted here:
    the spot check's sub-blocks and extra pairs, and the pairs of the audit
    pool and the sketch check.  The rows returned are views of buffer,
    valid until it is next written.

    The stack is projected point-major, straight into the n first rows of
    buffer[:, :m], the caller's buffer (n + 1, >= m, D) with a spare row.
    Row i is the product of the i-th points of all the clouds, an (m, d)
    matrix read in place with row stride n d, so the stack takes n BLAS
    calls in all, and each entry comes out as in the cloud's own product,
    which the tests check bit for bit at one and two BLAS threads; a copy
    of the clouds transposed to (n m, d) for a single call costs more than
    the n - 1 calls it saves.  One-point clouds are the exception: a
    point's own product is a vector-matrix product, whose bits the (m, d)
    product's need not have, so each is projected alone, cloud-major into
    the same rows, and its one-point columns are sorted as they stand.

    The empirical checks' clouds are short (n = 3..6), and np.sort pays one
    C-level sort call per column, so for 2 <= n <= 6 the rows are sorted
    by a fixed compare-exchange network (Knuth, TAOCP vol. 3, 5.3.4)
    instead: a few np.minimum/np.maximum passes, in place, over whole
    point-major rows of the stack (``_network_sort``).  The network's result equals np.sort's
    entry by entry under ==, so a zero may carry the other sign
    (-0.0 == 0.0).  For n > 6 the network costs more than np.sort, and a
    stack that holds a NaN (which only an overflowing product makes)
    cannot be network-sorted, its rows having been mixed by the network:
    then the stack is projected again and its rows are sorted in place
    along their first axis by ndarray.sort, which sorts each column as
    np.sort sorts it in the cloud's own product.
    """
    m, n, _ = clouds.shape
    part = buffer[:, :m]
    if n == 1:
        np.matmul(clouds, A, out=part[:-1].swapaxes(0, 1))
        return list(part[:-1])
    points = clouds.swapaxes(0, 1)
    np.matmul(points, A, out=part[:-1])
    if n in _NETWORKS:
        rows = _network_sort(part)
        if rows is not None:
            return rows
        np.matmul(points, A, out=part[:-1])  # the network has mixed the rows
    part[:-1].sort(axis=0)
    return list(part[:-1])


# Cap on the floats of the point-major buffer that ``_sorted_gaps`` sorts a
# sub-block of pairs in: 1 MB, so the network's passes and the subtractions
# that read its rows stay in a core's L2 cache.
_GAP_ELEMENTS = 1 << 17


def _sorted_gaps(A: np.ndarray, pairs: np.ndarray, *, column_major: bool = False) -> np.ndarray:
    """The gaps sort(X A) - sort(Y A) of a stack of pairs (count, 2, n, d), one row (n D,) each.

    Row t holds the gap of pairs[t] = (X, Y) with entry i D + k, the i-th
    sorted value of column k, or, with column_major, entry k n + i (the
    column-major vectors of the sketch check).  No sorted embedding of the
    stack is built.  The pairs are taken in sub-blocks whose point-major
    buffer (n + 1 rows, allocated once per call) holds at most
    ``_GAP_ELEMENTS`` floats, or one pair; ``_sorted_rows`` sorts each
    sub-block, and each sorted row's Y columns are subtracted from its X
    columns straight into the gap rows.  Every entry is the same
    subtraction of the same two sorted values as one ``_sorted_rows`` call
    on the whole stack gives.  At n <= 6 a NaN sends the whole stack of
    that call to np.sort, but only its own sub-block here, so then the other
    sub-blocks' gaps may differ from that call's in the sign of a zero.
    """
    count, _, n, d = pairs.shape
    D = A.shape[1]
    gaps = np.empty((count, n * D))
    # gap t's entries by (sorted row i, column k)
    at = gaps.reshape(count, D, n).transpose(0, 2, 1) if column_major else gaps.reshape(count, n, D)
    subs = _blocks(count, 2 * (n + 1) * D, _GAP_ELEMENTS)
    buffer = np.empty((n + 1, 2 * (subs[0].stop - subs[0].start), D))
    for sub in subs:
        for i, row in enumerate(_sorted_rows(A, pairs[sub].reshape(-1, n, d), buffer)):
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
