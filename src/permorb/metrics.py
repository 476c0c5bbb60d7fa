"""Distances between point clouds up to row permutation.

The orbit distance dist(X, Y) = min over permutations of ||X - sigma Y||_F
is the quotient metric induced by the Frobenius norm.  It is computed
exactly by solving an assignment problem on squared Euclidean row costs;
a factorial brute-force twin serves as the independent oracle in tests.
Wasserstein and sampled sliced-Wasserstein distances for uniform empirical
measures are thin wrappers over the same machinery.

Cost-matrix order: cost[i, j] = ||X[i] - Y[j]||^2 is summed over the
coordinates k = 0..d-1 in order, each square added to the running total
(_squared_costs).  That is the order of scipy's cdist(X, Y, "sqeuclidean"),
so the costs, and every distance and report built on them, carry its bits;
an einsum or a sum over the coordinate axis rounds differently.

The public distances solve on the two clouds scaled by a power of two
into [0.5, 1) and scale the distance back (_unit_scaled), so no cost
overflows or underflows; that is exact, so costs that stay in range
anyway keep their bits.

scipy is imported only when the first assignment is solved
(linear_sum_assignment), so importing permorb costs numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BudgetExceededError, as_cloud, as_matrix
from .embeddings import _sort_columns, sorted_embedding

__all__ = [
    "OrbitDistanceResult",
    "orbit_distance",
    "orbit_distance_bruteforce",
    "wasserstein2",
    "sliced_w2_sampled",
    "rows_equal_as_multisets",
]

_BRUTEFORCE_MAX_N = 9


@dataclass(frozen=True)
class OrbitDistanceResult:
    """Orbit distance plus an optimal row matching.

    ``sigma[i]`` is the Y-row matched to X-row i, so that
    distance**2 == sum_i ||X[i] - Y[sigma[i]]||**2.  When several
    matchings are optimal, which one is reported is unspecified; only the
    distance value is part of the contract.
    """

    distance: float
    sigma: np.ndarray


def _check_same_shape(X: np.ndarray, Y: np.ndarray) -> None:
    if X.shape != Y.shape:
        raise ValueError(f"clouds must share a shape, got {X.shape} and {Y.shape}")


def _squared_costs(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """cost[i, j] = ||X[i] - Y[j]||^2 for clouds X (n, d) and Y (m, d), unvalidated.

    The squares are added coordinate by coordinate, k = 0..d-1, as
    cdist(X, Y, "sqeuclidean") adds them, which gives its bits.  A cost
    that overflows is inf without a warning, as in cdist.
    """
    with np.errstate(over="ignore"):
        g = X[:, None, 0] - Y[None, :, 0]
        cost = g * g
        for k in range(1, X.shape[1]):
            g = X[:, None, k] - Y[None, :, k]
            cost += g * g
    return cost


def _assignment_solver():
    """scipy's linear_sum_assignment, imported here so that permorb loads scipy on first use."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a least-total assignment on ``cost`` (scipy's solver)."""
    return _assignment_solver()(cost)


def _assignment_distance(X: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Orbit distance and matched Y-rows of two same-shape clouds, unvalidated.

    The one assignment kernel: an exact solve on squared Euclidean row costs.
    """
    cost = _squared_costs(X, Y)
    rows, cols = linear_sum_assignment(cost)
    with np.errstate(over="ignore"):  # an overflowing total is inf, as its costs are
        total = float(cost[rows, cols].sum())
    return math.sqrt(max(total, 0.0)), cols


@functools.lru_cache(maxsize=16)
def _subset_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index tables of the assignment DP, one (pred, cols) per subset size k = 1..n.

    Layer k lists the k-subsets of range(n) in a fixed order.  Row t of
    ``cols`` holds the columns j of subset t, and row t of ``pred`` the
    position, in layer k - 1, of subset t without j.
    """
    layers = []
    position = {0: 0}
    for k in range(1, n + 1):
        masks = [m for m in range(1 << n) if m.bit_count() == k]
        cols = np.array([[j for j in range(n) if m >> j & 1] for m in masks], dtype=np.intp)
        pred = np.array([[position[m ^ (1 << j)] for j in row] for m, row in zip(masks, cols)],
                        dtype=np.intp)
        position = {m: t for t, m in enumerate(masks)}
        for table in (pred, cols):
            table.flags.writeable = False  # the cached tables are shared by every caller
        layers.append((pred, cols))
    return tuple(layers)


def _assignment_width(n: int, d: int) -> int:
    """Floats per pair that _assignment_totals holds at once, at most."""
    widest = max(2 * math.comb(n, k - 1) + 5 * math.comb(n, k) for k in range(1, n + 1))
    return n * n * (d + 1) + widest


def _assignment_totals(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two least matching totals of every pair of a stack (count, 2, n, d), and its largest cost.

    For a pair (X, Y) the cost of row i to column j is the squared distance
    ||X[i] - Y[j]||^2, and the total of a permutation sigma is the float sum
    of cost[i, sigma(i)] taken in row order.  A DP over column subsets in
    row order gives, for every pair at once, the least total and the least
    total of any other permutation (``second``; inf when n = 1): the state
    after row i is the subset of columns taken so far, and each state keeps
    the two least partial totals that reach it.  Float addition is monotone,
    so a state's two least totals come from the two least of the states
    before it, and the DP's values are those of enumerating all n!
    permutations in the same order.  Two permutations with equal totals
    give best == second.  ``cmax`` is each pair's largest cost.

    2^n n vectorised steps, each over the whole stack; n <= 8 in practice.
    The arrays alive at once take _assignment_width(n, d) floats a pair.
    """
    count, _, n, d = pairs.shape
    X = pairs[:, 0].transpose(1, 0, 2)
    Y = pairs[:, 1].transpose(1, 0, 2)
    gap = X[:, None] - Y[None, :]  # (n, n, count, d)
    cost = np.einsum("ijpk,ijpk->ijp", gap, gap)
    del gap
    cmax = cost.max(axis=(0, 1))
    best = np.zeros((1, count))
    second = np.full((1, count), np.inf)
    for row, (pred, cols) in zip(cost, _subset_layers(n)):
        for s in range(pred.shape[1]):
            c = row[cols[:, s]]
            b = best[pred[:, s]]
            b += c
            s2 = second[pred[:, s]]
            s2 += c
            if s == 0:
                m1, m2 = b, s2
                continue
            # the two least of (m1 <= m2) and (b <= s2)
            np.minimum(m2, s2, out=m2)
            np.maximum(m1, b, out=s2)
            np.minimum(m2, s2, out=m2)
            np.minimum(m1, b, out=m1)
        best, second = m1, m2
    return best[0], second[0], cmax


def _orbit_distance_floor(pairs: np.ndarray) -> np.ndarray:
    """Lower bounds on the orbit distances of a stack of pairs (..., 2, n, d), unvalidated.

    Sorting every coordinate column is the sorted embedding with A = I, whose
    upper Lipschitz constant is sigma_1(I) = 1:
    sqrt(sum_k ||sort(X[:, k]) - sort(Y[:, k])||^2) <= dist(X, Y), since within
    one column the sorted matching is the cheapest.  No assignment solve:
    _sort_columns sorts the stack's short coordinate columns (a sorting
    network for n <= 6, np.sort otherwise), with the values np.sort gives.
    """
    ordered = _sort_columns(pairs)
    gap = ordered[..., 0, :, :] - ordered[..., 1, :, :]
    return np.sqrt(np.sum(gap * gap, axis=(-2, -1)))


def _unit_scaled(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """X and Y times 2**-k, and k, where the largest |entry| is f 2**k, 0.5 <= f < 1.

    Every orbit distance scales with the clouds, so solving on the scaled
    pair and multiplying by 2**k gives the distance whatever the scale: no
    squared cost overflows or underflows.  Scaling by a power of two is
    exact, so a pair whose costs stay in range anyway gets the same bits.
    """
    k = math.frexp(float(max(np.max(np.abs(X)), np.max(np.abs(Y)))))[1]
    return np.ldexp(X, -k), np.ldexp(Y, -k), k


def _scaled_back(distance: float, k: int) -> float:
    """distance * 2**k, inf when that is not representable (as a total's overflow was)."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(distance, k))


def orbit_distance(X, Y) -> OrbitDistanceResult:
    """Exact orbit distance via an exact assignment solve on squared costs."""
    X = as_cloud(X, "X")
    Y = as_cloud(Y, "Y")
    _check_same_shape(X, Y)
    X, Y, k = _unit_scaled(X, Y)
    distance, cols = _assignment_distance(X, Y)
    return OrbitDistanceResult(_scaled_back(distance, k), cols.astype(np.intp))


@functools.lru_cache(maxsize=16)
def _all_permutations(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False  # the cached table is shared by every caller
    return perms


def orbit_distance_bruteforce(X, Y) -> OrbitDistanceResult:
    """Exact minimum over all n! matchings; the oracle for orbit_distance."""
    X = as_cloud(X, "X")
    Y = as_cloud(Y, "Y")
    _check_same_shape(X, Y)
    n = X.shape[0]
    if n > _BRUTEFORCE_MAX_N:
        raise BudgetExceededError(
            f"brute force enumerates n! matchings; n={n} exceeds the n <= {_BRUTEFORCE_MAX_N} limit"
        )
    X, Y, k = _unit_scaled(X, Y)
    cost = _squared_costs(X, Y)
    perms = _all_permutations(n)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    distance = math.sqrt(max(float(totals[best]), 0.0))
    return OrbitDistanceResult(_scaled_back(distance, k), perms[best].copy())


def wasserstein2(X, Y) -> float:
    """2-Wasserstein distance between uniform empirical measures on the rows."""
    X = as_cloud(X, "X")
    result = orbit_distance(X, Y)
    return result.distance / math.sqrt(X.shape[0])


def sliced_w2_sampled(X, Y, Theta) -> float:
    """Monte-Carlo sliced 2-Wasserstein distance over the columns of Theta.

    Equals ||sorted_embedding(Theta, X) - sorted_embedding(Theta, Y)||_F
    divided by sqrt(n * D).  The Monte-Carlo reading assumes the columns
    are unit-sphere samples; a warning is emitted if any column norm
    deviates from 1 by more than 1e-9 (the value is still computed; callers
    that expect it can filter the warning).
    """
    X = as_cloud(X, "X")
    Y = as_cloud(Y, "Y")
    _check_same_shape(X, Y)
    Theta = as_matrix(Theta, "Theta")
    norms = np.linalg.norm(Theta, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        warnings.warn(
            "sliced distance columns are not unit vectors; the Monte-Carlo "
            "interpretation assumes unit-sphere samples",
            stacklevel=2,
        )
    diff = sorted_embedding(Theta, X) - sorted_embedding(Theta, Y)
    n, D = diff.shape
    return float(np.linalg.norm(diff)) / math.sqrt(n * D)


def rows_equal_as_multisets(X, Y, tol: float = 1e-12) -> bool:
    """Whether the rows of X and Y agree as multisets, entrywise within tol."""
    X = as_cloud(X, "X")
    Y = as_cloud(Y, "Y")
    if X.shape != Y.shape:
        return False
    order_x = np.lexsort(X.T[::-1])
    order_y = np.lexsort(Y.T[::-1])
    return bool(np.all(np.abs(X[order_x] - Y[order_y]) <= tol))
