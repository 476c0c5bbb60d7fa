"""Distances between point clouds up to row permutation.

The orbit distance dist(X, Y) = min over permutations of ||X - sigma Y||_F
is the quotient metric induced by the Frobenius norm.  It is computed
exactly by solving an assignment problem on squared Euclidean row costs.
Its factorial twin, _enumerated_distance, takes the least total over all
n! matchings: it is the brute-force oracle and the check of the adversarial
circle pair for n <= 8.  The audit takes the distances of a whole stack of
pairs from one subset DP, _assignment_totals, whose least row-order total
is the enumeration's bit for bit for n <= 7.  Wasserstein and sampled
sliced-Wasserstein distances for uniform empirical measures are thin
wrappers over the same machinery.

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
(linear_sum_assignment), so importing permorb, and every audit, costs
numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BudgetExceededError, _unit_scaled, as_matrix
from .embeddings import sorted_embedding

__all__ = [
    "OrbitDistanceResult",
    "orbit_distance",
    "orbit_distance_bruteforce",
    "wasserstein2",
    "sliced_w2_sampled",
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

    Stacks X (n, ..., d) and Y (m, ..., d) give cost[i, j, ...], each entry
    that of the single pair.  The squares are added coordinate by
    coordinate, k = 0..d-1, as cdist(X, Y, "sqeuclidean") adds them, which
    gives its bits.  A cost that overflows is inf without a warning, as in
    cdist.
    """
    with np.errstate(over="ignore"):
        g = X[:, None, ..., 0] - Y[None, :, ..., 0]
        cost = g * g
        for k in range(1, X.shape[-1]):
            g = X[:, None, ..., k] - Y[None, :, ..., k]
            cost += g * g
    return cost


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a least-total assignment on ``cost`` (scipy's solver).

    scipy is imported here, so that permorb loads it on the first solve.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


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
    """Index tables of the subset DPs, one (pred, cols) per subset size k = 1..n.

    They serve the assignment DP here and the certifier's defeat test
    (separation._defeated), which runs the same recursion in boolean form.

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


def _assignment_width(n: int) -> int:
    """Floats per pair that _assignment_totals holds at once, at most.

    The n x n costs, the two arrays that build them, and the DP's widest
    layer: the totals of the (k-1)-subsets and three arrays over the k-subsets.
    """
    widest = max(math.comb(n, k - 1) + 3 * math.comb(n, k) for k in range(1, n + 1))
    return 3 * n * n + widest


def _assignment_totals(pairs: np.ndarray) -> np.ndarray:
    """Least matching total of every pair of a stack (count, 2, n, d).

    For a pair (X, Y) the cost of row i to column j is _squared_costs'
    ||X[i] - Y[j]||^2, and the total of a permutation sigma is the float
    sum of cost[i, sigma(i)] taken in row order.  A DP over column subsets
    in row order gives the least total of every pair at once: the state
    after row i is the subset of columns taken so far, and each state keeps
    the least partial total that reaches it.  Float addition is monotone,
    so a state's least total comes from the least of the states before it,
    and the DP's value is, bit for bit, that of enumerating all n!
    permutations in the same order.  For n <= 7 numpy's sum of n costs
    also adds in row order, so this is _enumerated_distance's total.

    2^n n vectorised steps, each over the whole stack; n <= 8 in practice.
    The arrays alive at once take _assignment_width(n) floats a pair.
    """
    count, _, n, _ = pairs.shape
    cost = _squared_costs(pairs[:, 0].transpose(1, 0, 2), pairs[:, 1].transpose(1, 0, 2))
    best = np.zeros((1, count))
    for row, (pred, cols) in zip(cost, _subset_layers(n)):
        least = best[pred[:, 0]]
        least += row[cols[:, 0]]
        for s in range(1, pred.shape[1]):
            b = best[pred[:, s]]
            b += row[cols[:, s]]
            np.minimum(least, b, out=least)
        best = least
    return best[0]


def _orbit_distance_floor(pairs: np.ndarray) -> np.ndarray:
    """Lower bounds on the orbit distances of a stack of pairs (..., 2, n, d), unvalidated.

    Sorting every coordinate column is the sorted embedding with A = I, whose
    upper Lipschitz constant is sigma_1(I) = 1:
    sqrt(sum_k ||sort(X[:, k]) - sort(Y[:, k])||^2) <= dist(X, Y), since within
    one column the sorted matching is the cheapest.  No assignment solve:
    np.sort sorts the stack's short coordinate columns.  The spot check
    takes the floor only of the few pairs its screen cannot clear, too few
    for a sorting network to pay.
    """
    ordered = np.sort(pairs, axis=-2)
    gap = ordered[..., 0, :, :] - ordered[..., 1, :, :]
    return np.sqrt(np.sum(gap * gap, axis=(-2, -1)))


def _scaled_back(distance: float, k: int) -> float:
    """distance * 2**k, inf when that is not representable (as a total's overflow was)."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(distance, k))


def orbit_distance(X, Y) -> OrbitDistanceResult:
    """Exact orbit distance via an exact assignment solve on squared costs."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    _check_same_shape(X, Y)
    X, Y, k = _unit_scaled(X, Y)
    distance, cols = _assignment_distance(X, Y)
    return OrbitDistanceResult(_scaled_back(distance, k), cols.astype(np.intp))


@functools.lru_cache(maxsize=16)
def _all_permutations(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False  # the cached table is shared by every caller
    return perms


def _enumerated_distance(X: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Orbit distance and matched Y-rows of two same-shape clouds by enumeration, unvalidated.

    The least of all n! matching totals, each the numpy sum of one
    permutation's _squared_costs listed in row order; n <= _BRUTEFORCE_MAX_N.
    _assignment_distance sums the costs of its matching the same way, so
    its total is one of these: the enumeration is never above it, and has
    its bits whenever linear_sum_assignment picks a least-total matching.
    numpy adds up to seven values in row order, so for n <= 7 the least
    total is also _assignment_totals'; from n = 8 it adds them pairwise.
    The returned permutation is a row of a shared read-only table.
    """
    n = X.shape[0]
    cost = _squared_costs(X, Y)
    perms = _all_permutations(n)
    with np.errstate(over="ignore"):  # an overflowing total is inf, as its costs are
        totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return math.sqrt(max(float(totals[best]), 0.0)), perms[best]


def orbit_distance_bruteforce(X, Y) -> OrbitDistanceResult:
    """Exact minimum over all n! matchings; the oracle for orbit_distance."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    _check_same_shape(X, Y)
    n = X.shape[0]
    if n > _BRUTEFORCE_MAX_N:
        raise BudgetExceededError(
            f"brute force enumerates n! matchings; n={n} exceeds the n <= {_BRUTEFORCE_MAX_N} limit"
        )
    X, Y, k = _unit_scaled(X, Y)
    distance, sigma = _enumerated_distance(X, Y)
    return OrbitDistanceResult(_scaled_back(distance, k), sigma.copy())


def wasserstein2(X, Y) -> float:
    """2-Wasserstein distance between uniform empirical measures on the rows."""
    X = as_matrix(X, "X")
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
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
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
