"""Distances between point clouds up to row permutation.

The orbit distance dist(X, Y) = min over permutations of ||X - sigma Y||_F
is the quotient metric induced by the Frobenius norm.  It is computed
exactly by solving an assignment problem on squared Euclidean row costs;
a factorial brute-force twin serves as the independent oracle in tests.
Wasserstein and sampled sliced-Wasserstein distances for uniform empirical
measures are thin wrappers over the same machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

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


def _assignment_distance(X: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Orbit distance and matched Y-rows of two same-shape clouds, unvalidated.

    The one assignment kernel: an exact solve on squared Euclidean row costs.
    """
    cost = cdist(X, Y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(max(float(cost[rows, cols].sum()), 0.0)), cols


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


def orbit_distance(X, Y) -> OrbitDistanceResult:
    """Exact orbit distance via an exact assignment solve on squared costs."""
    X = as_cloud(X, "X")
    Y = as_cloud(Y, "Y")
    _check_same_shape(X, Y)
    distance, cols = _assignment_distance(X, Y)
    return OrbitDistanceResult(distance, cols.astype(np.intp))


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
    cost = cdist(X, Y, "sqeuclidean")
    perms = _all_permutations(n)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return OrbitDistanceResult(math.sqrt(max(float(totals[best]), 0.0)), perms[best].copy())


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
