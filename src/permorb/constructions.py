"""Generators of direction matrices and of hard point-cloud pairs.

Direction constructions:

* ``gaussian_directions`` -- i.i.d. standard normal entries.
* ``sphere_directions``   -- columns drawn uniformly from the unit sphere.
* ``circle_directions``   -- d = 2 columns equally spaced on the circle;
  satisfies A @ A.T = (D/2) * I exactly, so both singular values are
  sqrt(D/2).
* ``identity_augmented``  -- (I_d | tail), the normal form consumed by the
  separation certifier.

Hard pairs (both returned as a CounterexamplePair and re-verified through
the embeddings/metrics modules on creation; constructions never certify
themselves):

* ``parity_counterexample`` -- distinct orbits with identical sorted
  embeddings.  The column set is split into blocks of size < d, each block
  contributes a unit vector orthogonal to all of its columns, and the two
  clouds collect the even- and odd-parity signed sums of those vectors.
  Every direction is blind to one block's vector, and toggling that block
  swaps the parity classes, so the per-direction value multisets coincide
  while the clouds differ (one has a zero row, the other cannot).
* ``adversarial_circle_pair`` -- n points on a circle embedded in the last
  two coordinates versus the same cloud with one point moved to the
  origin.  Its orbit distance is exactly 1, yet every direction matrix
  contracts the pair by a factor on the order of sqrt(n), which pins the
  achievable distortion floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BudgetExceededError,
    ConstructionError,
    _check_count,
    as_matrix,
    make_rng,
)
from .embeddings import sorted_embedding
from .metrics import _enumerated_distance, orbit_distance

__all__ = [
    "CounterexamplePair",
    "gaussian_directions",
    "sphere_directions",
    "circle_directions",
    "identity_augmented",
    "parity_counterexample",
    "adversarial_circle_pair",
    "MAX_COUNTEREXAMPLE_ROWS",
]

# Cap on the 2**(k-1) rows a parity counterexample may request.
MAX_COUNTEREXAMPLE_ROWS = 4096

_ALPHA_ATTEMPTS = 100
_ALPHA_LOW, _ALPHA_HIGH = 0.5, 1.5


@dataclass
class CounterexamplePair:
    """Two same-shape clouds plus the parameters that produced them."""

    X: np.ndarray
    Y: np.ndarray
    certificate: dict = field(default_factory=dict)


def gaussian_directions(d: int, D: int, seed: int) -> np.ndarray:
    """d x D matrix of i.i.d. standard normal entries from the seeded stream."""
    d, D = _check_count("d", d), _check_count("D", D)
    return make_rng(seed).standard_normal((d, D))


def sphere_directions(d: int, D: int, seed: int) -> np.ndarray:
    """d x D matrix whose columns are uniform unit-sphere samples."""
    d, D = _check_count("d", d), _check_count("D", D)
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    norms = np.linalg.norm(A, axis=0)
    while np.any(norms == 0.0):  # measure zero, but keep the contract airtight
        bad = norms == 0.0
        A[:, bad] = rng.standard_normal((d, int(bad.sum())))
        norms = np.linalg.norm(A, axis=0)
    return A / norms


def circle_directions(D: int) -> np.ndarray:
    """2 x D matrix with columns (cos(2 pi k / D), sin(2 pi k / D)), k = 1..D."""
    D = _check_count("D", D, 2)
    angles = 2.0 * np.pi * np.arange(1, D + 1) / D
    return np.vstack([np.cos(angles), np.sin(angles)])


def identity_augmented(tail) -> np.ndarray:
    """Concatenate the d x d identity with a non-empty d x (D-d) tail."""
    tail = as_matrix(tail, "tail")
    d = tail.shape[0]
    return np.hstack([np.eye(d), tail])


def _consecutive_blocks(D: int, block: int) -> list[list[int]]:
    return [list(range(start, min(start + block, D))) for start in range(0, D, block)]


def _block_null_vector(A: np.ndarray, block: list[int]) -> np.ndarray:
    """Unit vector orthogonal to the given columns of A, deterministic sign.

    The right singular vector for the smallest singular value of the
    stacked block columns; blocks of size <= d-1 always admit one.  A
    residual check turns the (unreachable for such blocks) full-rank case
    into a ConstructionError instead of a silent bad vector.
    """
    rows = A[:, block].T  # (block size) x d
    _, _, vh = np.linalg.svd(rows, full_matrices=True)
    v = vh[-1]
    residual = float(np.max(np.abs(rows @ v)))
    if residual > 1e-9 * max(1.0, float(np.abs(rows).max())):
        raise ConstructionError(
            f"columns {block} span the full space; no null vector exists"
        )
    lead = np.flatnonzero(np.abs(v) > 1e-12)
    if lead.size and v[lead[0]] < 0:
        v = -v
    return v


def parity_counterexample(A, seed: int) -> CounterexamplePair:
    """Distinct-orbit clouds that the sorted embedding of A cannot separate.

    Requires d >= 2.  The number of rows is 2**(ceil(D/(d-1)) - 1); a
    BudgetExceededError is raised when that exceeds
    ``MAX_COUNTEREXAMPLE_ROWS``.  The blending coefficients are drawn
    uniformly from [0.5, 1.5] and resampled (whole vector, at most 100
    times) until every odd-parity combination is bounded away from zero,
    which almost every draw satisfies.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if d < 2:
        raise ValueError(f"construction needs d >= 2, got d={d}")
    k = math.ceil(D / (d - 1))
    n = 2 ** (k - 1)
    if n > MAX_COUNTEREXAMPLE_ROWS:
        raise BudgetExceededError(
            f"construction would need {n} rows per cloud, limit is {MAX_COUNTEREXAMPLE_ROWS}"
        )
    blocks = _consecutive_blocks(D, d - 1)
    assert len(blocks) == k
    null_vectors = np.vstack([_block_null_vector(A, block) for block in blocks])

    rng = make_rng(seed)
    masks = np.arange(2**k, dtype=np.uint32)
    membership = ((masks[:, None] >> np.arange(k)) & 1).astype(float)  # (2^k, k)
    parity = membership.sum(axis=1).astype(int) % 2

    alphas = None
    attempts = 0
    for attempts in range(1, _ALPHA_ATTEMPTS + 1):
        candidate = rng.uniform(_ALPHA_LOW, _ALPHA_HIGH, size=k)
        combos = (membership * candidate) @ null_vectors  # (2^k, d)
        odd_norms = np.linalg.norm(combos[parity == 1], axis=1)
        if np.all(odd_norms > 1e-9):
            alphas = candidate
            break
    if alphas is None:
        raise ConstructionError(
            f"no coefficient vector avoided odd-parity cancellation in {_ALPHA_ATTEMPTS} attempts"
        )

    combos = (membership * alphas) @ null_vectors
    X = combos[parity == 0]
    Y = combos[parity == 1]

    scale = max(1.0, float(np.linalg.norm(A)) * float(np.linalg.norm(combos, axis=1).max()))
    gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
    if gap > 1e-9 * scale:
        raise ConstructionError(f"embedding gap {gap} exceeds tolerance for scale {scale}")
    dist = orbit_distance(X, Y).distance
    if dist <= 1e-12 * scale:
        raise ConstructionError("generated clouds are on the same orbit")

    certificate = {
        "kind": "parity",
        "d": d,
        "D": D,
        "blocks": k,
        "rows": n,
        "partition": blocks,
        "alphas": alphas.tolist(),
        "seed": int(seed),
        "attempts": attempts,
        "embedding_gap": gap,
        "orbit_distance": dist,
    }
    return CounterexamplePair(X=X, Y=Y, certificate=certificate)


def adversarial_circle_pair(n: int, d: int) -> CounterexamplePair:
    """Circle cloud versus the same cloud with its first point zeroed.

    Rows i = 1..n of X are (0, ..., 0, cos(2 pi i / n), sin(2 pi i / n));
    Y agrees except that its first row is the origin.  The orbit distance
    is exactly 1 (verified on creation: by enumerating the n! matchings for
    n <= 8, the audit's sizes, so that the audit loads no scipy, and by an
    assignment solve above).
    """
    n, d = _check_count("n", n, 2), _check_count("d", d, 2)
    angles = 2.0 * np.pi * np.arange(1, n + 1) / n
    X = np.zeros((n, d))
    X[:, d - 2] = np.cos(angles)
    X[:, d - 1] = np.sin(angles)
    Y = X.copy()
    Y[0] = 0.0
    dist = _enumerated_distance(X, Y)[0] if n <= 8 else orbit_distance(X, Y).distance
    if abs(dist - 1.0) > 1e-9:
        raise ConstructionError(f"expected orbit distance 1, measured {dist}")
    certificate = {
        "kind": "adversarial-circle",
        "n": n,
        "d": d,
        "orbit_distance": dist,
    }
    return CounterexamplePair(X=X, Y=Y, certificate=certificate)
