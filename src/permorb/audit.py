"""Lipschitz and distortion bounds for the sorted embedding.

For a direction matrix A the sorted embedding contracts no pair by more
than the largest singular value sigma_1(A) (that bound is exact and
free).  Lower bounds are harder; this module implements the two certified
routes and the empirical estimate used to sandwich the distortion:

* ``subset_sigma_lower_bound`` -- exhaustive minimum over all size-(r*d)
  column subsets of the d-th singular value.  When D >= r*d*((n-1)**2+1)
  this value is a certified floor for the lower Lipschitz constant.
* ``projective_uniformity`` + ``blueprint_lower_bound`` -- the floor
  delta * sqrt(D - n**2 * (m-1)) obtained from an (m, delta) projective
  uniformity certificate (the m-th smallest |a_k . e| over columns is at
  least delta for every unit direction e).  For d = 2, delta is proven:
  the m-th smallest |a_k . e| attains its minimum on the D**2 directions
  orthogonal to a column or to a sum or difference of two columns, and the
  sweep covers exactly those, minus a stated rounding allowance: O(D**2)
  elementwise work, plus the O(D) kernel only at the directions orthogonal
  to a column and at the crossings whose value can be the minimum.  For
  d > 2, sphere sampling only overestimates delta, so it gives no floor.
* ``empirical_distortion`` -- min/max of the embedding-to-orbit distance
  ratio over a seeded pool that mixes independent clouds, near-orbit
  perturbations across several orders of magnitude of scale, and the
  adversarial circle pair.
* ``sqrtn_ceiling`` -- the universal ceiling on the lower Lipschitz
  constant witnessed by the adversarial circle pair, in its two variants
  (aligned with A's two smallest singular values, or independent of A via
  the two largest).
* ``gaussian_sketch`` / ``ose_check`` / ``ose_dimension`` /
  ``region_count_bound`` -- the random-sketch route: sketch dimension
  formula, sketch generator with entry standard deviation 1/sqrt(M) (so
  E||Lx||^2 = ||x||^2), an empirical (1 +- eps) norm-preservation check,
  and the exact big-integer bound (D*n^2)**(2*n*d) on the number of
  sorting-pattern regions that drives the sketch dimension.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import __version__ as _version
from .core import (
    BudgetExceededError,
    DEFAULT_OSE_CONSTANT,
    DEFAULT_SUBSET_BUDGET,
    _SUBSET_CHUNK,
    _UNIT_ROUNDOFF,
    _check_count,
    _check_seed,
    _gamma,
    _least_subset_sigma,
    _subset_chunks,
    _unit_scaled,
    as_matrix,
    make_rng,
    singular_values,
)
from .constructions import adversarial_circle_pair
from .embeddings import _blocks, _dot_norms, _gaussian_sketch, _held, _sorted_gaps
from .metrics import _assignment_totals, _assignment_width

__all__ = [
    "PUEstimate",
    "SubsetBound",
    "AuditReport",
    "OseReport",
    "upper_lipschitz",
    "subset_sigma_lower_bound",
    "subset_sigma_lower_bound_sampled",
    "projective_uniformity",
    "blueprint_lower_bound",
    "sample_pair_pool",
    "empirical_distortion",
    "sqrtn_ceiling",
    "ose_dimension",
    "gaussian_sketch",
    "ose_check",
    "region_count_bound",
    "DEFAULT_OSE_CONSTANT",
]

EXACT_SWEEP = "exact-2d-sweep"
SPHERE_SAMPLING = "sphere-sampling"

# Sphere-sample count per feature dimension for the sampled
# projective-uniformity estimate (it overestimates delta; only the d=2
# sweep proves one).
_PU_SPHERE_SAMPLES_PER_DIM = 10_000

# Floats in one chunk of projections |a_k . e| of the uniformity kernel.
# Chunks of 2**16 left audit-cli's heap about 0.8 MB larger at its peak.
_PU_FLOATS = 1 << 14

# Pairs below this orbit distance are excluded from empirical ratios.
_MIN_PAIR_DISTANCE = 1e-8


@dataclass(frozen=True)
class PUEstimate:
    """(m, delta) projective uniformity of a direction matrix.

    ``method`` says what delta is: a proven floor (``exact-2d-sweep``, d = 2)
    or an overestimate (``sphere-sampling``, any other d).
    """

    m: int
    delta: float
    method: str
    direction_count: int


@dataclass(frozen=True)
class SubsetBound:
    """Minimum d-th singular value over column subsets of size r*d."""

    value: float
    r: int
    subset_size: int
    subsets: int
    certified: bool


@dataclass
class AuditReport:
    """Empirical Lipschitz estimates plus any requested certified bounds.

    ``empirical_C1``/``empirical_C2`` are the min/max embedding-to-distance
    ratios over the sampled pool; they sandwich nothing by themselves but
    always satisfy empirical_C1 <= empirical_C2 <= sigma1 * (1 + 1e-9).
    """

    sigma1: float
    empirical_C1: float
    empirical_C2: float
    distortion: float
    ceiling_sqrt_n: float
    ceiling_sqrt_n_independent: float
    pair_count: int
    trials: int
    n: int
    seed: int
    version: str = _version
    subset_bound: SubsetBound | None = None
    pu: PUEstimate | None = None
    blueprint_bound: float | None = None


@dataclass(frozen=True)
class OseReport:
    """Outcome of an empirical (1 +- eps) sketch-ratio check."""

    violations: int
    max_ratio_error: float
    pairs_used: int
    pairs_skipped: int
    epsilon: float
    sketch_rows: int
    seed: int


def upper_lipschitz(A) -> float:
    """The exact upper Lipschitz constant of the sorted embedding: sigma_1(A)."""
    return float(singular_values(A)[0])


def _subset_shape(A, r: int) -> tuple[np.ndarray, int, int, int, int]:
    """(A, r, d, D, k) for the subset bounds, k = r*d, once A, r >= 1 and D >= k are checked."""
    A = as_matrix(A, "A")
    d, D = A.shape
    r = _check_count("r", r)
    k = r * d
    if D < k:
        raise ValueError(f"need D >= r*d = {k}, got D = {D}")
    return A, r, d, D, k


def subset_sigma_lower_bound(
    A, r: int, n: int, *, budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetBound:
    """Exact minimum of the d-th singular value over all size-(r*d) subsets.

    Every subset is evaluated or excluded by a proven floor, so ``value``
    is the exact minimum, not a sample: the least d-th singular value that
    np.linalg.svd returns for any subset, bit for bit, though only the
    subsets whose Gram-determinant floor can hold it reach the SVD
    (``core._least_subset_sigma``).  It lower-bounds the lower Lipschitz
    constant of the sorted embedding on n-point clouds when
    D >= r*d*((n-1)**2 + 1), and ``certified`` says whether that holds
    for the n given.  Raises BudgetExceededError (recommending the sampled
    variant) when C(D, r*d) exceeds ``budget``, before any subset is
    formed, and ValueError when ``n`` or ``budget`` is below 1.
    """
    A, r, _, D, k = _subset_shape(A, r)
    n = _check_count("n", n)
    budget = _check_count("budget", budget)
    count = math.comb(D, k)
    if count > budget:
        raise BudgetExceededError(
            f"subset bound needs {count} subset evaluations with budget {budget}; "
            "use subset_sigma_lower_bound_sampled for a non-certified estimate"
        )
    return SubsetBound(value=_least_subset_sigma(A, k, _subset_chunks(D, k)), r=r, subset_size=k,
                       subsets=count, certified=D >= k * ((n - 1) ** 2 + 1))


def subset_sigma_lower_bound_sampled(
    A, r: int, samples: int, seed: int
) -> SubsetBound:
    """Sampled stand-in for the exhaustive subset bound.

    NOT certified: the minimum over a random sample only upper-bounds the
    true minimum.  The subsets are drawn one ``rng.choice`` each, in order,
    ``_SUBSET_CHUNK`` at a time, and screened as in the exhaustive bound:
    the value is the least d-th singular value np.linalg.svd returns for
    any sampled subset, though only those whose floor can hold it reach
    the SVD.
    """
    A, r, _, D, k = _subset_shape(A, r)
    samples = _check_count("samples", samples)
    rng = make_rng(seed)
    chunks = (np.sort([rng.choice(D, size=k, replace=False)
                       for _ in range(min(_SUBSET_CHUNK, samples - lo))], axis=1)
              for lo in range(0, samples, _SUBSET_CHUNK))
    return SubsetBound(value=_least_subset_sigma(A, k, chunks), r=r, subset_size=k, subsets=samples,
                       certified=False)


def _least_mth_projection(A: np.ndarray, m: int, E: np.ndarray) -> float:
    """The least, over the rows e of E, of the m-th smallest |a_k . e| over A's columns.

    Each a_k . e is fl(...fl(fl(e_1 a_1k) + fl(e_2 a_2k))...), summed in
    coordinate order, so a value depends on e and a_k alone.  E is taken in
    chunks of rows so that no array holds more than _PU_FLOATS floats.
    """
    least = math.inf
    for chunk in (E[rows] for rows in _blocks(len(E), A.shape[1], _PU_FLOATS)):
        vals = chunk[:, :1] * A[0]
        for i in range(1, len(A)):
            vals += chunk[:, i, None] * A[i]
        np.abs(vals, out=vals)
        least = min(least, float(np.partition(vals, m - 1, axis=1)[:, m - 1].min()))
    return least


def _orthogonal_units(N: np.ndarray) -> np.ndarray:
    """(-n_2, n_1) / hypot(n_1, n_2) for each normal n = N[:, ...], stacked on a new first axis."""
    return np.stack([-N[1], N[0]]) / np.hypot(N[0], N[1])


def _near_crossings(A: np.ndarray, lo: int, hi: int, limit: float) -> tuple[int, np.ndarray]:
    """The crossings of columns j in [lo, hi) with the columns k > j that _pu_exact_sweep keeps.

    Returns the number of nonzero normals a_j +- a_k, and the rows of the
    directions e orthogonal to them whose computed crossing value
    min(|a_j . e|, |a_k . e|), summed as _least_mth_projection sums, is at
    most ``limit``.  Every array holds at most 4 (hi - lo) D floats.
    """
    j, k = np.nonzero(np.arange(lo, hi)[:, None] < np.arange(A.shape[1]))
    Aj, Ak = A.take(j + lo, axis=1), A.take(k, axis=1)
    N = np.stack([Aj - Ak, Aj + Ak], axis=1)
    with np.errstate(invalid="ignore"):  # a zero normal gives a nan direction, never near
        e = _orthogonal_units(N)
        crossing = np.minimum(
            np.abs(e[0] * Aj[0] + e[1] * Aj[1]), np.abs(e[0] * Ak[0] + e[1] * Ak[1])
        )
        near = crossing <= limit
    return int(np.count_nonzero(N.any(axis=0))), e[:, near].T


def _pu_exact_sweep(A: np.ndarray, m: int) -> PUEstimate:
    """The (m, delta) uniformity of a 2 x D matrix, a proven floor for A as stored.

    Write f(e) for the m-th smallest |a_k . e|; f(-e) = f(e).  Take a true
    minimiser e*, with f(e*) = delta.  The functions |a_k . e| below or above
    delta at e* stay there near e*.  If one function |a_k . e| alone takes
    the value delta at e* (its duplicates and antipodes are the same
    function) and does not vanish there, f equals it near e*, and
    ||a_k|| |sin(theta - phi_k)| is strictly concave where it has no zero,
    so it has no local minimum.  Hence e* is a breakpoint of f: either the
    active |a_k . e| vanishes there (e* is orthogonal to a nonzero column
    a_k, or m columns are zero and f is 0 everywhere), or two different
    functions |a_j . e| and |a_k . e| cross there at the value delta (e* is
    orthogonal to a_j - a_k or a_j + a_k, whichever is nonzero).  A normal
    that is exactly zero (a zero column, equal or exactly opposite columns)
    makes no zero and no crossing and is skipped.  Each direction comes
    straight from its normal n as (-n_2, n_1) / hypot(n).

    The sweep runs in two stages.  First it evaluates f, by
    _least_mth_projection, at the zero candidates: the direction (-1, 0),
    from the normal (0, 1), so the set is never empty, and the direction
    orthogonal to each nonzero column.  Call U the least computed value.
    Then, for each crossing direction e^ orthogonal to a nonzero
    a_j +- a_k, j < k, it computes the crossing value
    min(|a_j . e^|, |a_k . e^|) with the kernel's own elementwise products
    and evaluates f at e^ only where that value is at most
    U + 32 u a_max + 2**-1069.  A crossing above that limit cannot hold e*
    (see below), so only O(D**2) elementwise work is certain, in
    _PU_FLOATS chunks; the kernel's O(D) per direction is paid only at
    the zero candidates and the crossings that pass.  ``direction_count`` counts every candidate
    the certificate covers once, evaluated or pruned: (-1, 0), the nonzero
    columns and the nonzero a_j +- a_k, j < k.

    The minimum of the computed values is then lowered by an allowance
    c u a_max + 2**-1070, with c = 16, u = 2**-53, a_max = max ||a_k||,
    and eta = 2**-1074 bounding the error of an underflowed product or
    quotient.  Let e* be the true minimiser, orthogonal to an exact normal
    n, and e^ the direction computed from it:

    * fl(a_j +- a_k) errs by at most u per component relative to n (a sum
      that underflows is exact), so its normal direction is within an
      angle asin(u) of n's: the unit vectors orthogonal to the two lie
      within 1.01 u of each other.
    * hypot errs by at most one ulp and the division rounds once, so each
      component of e^ lies within 3.01 u (plus eta) of the exact unit
      vector: ||e^ - e*|| <= 4.1 u + 2 eta and ||e^|| <= 1 + 4 u.
    * Every |a_k . e| is a_max-Lipschitz in e, and so is their m-th
      smallest f; so f(e^) <= delta + a_max (4.1 u + 2 eta), where
      a_max eta < 0.01 u a_max.
    * The kernel's two-term sum errs by at most gamma_2 (|a_1k e_1| +
      |a_2k e_2|) + 2 eta <= 2.01 u a_max + 2 eta, and the m-th smallest
      of the computed values moves by no more than they do.
    * The computed value at e^ is thus at most delta + 6.2 u a_max + 2 eta.
      a_max is taken as fl(max hypot(a_k)) >= (1 - 2 u) a_max, 16 u times
      it is exact (or errs by eta where it underflows), and the final
      subtraction and the allowance's own sum round by at most 1.1 u a_max
      + 2 eta more.

    That is 7.3 u a_max + 4 eta in all: c = 16 covers twice the first
    term and 2**-1070 = 16 eta the second, so the result, clamped at 0,
    lies at most that far below the true delta and never above it.

    The pruning limit follows from the same bullets.  Read backwards, they
    bound U: delta <= f at the exact zero candidate <= U + 6.2 u a_max +
    2 eta.  If e* is a crossing of a_j and a_k, its crossing value is
    delta, and the computed one at e^ is at most delta + 6.2 u a_max +
    2 eta, so at most U + 12.4 u a_max + 4 eta.  U <= 1.01 a_max, so
    forming the limit loses at most 1.1 u a_max + eta more: c = 32 covers
    twice the 13.5 u a_max and 2**-1069 = 32 eta the 5 eta, so e^ is
    evaluated.  The pruned minimum runs over a subset of the directions,
    so it is never below the minimum over all of them.  Every step assumes
    no overflow, which holds while a_max < 2**1021; larger columns raise
    ValueError.
    """
    D = A.shape[1]
    a_max = float(np.hypot(A[0], A[1]).max())
    if a_max >= 2.0**1021:
        raise ValueError(f"the exact sweep needs column norms below 2**1021, got {a_max}")
    N = np.concatenate([[[0.0], [1.0]], A], axis=1)
    N = N[:, (N != 0.0).any(axis=0)]
    best, count = _least_mth_projection(A, m, _orthogonal_units(N).T), N.shape[1]
    limit = best + (32.0 * _UNIT_ROUNDOFF * a_max + 2.0**-1069)
    for j in _blocks(D, 4 * D, _PU_FLOATS):  # the columns j of one batch of pairs
        normals, near = _near_crossings(A, j.start, j.stop, limit)
        best, count = min(best, _least_mth_projection(A, m, near)), count + normals
    delta = max(best - (16.0 * _UNIT_ROUNDOFF * a_max + 2.0**-1070), 0.0)
    return PUEstimate(m=m, delta=delta, method=EXACT_SWEEP, direction_count=count)


def _pu_sphere_sampling(A: np.ndarray, m: int, samples: int, seed: int) -> PUEstimate:
    """Least m-th smallest |a_k . e| over seeded uniform unit directions: it only overestimates delta."""
    rng = make_rng(seed)
    best = math.inf
    # fills that follow one another continue one stream, however they are cut
    for rows in _blocks(samples, len(A), _PU_FLOATS):
        E = rng.standard_normal((rows.stop - rows.start, len(A)))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        best = min(best, _least_mth_projection(A, m, E))
    return PUEstimate(m=m, delta=best, method=SPHERE_SAMPLING, direction_count=samples)


def projective_uniformity(A, m: int, *, seed: int = 0) -> PUEstimate:
    """The (m, delta) projective-uniformity constant of A, or an estimate of it.

    delta is the least, over unit directions e, of the m-th smallest
    |a_k . e|.  For d = 2 it is the ``exact-2d-sweep``: a proven floor,
    within about 16 u max ||a_k|| of the true constant (u = 2**-53), from
    the D**2 directions that provably hold the minimiser, of which it
    evaluates only those that can hold it: O(D**2) elementwise work plus
    O(D) per evaluated direction.  For any other d it is
    ``sphere-sampling`` over 10,000 seeded uniform directions per
    dimension, which only overestimates delta and so proves no floor.
    ``method`` in the result names the one used.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    m = _check_count("m", m, 1, D)
    seed = _check_seed(seed)
    if d == 2:
        return _pu_exact_sweep(A, m)
    return _pu_sphere_sampling(A, m, _PU_SPHERE_SAMPLES_PER_DIM * d, seed)


def blueprint_lower_bound(delta: float, m: int, D: int, n: int) -> float:
    """Lower Lipschitz floor delta * sqrt(D - n**2 * (m - 1)).

    Valid for any matrix with an (m, delta) projective-uniformity
    certificate; inapplicable (raises) when n**2 * (m - 1) > D.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    m, D, n = _check_count("m", m), _check_count("D", D), _check_count("n", n)
    excluded = n * n * (m - 1)
    if excluded > D:
        raise ValueError(
            f"bound inapplicable: n^2 (m-1) = {excluded} exceeds D = {D}"
        )
    return delta * math.sqrt(D - excluded)


def sqrtn_ceiling(A, n: int, *, independent: bool) -> float:
    """Ceiling on the lower Lipschitz constant from the adversarial pair.

    Returns (2 + 1/n)**0.5 * pi / sqrt(n) * sqrt(s1**2 + s2**2) where
    (s1, s2) are the two smallest singular values of A with
    ``independent=False``, or the two largest with ``independent=True``
    (the variant that holds for the fixed, A-independent adversarial pair).
    The two are different bounds, so the caller names one.
    """
    A = as_matrix(A, "A")
    d = A.shape[0]
    if d < 2:
        raise ValueError(f"ceiling needs d >= 2, got d = {d}")
    n = _check_count("n", n)
    return _sqrtn_ceiling(singular_values(A), d, n, independent=independent)


def _sqrtn_ceiling(sv: np.ndarray, d: int, n: int, *, independent: bool) -> float:
    """sqrtn_ceiling of a d x D matrix, d >= 2, from its singular values sv, unvalidated."""
    padded = np.zeros(d)
    padded[: sv.size] = sv  # pad with zeros when D < d
    pair = (padded[0], padded[1]) if independent else (padded[d - 2], padded[d - 1])
    return float(
        math.sqrt(2.0 + 1.0 / n) * math.pi / math.sqrt(n) * math.hypot(*pair)
    )


def sample_pair_pool(n: int, d: int, count: int, seed: int) -> np.ndarray:
    """Deterministic pool of cloud pairs for empirical Lipschitz estimates.

    Mixes independent Gaussian clouds and near-orbit pairs (a permuted
    copy plus relative noise) across scales 1e-2..1e2, and prepends the
    adversarial circle pair when d >= 2.  Scale mixing is deliberate:
    distortion is scale invariant but floating point is not.

    Returns one (count, 2, n, d) array; pool[t] is the pair (X, Y), so
    ``for X, Y in pool`` walks the pairs.  The loop over pairs only calls
    the generator, in the order of a loop that builds each pair in turn:
    rng.random() for the scale's exponent, the normals of X, rng.random()
    for the kind of Y, then either the normals of Y, or rng.random() for
    the noise's exponent, the permutation and the normals of the noise.
    The exponents are lo + 4.0 * rng.random(): rng.uniform(lo, lo + 4.0)
    computes that very value from the same draw, and 4.0 * u is exact.
    Each permutation is drawn in place: rng.shuffle on a row that starts as
    arange(n) is what rng.permutation(n) does.  The scaling and the
    permuted copies then run once over the whole array, elementwise, so
    each entry is the product and sum a per-pair loop rounds; the permuted
    points are copied whole, by one np.take of rows of the pool's points
    as a (-1, d) array.
    """
    n, d, count = _check_count("n", n), _check_count("d", d), _check_count("count", count)
    rng = make_rng(seed)
    pool = np.empty((count, 2, n, d))
    drawn = pool
    if d >= 2:
        pair = adversarial_circle_pair(n, d)
        pool[0] = pair.X, pair.Y
        drawn = pool[1:]
    perms = np.empty((len(drawn), n), dtype=np.intp)
    perms[:] = np.arange(n)
    scales, factors, near = [], [], []
    for pair, perm in zip(drawn, perms):
        scale = 10.0 ** (-2.0 + 4.0 * rng.random())
        rng.standard_normal(out=pair[0])
        if rng.random() < 0.6:
            factors.append(scale)
            near.append(False)
        else:
            # noise * scale, the factor of the noise's normals
            factors.append(10.0 ** (-5.0 + 4.0 * rng.random()) * scale)
            near.append(True)
            rng.shuffle(perm)
        rng.standard_normal(out=pair[1])
        scales.append(scale)
    X, Y = drawn[:, 0], drawn[:, 1]
    X *= np.array(scales)[:, None, None]
    Y *= np.array(factors)[:, None, None]
    near = np.flatnonzero(near)
    # the flat index of point i of drawn[t, 0] is 2 n t + i
    Y[near] += np.take(drawn.reshape(-1, d), perms[near] + 2 * n * near[:, None], axis=0, mode="clip")
    return pool


# Below this, a float64 square and twice it stay finite.
_NO_OVERFLOW = math.sqrt(np.finfo(np.float64).max / 2.0)


def _distortion_args(A, n: int, trials: int) -> tuple[np.ndarray, int, int]:
    """(A, n, trials) once ``empirical_distortion`` accepts them: d >= 2, n in 2..8, trials >= 1."""
    A = as_matrix(A, "A")
    if A.shape[0] < 2:
        raise ValueError(f"empirical distortion needs d >= 2, got d = {A.shape[0]}")
    return A, _check_count("n", n, 2, 8), _check_count("trials", trials)


def empirical_distortion(
    A,
    n: int,
    trials: int,
    seed: int,
    *,
    pu_m: int | None = None,
) -> AuditReport:
    """Min/max embedding-to-distance ratios over a seeded pair pool.

    Pairs closer than 1e-8 in orbit distance are skipped.  ``pu_m``
    attaches the projective uniformity of projective_uniformity to the
    report; a subset bound is attached by the caller, as
    ``report.subset_bound = subset_sigma_lower_bound(A, r, n)``.  The
    blueprint floor is attached when delta's method is the exact sweep,
    whose delta is a proven floor (d = 2: O(D**2) elementwise work, plus
    the kernel at the crossings that can hold the minimum), and only when
    n**2 * (m - 1) <= D; a sampled delta (d > 2) overestimates the
    constant, and gives no floor.  Limited to n <= 8: the distance DP takes
    n 2**(n-1) steps per pair and holds up to C(n, n/2) totals a pair, and
    the adversarial circle pair's check enumerates its n! matchings, so no
    audit loads scipy.

    Every ratio is linear in A, so the pool runs on A scaled by a power of
    two, 2**-k with max |A| = f 2**k, 0.5 <= f < 1 (math.frexp): there no
    gap norm underflows or overflows, whatever the scale of A.  C1 and C2
    are scaled back by 2**k, and the distortion is their scaled ratio.
    Scaling by a power of two is exact, so a matrix whose ratios stay in
    range anyway gets the same bits as without it.  sigma1 and the
    ceilings come from A itself, from one SVD.

    A pair's distance is sqrt(B), B the least total over all n! matchings
    of the _squared_costs listed in row order, each added in row order;
    the pair is skipped below 1e-8, else its ratio is fl(||fl(EX - EY)|| /
    dist), the norm that of np.linalg.norm.  Each block of the pool goes
    to _sorted_gaps, which sorts its pairs' projections in cache-sized
    sub-blocks and subtracts them straight into the gap vectors, the bits
    of fl(EX - EY), without building EX or EY.  Their norms come from one
    BLAS dot per pair (_dot_norms), and the distances from one batched
    subset DP (_assignment_totals), which gives B bit for bit.  For n <= 7
    that is _enumerated_distance's total, as numpy sums up to seven costs
    in row order.  At n = 8 numpy sums a matching's eight costs as a balanced
    tree, so a distance, and C1, C2 or the distortion with it, may differ
    from the enumeration's or an assignment solver's by an ulp or two; both
    sums err by at most gamma_7 = 7u / (1 - 7u) of the exact total.
    """
    A, n, trials = _distortion_args(A, n, trials)
    d, D = A.shape
    scaled, k = _unit_scaled(A)
    pool = sample_pair_pool(n, d, trials, seed)
    dist = np.empty(trials)
    norm = np.empty(trials)
    for block in _blocks(trials, max(2 * n * max(d, D), _assignment_width(n))):
        pairs = pool[block]
        norm[block] = _dot_norms(_sorted_gaps(scaled, pairs))
        dist[block] = np.sqrt(_assignment_totals(pairs))
    kept = dist >= _MIN_PAIR_DISTANCE
    if not kept.any():
        raise ValueError("degenerate pool: every sampled pair sits on one orbit")
    ratio = norm[kept] / dist[kept]

    sv = singular_values(A)
    sigma1 = float(sv[0])  # upper_lipschitz(A)
    c1, c2 = float(np.min(ratio)), float(np.max(ratio))
    if c2 == 0.0:
        raise ValueError("every sampled gap is zero: the directions embed every cloud alike")
    distortion = c2 / c1
    c1, c2 = math.ldexp(c1, k), math.ldexp(c2, k)
    if not c1 <= c2 <= sigma1 * (1.0 + 1e-9):
        raise RuntimeError(
            f"ratio bookkeeping violated C1 <= C2 <= sigma1: {c1}, {c2}, {sigma1}"
        )

    report = AuditReport(
        sigma1=sigma1,
        empirical_C1=c1,
        empirical_C2=c2,
        distortion=distortion,
        ceiling_sqrt_n=_sqrtn_ceiling(sv, d, n, independent=False),
        ceiling_sqrt_n_independent=_sqrtn_ceiling(sv, d, n, independent=True),
        pair_count=ratio.size,
        trials=trials,
        n=n,
        seed=int(seed),
    )
    if pu_m is not None:
        report.pu = projective_uniformity(A, pu_m, seed=seed)
        # a sampled delta overestimates the constant, so it gives no floor
        if report.pu.method == EXACT_SWEEP and n * n * (pu_m - 1) <= D:
            report.blueprint_bound = blueprint_lower_bound(report.pu.delta, pu_m, D, n)
    return report


def ose_dimension(
    n: int, d: int, D: int, epsilon: float, eta: float, c: float = DEFAULT_OSE_CONSTANT
) -> int:
    """Sketch rows sufficient for a (1 +- epsilon) subspace embedding.

    ceil(c * eps**-2 * (2nd ln(1/eps) + ln(1/eta) + 2nd ln(D n^2))); the
    absolute constant c is a calibration knob.
    """
    n, d, D = _check_count("n", n), _check_count("d", d), _check_count("D", D)
    if not 0.0 < epsilon < 1.0 or not 0.0 < eta < 1.0:
        raise ValueError("epsilon and eta must lie in (0, 1)")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    k = 2 * n * d
    try:  # overflows in epsilon**-2, or in math.ceil of an infinite product
        value = c * epsilon**-2 * (k * math.log(1.0 / epsilon) + math.log(1.0 / eta) + k * math.log(D * n * n))
        return math.ceil(value)
    except OverflowError:
        raise ValueError(f"c = {c} and epsilon = {epsilon} give no finite sketch dimension") from None


def gaussian_sketch(n: int, D: int, M: int, seed: int) -> np.ndarray:
    """M x (n*D) sketch with i.i.d. N(0, 1/M) entries (std 1/sqrt(M)).

    The scaling makes E||L x||^2 = ||x||^2 for every fixed x.  It is one
    standard_normal call divided by sqrt(M).  ``permorb audit --check-ose``
    draws these same bits as two parts, one on a worker thread while its
    pair pool runs and one on the calling thread when the check needs
    them (``_drawn_sketch`` gives the account and its proof).
    """
    n, D, M = _check_count("n", n), _check_count("D", D), _check_count("M", M)
    return _gaussian_sketch(make_rng(seed), M, n * D)


# Normals in the window before the head's end in which the tail drawer's
# start is looked for, and in the spill it draws past the sketch's end.
_DRAW_WINDOW = 1 << 12

# Philox words numpy's ziggurat takes per standard normal, on average.  Most
# normals take one 64-bit word, the few that miss the ziggurat's fast test
# two or more: numpy 2.4 takes 1.0220 words per normal over 10**7 normals.
# It only places the tail drawer's start, so it moves the draw's speed,
# never its bits.
_WORDS_PER_NORMAL = 1.022

# Normals the tail drawer draws one at a time, recording its state after each.
_TAIL_STATES = 4


def _gaussian_fill(rng: np.random.Generator, out: np.ndarray, stop: threading.Event) -> None:
    """Fill the 1-D array out with N(0, 1) entries from rng: a drawing thread's work.

    It fills one chunk of 2**18 floats at a time.  Consecutive fills continue
    one stream, so the bits are those of one standard_normal call.  Between
    chunks it raises CancelledError once ``stop`` is set, so a draw that is
    left ends within a chunk.
    """
    for part in _blocks(out.size, 1, 1 << 18):
        if stop.is_set():
            from concurrent.futures import CancelledError

            raise CancelledError("the sketch's draw was left")
        rng.standard_normal(out=out[part])


def _words_used(state: dict) -> int:
    """Words of its stream a Philox generator in ``state`` has used.

    Philox makes its words four at a time, one block per counter step, and
    ``buffer_pos`` counts the words of the current block used so far.
    """
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4


def _same_continuation(a: dict, b: dict) -> bool:
    """Whether two Philox states agree in all that later draws read: the key,
    the counter, the position in the counter's block of four words, the
    block's unread words, and no half-used 32-bit word."""
    return (np.array_equal(a["state"]["key"], b["state"]["key"])
            and np.array_equal(a["state"]["counter"], b["state"]["counter"])
            and a["buffer_pos"] == b["buffer_pos"]
            and np.array_equal(a["buffer"][a["buffer_pos"]:], b["buffer"][b["buffer_pos"]:])
            and a["has_uint32"] == b["has_uint32"] == 0)


def _aligned_start(mark: dict, end: dict, starts: list[dict]) -> int | None:
    """The offset c of a second stream in a first, from the second's states ``starts``, or None.

    ``mark`` and ``end`` are the states of the first Philox stream before
    and after some standard normals; ``starts[k]`` is the second stream's
    state after its first k normals.  A replay from ``mark`` advances to
    each start in turn, drawing about half the normals that the words left
    before it could hold and backing off when it passes it, so a dozen
    steps or so reach the first.  At the first start k that the replay
    reaches, after j normals, in the same state, the second stream's
    normal i is the first's normal c + i after ``mark`` for every i >= k,
    with c = j - k.  None when c < 0, which puts the second stream's start
    before ``mark``, or when no start is reached: every normal takes at
    least one word, so the words used grow strictly with the count, and a
    start that lies outside [mark, end] or inside one normal's words is
    reached by no count.
    """
    replay = np.random.Generator(np.random.Philox(key=0))
    replay.bit_generator.state = mark
    used, last = _words_used(mark), _words_used(end)
    scratch = np.empty(max(1, (last - used) // 2))
    count, most = 0, scratch.size
    for k, start in enumerate(starts):
        target = _words_used(start)
        while used < target <= last:
            step = max(1, min(most, (target - used) // 2))
            before = replay.bit_generator.state
            replay.standard_normal(out=scratch[:step])
            after = _words_used(replay.bit_generator.state)
            if after <= target:
                count, used = count + step, after
                continue
            replay.bit_generator.state = before
            if step == 1:
                break  # start lies inside one normal's words
            most = step // 2
        if used == target and _same_continuation(replay.bit_generator.state, start):
            return count - k if count >= k else None
    return None


def _head_rows(M: int) -> int:
    """Rows of an M-row sketch in its head, the part the worker draws: ceil(0.55 M).

    ``_drawn_sketch`` gives the A/B runs that chose the fraction.
    """
    return -(-11 * M // 20)


@contextmanager
def _drawn_sketch(n: int, D: int, M: int, seed: int):
    """Draw gaussian_sketch(n, D, M, seed) on one worker thread and the caller's: yields (L, final).

    n, D and M are the counts ``ose_dimension`` has checked.  L is the
    M x nD array being drawn, in the calling thread's held sketch buffer,
    so a thread has one live sketch at a time.  ``final()`` draws the rest
    of L on the calling thread, waits until all of L is final, with the
    bits of gaussian_sketch(n, D, M, seed), re-raises the worker's error,
    and returns what ``_gram(L)`` returns: (G, a bound on ||L||_F) for a
    tall sketch, M >= nD, where G = G_head + G_tail is summed from the two
    parts' Gram parts, and (None, inf) for a wide one.  The first call
    that returns keeps its pair, and a later call returns that pair and
    draws nothing.

    The rows split at h = ``_head_rows(M)``, ceil(0.55 M).  The worker's
    one task, submitted on entry, fills the head, rows [0, h), from the
    seeded stream, and records its state one window before their end:
    ``_DRAW_WINDOW`` normals, or all h nD of them if fewer.  As soon as the
    head is drawn it publishes that state and the head's end state (an
    event set in a ``finally``, so a draw that fails still wakes the
    caller).  Only then does it divide the head by sqrt(M) and, for a
    tall sketch, form its Gram part with one syrk, the task's
    result.  The calling thread draws the tail, rows [h, M), in
    ``final()``, the first time the check needs G.  It fills the tail, and
    a spill after L of one window, from its own copy of the stream
    advanced (``Philox.advance``) to a word g, a multiple of four: Philox
    is counter-based, so any block of its words can be reached directly.
    A normal takes a variable number of words, so g is a guess: the head's
    expected end, h nD ``_WORDS_PER_NORMAL`` words, less half the window.
    That constant, numpy's ziggurat's average, only places g.  The tail
    drawer draws its first ``_TAIL_STATES`` normals one at a time and
    records its state s_k after k normals, for k = 0 to 4.  Once the
    head's two states are published, a replay from the head's state one
    window before its end advances to each s_k in turn and stops at the
    first it reaches, after j normals, in the same state: equal key,
    counter and position in the counter's block of four words, and equal
    unread words of that block (``_same_continuation``).  Equal Philox
    states give equal continuations, so the tail's normals from k on are
    the stream's from j on; this is a proof, not a match of values.  They
    lie delta = window - j + k places after their place in L, and the tail is
    moved back by delta (a 1-D copy in one direction, which numpy makes
    without a temporary).  When g falls inside the words of one normal
    (about 2% of the words continue a normal), the head's stream never
    passes through s_0, but the two parses of the stream fall into step
    within a normal or two.  On a miss, where no s_k lies in the window
    or j < k (the spill would not hold the move), the tail is drawn again
    from the head's generator, which the worker has left at the head's
    end and no longer reads.  Over seeds 0-199, no tail of a 200 x 96,
    200 x 144 or 3,000 x 24 sketch misses, and every one aligns at
    k <= 2 (with s_0 alone, 4, 3 and 2 missed); at the audit-cli
    benchmark's two shapes, over its workload seeds 0-59, none misses
    (with s_0 alone, the 18,921 x 144 sketch of seed 44 did).  The tail is
    then divided and given its Gram part as the head is, and
    only then does ``final()`` wait for the task's result, the head's
    Gram part, and sum G_head + G_tail.  So the caller waits
    for the worker twice: for the head's states before the replay, and for
    G_head after G_tail.  No task waits for another inside the pool.  The
    margin of the check's screen holds for L^T L summed in any order, so
    the report is the one a single L^T L gives.  On one core the split
    gains nothing, and costs a thread, the spill, the replay (about
    0.1 ms) and the move, one pass over the tail's memory.

    Each error is raised on the caller's thread by ``final()``: an error in
    the tail's fill where the caller meets it, and an error in the head's
    fill once the caller finds no published states, before any replay.
    No entry needs a finite check: numpy's ziggurat returns either
    rabs * w[idx] or, in its tail, r + xx with xx = -log1p(-u) / r and
    u < 1, so every normal it draws is finite, and dividing by
    sqrt(M) >= 1 keeps it finite.

    The worker starts drawing on entry, some milliseconds before the
    caller reaches ``final()`` (the pool and the subset bound come between),
    so the head is the larger part.  The split was chosen by alternating
    seed-0 ``audit-cli`` runs, parent (h = ceil(M / 2), with ``final()``
    waiting for G_head before the replay) against each split with the
    waits above, 8 pairs of 10 s each, equal digests, on a 2-core host
    shared with other load:

    ==============  ========  ====  =====  ===========
    h               wall_s    wins  cpu_s  peak_rss_mb
    ==============  ========  ====  =====  ===========
    ceil(M / 2)     -1.8%     7/8   +2.1%  +1.1%
    ceil(0.525 M)   +0.1%     4/8   +5.6%  +1.2%
    ceil(0.55 M)    -5.2%     7/8   +2.2%  +1.1%
    ceil(0.6 M)     -2.7%     6/8   +1.5%  +1.2%
    ==============  ========  ====  =====  ===========

    At ceil(0.55 M) the gauss3-n4 and gauss3-n6 ops' best latencies fell
    7.2% and 5.4%.  In the ceil(0.525 M) run the ops that draw no sketch
    were also 2-5% slower than the parent's, so that row shows the host's
    load more than the split.  Peak RSS rises by about 0.7 MB at every
    split, likely because both syrks, their Gram parts and BLAS work
    buffers, now run at once; the cause was not traced further.

    L and the spill after it are taken on entry, on the calling thread,
    from that thread's held buffer for the role "sketch"
    (``embeddings._held``), as the spot check takes its buffers: the
    buffer grows to the largest sketch the thread has drawn and is kept,
    so a process keeps its largest sketch after an audit, and a later
    audit of a sketch no larger maps no pages.  A sketch too large to
    allocate raises MemoryError on entry and leaves the held buffer as it
    was.  The worker allocates nothing large: it divides its rows in
    place.  (Allocated on a worker, L raised audit-cli's peak RSS by
    22 MB.  Allocated per call, a sketch larger than every earlier one is
    mapped apart from glibc's heap, beside the free pages earlier calls
    left resident there, and 8-second runs of the ``audit-cli`` benchmark
    peaked about 11% higher, over its 10% bound on peak RSS.)

    The worker runs none of permorb's public functions.  On leaving the
    context, on every path, a stop flag is set, which every fill reads
    between its chunks, the task is cancelled if not yet begun, and the
    worker is joined: an error raised before the check waits for at most
    one chunk of the head's fill, or the head's Gram part being formed,
    and draws no tail.
    """
    # imported here, so that only --check-ose loads the executor's modules
    from concurrent.futures import ThreadPoolExecutor

    N = n * D
    h = _head_rows(M)
    window = min(_DRAW_WINDOW, h * N)
    flat = _held("sketch", (M * N + window,))  # the sketch, then the tail's spill
    L = flat[: M * N].reshape(M, N)
    rng, tail_rng = make_rng(seed), make_rng(seed)
    tail_rng.bit_generator.advance(int(_WORDS_PER_NORMAL * (h * N - window / 2)) // 4)
    stop = threading.Event()
    drawn = threading.Event()  # set once the head's draw has ended, failed or not
    states = []  # the head's Philox states (mark, end), once it is drawn

    def finished(rows):
        """Divide L[rows] by sqrt(M) and return its Gram part."""
        S = L[rows]
        S /= math.sqrt(M)
        return S.T @ S if M >= N else None

    def head_task():
        try:
            _gaussian_fill(rng, flat[: h * N - window], stop)
            mark = rng.bit_generator.state
            _gaussian_fill(rng, flat[h * N - window: h * N], stop)
            states.append((mark, rng.bit_generator.state))
        finally:
            drawn.set()
        return finished(slice(0, h))

    @cache
    def final():
        starts = [tail_rng.bit_generator.state]  # starts[k]: the tail's state after k normals
        for i in range(h * N, h * N + _TAIL_STATES):
            tail_rng.standard_normal(out=flat[i: i + 1])
            starts.append(tail_rng.bit_generator.state)
        _gaussian_fill(tail_rng, flat[h * N + _TAIL_STATES:], stop)
        drawn.wait()
        if not states:
            head.result()  # the head's draw failed: raise its error
        c = _aligned_start(*states[0], starts)
        if c is None:
            _gaussian_fill(rng, flat[h * N: M * N], stop)
        else:
            delta = window - c
            flat[h * N: M * N] = flat[h * N + delta: M * N + delta]
        G_tail = finished(slice(h, M))
        G_head = head.result()
        return _gram(L, None if G_head is None else G_head + G_tail)

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="permorb-sketch")
    try:
        head = pool.submit(head_task)
        yield L, final
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


def _gram(L: np.ndarray, G: np.ndarray | None = None) -> tuple[np.ndarray | None, float]:
    """The screen's (G, fro) for an M x N sketch L: G = fl(L^T L) and fro >= ||L||_F.

    G is formed here with one syrk (numpy computes L.T @ L with one), unless
    the caller passes it, summed over the Gram parts of L's row blocks.  A
    wide sketch, M < N, gets (None, inf): its Gram matrix would be larger
    than itself, and the infinite bound makes the check confirm every pair.
    An overflow is left in G as an infinity or a NaN.

    The bound comes from t = fl(trace(G) + M N 2**-1073).  Write u for
    the unit roundoff and gamma_k = k u / (1 - k u).  Each diagonal
    entry of G is a sum of the M squares of one column of L, and the
    trace adds the N of them, so t adds the M N squares and the
    allowance in some order: each square meets at most j = M + N + 1
    roundings (its product, at most M additions in its column, the
    parts' sum included, N - 1 in the trace, one for the allowance), so
    t >= (1 - gamma_j) ||L||_F^2 in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1).  A square
    that underflows errs by at most 2**-1075 more, grown by less than a
    factor 2, which the allowance covers for all M N of them.  Hence
    ||L||_F <= sqrt(t) / (1 - gamma_j) <= sqrt(t) (1 + gamma_{2j}).
    The sqrt, 1 + gamma_k and their product each round down by at most
    a factor 1 - u, and 1 / (1 - u)^3 <= 1 + gamma_3, so with
    k = 2j + 3 = 2 (M + N) + 5 the result is at least ||L||_F, as
    (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}.  An overflow makes
    t, and so the bound, infinite, and the screen then confirms every
    pair.
    """
    M, N = L.shape
    if M < N:
        return None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        if G is None:
            G = L.T @ L
        t = float(np.trace(G))
    return G, math.sqrt(t + math.ldexp(M * N, -1073)) * (1.0 + _gamma(2 * (M + N) + 5))


def _sketch_screen(
    V: np.ndarray, denom: np.ndarray, G: np.ndarray | None, fro: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Screened ratios rho_s of the gap rows of V, and a margin tau on each.

    Each row x of V is a gap vector of length N, ``denom`` holds fl(||x||)
    (the caller skips pairs with denom below 1e-10), and G = fl(L^T L) and
    fro >= ||L||_F come from ``_gram`` of the M x N sketch L.
    The screen forms q = fl(x^T fl(G x)), a float near ||L x||^2, for each
    row (N^2 multiply-adds a row), and rho_s = fl(fl(sqrt(max(q, 0))) /
    denom).

    tau bounds |rho_s - rho_ref| for the per-pair reference rho_ref =
    fl(fl(||fl(L x)||) / denom).  Every product and sum below is a dot
    product or a sum in some order, bounded by the gamma_k bounds that
    hold in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1):

    * the reference matvec satisfies |fl(L x) - L x| <= gamma_N |L| |x|,
      and || |L| |x| || <= ||L||_F ||x||, so its norm is within
      gamma_N ||L||_F ||x|| of ||L x||; e_gap = 2 gamma_N ||L||_F ||x||
      covers that twice over;
    * each entry of G is a sum of M products, so |G - L^T L| <=
      gamma_M |L|^T |L|, and x^T (|L|^T |L|) x = || |L| |x| ||^2 <=
      ||L||_F^2 ||x||^2.  Each term x_i G_ij x_j of the quadratic form
      meets N roundings in G x and N in the outer dot, so q is within
      gamma_{2N} |x|^T |G| |x| <= gamma_{2N} (1 + gamma_M) ||L||_F^2 ||x||^2
      of x^T G x.  Together |q - ||L x||^2| <= E = (gamma_M + gamma_{2N}
      (1 + gamma_M)) ||L||_F^2 ||x||^2, which may leave q negative.  For
      a >= 0 and b >= 0, |sqrt(a) - sqrt(b)| <= min(sqrt(|a - b|),
      |a - b| / sqrt(a)), so s is within e_scr = min(sqrt(E), E / s) of
      ||L x||, up to the rounding of the sqrt;
    * the reference norm, the sqrt of a sum of M squares in some order,
      errs by at most gamma_{M+1} times itself, and it is at most about
      s + e_gap + e_scr, which gamma_{M+1} (2 s + e_gap + e_scr) covers;
    * the other roundings: the two divisions by denom, and the caller's
      rho - 1, rho - (1 +- eps) and err +- tau.  Each is at most u times a
      value below about rho + 1, and fewer than eight of them meet in one
      comparison, so 16 u (rho_s + 1) covers them.

    The first three terms are divided by denom and doubled; the doubling
    absorbs ||x|| against denom, the rounding of the screen's sqrt and the
    roundings made while evaluating the bound itself.  Underflow adds an
    absolute error to the products: for denom >= 1e-10 it moves no ratio by
    as much as 1e-140, far inside what the 16 u term leaves spare.  The
    bounds assume no overflow.  No entry of L^T L exceeds ||L||_F^2, no
    entry of G x exceeds ||L||_F^2 ||x||, and no quadratic form exceeds
    (||L||_F ||x||)^2, so nothing overflows while ||L||_F max(1, ||x||)
    stays below _NO_OVERFLOW.  Where it does not, or where fro is infinite,
    as the caller passes it for a sketch it does not screen, every margin
    is infinite, G is not read, and the caller confirms every pair.
    """
    if fro * max(1.0, float(np.max(denom))) > _NO_OVERFLOW:
        return np.zeros(len(V)), np.full(len(V), np.inf)
    N = V.shape[1]
    q = np.einsum("ij,ij->i", V @ G, V)
    s = np.sqrt(np.maximum(q, 0.0))
    rho = s / denom
    e_gap = 2.0 * _gamma(N) * fro * denom
    E = (_gamma(M) + _gamma(2 * N) * (1.0 + _gamma(M))) * (fro * denom) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        e_scr = np.fmin(np.sqrt(E), E / s)  # fmin drops the NaN of 0 / 0
    tau = 2.0 * (e_gap + e_scr + _gamma(M + 1) * (2.0 * s + e_gap + e_scr)) / denom
    tau += 16.0 * _UNIT_ROUNDOFF * (rho + 1.0)
    return rho, tau


def ose_check(
    A, L, n: int, epsilon: float, trials: int, seed: int
) -> OseReport:
    """Empirical norm-preservation ratios of a sketch on embedding gaps.

    For seeded pairs (X, Y) computes rho = ||L (vec bA(X) - vec bA(Y))|| /
    ||bA(X) - bA(Y)||_F and counts ratios outside [1 - eps, 1 + eps].

    rho is invariant under scaling A, so, as in empirical_distortion, the
    pairs are embedded with A scaled by 2**-k, max |A| = f 2**k,
    0.5 <= f < 1 (math.frexp): no gap norm underflows or overflows,
    whatever the scale of A.  A pair is skipped when its scaled gap norm is
    below 1e-10, a threshold relative to A's binade.  Scaling by a power of
    two is exact, so the report does not depend on the scale of A, and a
    matrix with max |A| in [0.5, 1) is embedded as it is.

    Each block's gap vectors x are the rows of one array, which
    _sorted_gaps writes column-major straight from the sorted projections,
    so neither the embeddings nor a transposed copy of their gaps is made;
    their norms ||x|| come from one BLAS dot each (_dot_norms), the bits of
    np.linalg.norm.  The ratios are screened, then confirmed, and the
    sketch's shape picks the screen.  A tall sketch, M >= N = nD, gets its
    Gram matrix L^T L formed once per check (``_gram``, M N^2 / 2
    multiply-adds), and the screen (_sketch_screen) takes every ||L x||^2
    of a block as the quadratic form x^T (L^T L) x, N^2 multiply-adds a
    pair, with a proven margin on its distance from the per-pair reference
    ||L @ x|| / ||x||.  A pair whose margin reaches 1 +- eps, or whose
    error could be its block's largest, is confirmed with the reference
    matvec on its row; the margin settles every other pair.  A wide sketch,
    M < N, has a Gram matrix larger than itself, so it is not screened:
    every margin is infinite and every pair is confirmed, at M N
    multiply-adds a pair.  Either way the report is the one a per-pair
    matvec loop gives, bit for bit.

    ``permorb audit --check-ose`` runs the same check on a sketch still
    being drawn, started before its pair pool, and takes G as the sum of
    its two parts' Gram parts before the first screen (``_drawn_sketch``).
    The bits are gaussian_sketch's and the margin holds for any summation
    order of L^T L, so the report is unchanged.
    """
    A, L = as_matrix(A, "A"), as_matrix(L, "L")
    return _ose_check(A, L, lambda: _gram(L), n, epsilon, trials, seed)


def _ose_check(
    A: np.ndarray, L: np.ndarray, final, n: int, epsilon: float, trials: int, seed: int
) -> OseReport:
    """ose_check on validated arrays, where ``final()`` returns ``_gram(L)`` once L is final."""
    d, D = A.shape
    M, N = L.shape
    n = _check_count("n", n)
    if N != n * D:
        raise ValueError(f"sketch must have {n * D} columns, got {N}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    trials = _check_count("trials", trials)
    scaled, _ = _unit_scaled(A)
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    rng = make_rng(seed)
    violations = 0
    max_err = 0.0
    used = 0
    skipped = 0
    screen = None  # (G, bound on ||L||_F), once the first block needs them
    for block in _blocks(trials, 2 * n * max(d, D)):
        pairs = np.empty((block.stop - block.start, 2, n, d))
        scales = []
        for pair in pairs:
            # the draws of 10.0 ** rng.uniform(-2.0, 2.0) and scale * normals,
            # as in sample_pair_pool
            scales.append(10.0 ** (-2.0 + 4.0 * rng.random()))
            rng.standard_normal(out=pair)
        pairs *= np.array(scales)[:, None, None, None]
        # the column-major gap vectors, one row each
        V = _sorted_gaps(scaled, pairs, column_major=True)
        denom = _dot_norms(V)
        far = ~(denom < 1e-10)  # a NaN norm is kept, as the pair loop kept it
        skipped += len(V) - int(np.count_nonzero(far))
        if not far.any():
            continue
        V, denom = V[far], denom[far]
        if screen is None:
            screen = final()
        rho, tau = _sketch_screen(V, denom, *screen, M)
        err = np.abs(rho - 1.0)
        near = (np.abs(rho - lo) <= tau) | (np.abs(rho - hi) <= tau)
        could_be_max = err + tau >= np.max(err - tau)
        violations += int(np.count_nonzero(((rho < lo) | (rho > hi)) & ~near))
        for i in np.flatnonzero(near | could_be_max):
            ref = float(np.linalg.norm(L @ V[i])) / float(denom[i])
            max_err = max(max_err, abs(ref - 1.0))
            if near[i] and (ref < lo or ref > hi):
                violations += 1
        used += len(V)
    return OseReport(
        violations=violations,
        max_ratio_error=max_err,
        pairs_used=used,
        pairs_skipped=skipped,
        epsilon=epsilon,
        sketch_rows=M,
        seed=int(seed),
    )


def region_count_bound(n: int, d: int, D: int) -> int:
    """Exact big integer (D * n**2) ** (2 * n * d).

    Upper-bounds the number of open regions cut out of cloud-pair space by
    the D * (n^2 - n) sorting-tie hyperplanes; on each region the
    embedding gap is one fixed linear map, which is what lets a single
    random sketch serve all pairs at once.
    """
    n, d, D = _check_count("n", n), _check_count("d", d), _check_count("D", D)
    return (D * n * n) ** (2 * n * d)
