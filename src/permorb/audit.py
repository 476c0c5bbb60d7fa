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
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BudgetExceededError,
    DEFAULT_SUBSET_BUDGET,
    __version__ as _version,
    _check_count,
    _check_seed,
    _unit_scaled,
    as_matrix,
    iter_column_subsets,
    make_rng,
    singular_values,
)
from .constructions import adversarial_circle_pair
from .embeddings import _blocks, _dot_norms, _gaussian_sketch, _sort_project, _take_points
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

# The sketch-dimension formula hides an absolute constant; 4 is the
# default calibration knob, checked empirically by ose_check.
DEFAULT_OSE_CONSTANT = 4.0


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
    A, r: int, *, budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetBound:
    """Exact minimum of the d-th singular value over all size-(r*d) subsets.

    ``certified`` is True because every subset is evaluated, so ``value``
    is the exact minimum, not a sample.  That minimum lower-bounds the
    lower Lipschitz constant of the sorted embedding only for the n with
    D >= r*d*((n-1)**2 + 1); this function is not given n, so it proves
    the floor for no n by itself (the audit's report, which knows n,
    labels it for its n).  Raises BudgetExceededError (recommending the
    sampled variant) when C(D, r*d) exceeds ``budget``, and ValueError
    when ``budget`` is below 1.
    """
    A, r, d, D, k = _subset_shape(A, r)
    budget = _check_count("budget", budget)
    count = math.comb(D, k)
    if count > budget:
        raise BudgetExceededError(
            f"subset bound needs {count} subset evaluations with budget {budget}; "
            "use subset_sigma_lower_bound_sampled for a non-certified estimate"
        )
    best = math.inf
    for subset in iter_column_subsets(D, k):
        sub = A[:, subset].transpose(1, 0, 2)  # (chunk, d, k)
        sv = np.linalg.svd(sub, compute_uv=False)
        best = min(best, float(sv[:, d - 1].min()))
    return SubsetBound(value=best, r=r, subset_size=k, subsets=count, certified=True)


def _audit_subset_bound(
    A: np.ndarray, r: int, n: int, *, budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetBound:
    """The audit's subset bound: certified only when D >= r*d*((n-1)**2 + 1) holds for n."""
    bound = subset_sigma_lower_bound(A, r, budget=budget)
    d, D = A.shape
    return replace(bound, certified=bound.certified and D >= r * d * ((n - 1) ** 2 + 1))


def subset_sigma_lower_bound_sampled(
    A, r: int, samples: int, seed: int
) -> SubsetBound:
    """Sampled stand-in for the exhaustive subset bound.

    NOT certified: the minimum over a random sample only upper-bounds the
    true minimum.
    """
    A, r, d, D, k = _subset_shape(A, r)
    samples = _check_count("samples", samples)
    rng = make_rng(seed)
    best = math.inf
    for _ in range(samples):
        subset = rng.choice(D, size=k, replace=False)
        sv = np.linalg.svd(A[:, np.sort(subset)], compute_uv=False)
        best = min(best, float(sv[d - 1]))
    return SubsetBound(value=best, r=r, subset_size=k, subsets=samples, certified=False)


def _least_mth_projection(A: np.ndarray, m: int, E: np.ndarray) -> float:
    """The least, over the rows e of E, of the m-th smallest |a_k . e| over A's columns.

    Each a_k . e is fl(...fl(fl(e_1 a_1k) + fl(e_2 a_2k))...), summed in
    coordinate order, so a value depends on e and a_k alone.  E is taken in
    chunks of rows so that no array holds more than _PU_FLOATS floats.
    """
    step = max(1, _PU_FLOATS // A.shape[1])
    least = math.inf
    for chunk in (E[lo : lo + step] for lo in range(0, len(E), step)):
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
    rows = max(1, _PU_FLOATS // (4 * D))  # columns j per batch of pairs
    for lo in range(0, D, rows):
        normals, near = _near_crossings(A, lo, min(lo + rows, D), limit)
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


def sqrtn_ceiling(A, n: int, *, independent: bool = False) -> float:
    """Ceiling on the lower Lipschitz constant from the adversarial pair.

    Returns (2 + 1/n)**0.5 * pi / sqrt(n) * sqrt(s1**2 + s2**2) where
    (s1, s2) are the two smallest singular values of A, or the two largest
    with ``independent=True`` (the variant that holds for the fixed,
    A-independent adversarial pair).
    """
    A = as_matrix(A, "A")
    d = A.shape[0]
    if d < 2:
        raise ValueError(f"ceiling needs d >= 2, got d = {d}")
    n = _check_count("n", n)
    sv = np.zeros(d)
    got = singular_values(A)
    sv[: got.size] = got  # pad with zeros when D < d
    pair = (sv[0], sv[1]) if independent else (sv[d - 2], sv[d - 1])
    return float(
        math.sqrt(2.0 + 1.0 / n) * math.pi / math.sqrt(n) * math.hypot(*pair)
    )


def sample_pair_pool(
    n: int,
    d: int,
    count: int,
    seed: int,
    *,
    include_adversarial: bool = True,
) -> np.ndarray:
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
    points are copied whole (``_take_points``).
    """
    n, d, count = _check_count("n", n), _check_count("d", d), _check_count("count", count)
    rng = make_rng(seed)
    pool = np.empty((count, 2, n, d))
    drawn = pool
    if include_adversarial and d >= 2:
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
    Y[near] += _take_points(drawn, perms[near] + 2 * n * near[:, None])
    return pool


# Unit roundoff of float64 round-to-nearest.
_UNIT_ROUNDOFF = 2.0**-53

# Below this, a float64 square and twice it stay finite.
_NO_OVERFLOW = math.sqrt(np.finfo(np.float64).max / 2.0)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): bounds the relative error of a length-k dot product."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def empirical_distortion(
    A,
    n: int,
    trials: int,
    seed: int,
    *,
    subset_r: int | None = None,
    pu_m: int | None = None,
) -> AuditReport:
    """Min/max embedding-to-distance ratios over a seeded pair pool.

    Pairs closer than 1e-8 in orbit distance are skipped.  Optional
    arguments attach the subset bound and/or the projective uniformity of
    projective_uniformity to the report.  The subset bound is labelled
    certified only when D >= r*d*((n-1)**2 + 1) holds for this n.  The
    blueprint floor is attached for d = 2, where delta is the exact
    sweep's proven floor (O(D**2) elementwise work, plus the kernel at the
    crossings that can hold the minimum), and only when
    n**2 * (m - 1) <= D; for d > 2 delta is sampled, overestimates the
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
    ceilings come from A itself.

    A pair's distance is sqrt(B), B the least total over all n! matchings
    of the _squared_costs listed in row order, each added in row order;
    the pair is skipped below 1e-8, else its ratio is fl(||fl(EX - EY)|| /
    dist), the norm that of np.linalg.norm.  Each block of the pool is
    embedded with one _sort_project call, its gap norms come from one BLAS
    dot per pair (_dot_norms), and its distances from one batched subset DP
    (_assignment_totals), which gives B bit for bit.  For n <= 7 that is
    _enumerated_distance's total, as numpy sums up to seven costs in row
    order.  At n = 8 numpy sums a matching's eight costs as a balanced
    tree, so a distance, and C1, C2 or the distortion with it, may differ
    from the enumeration's or an assignment solver's by an ulp or two; both
    sums err by at most gamma_7 = 7u / (1 - 7u) of the exact total.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if d < 2:
        raise ValueError(f"empirical distortion needs d >= 2, got d = {d}")
    n, trials = _check_count("n", n, 2, 8), _check_count("trials", trials)

    scaled, k = _unit_scaled(A)
    pool = sample_pair_pool(n, d, trials, seed)
    dist = np.empty(trials)
    norm = np.empty(trials)
    for block in _blocks(trials, max(2 * n * max(d, D), _assignment_width(n))):
        pairs = pool[block]
        E = _sort_project(scaled, pairs.reshape(-1, n, d))
        norm[block] = _dot_norms((E[0::2] - E[1::2]).reshape(len(pairs), -1))
        del E
        dist[block] = np.sqrt(_assignment_totals(pairs))
    kept = dist >= _MIN_PAIR_DISTANCE
    if not kept.any():
        raise ValueError("degenerate pool: every sampled pair sits on one orbit")
    ratio = norm[kept] / dist[kept]

    sigma1 = upper_lipschitz(A)
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
        ceiling_sqrt_n=sqrtn_ceiling(A, n),
        ceiling_sqrt_n_independent=sqrtn_ceiling(A, n, independent=True),
        pair_count=ratio.size,
        trials=trials,
        n=n,
        seed=int(seed),
    )
    if subset_r is not None:
        report.subset_bound = _audit_subset_bound(A, subset_r, n)
    if pu_m is not None:
        report.pu = projective_uniformity(A, pu_m, seed=seed)
        # a sampled delta overestimates the constant, so it gives no floor
        if d == 2 and n * n * (pu_m - 1) <= D:
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
    draws these same bits while its pair pool runs (``_SketchDraw``): a
    one-worker executor fills one row slice of ``_DRAW_FLOATS`` floats per
    task, continuing the one stream, and the check divides each slice as
    it takes it over, so its report is unchanged.
    """
    n, D, M = _check_sketch_size(n, D, M)
    return _gaussian_sketch(make_rng(seed), M, n * D)


def _check_sketch_size(n: int, D: int, M: int) -> tuple[int, int, int]:
    return _check_count("n", n), _check_count("D", D), _check_count("M", M)


# Floats in one slice of a sketch's rows, ``_blocks(M, columns, _DRAW_FLOATS)``:
# the audit's draw fills one slice per task, and the sketch check takes each
# slice over and adds it into the Gram matrix with one syrk as soon as it is
# filled.
_DRAW_FLOATS = 1 << 18


def _gaussian_fill(rng: np.random.Generator, rows: np.ndarray) -> None:
    """Fill rows of a sketch with i.i.d. N(0, 1) entries from rng: the drawing thread's one task.

    Slices filled in order continue one stream, so a sketch filled slice by
    slice and divided by sqrt(M) entry by entry gets the bits of
    _gaussian_sketch's single standard_normal call.
    """
    rng.standard_normal(out=rows)


class _SketchDraw:
    """An M x N sketch whose row slices become final from the top down.

    ``gram()`` returns the Gram matrix L^T L and a proven upper bound on
    ||L||_F, ``full()`` all of L.  Both walk the row slices of
    ``_DRAW_FLOATS`` floats in order, and the first walk to reach a slice
    takes it over, exactly once, on the caller's thread.

    A finished array (``of``) has every slice final.  ``start`` instead
    submits one ``_gaussian_fill`` task per slice to an executor with a
    single worker thread, which runs them in order, so the slices continue
    one stream.  A task only fills: numpy's fill runs without the GIL, so
    the worker takes the GIL back once a slice, not once per numpy call,
    and it runs none of permorb's public functions.  Taking a drawn slice
    over waits on its future, which re-raises the task's error, divides the
    slice by sqrt(M) and checks it finite, so L gets the bits of
    gaussian_sketch(n, D, M, seed).  A slice that fails stays pending, and
    raises again on a later call.  So ``gram`` adds the top slices into
    L^T L while the rest are drawn.  ``close`` cancels the tasks not yet
    begun and joins the worker, and must be called on every path.
    """

    def __init__(self, L: np.ndarray):
        self.shape = L.shape
        self._L = L
        self._executor = None
        # (rows, future of their fill) of each drawn slice not yet taken over
        self._drawing = deque()

    @classmethod
    def of(cls, L: np.ndarray) -> "_SketchDraw":
        """A finished sketch: every row of the validated array L is final."""
        return cls(L)

    @classmethod
    def start(cls, n: int, D: int, M: int, seed: int) -> "_SketchDraw":
        """Start drawing gaussian_sketch(n, D, M, seed) on a worker thread."""
        # imported here, so that only --check-ose loads the executor's modules
        from concurrent.futures import ThreadPoolExecutor

        n, D, M = _check_sketch_size(n, D, M)
        # allocated by the caller's thread: memory a thread allocates comes
        # from a malloc arena of its own, which the rest of the program does
        # not reuse (allocated on the thread, audit-cli's peak RSS grew 22 MB)
        sketch = cls(np.empty((M, n * D)))
        sketch._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="permorb-sketch")
        rng = make_rng(seed)
        sketch._drawing = deque(
            (rows, sketch._executor.submit(_gaussian_fill, rng, sketch._L[rows]))
            for rows in _blocks(M, n * D, _DRAW_FLOATS)
        )
        return sketch

    def _slices(self):
        """Each slice of L's rows, in order, once it is final."""
        M = self.shape[0]
        for rows in _blocks(*self.shape, _DRAW_FLOATS):
            S = self._L[rows]
            if self._drawing and self._drawing[0][0] == rows:
                self._drawing[0][1].result()
                S /= math.sqrt(M)
                if not np.isfinite(S).all():
                    raise ValueError("L contains non-finite entries")
                self._drawing.popleft()
            yield S

    def full(self) -> np.ndarray:
        """All of L, once every row is final."""
        for _ in self._slices():
            pass
        return self._L

    def gram(self) -> tuple[np.ndarray, float]:
        """The N x N Gram matrix G = fl(L^T L) and an upper bound on ||L||_F.

        G is summed over the slices of L's rows with one syrk each (numpy
        computes S.T @ S with one), each slice as soon as it is final.  An
        overflow is left in G as an infinity or a NaN.

        The bound comes from t = fl(trace(G) + M N 2**-1073).  Write u for
        the unit roundoff and gamma_k = k u / (1 - k u).  Each diagonal
        entry of G is a sum of the M squares of one column of L, and the
        trace adds the N of them, so t adds the M N squares and the
        allowance in some order: each square meets at most j = M + N + 1
        roundings (its product, at most M - 1 additions in its column and
        one into G, N - 1 in the trace, one for the allowance), so
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
        M, N = self.shape
        G = np.zeros((N, N))
        with np.errstate(over="ignore", invalid="ignore"):
            for S in self._slices():
                G += S.T @ S
            t = float(np.trace(G))
        return G, math.sqrt(t + math.ldexp(M * N, -1073)) * (1.0 + _gamma(2 * (M + N) + 5))

    def close(self) -> None:
        """Cancel the slices not yet begun, if any, and wait for the worker to end."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)


def _sketch_screen(
    V: np.ndarray, denom: np.ndarray, G: np.ndarray | None, fro: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Screened ratios rho_s of the gap rows of V, and a margin tau on each.

    Each row x of V is a gap vector of length N, ``denom`` holds fl(||x||)
    (the caller skips pairs with denom below 1e-10), and G = fl(L^T L) and
    fro >= ||L||_F come from ``_SketchDraw.gram`` of the M x N sketch L.
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

    Each block's gap vectors x are the rows of one array, and their norms
    ||x|| come from one BLAS dot each (_dot_norms), the bits of
    np.linalg.norm.  The ratios are screened, then confirmed, and the
    sketch's shape picks the screen.  A tall sketch, M >= N = nD, gets its
    Gram matrix L^T L formed once per check (``_SketchDraw.gram``,
    M N^2 / 2 multiply-adds), and the screen (_sketch_screen) takes every
    ||L x||^2 of a block as the quadratic form x^T (L^T L) x, N^2
    multiply-adds a pair, with a proven margin on its distance from the
    per-pair reference ||L @ x|| / ||x||.  A pair whose margin reaches
    1 +- eps, or whose error could be its block's largest, is confirmed
    with the reference matvec on its row; the margin settles every other
    pair.  A wide sketch, M < N, has a Gram matrix larger than itself, so
    it is not screened: every margin is infinite and every pair is
    confirmed, at M N multiply-adds a pair.  Either way the report is the
    one a per-pair matvec loop gives, bit for bit.

    ``permorb audit --check-ose`` passes a sketch still being drawn
    (``_SketchDraw``), started before its pair pool: an executor's worker
    thread fills each slice of rows, and the check divides it by sqrt(M),
    checks it finite and adds it into L^T L as soon as it is filled.  Its
    bits are gaussian_sketch's, so the report is unchanged.
    """
    A = as_matrix(A, "A")
    sketch = L if isinstance(L, _SketchDraw) else _SketchDraw.of(as_matrix(L, "L"))
    d, D = A.shape
    M, N = sketch.shape
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
        clouds = np.empty((2, block.stop - block.start, n, d))
        scales = []
        for X, Y in zip(*clouds):
            # the draws of 10.0 ** rng.uniform(-2.0, 2.0) and scale * normals,
            # as in sample_pair_pool
            scales.append(10.0 ** (-2.0 + 4.0 * rng.random()))
            rng.standard_normal(out=X)
            rng.standard_normal(out=Y)
        clouds *= np.array(scales)[:, None, None]
        E = _sort_project(scaled, clouds)
        # the column-major gap vectors, one row each
        V = (E[0] - E[1]).transpose(0, 2, 1).reshape(len(scales), -1)
        del E
        denom = _dot_norms(V)
        far = ~(denom < 1e-10)  # a NaN norm is kept, as the pair loop kept it
        skipped += len(V) - int(np.count_nonzero(far))
        if not far.any():
            continue
        V, denom = V[far], denom[far]
        if screen is None:
            # a wide sketch's Gram matrix would be larger than the sketch:
            # none, and an infinite bound, so the matvec confirms every pair
            screen = sketch.gram() if M >= N else (None, math.inf)
        rho, tau = _sketch_screen(V, denom, *screen, M)
        L = sketch.full()  # drawn once screened
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
