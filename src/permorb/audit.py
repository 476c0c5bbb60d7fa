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
  least delta for every unit direction e).  The floor holds for a proven
  delta, but neither estimate of delta proves one yet: for d = 2 the
  sweep takes the minimum over a dense angle grid augmented with all
  column-orthogonal angles, and a grid minimum can only overestimate the
  constant, so it is an upper estimate of delta (ROADMAP.md item 2
  replaces it with an exact vertex enumeration); sphere sampling for
  d > 2 overestimates it too.
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
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceededError,
    DEFAULT_SUBSET_BUDGET,
    __version__ as _version,
    as_matrix,
    iter_column_subsets,
    make_rng,
    singular_values,
)
from .constructions import adversarial_circle_pair
from .embeddings import _blocks, _sort_project
from .metrics import _assignment_distance

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

# Angle-grid density of the exact d=2 sweep (points per column over [0, pi)).
_SWEEP_GRID_PER_COLUMN = 256

# Default sphere-sample count per feature dimension for the sampled
# projective-uniformity estimate (an optimistic upper estimate; certified
# bounds use only the exact d=2 sweep).
_PU_SPHERE_SAMPLES_PER_DIM = 10_000

# Pairs below this orbit distance are excluded from empirical ratios.
_MIN_PAIR_DISTANCE = 1e-8

# The sketch-dimension formula hides an absolute constant; 4 is the
# default calibration knob, checked empirically by ose_check.
DEFAULT_OSE_CONSTANT = 4.0


@dataclass(frozen=True)
class PUEstimate:
    """(m, delta) projective-uniformity estimate for a direction matrix."""

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


def subset_sigma_lower_bound(
    A, r: int, *, budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetBound:
    """Exact minimum of the d-th singular value over all size-(r*d) subsets.

    Certified: when D >= r*d*((n-1)**2 + 1) holds for the n of interest,
    this value lower-bounds the lower Lipschitz constant of the sorted
    embedding.  Raises BudgetExceededError (recommending the sampled
    variant) when C(D, r*d) exceeds ``budget``.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    k = r * d
    if D < k:
        raise ValueError(f"need D >= r*d = {k}, got D = {D}")
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


def subset_sigma_lower_bound_sampled(
    A, r: int, samples: int, seed: int
) -> SubsetBound:
    """Sampled stand-in for the exhaustive subset bound.

    NOT certified: the minimum over a random sample only upper-bounds the
    true minimum.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    k = r * d
    if D < k:
        raise ValueError(f"need D >= r*d = {k}, got D = {D}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = make_rng(seed)
    best = math.inf
    for _ in range(samples):
        subset = rng.choice(D, size=k, replace=False)
        sv = np.linalg.svd(A[:, np.sort(subset)], compute_uv=False)
        best = min(best, float(sv[d - 1]))
    return SubsetBound(value=best, r=r, subset_size=k, subsets=samples, certified=False)


def _pu_exact_sweep(A: np.ndarray, m: int) -> PUEstimate:
    d, D = A.shape
    if d != 2:
        raise ValueError(f"exact sweep is only available for d = 2, got d = {d}")
    base = np.arange(_SWEEP_GRID_PER_COLUMN * D) * (np.pi / (_SWEEP_GRID_PER_COLUMN * D))
    column_angles = np.arctan2(A[1], A[0])
    orthogonal = np.concatenate(
        [(column_angles + np.pi / 2) % np.pi, (column_angles - np.pi / 2) % np.pi]
    )
    thetas = np.concatenate([base, orthogonal])
    best = math.inf
    for start in range(0, thetas.size, 8192):
        chunk = thetas[start : start + 8192]
        E = np.vstack([np.cos(chunk), np.sin(chunk)])
        vals = np.abs(A.T @ E)  # (D, chunk)
        mth = np.partition(vals, m - 1, axis=0)[m - 1]
        best = min(best, float(mth.min()))
    return PUEstimate(m=m, delta=best, method=EXACT_SWEEP, direction_count=thetas.size)


def _pu_sphere_sampling(A: np.ndarray, m: int, samples: int, seed: int) -> PUEstimate:
    d, D = A.shape
    rng = make_rng(seed)
    best = math.inf
    remaining = samples
    while remaining > 0:
        batch = min(remaining, 16384)
        E = rng.standard_normal((batch, d))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        vals = np.abs(E @ A)  # (batch, D)
        mth = np.partition(vals, m - 1, axis=1)[:, m - 1]
        best = min(best, float(mth.min()))
        remaining -= batch
    return PUEstimate(m=m, delta=best, method=SPHERE_SAMPLING, direction_count=samples)


def projective_uniformity(
    A,
    m: int,
    method: str = "auto",
    *,
    sphere_samples: int | None = None,
    seed: int = 0,
) -> PUEstimate:
    """Estimate the (m, delta) projective-uniformity constant of A.

    ``exact-2d-sweep`` (d = 2 only) evaluates the m-th smallest |a_k . e|
    on a uniform grid of 256*D angles over [0, pi) augmented with every
    column-orthogonal angle and returns the grid minimum.  Despite its
    name this is an upper estimate of delta, not a certified value: the
    true minimum can fall between grid angles (ROADMAP.md item 2).
    ``sphere-sampling`` minimizes over seeded uniform sphere directions
    and is an optimistic upper estimate as well.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if not 1 <= m <= D:
        raise ValueError(f"m must lie in 1..{D}, got {m}")
    if method == "auto":
        method = EXACT_SWEEP if d == 2 else SPHERE_SAMPLING
    if method == EXACT_SWEEP:
        return _pu_exact_sweep(A, m)
    if method == SPHERE_SAMPLING:
        if sphere_samples is None:
            sphere_samples = _PU_SPHERE_SAMPLES_PER_DIM * d
        return _pu_sphere_sampling(A, m, sphere_samples, seed)
    raise ValueError(f"unknown method {method!r}")


def blueprint_lower_bound(delta: float, m: int, D: int, n: int) -> float:
    """Lower Lipschitz floor delta * sqrt(D - n**2 * (m - 1)).

    Valid for any matrix with an (m, delta) projective-uniformity
    certificate; inapplicable (raises) when n**2 * (m - 1) > D.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if m < 1 or D < 1 or n < 1:
        raise ValueError("m, D and n must be positive")
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
):
    """Deterministic pool of cloud pairs for empirical Lipschitz estimates.

    Mixes independent Gaussian clouds and near-orbit pairs (a permuted
    copy plus relative noise) across scales 1e-2..1e2, and prepends the
    adversarial circle pair when d >= 2.  Scale mixing is deliberate:
    distortion is scale invariant but floating point is not.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    pairs = []
    if include_adversarial and d >= 2:
        pair = adversarial_circle_pair(n, d)
        pairs.append((pair.X, pair.Y))
    while len(pairs) < count:
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        X = scale * rng.standard_normal((n, d))
        if rng.uniform() < 0.6:
            Y = scale * rng.standard_normal((n, d))
        else:
            noise = 10.0 ** rng.uniform(-5.0, -1.0)
            Y = X[rng.permutation(n)] + noise * scale * rng.standard_normal((n, d))
        pairs.append((X, Y))
    return pairs


def empirical_distortion(
    A,
    n: int,
    trials: int,
    seed: int,
    *,
    subset_r: int | None = None,
    pu_m: int | None = None,
    pu_method: str = "auto",
) -> AuditReport:
    """Min/max embedding-to-distance ratios over a seeded pair pool.

    Pairs closer than 1e-8 in orbit distance are skipped.  Optional
    arguments attach the certified subset bound and/or a projective
    uniformity estimate to the report; the blueprint floor is attached
    only for the d = 2 sweep (a sampled delta overestimates the constant)
    and when n**2 * (m - 1) <= D; the sweep's grid delta is an upper
    estimate too, so that floor is an estimate until the sweep is exact.
    Limited to n <= 8 so the assignment solves stay in the regime the
    brute-force oracle can cross-check.  The pool is drawn pair by pair and embedded in blocks.
    """
    A = as_matrix(A, "A")
    d, D = A.shape
    if d < 2:
        raise ValueError(f"empirical distortion needs d >= 2, got d = {d}")
    if n < 2 or n > 8:
        raise ValueError(f"n must lie in 2..8, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    pairs = sample_pair_pool(n, d, trials, seed)
    ratios = []
    for block in _blocks(len(pairs), 2 * n * max(d, D)):
        chunk = pairs[block]
        E = _sort_project(A, np.stack([cloud for pair in chunk for cloud in pair]))
        for (X, Y), EX, EY in zip(chunk, E[0::2], E[1::2]):
            dist = _assignment_distance(X, Y)[0]
            if dist < _MIN_PAIR_DISTANCE:
                continue
            # one norm per pair: a batched norm rounds differently
            ratios.append(float(np.linalg.norm(EX - EY)) / dist)
    if not ratios:
        raise ValueError("degenerate pool: every sampled pair sits on one orbit")

    sigma1 = upper_lipschitz(A)
    c1, c2 = float(min(ratios)), float(max(ratios))
    if not c1 <= c2 <= sigma1 * (1.0 + 1e-9):
        raise RuntimeError(
            f"ratio bookkeeping violated C1 <= C2 <= sigma1: {c1}, {c2}, {sigma1}"
        )

    report = AuditReport(
        sigma1=sigma1,
        empirical_C1=c1,
        empirical_C2=c2,
        distortion=c2 / c1,
        ceiling_sqrt_n=sqrtn_ceiling(A, n),
        ceiling_sqrt_n_independent=sqrtn_ceiling(A, n, independent=True),
        pair_count=len(ratios),
        trials=trials,
        n=n,
        seed=int(seed),
    )
    if subset_r is not None:
        report.subset_bound = subset_sigma_lower_bound(A, subset_r)
    if pu_m is not None:
        estimate = projective_uniformity(A, pu_m, pu_method, seed=seed)
        report.pu = estimate
        # a sampled delta overestimates the constant, so it gives no floor
        if estimate.method == EXACT_SWEEP and n * n * (pu_m - 1) <= D:
            report.blueprint_bound = blueprint_lower_bound(estimate.delta, pu_m, D, n)
    return report


def ose_dimension(
    n: int, d: int, D: int, epsilon: float, eta: float, c: float = DEFAULT_OSE_CONSTANT
) -> int:
    """Sketch rows sufficient for a (1 +- epsilon) subspace embedding.

    ceil(c * eps**-2 * (2nd ln(1/eps) + ln(1/eta) + 2nd ln(D n^2))); the
    absolute constant c is a calibration knob.
    """
    if n < 1 or d < 1 or D < 1:
        raise ValueError("n, d and D must be positive")
    if not 0.0 < epsilon < 1.0 or not 0.0 < eta < 1.0:
        raise ValueError("epsilon and eta must lie in (0, 1)")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    k = 2 * n * d
    value = c * epsilon**-2 * (k * math.log(1.0 / epsilon) + math.log(1.0 / eta) + k * math.log(D * n * n))
    return math.ceil(value)


def gaussian_sketch(n: int, D: int, M: int, seed: int) -> np.ndarray:
    """M x (n*D) sketch with i.i.d. N(0, 1/M) entries (std 1/sqrt(M)).

    The scaling makes E||L x||^2 = ||x||^2 for every fixed x.
    """
    if n < 1 or D < 1 or M < 1:
        raise ValueError("n, D and M must be positive")
    rng = make_rng(seed)
    return rng.standard_normal((M, n * D)) / math.sqrt(M)


# Unit roundoff of float64 round-to-nearest.
_UNIT_ROUNDOFF = 2.0**-53

# Below this, a float64 square and twice it stay finite.
_NO_OVERFLOW = math.sqrt(np.finfo(np.float64).max / 2.0)

# Floats in one slice of the OSE screen's product V L^T.  The sketch is
# read once whatever the slice, so slices stay small: two are alive at once.
_SCREEN_FLOATS = 1 << 18


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): bounds the relative error of a length-k dot product."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _sketch_screen(
    V: np.ndarray, denom: np.ndarray, L: np.ndarray, fro: float
) -> tuple[np.ndarray, np.ndarray]:
    """Screened ratios rho_s of the gap rows of V, and a margin tau on each.

    Each row x of V is a gap vector of length N, ``denom`` holds fl(||x||)
    and ``fro`` >= ||L||_F for the M x N sketch L.  W = V L^T is formed one
    slice of L's rows at a time, so L is read once for all of V and W is
    never held whole; rho_s = fl(fl(||w||) / denom) for each row w of W.
    tau bounds |rho_s - rho_ref| for the per-pair reference rho_ref =
    fl(fl(||fl(L x)||) / denom).  The gemm and the reference matvec form
    the same length-N dot products, only in another order, so by the
    gamma_k bounds on dot products in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1):

    * both products satisfy |fl(L x) - L x| <= gamma_N |L| |x|, and
      || |L| |x| || <= ||L||_F ||x||, so the two product vectors differ in
      norm by at most e_gap = 2 gamma_N ||L||_F ||x||;
    * both norms, the sqrt of a sum of M squares in some order, err by at
      most gamma_{M+1} times the norm, and each norm is at most about
      s + e_gap for the screened norm s = fl(||w||), which adds
      gamma_{M+1} (2 s + e_gap);
    * the other roundings: the two divisions by denom, and the caller's
      rho - 1, rho - (1 +- eps) and err +- tau.  Each is at most u times a
      value below about rho + 1, and fewer than eight of them meet in one
      comparison, so 16 u (rho_s + 1) covers them.

    The first two terms are divided by denom and doubled; the doubling
    absorbs ||x|| against denom and the roundings made while evaluating
    the bound itself.  The bounds assume no overflow.  No entry of w
    exceeds ||L||_F ||x|| and no sum of squares exceeds its square, so
    nothing overflows while that product stays below _NO_OVERFLOW; where
    it does not, every margin is infinite and the caller confirms every
    pair.
    """
    M, N = L.shape
    if fro * float(np.max(denom)) > _NO_OVERFLOW:
        return np.zeros(len(V)), np.full(len(V), np.inf)
    q = np.zeros(len(V))
    step = max(1, _SCREEN_FLOATS // len(V))
    for lo in range(0, M, step):
        W = V @ L[lo : lo + step].T
        q += np.einsum("ij,ij->i", W, W)
    s = np.sqrt(q)
    rho = s / denom
    e_gap = 2.0 * _gamma(N) * fro * denom
    tau = 2.0 * (e_gap + _gamma(M + 1) * (2.0 * s + e_gap)) / denom
    tau += 16.0 * _UNIT_ROUNDOFF * (rho + 1.0)
    return rho, tau


def ose_check(
    A, L, n: int, epsilon: float, trials: int, seed: int
) -> OseReport:
    """Empirical norm-preservation ratios of a sketch on embedding gaps.

    For seeded pairs (X, Y) computes rho = ||L (vec bA(X) - vec bA(Y))|| /
    ||bA(X) - bA(Y)||_F, skipping denominators below 1e-10, and counts
    ratios outside [1 - eps, 1 + eps].

    The ratios are screened, then confirmed.  The screen multiplies each
    block's stacked gap vectors by L^T in a few gemms, so the M x nD
    sketch is read once per block of pairs rather than once per pair.
    Each screened ratio comes with a proven margin on its distance from
    the per-pair reference ||L @ x|| / ||x||.  A pair whose margin reaches
    1 +- eps, or whose error could be its block's largest, is confirmed
    with the reference matvec on its own gap vector; the margin settles
    every other pair.  So the report is the one a per-pair matvec loop
    gives, bit for bit.
    """
    A = as_matrix(A, "A")
    L = as_matrix(L, "L")
    d, D = A.shape
    if L.shape[1] != n * D:
        raise ValueError(f"sketch must have {n * D} columns, got {L.shape[1]}")
    if not 0.0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    # >= ||L||_F: the norm is the sqrt of one dot product of length M nD
    with np.errstate(over="ignore"):  # an infinite norm confirms every pair
        fro = float(np.linalg.norm(L)) * (1.0 + _gamma(L.size + 1))
    rng = make_rng(seed)
    violations = 0
    max_err = 0.0
    used = 0
    skipped = 0
    for block in _blocks(trials, 2 * n * max(d, D)):
        clouds = np.empty((2, block.stop - block.start, n, d))
        for X, Y in zip(*clouds):
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            X[:] = scale * rng.standard_normal((n, d))
            Y[:] = scale * rng.standard_normal((n, d))
        diffs = []
        denoms = []
        for ex, ey in zip(*_sort_project(A, clouds)):
            # the norm per pair, on a fresh array: a batched norm rounds differently
            diff = (ex - ey).ravel(order="F")
            denom = float(np.linalg.norm(diff))
            if denom < 1e-10:
                skipped += 1
                continue
            diffs.append(diff)
            denoms.append(denom)
        if not diffs:
            continue
        rho, tau = _sketch_screen(np.stack(diffs), np.array(denoms), L, fro)
        err = np.abs(rho - 1.0)
        near = (np.abs(rho - lo) <= tau) | (np.abs(rho - hi) <= tau)
        could_be_max = err + tau >= np.max(err - tau)
        violations += int(np.count_nonzero(((rho < lo) | (rho > hi)) & ~near))
        for i in np.flatnonzero(near | could_be_max):
            ref = float(np.linalg.norm(L @ diffs[i])) / denoms[i]
            max_err = max(max_err, abs(ref - 1.0))
            if near[i] and (ref < lo or ref > hi):
                violations += 1
        used += len(diffs)
    return OseReport(
        violations=violations,
        max_ratio_error=max_err,
        pairs_used=used,
        pairs_skipped=skipped,
        epsilon=epsilon,
        sketch_rows=L.shape[0],
        seed=int(seed),
    )


def region_count_bound(n: int, d: int, D: int) -> int:
    """Exact big integer (D * n**2) ** (2 * n * d).

    Upper-bounds the number of open regions cut out of cloud-pair space by
    the D * (n^2 - n) sorting-tie hyperplanes; on each region the
    embedding gap is one fixed linear map, which is what lets a single
    random sketch serve all pairs at once.
    """
    if n < 1 or d < 1 or D < 1:
        raise ValueError("n, d and D must be positive")
    return (D * n * n) ** (2 * n * d)
