import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb import (
    adversarial_circle_pair,
    blueprint_lower_bound,
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    make_rng,
    orbit_distance,
    ose_check,
    ose_dimension,
    projective_uniformity,
    region_count_bound,
    sorted_embedding,
    sqrtn_ceiling,
    subset_sigma_lower_bound,
    subset_sigma_lower_bound_sampled,
    upper_lipschitz,
)
from permorb import audit
from permorb.audit import EXACT_SWEEP, SPHERE_SAMPLING, _least_mth_projection, _pu_sphere_sampling
from permorb.core import BudgetExceededError


# ---------------------------------------------------------------------------
# upper Lipschitz constant
# ---------------------------------------------------------------------------


def test_upper_lipschitz_circle():
    assert abs(upper_lipschitz(circle_directions(36)) - math.sqrt(18.0)) < 1e-9


def test_upper_lipschitz_identity():
    assert abs(upper_lipschitz(np.eye(4)) - 1.0) < 1e-12


def test_upper_lipschitz_bounds_sampled_ratios():
    rng = make_rng(0)
    A = rng.standard_normal((2, 6))
    sigma1 = upper_lipschitz(A)
    worst = 0.0
    for _ in range(1000):
        X = rng.standard_normal((4, 2))
        Y = rng.standard_normal((4, 2))
        dist = orbit_distance(X, Y).distance
        if dist < 1e-8:
            continue
        gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
        worst = max(worst, gap / dist)
    assert worst <= sigma1 * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# subset singular-value bound
# ---------------------------------------------------------------------------


def _sv2x2(M):
    # closed-form singular values of a 2x2 matrix from trace/determinant
    t = float(np.sum(M * M))
    det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    disc = math.sqrt(max(t * t - 4.0 * det * det, 0.0))
    return math.sqrt(max((t + disc) / 2.0, 0.0)), math.sqrt(max((t - disc) / 2.0, 0.0))


def test_subset_bound_single_subset_identity():
    bound = subset_sigma_lower_bound(np.eye(3), 1)
    assert abs(bound.value - 1.0) < 1e-12
    assert bound.subsets == 1 and bound.certified


def test_subset_bound_one_dimensional():
    bound = subset_sigma_lower_bound(np.array([[3.0, 4.0]]), 1)
    assert abs(bound.value - 3.0) < 1e-12


def test_subset_bound_matches_closed_form_2x2():
    A = gaussian_directions(2, 10, 31)
    bound = subset_sigma_lower_bound(A, 1)
    expected = min(_sv2x2(A[:, list(pair)])[1] for pair in combinations(range(10), 2))
    assert abs(bound.value - expected) < 1e-12
    assert bound.subsets == 45


def test_subset_bound_budget_error_mentions_sampled_mode():
    A = gaussian_directions(3, 40, 1)
    with pytest.raises(BudgetExceededError, match="sampled"):
        subset_sigma_lower_bound(A, 2, budget=100)


@pytest.mark.parametrize("budget", [0, -1])
def test_subset_bound_rejects_a_budget_below_one(budget):
    A = gaussian_directions(2, 6, 1)
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        subset_sigma_lower_bound(A, 1, budget=budget)


def test_sampled_subset_bound_overestimates_exact():
    A = gaussian_directions(2, 12, 8)
    exact = subset_sigma_lower_bound(A, 1).value
    sampled = subset_sigma_lower_bound_sampled(A, 1, samples=20, seed=4)
    assert not sampled.certified
    assert sampled.value >= exact - 1e-12


@pytest.mark.parametrize("r", [0, -1])
def test_sampled_subset_bound_rejects_nonpositive_r(r):
    with pytest.raises(ValueError, match=f"r must be >= 1, got {r}"):
        subset_sigma_lower_bound_sampled(gaussian_directions(2, 6, 3), r, samples=5, seed=0)


# ---------------------------------------------------------------------------
# projective uniformity
# ---------------------------------------------------------------------------


def test_pu_circle_third_smallest_above_guarantee():
    D = 36
    est = projective_uniformity(circle_directions(D), 3)
    assert est.method == EXACT_SWEEP
    # guaranteed floor 2/D; the true constant for the circle is sin(pi/D)
    assert est.delta >= 2.0 / D
    assert abs(est.delta - math.sin(math.pi / D)) < 1e-6


def test_pu_identity_max_direction():
    est = projective_uniformity(np.eye(2), 2)
    assert abs(est.delta - math.sqrt(0.5)) < 1e-12


def test_pu_single_column_vanishes():
    est = projective_uniformity(np.array([[1.0], [0.0]]), 1)
    assert est.delta < 1e-12


def test_pu_sphere_sampling_upper_estimates_sweep():
    A = circle_directions(20)
    exact = projective_uniformity(A, 3)
    sampled = _pu_sphere_sampling(A, 3, 2000, 2)
    assert exact.method == EXACT_SWEEP and sampled.method == SPHERE_SAMPLING
    assert sampled.delta >= exact.delta - 1e-12


@pytest.mark.parametrize("d, samples", [(1, 20_000), (3, 30_000), (5, 7)])
def test_pu_sphere_sampling_gives_the_bits_of_one_draw(d, samples):
    # the directions are drawn in _PU_FLOATS slices: fills that follow one
    # another continue one stream, so delta is that of a single draw
    A = gaussian_directions(d, 9, 5)
    E = make_rng(3).standard_normal((samples, d))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    assert _pu_sphere_sampling(A, 2, samples, 3).delta == _least_mth_projection(A, 2, E)


def test_pu_invalid_m():
    with pytest.raises(ValueError):
        projective_uniformity(np.eye(2), 3)


_U = 2.0**-53


def _a_max(A):
    return float(np.hypot(A[0], A[1]).max())


def _exact_candidate_minimum(A, m):
    """The squared m-th smallest |a_k . e|, least over the sweep's directions, in exact rationals.

    The directions are orthogonal to a column or to a_j +- a_k, and (1, 0).
    """
    cols = [(Fraction(float(x)), Fraction(float(y))) for x, y in A.T]
    normals = cols + [
        (a[0] + s * b[0], a[1] + s * b[1]) for a, b in combinations(cols, 2) for s in (1, -1)
    ]
    best = sorted(a[0] * a[0] for a in cols)[m - 1]
    for n1, n2 in normals:
        norm2 = n1 * n1 + n2 * n2
        if norm2:
            # e = (-n2, n1) / |n|, so (a . e)^2 = (a2 n1 - a1 n2)^2 / |n|^2
            best = min(best, sorted((a[1] * n1 - a[0] * n2) ** 2 / norm2 for a in cols)[m - 1])
    return best


def test_pu_sweep_is_a_floor_against_an_exact_rational_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(150):
        D = int(rng.integers(2, 8))
        A = rng.standard_normal((2, D)) * 10.0 ** rng.uniform(-3.0, 3.0)
        m = int(rng.integers(1, D + 1))
        delta = projective_uniformity(A, m).delta
        exact = _exact_candidate_minimum(A, m)
        assert Fraction(delta) ** 2 <= exact
        gap = (math.sqrt(exact) - delta) / _a_max(A)
        assert gap <= 32 * _U
        worst = max(worst, gap)
    assert worst > 0.0


def _dense_search(A, m, points):
    best = math.inf
    for lo in range(0, points, 20_000):
        theta = np.arange(lo, min(lo + 20_000, points)) * (math.pi / points)
        vals = np.abs(np.cos(theta)[:, None] * A[0] + np.sin(theta)[:, None] * A[1])
        best = min(best, float(np.partition(vals, m - 1, axis=1)[:, m - 1].min()))
    return best


@pytest.mark.parametrize("seed", range(4))
def test_pu_sweep_sits_just_below_a_dense_search(seed):
    rng = np.random.default_rng(300 + seed)
    D = int(rng.integers(6, 16))
    A = rng.standard_normal((2, D))
    for m in (2, 3):
        delta = projective_uniformity(A, m).delta
        points = 200_001
        dense = _dense_search(A, m, points)
        assert delta <= dense <= delta + _a_max(A) * math.pi / points


@pytest.mark.parametrize(
    "A, m, want",
    [
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 3, math.sqrt(0.5)),  # duplicate columns
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 2, 0.0),
        ([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], 3, math.sqrt(0.5)),  # exact antipodes
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3, math.sqrt(0.5)),  # a zero column
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 2, 0.0),
        ([[3.0], [4.0]], 1, 0.0),  # D = 1
        ([[0.0, 0.0], [0.0, 0.0]], 2, 0.0),
    ],
    ids=["duplicates", "duplicates-m2", "antipodes", "zero-column", "zero-column-m2", "D1", "zero"],
)
def test_pu_sweep_on_degenerate_inputs(A, m, want):
    A = np.array(A)
    est = projective_uniformity(A, m)
    assert est.method == EXACT_SWEEP and est.direction_count >= 1
    assert 0.0 <= want - est.delta <= 32 * _U * max(_a_max(A), 1.0)


def test_pu_sweep_skips_zero_normals():
    # one column: its own normal and the fixed direction; a zero matrix: the
    # fixed direction alone; two equal columns: their difference is skipped
    assert projective_uniformity(np.array([[3.0], [4.0]]), 1).direction_count == 2
    assert projective_uniformity(np.zeros((2, 3)), 1).direction_count == 1
    assert projective_uniformity(np.array([[1.0, 1.0], [2.0, 2.0]]), 1).direction_count == 4
    # every candidate once, evaluated or pruned: 1 + 256 + 2 * C(256, 2) less the
    # 6 sums a_j + a_k of columns that are exactly opposite in floats
    assert projective_uniformity(circle_directions(256), 3).direction_count == 65_531


def _all_candidates_sweep(A, m):
    """The sweep before pruning: every candidate direction through the kernel, in batches."""
    D = A.shape[1]
    a_max = _a_max(A)
    best = math.inf
    rows = max(1, audit._PU_FLOATS // (4 * D + 4))
    for lo in range(0, D, rows):
        j, k = np.nonzero(np.arange(lo, min(lo + rows, D))[:, None] < np.arange(D))
        j += lo
        N = np.concatenate(
            [[[0.0], [1.0]], A[:, lo : lo + rows], A[:, j] - A[:, k], A[:, j] + A[:, k]], axis=1
        )
        N = N[:, (N != 0.0).any(axis=0)]
        E = np.stack([-N[1], N[0]], axis=1) / np.hypot(N[0], N[1])[:, None]
        best = min(best, _least_mth_projection(A, m, E))
    return max(best - (16.0 * _U * a_max + 2.0**-1070), 0.0)


_FAMILIES = ["gaussian", "small-integer", "circle", "near-circle"]


@pytest.mark.parametrize("family", _FAMILIES)
def test_pu_sweep_prunes_no_minimum_the_full_sweep_finds(family):
    # The pruned minimum runs over a subset of the full sweep's directions, so
    # it is never lower; both lie within 6.2 u a_max of the true delta before
    # the same allowance, so it is at most 16 u a_max higher (rescaled circles
    # have shown 2.4 u a_max).  On Gaussian matrices the minimiser is one
    # crossing, which is kept: the bits agree.
    rng = np.random.default_rng(_FAMILIES.index(family))
    for _ in range(60):
        D = int(rng.integers(1, 41))
        if family == "gaussian":
            A = rng.standard_normal((2, D)) * 10.0 ** rng.uniform(-3.0, 3.0)
        elif family == "small-integer":  # duplicates, antipodes and zero columns
            A = rng.integers(-2, 3, size=(2, D)) * rng.uniform(0.5, 2.0)
        else:
            D = max(D, 2)
            A = circle_directions(D)[:, rng.permutation(D)] * 10.0 ** rng.uniform(-3.0, 3.0)
            if family == "near-circle":
                # a crossing often holds the minimum, a few to a thousand
                # ulps below every zero candidate, so a limit set too low shows
                A += 10.0 ** rng.uniform(-15.0, -12.0) * np.abs(A).max() * rng.standard_normal(A.shape)
        for m in range(1, D + 1):
            delta, oracle = projective_uniformity(A, m).delta, _all_candidates_sweep(A, m)
            assert oracle <= delta <= oracle + 16 * _U * _a_max(A)
            if family == "gaussian":
                assert delta == oracle


def test_pu_sweep_evaluates_only_the_crossings_that_can_hold_the_minimum(monkeypatch):
    rows = []

    def counting(A, m, E):
        rows.append(len(E))
        return _least_mth_projection(A, m, E)

    monkeypatch.setattr(audit, "_least_mth_projection", counting)
    est = projective_uniformity(circle_directions(64), 3)
    assert est.direction_count == 4096 and 0 < sum(rows) < 4096 / 8
    # the paper's quadratic-distortion construction D = 4 n**2 at n = 16
    D = 1024
    delta = projective_uniformity(circle_directions(D), 3).delta
    assert delta >= 2.0 / D
    assert abs(delta - math.sin(math.pi / D)) <= 1e-12


@given(st.integers(0, 2**32), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_pu_sweep_is_invariant_under_column_permutations_and_sign_flips(seed, D, data):
    rng = np.random.default_rng(seed)
    # small integers make duplicates, antipodes and zero columns common
    A = rng.integers(-2, 3, size=(2, D)) * rng.uniform(0.5, 2.0) + rng.standard_normal((2, D)) * (seed % 2)
    m = data.draw(st.integers(1, D))
    delta = projective_uniformity(A, m).delta
    moved = A[:, rng.permutation(D)] * rng.choice([-1.0, 1.0], size=D)
    assert projective_uniformity(moved, m).delta == delta


def test_pu_sweep_rejects_columns_that_could_overflow():
    with pytest.raises(ValueError, match="2\\*\\*1021"):
        projective_uniformity(np.array([[1e308, 1.0], [0.0, 1.0]]), 1)


# ---------------------------------------------------------------------------
# blueprint bound
# ---------------------------------------------------------------------------


def test_blueprint_circle_arithmetic():
    n = 5
    D = 4 * n * n
    value = blueprint_lower_bound(2.0 / D, 3, D, n)
    assert abs(value - 1.0 / (math.sqrt(2.0) * n)) < 1e-12


def test_blueprint_m_one_keeps_everything():
    assert abs(blueprint_lower_bound(0.25, 1, 64, 7) - 0.25 * 8.0) < 1e-12


def test_blueprint_zero_delta():
    assert blueprint_lower_bound(0.0, 2, 100, 3) == 0.0


def test_blueprint_inapplicable():
    with pytest.raises(ValueError):
        blueprint_lower_bound(0.1, 3, 10, 4)  # 16 * 2 > 10


# ---------------------------------------------------------------------------
# sqrt(n) ceiling
# ---------------------------------------------------------------------------


def test_ceiling_hand_arithmetic():
    value = sqrtn_ceiling(np.eye(2), 4)
    assert abs(value - 1.5 * math.pi * math.sqrt(2.0) / 2.0) < 1e-12


def test_ceiling_scales_linearly():
    A = gaussian_directions(3, 9, 17)
    assert abs(sqrtn_ceiling(2.0 * A, 5) - 2.0 * sqrtn_ceiling(A, 5)) < 1e-9


def test_ceiling_witnessed_by_adversarial_pair():
    # the A-independent ceiling dominates the measured contraction for any A
    for seed in range(20):
        n, d = 6, 3
        A = gaussian_directions(d, 12, seed)
        pair = adversarial_circle_pair(n, d)
        gap = float(np.linalg.norm(sorted_embedding(A, pair.X) - sorted_embedding(A, pair.Y)))
        dist = orbit_distance(pair.X, pair.Y).distance
        assert gap / dist <= sqrtn_ceiling(A, n, independent=True)


def test_ceiling_requires_two_features():
    with pytest.raises(ValueError):
        sqrtn_ceiling(np.ones((1, 3)), 4)


# ---------------------------------------------------------------------------
# empirical distortion
# ---------------------------------------------------------------------------


def test_empirical_report_invariant_and_fields():
    A = circle_directions(36)
    report = empirical_distortion(A, 3, 300, 5)
    assert report.empirical_C1 <= report.empirical_C2 <= report.sigma1 * (1 + 1e-9)
    assert report.pair_count > 0
    assert report.seed == 5
    assert report.ceiling_sqrt_n_independent >= report.ceiling_sqrt_n - 1e-12


def test_empirical_circle_distortion_within_theory():
    n = 4
    A = circle_directions(4 * n * n)
    report = empirical_distortion(A, n, 500, 6)
    assert report.distortion <= 2 * n * n


def test_empirical_certified_floors_below_empirical_min():
    A = gaussian_directions(2, 10, 40)
    report = empirical_distortion(A, 3, 400, 7, subset_r=1, pu_m=3)
    assert report.subset_bound is not None
    assert report.subset_bound.value <= report.empirical_C1 * (1 + 1e-6)
    if report.blueprint_bound is not None:
        assert report.blueprint_bound <= report.empirical_C1 * (1 + 1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_blueprint_floor_sits_below_empirical_min_on_gaussian_matrices(seed):
    n = 3
    A = gaussian_directions(2, 4 * n * n, 50 + seed)
    report = empirical_distortion(A, n, 200, seed, pu_m=3)
    assert report.blueprint_bound is not None
    assert report.blueprint_bound <= report.empirical_C1


def test_empirical_distortion_is_scale_free_from_1e_minus_300_to_1e300():
    G = gaussian_directions(3, 5, 4)
    base = empirical_distortion(G, 4, 50, 0)
    for exponent in range(-300, 301, 25):
        scale = 10.0**exponent
        report = empirical_distortion(scale * G, 4, 50, 0)
        assert abs(report.distortion / base.distortion - 1.0) <= 1e-12
        assert abs(report.empirical_C1 / (scale * base.empirical_C1) - 1.0) <= 1e-12
        assert abs(report.empirical_C2 / (scale * base.empirical_C2) - 1.0) <= 1e-12
        assert report.pair_count == base.pair_count


def test_empirical_distortion_keeps_its_bits_under_power_of_two_scaling():
    A = gaussian_directions(2, 9, 12)
    base = empirical_distortion(A, 3, 80, 1)
    for k in (-900, -3, 5, 900):
        report = empirical_distortion(np.ldexp(A, k), 3, 80, 1)
        assert report.empirical_C1 == math.ldexp(base.empirical_C1, k)
        assert report.empirical_C2 == math.ldexp(base.empirical_C2, k)
        assert report.distortion == base.distortion


def test_empirical_rejects_one_dimensional():
    with pytest.raises(ValueError):
        empirical_distortion(np.ones((1, 4)), 3, 10, 0)


def test_empirical_rejects_all_zero_directions():
    with pytest.raises(ValueError, match="every sampled gap is zero"):
        empirical_distortion(np.zeros((2, 4)), 3, 50, 0)


@pytest.mark.parametrize("include_adversarial", [False, True])
@pytest.mark.parametrize("n, d, count, message", [
    (0, 2, 5, "n must be >= 1, got 0"),
    (-1, 2, 5, "n must be >= 1, got -1"),
    (3, 0, 5, "d must be >= 1, got 0"),
    (3, -1, 5, "d must be >= 1, got -1"),
    (3, 2, 0, "count must be >= 1, got 0"),
])
def test_pair_pool_rejects_a_shape_or_count_below_one(n, d, count, message, include_adversarial):
    # n = 0 or d = 0 used to give a pool of empty clouds, d = -1 a numpy error
    with pytest.raises(ValueError, match=message):
        audit.sample_pair_pool(n, d, count, 0, include_adversarial=include_adversarial)


def test_blueprint_floor_sits_below_empirical_min():
    # circle at D = 4n^2 keeps the blueprint precondition n^2 (m-1) <= D
    n = 3
    A = circle_directions(4 * n * n)
    report = empirical_distortion(A, n, 400, 9, pu_m=3)
    assert report.pu is not None and report.blueprint_bound is not None
    assert report.blueprint_bound <= report.empirical_C1 * (1 + 1e-6)


def test_blueprint_floor_needs_the_exact_sweep():
    # for d > 2 delta is sphere-sampled and only overestimates the constant,
    # so the report carries the estimate but no floor derived from it
    n = 3
    sampled = empirical_distortion(gaussian_directions(3, 4 * n * n, 9), n, 100, 9, pu_m=3)
    assert sampled.pu is not None and sampled.pu.method == SPHERE_SAMPLING
    assert sampled.blueprint_bound is None
    exact = empirical_distortion(circle_directions(4 * n * n), n, 100, 9, pu_m=3)
    assert exact.pu.method == EXACT_SWEEP and exact.blueprint_bound is not None


# ---------------------------------------------------------------------------
# sketching
# ---------------------------------------------------------------------------


def test_ose_dimension_hand_value():
    assert ose_dimension(1, 1, 2, 0.5, 0.5, c=1.0) == 14


def test_ose_dimension_monotone_in_epsilon():
    values = [ose_dimension(3, 2, 7, eps, 0.1) for eps in (0.1, 0.2, 0.4, 0.8)]
    assert values == sorted(values, reverse=True)


def test_ose_dimension_doubles_with_constant():
    single = ose_dimension(3, 2, 7, 0.25, 0.1, c=2.0)
    double = ose_dimension(3, 2, 7, 0.25, 0.1, c=4.0)
    assert abs(double - 2 * single) <= 1


def test_gaussian_sketch_shape_and_determinism():
    L = gaussian_sketch(3, 7, 11, 123)
    assert L.shape == (11, 21)
    assert np.array_equal(L, gaussian_sketch(3, 7, 11, 123))


def test_gaussian_sketch_isotropy():
    rng = make_rng(55)
    x = rng.standard_normal(12)
    x /= np.linalg.norm(x)
    total = 0.0
    draws = 10_000
    for i in range(draws):
        L = gaussian_sketch(3, 4, 32, 1000 + i)
        total += float(np.sum((L @ x) ** 2))
    assert abs(total / draws - 1.0) < 0.05


def test_ose_check_orthogonal_sketch_is_exact():
    rng = make_rng(77)
    A = rng.standard_normal((2, 4))
    n = 3
    Q, _ = np.linalg.qr(rng.standard_normal((n * 4, n * 4)))
    report = ose_check(A, Q, n, 0.1, 200, 9)
    assert report.violations == 0
    assert report.max_ratio_error < 1e-9


def test_ose_check_counts_epsilon_exits():
    rng = make_rng(78)
    A = rng.standard_normal((2, 4))
    L = 3.0 * np.eye(12)  # rho = 3 for every pair
    report = ose_check(A, L, 3, 0.5, 50, 10)
    assert report.violations == report.pairs_used > 0
    assert abs(report.max_ratio_error - 2.0) < 1e-9


@pytest.mark.parametrize("s", [-600, 0, 505])
def test_ose_check_reports_alike_at_every_scale_of_A(s):
    # the ratios do not depend on the scale of A; at 2**505 (about 1e152)
    # the gap norms of A itself overflow, at 2**-600 they fall below 1e-10
    A = np.random.default_rng(0).standard_normal((2, 3))
    L = gaussian_sketch(2, 3, 40, 0)
    want = ose_check(A, L, 2, 0.25, 50, 0)
    assert want.pairs_used == 50 and want.violations == 0
    assert ose_check(np.ldexp(A, s), L, 2, 0.25, 50, 0) == want
    G = gaussian_directions(3, 5, 4)
    L = gaussian_sketch(4, 5, ose_dimension(4, 3, 5, 0.25, 0.1), 0)
    want = ose_check(G, L, 4, 0.25, 200, 0)
    assert want.pairs_used == 200
    assert ose_check(np.ldexp(G, s), L, 4, 0.25, 200, 0) == want


def test_ose_check_epsilon_one_only_upper_side():
    # with eps = 1 the window is [0, 2]; rho >= 0 always, so only rho > 2 counts
    rng = make_rng(79)
    A = rng.standard_normal((2, 4))
    shrink = ose_check(A, 0.5 * np.eye(12), 3, 1.0, 50, 11)
    assert shrink.violations == 0
    inflate = ose_check(A, 3.0 * np.eye(12), 3, 1.0, 50, 12)
    assert inflate.violations == inflate.pairs_used > 0


# ---------------------------------------------------------------------------
# region counting
# ---------------------------------------------------------------------------


def test_region_count_trivial():
    assert region_count_bound(1, 1, 1) == 1


def test_region_count_hand_value():
    assert region_count_bound(2, 1, 2) == 4096


def test_region_count_is_perfect_power():
    value = region_count_bound(3, 2, 5)
    root = round(value ** (1.0 / 12.0))
    candidates = {root - 1, root, root + 1}
    assert any(c ** 12 == value for c in candidates)
    assert value == (5 * 9) ** 12
