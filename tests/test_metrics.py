import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from permorb import (
    adversarial_circle_pair,
    make_rng,
    orbit_distance,
    orbit_distance_bruteforce,
    permute_rows,
    singular_values,
    sliced_w2_sampled,
    sorted_embedding,
    wasserstein2,
)
from permorb.core import BudgetExceededError, random_permutation
from permorb.metrics import (
    _all_permutations,
    _orbit_distance_floor,
    _squared_costs,
    rows_equal_as_multisets,
)


def test_identical_clouds_have_zero_distance():
    X = make_rng(0).standard_normal((4, 3))
    result = orbit_distance(X, X)
    assert result.distance == 0.0


def test_same_orbit_has_zero_distance():
    rng = make_rng(1)
    X = rng.standard_normal((5, 2))
    sigma = random_permutation(5, rng)
    assert orbit_distance(X, permute_rows(X, sigma)).distance < 1e-12


def test_adversarial_pair_distance_is_one():
    pair = adversarial_circle_pair(6, 4)
    assert abs(orbit_distance(pair.X, pair.Y).distance - 1.0) < 1e-9


def test_result_matching_reconstructs_distance():
    rng = make_rng(2)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 3))
    result = orbit_distance(X, Y)
    recomputed = math.sqrt(float(np.sum((X - Y[result.sigma]) ** 2)))
    assert abs(recomputed - result.distance) <= 1e-9 * max(1.0, result.distance)


def test_symmetry():
    rng = make_rng(3)
    X = rng.standard_normal((5, 2))
    Y = rng.standard_normal((5, 2))
    d1 = orbit_distance(X, Y).distance
    d2 = orbit_distance(Y, X).distance
    assert abs(d1 - d2) <= 1e-9 * max(1.0, d1)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def test_bruteforce_two_point_swap():
    X = np.array([[0.0], [1.0]])
    Y = np.array([[1.0], [0.0]])
    assert orbit_distance_bruteforce(X, Y).distance == 0.0


def test_bruteforce_identical():
    X = make_rng(4).standard_normal((4, 2))
    assert orbit_distance_bruteforce(X, X).distance == 0.0


def test_bruteforce_agrees_with_assignment_solver():
    rng = make_rng(5)
    for _ in range(200):
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        fast = orbit_distance(X, Y).distance
        slow = orbit_distance_bruteforce(X, Y).distance
        assert abs(fast - slow) <= 1e-9 * max(1.0, slow)


def test_bruteforce_budget_guard():
    X = np.zeros((10, 1))
    with pytest.raises(BudgetExceededError):
        orbit_distance_bruteforce(X, X)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        orbit_distance(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Wasserstein wrappers
# ---------------------------------------------------------------------------


def test_wasserstein_identical_zero():
    X = make_rng(6).standard_normal((4, 2))
    assert wasserstein2(X, X) == 0.0


def test_wasserstein_single_point():
    x = np.array([[1.0, 2.0]])
    y = np.array([[4.0, 6.0]])
    assert abs(wasserstein2(x, y) - 5.0) < 1e-12


def test_wasserstein_matches_bruteforce_quarter():
    rng = make_rng(7)
    X = rng.standard_normal((4, 3))
    Y = rng.standard_normal((4, 3))
    expected = orbit_distance_bruteforce(X, Y).distance / 2.0
    assert abs(wasserstein2(X, Y) - expected) < 1e-12


def test_sliced_identical_zero():
    rng = make_rng(8)
    X = rng.standard_normal((5, 2))
    Theta = rng.standard_normal((2, 6))
    Theta /= np.linalg.norm(Theta, axis=0)
    assert sliced_w2_sampled(X, X, Theta) == 0.0


def test_sliced_one_dimensional_is_wasserstein():
    rng = make_rng(9)
    X = rng.standard_normal((6, 1))
    Y = rng.standard_normal((6, 1))
    sliced = sliced_w2_sampled(X, Y, np.array([[1.0]]))
    assert abs(sliced - wasserstein2(X, Y)) < 1e-12


def test_sliced_respects_projection_bound():
    rng = make_rng(10)
    Theta = rng.standard_normal((3, 5))
    Theta /= np.linalg.norm(Theta, axis=0)
    sigma1 = float(singular_values(Theta)[0])
    for _ in range(100):
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 3))
        gap = float(np.linalg.norm(sorted_embedding(Theta, X) - sorted_embedding(Theta, Y)))
        assert gap <= sigma1 * orbit_distance(X, Y).distance * (1.0 + 1e-9)


def test_sliced_warns_on_non_unit_columns():
    X = make_rng(11).standard_normal((3, 2))
    with pytest.warns(UserWarning, match="unit"):
        sliced_w2_sampled(X, X, np.array([[2.0], [0.0]]))


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------


def test_triangle_inequality_on_random_triples():
    rng = make_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        X, Y, Z = (rng.standard_normal((n, d)) for _ in range(3))
        dxz = orbit_distance(X, Z).distance
        dxy = orbit_distance(X, Y).distance
        dyz = orbit_distance(Y, Z).distance
        assert dxy + dyz - dxz >= -1e-9


def test_zero_distance_iff_equal_row_multisets():
    rng = make_rng(13)
    X = rng.standard_normal((5, 3))
    sigma = random_permutation(5, rng)
    Y = permute_rows(X, sigma)
    assert orbit_distance(X, Y).distance < 1e-12
    assert rows_equal_as_multisets(X, Y)
    Z = X.copy()
    Z[0, 0] += 0.5
    assert orbit_distance(X, Z).distance > 1e-3
    assert not rows_equal_as_multisets(X, Z)


def test_distance_invariant_under_permutations_of_both_sides():
    rng = make_rng(14)
    X = rng.standard_normal((6, 2))
    Y = rng.standard_normal((6, 2))
    base = orbit_distance(X, Y).distance
    for _ in range(10):
        sigma = random_permutation(6, rng)
        tau = random_permutation(6, rng)
        moved = orbit_distance(permute_rows(X, sigma), permute_rows(Y, tau)).distance
        assert abs(moved - base) <= 1e-9 * max(1.0, base)


@st.composite
def close_cloud_pairs(draw):
    """Clouds (X, Y) with rows picked from a small pool: repeated rows within
    and across the clouds, and coordinates tied through a few shared values."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10.0, 10.0)
    row = st.lists(value, min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=2 * n))
    index = st.integers(0, len(pool) - 1)
    X = np.array([pool[draw(index)] for _ in range(n)])
    Y = np.array([pool[draw(index)] for _ in range(n)])
    return X, Y


@given(close_cloud_pairs())
@settings(max_examples=300, deadline=None)
def test_sorted_column_floor_never_exceeds_the_orbit_distance(pair):
    X, Y = pair
    floor = float(_orbit_distance_floor(np.stack([X, Y])))
    distance = orbit_distance_bruteforce(X, Y).distance
    assert floor <= distance * (1 + 1e-12)


# ±0, the least subnormal, the largest subnormal and the least normal
_TINY = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308]
_SCALES = [1e-300, 1e-200, 1e-160, 1e-20, 1.0, 1e20, 1e150, 1e153, 1e154]


@st.composite
def cost_inputs(draw):
    """(X, Y): clouds of 1..13 rows in 1..9 coordinates, at one scale from
    1e-300 to 1e154, with signed zeros and subnormals, in C, Fortran or
    reversed-stride layout; Y may be X itself."""
    d = draw(st.integers(1, 9))
    scale = draw(st.sampled_from(_SCALES))
    value = st.sampled_from(_TINY) | st.floats(-4.0, 4.0).map(lambda v: v * scale)

    def cloud():
        rows = draw(st.integers(1, 13))
        C = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                   min_size=rows, max_size=rows)))
        layout = draw(st.sampled_from(["C", "F", "reversed"]))
        if layout == "F":
            return np.asfortranarray(C)
        return C[::-1, ::-1] if layout == "reversed" else C

    X = cloud()
    return X, X if draw(st.booleans()) else cloud()


@given(cost_inputs())
@settings(max_examples=400, deadline=None)
def test_squared_costs_carry_the_bits_of_cdist(pair):
    X, Y = pair
    expected = cdist(X, Y, "sqeuclidean")
    cost = _squared_costs(X, Y)
    assert cost.shape == expected.shape
    assert cost.tobytes() == expected.tobytes()


def _cdist_orbit_distance(X, Y):
    """Orbit distance from cdist costs and scipy's solver, the path before _squared_costs."""
    cost = cdist(X, Y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(max(float(cost[rows, cols].sum()), 0.0))


def _cdist_bruteforce(X, Y):
    cost = cdist(X, Y, "sqeuclidean")
    n = len(X)
    return math.sqrt(max(float(cost[np.arange(n), _all_permutations(n)].sum(axis=1).min()), 0.0))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return getattr(value, "distance", value)


@pytest.mark.parametrize("scale", [1e153, 1e154, 3e154, 1e160])
def test_overflowing_costs_behave_as_with_cdist_and_stay_silent(scale):
    # At 1e153 the squared costs stay finite and the distance is cdist's.
    # From 1e154 on they overflow, where cdist's path raised "cost matrix is
    # infeasible" or gave inf for a representable distance: the distance is
    # that of the clouds scaled down by 2**k, scaled back, without a warning.
    rng = make_rng(7)
    for n, d in [(1, 1), (3, 2), (5, 3)]:
        X = scale * rng.standard_normal((n, d))
        Y = scale * rng.standard_normal((n, d))
        k = math.frexp(max(np.max(np.abs(X)), np.max(np.abs(Y))))[1]
        for fn, reference in [(orbit_distance, _cdist_orbit_distance),
                              (orbit_distance_bruteforce, _cdist_bruteforce)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(fn, X, Y)
            if scale < 1e154:
                with np.errstate(all="ignore"):
                    assert got == _outcome(reference, X, Y), (fn.__name__, n, d)
            else:
                want = math.ldexp(reference(np.ldexp(X, -k), np.ldexp(Y, -k)), k)
                assert math.isfinite(want) and got == want, (fn.__name__, n, d)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-20, 1.0, 1e20, 1e150])
def test_orbit_distances_scale_exactly_by_powers_of_two(scale):
    # the clouds are solved scaled into [0.5, 1): away from the ends of the
    # float range that is exact, so the distances and matchings are cdist's
    # at the given scale, and where the costs would underflow (1e-160 and
    # below) they are those at 1.0 scaled back
    rng = make_rng(11)
    for n, d in [(1, 1), (2, 3), (4, 2), (6, 3)]:
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d))
        j = round(math.log2(scale))
        Xs, Ys = np.ldexp(X, j), np.ldexp(Y, j)
        for fn, reference in [(orbit_distance, _cdist_orbit_distance),
                              (orbit_distance_bruteforce, _cdist_bruteforce)]:
            got = fn(Xs, Ys)
            assert got.distance == math.ldexp(reference(X, Y), j), (fn.__name__, n, d)
            if scale >= 1e-20:
                assert got.distance == reference(Xs, Ys), (fn.__name__, n, d)
            assert got.sigma.tolist() == fn(X, Y).sigma.tolist()
