import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from permorb.metrics import _orbit_distance_floor, rows_equal_as_multisets


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
