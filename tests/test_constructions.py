import math
from itertools import combinations

import numpy as np
import pytest

from permorb import (
    adversarial_circle_pair,
    circle_directions,
    gaussian_directions,
    identity_augmented,
    is_full_spark,
    orbit_distance,
    parity_counterexample,
    singular_values,
    sorted_embedding,
    sphere_directions,
)
from permorb.core import BudgetExceededError, load_matrix_csv, save_matrix_csv
from permorb.separation import known_separating_matrix


# ---------------------------------------------------------------------------
# gaussian directions
# ---------------------------------------------------------------------------


def test_gaussian_seed_reproducibility():
    assert np.array_equal(gaussian_directions(3, 5, 1234), gaussian_directions(3, 5, 1234))
    assert not np.array_equal(gaussian_directions(3, 5, 1234), gaussian_directions(3, 5, 4321))


def test_gaussian_moments_at_scale():
    A = gaussian_directions(1000, 1000, 2024)  # d*D = 1e6 draws
    assert abs(A.mean()) < 4e-3  # CLT bound 4/sqrt(d*D)
    assert abs(A.var() - 1.0) < 0.01


# ---------------------------------------------------------------------------
# sphere directions
# ---------------------------------------------------------------------------


def test_sphere_columns_are_unit():
    A = sphere_directions(4, 50, 7)
    assert np.max(np.abs(np.linalg.norm(A, axis=0) - 1.0)) < 1e-12


def test_sphere_one_dimensional_signs():
    A = sphere_directions(1, 20, 3)
    assert set(np.round(A.ravel(), 12)) <= {1.0, -1.0}


def test_sphere_mean_concentrates():
    A = sphere_directions(3, 100_000, 99)
    assert np.linalg.norm(A.mean(axis=1)) <= 0.02


# ---------------------------------------------------------------------------
# circle directions
# ---------------------------------------------------------------------------


def test_circle_quarter_angles():
    A = circle_directions(4)
    expected = np.array([[0.0, -1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0]])
    assert np.max(np.abs(A - expected)) < 1e-15


def test_circle_singular_values():
    sv = singular_values(circle_directions(64))
    assert np.max(np.abs(sv - math.sqrt(32.0))) < 1e-9


def test_circle_gram_identity():
    for D in (4, 10, 36):
        A = circle_directions(D)
        assert np.max(np.abs(A @ A.T - (D / 2.0) * np.eye(2))) < 1e-9


def test_circle_rejects_tiny_D():
    with pytest.raises(ValueError):
        circle_directions(1)


# ---------------------------------------------------------------------------
# identity augmented
# ---------------------------------------------------------------------------


def test_identity_augmented_all_ones_column():
    A = identity_augmented(np.ones((3, 1)))
    assert A.shape == (3, 4)
    assert np.array_equal(A[:, :3], np.eye(3))
    assert np.array_equal(A[:, 3], np.ones(3))


def test_reference_matrix_round_trips_csv(tmp_path):
    A = known_separating_matrix(3, 3, 6)
    path = tmp_path / "ref.csv"
    save_matrix_csv(path, A)
    assert np.array_equal(load_matrix_csv(path), A)


def test_reference_5_2_5_is_full_spark():
    A = known_separating_matrix(5, 2, 5)
    assert is_full_spark(A) is True
    # oracle: all C(5,2)=10 2x2 minors are nonzero
    for i, j in combinations(range(5), 2):
        minor = A[0, i] * A[1, j] - A[0, j] * A[1, i]
        assert abs(minor) > 1e-9


def test_identity_augmented_rejects_empty_tail():
    with pytest.raises(ValueError):
        identity_augmented(np.zeros((2, 0)))


# ---------------------------------------------------------------------------
# parity counterexample
# ---------------------------------------------------------------------------


def test_parity_small_case_shape_and_zero_row():
    A = gaussian_directions(2, 3, 5)
    pair = parity_counterexample(A, 5)
    assert pair.X.shape == (4, 2) and pair.Y.shape == (4, 2)
    x_row_norms = np.linalg.norm(pair.X, axis=1)
    assert np.min(x_row_norms) < 1e-12  # the empty combination
    assert np.min(np.linalg.norm(pair.Y, axis=1)) > 1e-9


def test_parity_two_block_case_has_two_rows():
    A = gaussian_directions(3, 4, 6)
    pair = parity_counterexample(A, 6)
    assert pair.X.shape == (2, 3)
    assert pair.certificate["blocks"] == 2


def test_parity_row_count_formula():
    for d, D, seed in ((2, 3, 0), (2, 4, 1), (3, 4, 2), (4, 6, 3)):
        A = gaussian_directions(d, D, seed)
        pair = parity_counterexample(A, seed)
        k = math.ceil(D / (d - 1))
        assert pair.X.shape[0] == 2 ** (k - 1)
        assert pair.Y.shape[0] == 2 ** (k - 1)


def test_parity_embeddings_agree_per_direction():
    A = gaussian_directions(3, 4, 11)
    pair = parity_counterexample(A, 11)
    EX = sorted_embedding(A, pair.X)
    EY = sorted_embedding(A, pair.Y)
    scale = np.linalg.norm(A) * max(np.linalg.norm(pair.X, axis=1).max(), 1.0)
    assert np.max(np.abs(EX - EY)) <= 1e-9 * scale
    assert orbit_distance(pair.X, pair.Y).distance > 0


def test_parity_row_budget():
    # D = 14 at d = 2 needs 2**13 = 8192 rows, above the cap of 4096
    A = gaussian_directions(2, 14, 1)
    with pytest.raises(BudgetExceededError, match="8192 rows per cloud, limit is 4096"):
        parity_counterexample(A, 1)


def test_parity_requires_d_at_least_two():
    with pytest.raises(ValueError):
        parity_counterexample(np.ones((1, 3)), 0)


# ---------------------------------------------------------------------------
# adversarial circle pair
# ---------------------------------------------------------------------------


def test_adversarial_distance_exact():
    pair = adversarial_circle_pair(8, 2)
    assert abs(orbit_distance(pair.X, pair.Y).distance - 1.0) < 1e-9


def test_adversarial_padding_coordinates_zero():
    pair = adversarial_circle_pair(5, 5)
    assert np.max(np.abs(pair.X[:, :3])) == 0.0
    assert np.max(np.abs(np.linalg.norm(pair.X[:, 3:], axis=1) - 1.0)) < 1e-12


def test_adversarial_contraction_bound():
    # the fixed pair is contracted by any direction matrix at the sqrt(n) rate
    n = 8
    pair = adversarial_circle_pair(n, 2)
    A = circle_directions(256)
    gap = float(np.linalg.norm(sorted_embedding(A, pair.X) - sorted_embedding(A, pair.Y)))
    sv = singular_values(A)
    ceiling = math.sqrt(2 + 1 / n) * math.pi / math.sqrt(n) * math.hypot(sv[0], sv[1])
    dist = orbit_distance(pair.X, pair.Y).distance
    assert gap <= ceiling * dist


def test_adversarial_input_validation():
    with pytest.raises(ValueError):
        adversarial_circle_pair(1, 2)
    with pytest.raises(ValueError):
        adversarial_circle_pair(4, 1)
