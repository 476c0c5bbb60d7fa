import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb import core


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------


def test_sort_ascending_examples():
    assert core.sort_ascending([3, 1, 2]).tolist() == [1, 2, 3]
    assert core.sort_ascending([5]).tolist() == [5]
    assert core.sort_ascending([2, 2, -1]).tolist() == [-1, 2, 2]


def test_sort_rejects_non_finite():
    with pytest.raises(ValueError):
        core.sort_ascending([1.0, np.nan])
    with pytest.raises(ValueError):
        core.sort_ascending([np.inf, 0.0])


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
def test_sort_idempotent_and_multiset_preserving(values):
    once = core.sort_ascending(values)
    assert np.array_equal(core.sort_ascending(once), once)
    assert sorted(values) == once.tolist()
    assert np.all(np.diff(once) >= 0)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permute_rows_swap():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = core.permute_rows(X, [1, 0])
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_permute_rows_identity():
    X = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(core.permute_rows(X, [0, 1, 2]), X)


def test_permute_rows_group_inverse():
    rng = core.make_rng(3)
    X = rng.standard_normal((5, 3))
    sigma = rng.permutation(5)
    back = core.permute_rows(core.permute_rows(X, sigma), np.argsort(sigma))
    assert np.array_equal(back, X)


def test_permutation_validation():
    with pytest.raises(ValueError):
        core.permute_rows(np.eye(3), [0, 1])  # length mismatch
    with pytest.raises(ValueError):
        core.validate_permutation([0, 0, 2])
    with pytest.raises(ValueError):
        core.validate_permutation([1, 2, 3])


@pytest.mark.parametrize("sigma", [[0.0, np.inf, 1.0], [0.0, np.nan, 1.0], [0.0, -np.inf, 1.0]])
def test_permutation_with_a_non_finite_entry_is_refused(sigma):
    # casting inf to an integer warns (an error here) and yields garbage
    with pytest.raises(ValueError, match="must be finite integers"):
        core.permute_rows(np.eye(3), sigma)


def test_boolean_permutation_is_refused():
    with pytest.raises(ValueError, match="got booleans"):
        core.permute_rows(np.eye(2), [True, False])
    with pytest.raises(ValueError, match="got booleans"):
        core.validate_permutation(np.array([False, True]))


def test_integral_floats_are_a_permutation():
    assert core.validate_permutation([2.0, 0.0, 1.0]).tolist() == [2, 0, 1]


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------


def test_singular_values_identity():
    assert np.allclose(core.singular_values(np.eye(2)), [1.0, 1.0])


def test_singular_values_circle():
    from permorb import circle_directions

    sv = core.singular_values(circle_directions(16))
    assert np.all(np.abs(sv - np.sqrt(8.0)) < 1e-9)


def test_singular_values_match_gram_eigenvalues():
    # oracle: eigenvalues of the 3x3 Gram matrix A A^T
    A = core.make_rng(11).standard_normal((3, 5))
    gram_eigs = np.linalg.eigvalsh(A @ A.T)[::-1]
    expected = np.sqrt(np.clip(gram_eigs, 0.0, None))
    assert np.max(np.abs(core.singular_values(A) - expected)) < 1e-8


@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_singular_value_invariants(seed, rows, cols):
    A = core.make_rng(seed).standard_normal((rows, cols))
    sv = core.singular_values(A)
    svt = core.singular_values(A.T)
    assert np.max(np.abs(sv - svt)) < 1e-9 * max(1.0, sv[0])
    fro2 = float(np.sum(A * A))
    assert abs(float(np.sum(sv**2)) - fro2) <= 1e-9 * max(fro2, 1e-300)
    assert np.all(np.diff(sv) <= 0)
    assert np.all(sv >= 0)


# ---------------------------------------------------------------------------
# full spark
# ---------------------------------------------------------------------------


def _det3(M):
    # cofactor expansion, kept deliberately independent of numpy.linalg
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def test_full_spark_identity():
    assert core.is_full_spark(np.eye(2)) is True


def test_full_spark_duplicate_column():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert core.is_full_spark(A) is False


def test_full_spark_gaussian_vs_determinants():
    from itertools import combinations

    A = core.make_rng(21).standard_normal((3, 7))
    assert core.is_full_spark(A) is True
    for subset in combinations(range(7), 3):
        assert abs(_det3(A[:, subset])) > 1e-9


def _unscreened_full_spark(A, tol):
    """The full-spark verdict from one batched SVD of every d-column subset."""
    from itertools import combinations

    d, D = A.shape
    subsets = np.array(list(combinations(range(D), d)))
    sv = np.linalg.svd(A[:, subsets].transpose(1, 0, 2), compute_uv=False)
    return not np.any(sv[:, -1] <= tol * sv[:, 0])


def test_full_spark_screen_keeps_every_verdict(monkeypatch):
    monkeypatch.setattr(core, "_SUBSET_CHUNK", 7)
    for d, D in [(1, 5), (2, 9), (3, 8), (4, 8)]:
        for seed in range(3):
            A = core.make_rng(seed).standard_normal((d, D))
            A[:, seed] *= 2.0 ** (400 * (seed - 1))  # one column far larger or smaller
            for scale, tol in [(scale, tol) for scale in (-1064, 0, 600)
                               for tol in (1e-300, 1e-9, 1e-3, 0.3, 1.0, 2.0, 1e308)]:
                B = np.ldexp(A, scale)
                with np.errstate(over="ignore"):  # the reference's tol s_1 may overflow
                    assert core.is_full_spark(B, tol) == _unscreened_full_spark(B, tol)


@pytest.mark.parametrize("scale", [-600, 0, 600])
def test_full_spark_screen_at_the_tol_boundary(scale):
    # subset (0, 1, 2) has computed sigma_3 / sigma_1 = q; tol just either side of q, and q itself
    A = core.make_rng(8).standard_normal((3, 7))
    A[:, 2] = A[:, 0] + A[:, 1] + 1e-4 * A[:, 3]
    A = np.ldexp(A, scale)
    sv = np.linalg.svd(A[:, :3], compute_uv=False)
    q = sv[2] / sv[0]
    for tol in (q * (1 - 2**-40), q, np.nextafter(q, 0), np.nextafter(q, 1), q * (1 + 2**-40)):
        assert core.is_full_spark(A, tol) == _unscreened_full_spark(A, tol)
    assert core.is_full_spark(A, q * (1 - 2**-40)) and not core.is_full_spark(A, q * (1 + 2**-40))


def test_full_spark_budget():
    # C(2001, 2) = 2,001,000 subsets, one more thousand than the budget
    A = core.make_rng(5).standard_normal((2, 2001))
    with pytest.raises(core.BudgetExceededError, match="2001000 subset evaluations"):
        core.is_full_spark(A)


def test_full_spark_requires_wide():
    with pytest.raises(ValueError):
        core.is_full_spark(np.ones((3, 2)))


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------


def test_flatten_contract():
    E = np.array([[1.0, 3.0], [2.0, 4.0]])  # ((a, c), (b, d))
    assert core.flatten_embedding(E).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_flatten_single_row():
    E = np.array([[1.0, 2.0, 3.0]])
    assert core.flatten_embedding(E).tolist() == [1.0, 2.0, 3.0]


@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_flatten_preserves_norm(seed, n, D):
    E = core.make_rng(seed).standard_normal((n, D))
    assert np.isclose(np.linalg.norm(core.flatten_embedding(E)), np.linalg.norm(E))


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------


def test_rng_determinism():
    a = core.make_rng(42).standard_normal(8)
    b = core.make_rng(42).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, core.make_rng(43).standard_normal(8))


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        core.make_rng(-1)
    with pytest.raises(ValueError):
        core.make_rng(2**64)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    A = core.make_rng(9).standard_normal((4, 3)) * 10.0 ** core.make_rng(10).uniform(-8, 8, (4, 3))
    path = tmp_path / "a.csv"
    core.save_matrix_csv(path, A)
    B = core.load_matrix_csv(path)
    assert np.array_equal(A, B)


def test_csv_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"row 2, column 2"):
        core.load_matrix_csv(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"row 2"):
        core.load_matrix_csv(path)


def test_csv_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# header\n\n1.0,2.0\n# interlude\n3.0,4.0\n", encoding="utf-8")
    assert core.load_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_json_floats_round_trip():
    import json

    values = [0.1, 1.0 / 3.0, 1e-300, 123456.789, float(np.nextafter(1.0, 2.0))]
    text = core.json_dumps({"values": values})
    back = json.loads(text)
    assert back["values"] == values


def test_json_is_deterministic_and_typed():
    payload = {"a": 1, "b": [True, None, "text"], "c": {"nested": 2.5}}
    assert core.json_dumps(payload) == core.json_dumps(payload)
    assert core.json_dumps(payload).endswith("\n")


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        core.json_dumps({"bad": float("inf")})
