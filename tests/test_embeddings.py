import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permorb import (
    flatten_embedding,
    make_rng,
    permute_rows,
    pooled_embedding,
    singular_values,
    sketched_embedding,
    sorted_embedding,
    translation_offset,
)
from permorb.core import random_permutation
from permorb.embeddings import _NETWORK_MIN_COLUMNS, _sort_columns, _sort_project
from permorb.metrics import orbit_distance


def _cloud_and_perm(seed, n, d):
    rng = make_rng(seed)
    return rng.standard_normal((n, d)), random_permutation(n, rng)


# ---------------------------------------------------------------------------
# sorted embedding
# ---------------------------------------------------------------------------


def test_single_row_is_plain_projection():
    rng = make_rng(0)
    A = rng.standard_normal((3, 5))
    X = rng.standard_normal((1, 3))
    assert np.array_equal(sorted_embedding(A, X), X @ A)


def test_identity_directions_sort_coordinates():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    E = sorted_embedding(np.eye(2), X)
    assert E.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_homogeneity_for_positive_scale():
    rng = make_rng(1)
    A = rng.standard_normal((3, 6))
    X = rng.standard_normal((4, 3))
    left = sorted_embedding(A, 2.5 * X)
    right = 2.5 * sorted_embedding(A, X)
    assert np.max(np.abs(left - right)) < 1e-12


def test_columns_are_non_decreasing():
    rng = make_rng(2)
    E = sorted_embedding(rng.standard_normal((3, 7)), rng.standard_normal((6, 3)))
    assert np.all(np.diff(E, axis=0) >= 0)


@given(st.integers(0, 2**32), st.integers(2, 7), st.integers(1, 4), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance_is_exact(seed, n, d, D):
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    X = rng.standard_normal((n, d))
    sigma = random_permutation(n, rng)
    assert np.array_equal(sorted_embedding(A, permute_rows(X, sigma)), sorted_embedding(A, X))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sorted_embedding(np.eye(3), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# pooled embedding
# ---------------------------------------------------------------------------


def test_all_ones_pooling_sums_projections():
    rng = make_rng(3)
    A = rng.standard_normal((2, 4))
    X = rng.standard_normal((5, 2))
    B = np.ones((5, 4))
    assert np.max(np.abs(pooled_embedding(A, B, X) - (X @ A).sum(axis=0))) < 1e-12


def test_pooled_single_row():
    rng = make_rng(4)
    A = rng.standard_normal((2, 3))
    B = rng.standard_normal((1, 3))
    X = rng.standard_normal((1, 2))
    assert np.allclose(pooled_embedding(A, B, X), B[0] * (X @ A)[0])


def test_pooled_permutation_invariance():
    rng = make_rng(5)
    A = rng.standard_normal((2, 6))
    B = rng.standard_normal((5, 6))
    X = rng.standard_normal((5, 2))
    sigma = random_permutation(5, rng)
    assert np.array_equal(
        pooled_embedding(A, B, permute_rows(X, sigma)), pooled_embedding(A, B, X)
    )


def test_pooled_shape_validation():
    with pytest.raises(ValueError):
        pooled_embedding(np.eye(2), np.ones((3, 3)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# sketched embedding
# ---------------------------------------------------------------------------


def test_identity_sketch_recovers_flattening():
    rng = make_rng(6)
    A = rng.standard_normal((2, 3))
    X = rng.standard_normal((4, 2))
    L = np.eye(12)
    assert np.array_equal(
        sketched_embedding(A, L, X), flatten_embedding(sorted_embedding(A, X))
    )


def test_zero_row_sketch_is_zero():
    rng = make_rng(7)
    A = rng.standard_normal((2, 3))
    X = rng.standard_normal((4, 2))
    assert sketched_embedding(A, np.zeros((1, 12)), X).tolist() == [0.0]


def test_sketch_linearity_in_operator():
    rng = make_rng(8)
    A = rng.standard_normal((3, 4))
    X = rng.standard_normal((5, 3))
    L1 = rng.standard_normal((6, 20))
    L2 = rng.standard_normal((6, 20))
    combined = sketched_embedding(A, L1 + L2, X)
    summed = sketched_embedding(A, L1, X) + sketched_embedding(A, L2, X)
    assert np.max(np.abs(combined - summed)) < 1e-12


def test_sketch_permutation_invariance():
    rng = make_rng(9)
    A = rng.standard_normal((2, 3))
    X = rng.standard_normal((4, 2))
    L = rng.standard_normal((5, 12))
    sigma = random_permutation(4, rng)
    assert np.array_equal(
        sketched_embedding(A, L, permute_rows(X, sigma)), sketched_embedding(A, L, X)
    )


def test_sketch_column_mismatch_rejected():
    with pytest.raises(ValueError):
        sketched_embedding(np.eye(2), np.zeros((3, 7)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# translation offset
# ---------------------------------------------------------------------------


def test_translation_offset_zero_vector():
    A = make_rng(10).standard_normal((3, 4))
    assert np.array_equal(translation_offset(A, np.zeros(3), 5), np.zeros((5, 4)))


def test_translation_offset_constant_column():
    assert translation_offset(np.array([[1.0]]), np.array([3.0]), 2).tolist() == [[3.0], [3.0]]


def test_translation_identity_holds():
    rng = make_rng(11)
    A = rng.standard_normal((3, 5))
    X = rng.standard_normal((4, 3))
    z = rng.standard_normal(3)
    shifted = sorted_embedding(A, X + np.outer(np.ones(4), z))
    composed = sorted_embedding(A, X) + translation_offset(A, z, 4)
    assert np.max(np.abs(shifted - composed)) < 1e-12


# ---------------------------------------------------------------------------
# column sort kernel
# ---------------------------------------------------------------------------

# A small pool forces ties; signed zeros and infinities are the edge values.
_SORT_POOL = (-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf, -np.inf)


@pytest.mark.parametrize("n", range(1, 10))
@given(
    lead=st.sampled_from(["", "t", "t2"]),
    wide=st.booleans(),
    D=st.integers(1, 8),
    extra=st.integers(0, 40),
    pool=st.lists(st.sampled_from(_SORT_POOL), min_size=1, max_size=5),
    with_nan=st.booleans(),
    into=st.sampled_from(["new", "out", "P"]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=30, deadline=None)
def test_sort_columns_equals_np_sort(n, lead, wide, D, extra, pool, with_nan, into, seed):
    # n runs past the network cap (6); a wide stack has at least the network's
    # floor of columns and a narrow one fewer, so both sides of each are covered
    t = -(-_NETWORK_MIN_COLUMNS // D) + extra if wide else 1 + extra % 8
    shape = {
        "": (n, _NETWORK_MIN_COLUMNS + extra if wide else D),
        "t": (t, n, D),
        "t2": (t, 2, n, D),
    }[lead]
    rng = make_rng(seed)
    P = rng.choice(np.array(pool + [np.nan] * with_nan), size=shape)
    before = P.copy()
    out = {"new": None, "out": np.empty_like(P), "P": P}[into]
    got = _sort_columns(P, out=out)
    assert got is out or out is None
    assert np.array_equal(got, np.sort(before, axis=-2), equal_nan=True)
    if into != "P":
        assert np.array_equal(P, before, equal_nan=True)  # the input is left as it was


@pytest.mark.parametrize("n", range(1, 7))
def test_sort_columns_sorts_every_zero_one_column(n):
    # a network that sorts all 2**n columns of 0s and 1s sorts every column
    # (Knuth's 0-1 principle); tiled past the floor, so the network runs
    columns = np.array(list(itertools.product([0.0, 1.0], repeat=n))).T
    P = np.tile(columns, (1, _NETWORK_MIN_COLUMNS // 2**n + 1))
    assert np.array_equal(_sort_columns(P), np.sort(P, axis=0))


def test_sort_columns_with_a_nan_in_a_wide_stack():
    # X @ A can overflow to inf - inf = nan: the result is np.sort's, nans last
    P = make_rng(3).standard_normal((1800, 4, 12))
    P[17, 2, 5] = np.nan
    got = _sort_columns(P)
    assert np.isnan(got[17, 3, 5]) and np.isnan(got).sum() == 1
    assert np.array_equal(got, np.sort(P, axis=-2), equal_nan=True)


# Finite entries that stress the projections: signed zeros (zero rows give
# zero columns), a subnormal, and magnitudes whose products overflow to inf
# and whose sums reach inf - inf = nan.
_CLOUD_POOL = (0.0, -0.0, 5e-324, 1e300, -1e300, 1e308)


@given(
    n=st.integers(2, 8),
    d=st.integers(1, 4),
    D=st.integers(1, 12),
    wide=st.booleans(),
    extra=st.integers(0, 40),
    pool=st.lists(st.sampled_from(_CLOUD_POOL), max_size=3),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
# a 5e-324 row projects to -0.0 next to a zero row's 0.0: the network gives
# (-0.0, -0.0) where np.sort keeps (0.0, -0.0)
@example(n=2, d=2, D=2, wide=True, extra=0, pool=[0.0, 5e-324], seed=1)
def test_a_stacked_sort_projection_gives_each_cloud_the_bits_of_a_single_one(
    n, d, D, wide, extra, pool, seed
):
    # a wide stack has at least the network's floor of columns and is sorted
    # by it (n <= 6); a narrow one, like every single cloud here, by np.sort
    t = -(-_NETWORK_MIN_COLUMNS // D) + extra if wide else 1 + extra % 8
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    stack = rng.standard_normal((t, n, d))
    if pool:
        picks = rng.random(stack.shape) < 0.3
        stack[picks] = rng.choice(np.array(pool), size=int(picks.sum()))
        stack[rng.random((t, n)) < 0.2] = pool[0]  # whole rows of one value
    with np.errstate(over="ignore", invalid="ignore"):
        S = _sort_project(A, stack)
        singles = [sorted_embedding(A, X) for X in stack]
    # + 0.0 turns -0.0 into 0.0 and keeps the bits of every other value, so
    # the bits agree up to the sign of a zero, which the network may flip
    assert all((S[k] + 0.0).tobytes() == (singles[k] + 0.0).tobytes() for k in range(t))


# ---------------------------------------------------------------------------
# upper Lipschitz property
# ---------------------------------------------------------------------------


def test_embedding_gap_bounded_by_sigma1_times_distance():
    rng = make_rng(12)
    A = rng.standard_normal((3, 8))
    sigma1 = float(singular_values(A)[0])
    for _ in range(200):
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
        dist = orbit_distance(X, Y).distance
        assert gap <= sigma1 * dist * (1.0 + 1e-9)
