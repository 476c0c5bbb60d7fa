import itertools
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permorb
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
from permorb import embeddings
from permorb.embeddings import _NETWORKS, _blocks, _sort_project, _sorted_gaps, _sorted_rows
from permorb.metrics import orbit_distance


def _cloud_and_perm(seed, n, d):
    rng = make_rng(seed)
    return rng.standard_normal((n, d)), rng.permutation(n)


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
    sigma = rng.permutation(n)
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
    sigma = rng.permutation(5)
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
    sigma = rng.permutation(4)
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

# Columns of a wide stack: the benchmark's stacks have at least this many.
_WIDE = 512


@contextmanager
def network_results():
    """The list that gets, per _network_sort call in the block, whether it sorted (no NaN)."""
    results = []
    network_sort = embeddings._network_sort

    def recorded(buffer):
        rows = network_sort(buffer)
        results.append(rows is not None)
        return rows

    with patch.object(embeddings, "_network_sort", recorded):
        yield results


def sorted_stack(A, stack):
    """The sorted projections (..., n, D) of a stack of clouds (..., n, d), from _sorted_rows.

    Its buffer has a spare column of clouds, as the spot check's has in a
    short last sub-block, and starts as NaNs, which no row may keep.
    """
    *lead, n, d = stack.shape
    clouds = stack.reshape(-1, n, d)
    buffer = np.full((n + 1, len(clouds) + 1, A.shape[1]), np.nan)
    return np.stack(_sorted_rows(A, clouds, buffer), axis=1).reshape(*lead, n, A.shape[1])


@pytest.mark.parametrize("n", range(1, 10))
@given(
    lead=st.sampled_from(["", "t", "t2"]),
    wide=st.booleans(),
    D=st.integers(1, 8),
    extra=st.integers(0, 40),
    pool=st.lists(st.sampled_from(_SORT_POOL), min_size=1, max_size=5),
    with_nan=st.booleans(),
    rows=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=30, deadline=None)
def test_sort_columns_equals_np_sort(n, lead, wide, D, extra, pool, with_nan, rows, seed):
    # the columns _sorted_rows sorts, by the network where it runs (n <= 6)
    # and by np.sort elsewhere, and those _sort_project sorts by np.sort; a
    # lone cloud never goes to _sorted_rows.  n runs past the network cap
    # (6), and stacks are wide or narrow.  One-feature clouds
    # times a row of signed powers of two project exactly, infinities and
    # NaNs included, so every column is a pool column or its exact negation.
    t = -(-_WIDE // D) + extra if wide else 1 + extra % 8
    shape = {
        "": (n, _WIDE + extra if wide else D),
        "t": (t, n, D),
        "t2": (t, 2, n, D),
    }[lead]
    columns = np.arange(shape[-1])
    A = ((-1.0) ** columns * 2.0 ** (columns // 2))[None, :]
    rng = make_rng(seed)
    X = rng.choice(np.array(pool + [np.nan] * with_nan), size=shape[:-1] + (1,))
    before = X.copy()
    got = sorted_stack(A, X) if rows and len(X.reshape(-1, n, 1)) > 1 else _sort_project(A, X)
    assert np.array_equal(got, np.sort(X @ A, axis=-2), equal_nan=True)
    assert np.array_equal(X, before, equal_nan=True)  # the input is left as it was


@pytest.mark.parametrize("n", range(1, 7))
def test_sort_columns_sorts_every_zero_one_column(n):
    # a network that sorts all 2**n columns of 0s and 1s sorts every column
    # (Knuth's 0-1 principle); stacked for _sorted_rows, so the network
    # runs, projected by the identity, which keeps them exactly
    columns = np.array(list(itertools.product([0.0, 1.0], repeat=n))).T
    X = np.tile(columns, (_WIDE // 2**n + 1, 1, 1))
    with network_results() as results:
        got = sorted_stack(np.eye(2**n), X)
        assert np.array_equal(got, np.sort(X, axis=-2))
    assert results == ([True] if n in _NETWORKS else [])


def test_sort_columns_with_a_nan_in_a_wide_stack():
    # an infinite coordinate times a zero direction entry is a nan in X @ A:
    # the network sees it, and the result is np.sort's, nans last
    rng = make_rng(3)
    A = rng.standard_normal((3, 12))
    A[0, 5] = 0.0
    X = rng.standard_normal((1800, 4, 3))
    X[17, 2, 0] = np.inf
    with np.errstate(invalid="ignore"), network_results() as results:
        got = sorted_stack(A, X)
        want = np.sort(X @ A, axis=-2)
    assert results == [False]
    assert np.isnan(got[17, 3, 5]) and np.isnan(got).sum() == 1
    assert np.array_equal(got, want, equal_nan=True)


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
    lead=st.sampled_from([1, 2]),
    rows=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=120, deadline=None)
# a 5e-324 row projects to -0.0 next to a zero row's 0.0: the network gives
# (-0.0, -0.0) where np.sort keeps (0.0, -0.0)
@example(n=2, d=2, D=2, wide=True, extra=0, pool=[0.0, 5e-324], lead=1, rows=True, seed=1)
def test_a_stacked_sort_projection_gives_each_cloud_the_bits_of_a_single_one(
    n, d, D, wide, extra, pool, lead, rows, seed
):
    # a stack of two or more clouds through _sorted_rows is sorted by the
    # network (n <= 6), and one through _sort_project, like every single
    # cloud here, by np.sort.  Two leading axes are the sketch check's
    # (2, count, n, d), and _sorted_rows is how every empirical check
    # sorts its stacks.
    t = -(-_WIDE // D) + extra if wide else 1 + extra % 8
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    clouds = rng.standard_normal((lead * t, n, d))
    if pool:
        picks = rng.random(clouds.shape) < 0.3
        clouds[picks] = rng.choice(np.array(pool), size=int(picks.sum()))
        clouds[rng.random((lead * t, n)) < 0.2] = pool[0]  # whole rows of one value
    stack = clouds.reshape(2, t, n, d) if lead == 2 else clouds
    with np.errstate(over="ignore", invalid="ignore"):
        S = sorted_stack(A, stack) if rows and len(clouds) > 1 else _sort_project(A, stack)
        singles = [sorted_embedding(A, X) for X in clouds]
    assert S.shape == stack.shape[:-1] + (D,)
    # + 0.0 turns -0.0 into 0.0 and keeps the bits of every other value, so
    # the bits agree up to the sign of a zero, which the network may flip
    S = S.reshape(-1, n, D)
    assert all((S[k] + 0.0).tobytes() == (singles[k] + 0.0).tobytes() for k in range(len(clouds)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n, d, D", [(2, 3, 512), (4, 2, 700), (6, 4, 1024)])
def test_clouds_wide_enough_for_the_network_keep_the_bits_of_their_own_product(m, n, d, D):
    # one cloud, or a few, with enough directions for the sorting network on
    # their own: a lone cloud's points apart would be vector-matrix products,
    # whose bits differ from those of the cloud's one matrix product
    rng = make_rng(n * D + m)
    A = rng.standard_normal((d, D))
    X = rng.standard_normal((m, n, d))
    want = [(np.sort(x @ A, axis=0) + 0.0).tobytes() for x in X]
    assert [(sorted_embedding(A, x) + 0.0).tobytes() for x in X] == want
    S = sorted_stack(A, X) if m > 1 else _sort_project(A, X)
    assert [(cloud + 0.0).tobytes() for cloud in S] == want


def nan_canonical(S):
    """The bytes of S with every NaN made np.nan, so equal bytes are equal
    values, zero signs included, and NaNs in the same places."""
    return np.where(np.isnan(S), np.nan, S).tobytes()


def gaps_of_the_sorted_embeddings(A, pairs, column_major):
    """The gap rows of a stack of pairs as sorted embeddings give them: E[0::2] - E[1::2]."""
    n, d = pairs.shape[-2:]
    E = sorted_stack(A, pairs.reshape(-1, n, d))
    G = E[0::2] - E[1::2]
    return (G.transpose(0, 2, 1) if column_major else G).reshape(len(pairs), -1)


@pytest.mark.parametrize("n", range(2, 9))
@given(
    d=st.integers(1, 3),
    D=st.integers(1, 80),
    count=st.integers(1, 60),
    cap=st.sampled_from([2**8, 2**11, embeddings._GAP_ELEMENTS]),
    ties=st.booleans(),
    nan=st.booleans(),
    column_major=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
# seven pairs in sub-blocks of six at n <= 6, where the network runs
@example(d=2, D=64, count=7, cap=2**12, ties=False, nan=False, column_major=False, seed=0)
@example(d=2, D=64, count=7, cap=2**12, ties=False, nan=True, column_major=True, seed=0)
# a NaN among many sub-blocks with signed zeros, which np.sort keeps at n > 6
@example(d=3, D=24, count=60, cap=2**11, ties=True, nan=True, column_major=False, seed=2)
# fewer than 512 columns: the network at n <= 6, as for any count
@example(d=3, D=12, count=20, cap=2**11, ties=True, nan=False, column_major=True, seed=1)
def test_sorted_gaps_equal_the_gaps_of_the_sorted_embeddings(
    n, d, D, count, cap, ties, nan, column_major, seed
):
    # the audit's gaps, row-major for the pool and column-major for the
    # sketch check, against its former path through the sorted embeddings;
    # a small cap cuts the pairs into many sub-blocks, the last one short
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    pairs = rng.standard_normal((count, 2, n, d))
    if ties:  # zero points, which project to signed zeros, and repeated points
        pairs[rng.random((count, 2, n)) < 0.2] = rng.choice([0.0, -0.0])
        pairs[:, :, -1] = pairs[:, :, 0]
    spoilt = None
    if nan:
        spoilt = int(rng.integers(count))
        pairs[spoilt, 1, -1, 0] = np.nan
    subs = _blocks(count, 2 * (n + 1) * D, cap) if n in _NETWORKS else []
    with patch.object(embeddings, "_GAP_ELEMENTS", cap), network_results() as sorted_:
        got = _sorted_gaps(A, pairs, column_major=column_major)
    want = gaps_of_the_sorted_embeddings(A, pairs, column_major)
    assert got.shape == (count, n * D) and got.flags.c_contiguous
    # the network sorts every sub-block but the one holding the NaN, which
    # goes to np.sort
    assert sorted_ == [not (nan and sub.start <= spoilt < sub.stop) for sub in subs]
    if nan and n in _NETWORKS:
        # the single call sends the whole stack to np.sort, which may give a
        # zero the other sign than the network does
        assert np.array_equal(got, want, equal_nan=True)
    else:
        # past n = 6 both sort every sub-block by np.sort, NaN or not
        assert nan_canonical(got) == nan_canonical(want)


# Stacks at the shapes the empirical checks sort: spot-check sub-blocks, a
# (2, count, n, d) stack, one of n = 6, an audit-sized block whose
# per-point products are large enough for OpenBLAS to thread, narrow
# stacks of fewer than 512 columns (an extra pair among them), stacks of
# n = 7 and 8, which np.sort sorts, one of one-point clouds, projected
# cloud by cloud, and two stacks with a NaN, which goes to np.sort at any
# n; then the gaps of an audit-sized stack of pairs.
_STACKS_AT_THREADS = """
import hashlib, sys
import numpy as np
from permorb import make_rng, sorted_embedding
from permorb.embeddings import _sorted_gaps, _sorted_rows

def bits(S):
    # +0.0 turns -0.0 into 0.0, which the network may give, and every NaN
    # is made np.nan
    return np.where(np.isnan(S), np.nan, S + 0.0).tobytes()

digest = hashlib.sha256()
for lead, n, d, D, nan in [((227,), 4, 3, 12, False), ((303,), 3, 2, 10, False),
                           ((2, 200), 4, 3, 12, False), ((300,), 6, 4, 20, False),
                           ((2000,), 4, 3, 64, False), ((2,), 3, 2, 10, False),
                           ((7,), 4, 3, 12, False), ((2, 3), 6, 4, 20, False),
                           ((801,), 7, 3, 24, False), ((2, 50), 8, 5, 64, False),
                           ((2,), 8, 2, 8, False), ((300,), 1, 3, 24, False),
                           ((300,), 4, 3, 12, True),
                           ((300,), 8, 3, 24, True)]:
    rng = make_rng(n * D)
    A = rng.standard_normal((d, D))
    stack = rng.standard_normal((*lead, n, d))
    clouds = stack.reshape(-1, n, d)
    if nan:
        clouds[len(clouds) // 2, 1, 0] = np.nan
    S = np.stack(_sorted_rows(A, clouds, np.empty((n + 1, len(clouds), D))), axis=1)
    for X, got in zip(clouds, S):
        assert bits(got) == bits(np.sort(X @ A, axis=0))  # the cloud's own product
    assert np.isnan(S).any() == nan
    digest.update(bits(S))
# the audit's gaps of an audit-sized stack of pairs
rng = make_rng(0)
A = rng.standard_normal((3, 64))
pairs = rng.standard_normal((1000, 2, 4, 3))
G = _sorted_gaps(A, pairs)
for (X, Y), got in zip(pairs, G):
    want = sorted_embedding(A, X) - sorted_embedding(A, Y)
    assert (got + 0.0).tobytes() == (want.ravel() + 0.0).tobytes()
digest.update((G + 0.0).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_stacked_sort_projections_match_single_ones_at_one_and_two_blas_threads():
    # a BLAS sets its thread count when it loads, so each count runs in a
    # fresh interpreter; the stacks' bits must not move with it either
    src = str(Path(permorb.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _STACKS_AT_THREADS], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout)
    assert len(digests) == 1


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
