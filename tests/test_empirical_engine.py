"""The batched empirical checks against their reference loops.

``empirical_distortion`` and ``ose_check`` sample their pairs sequentially
and embed them in batches.  The audit pool (``sample_pair_pool``) is drawn
into one array by a loop that only calls the generator;
``empirical_distortion`` takes every distance of a block from one batched
subset DP (``_assignment_totals``) and every gap norm from one BLAS dot
per pair (``embeddings._dot_norms``).  The DP's least total is checked
bit for bit against every matching's total added in row order, and so
against ``_enumerated_distance`` for n <= 7; the dots against
``np.linalg.norm`` of each fresh gap.  ``ose_check`` takes its denominators from the same
dots and screens its ratios through the Gram matrix of a sketch with at
least as many rows as columns, formed once per check; a wider sketch is
not screened, and every pair takes the per-pair matvec.  The screen's
margins are checked on their own against the per-pair norm of ``L @ x``,
at one and two BLAS threads.  The
loops below are the per-pair forms they replaced, written with the
public, validating functions and the generator calls of the original
code; the batched checks must reproduce their draws and reports exactly,
floats included.  At n = 8 numpy sums a matching's eight costs as a
balanced tree, not in row order, so there the audit is checked against a
loop whose distance adds them in row order, and against the assignment
solver's loop within a few ulps.

``spot_check_injectivity`` draws each block of trials once and redraws
the Ys that its sorted-column floor puts within 0.1 of their X.  Its
reference loop takes the same blocks from ``_blocks`` and the same
generator calls, one trial at a time, with ``np.sort`` for the floor and
the public embeddings; it must reproduce the report and every embedded
cloud, which the spot check projects one third (X, Y or same-orbit) of a
sub-block at a time.  The spot check's guarantees are also checked on
their own: every tested pair lies at least 0.1 apart, every same-orbit
copy permutes the rows of its X, and no assignment is solved.  Its
buffers are held per thread across calls: a warmed call at the perfbench
shapes takes no minor page faults, earlier calls of larger shapes or
concurrent calls in another thread leave its reports as they are, and
it holds less than a call used to peak at.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from permorb import (
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    make_rng,
    orbit_distance,
    orbit_distance_bruteforce,
    ose_check,
    ose_dimension,
    parity_counterexample,
    pooled_embedding,
    sketched_embedding,
    sorted_embedding,
    spot_check_injectivity,
)
from permorb import audit, embeddings, metrics, separation
from permorb.audit import (
    _NO_OVERFLOW,
    OseReport,
    sample_pair_pool,
)
from permorb.constructions import adversarial_circle_pair
from permorb.embeddings import _BLOCK_ELEMENTS, _blocks, _dot_norms
from permorb.metrics import (
    _all_permutations,
    _assignment_distance,
    _assignment_totals,
    _assignment_width,
    _enumerated_distance,
)
from permorb.separation import InjectivityReport


def reference_pool(n, d, count, seed):
    """The audit pool as the per-pair loop drew it: fresh arrays per pair."""
    rng = make_rng(seed)
    pairs = []
    if d >= 2:
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


def reference_ratios(A, pairs, distance=lambda X, Y: orbit_distance(X, Y).distance):
    ratios = []
    for X, Y in pairs:
        dist = distance(X, Y)
        if dist < 1e-8:
            continue
        gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
        ratios.append(gap / dist)
    return min(ratios), max(ratios), len(ratios)


def audit_ratios(report):
    return report.empirical_C1, report.empirical_C2, report.pair_count


def reference_ose_ratios(A, L, n, trials, seed):
    """The ratio of every used pair, and the number of skipped pairs.

    A pair is skipped when its gap norm is below 1e-10 times 2**k, the
    binade max |A| = f 2**k (0.5 <= f < 1) of the directions.
    """
    d = A.shape[0]
    k = math.frexp(float(np.max(np.abs(A))))[1]
    rng = make_rng(seed)
    ratios = []
    skipped = 0
    for _ in range(trials):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        X = scale * rng.standard_normal((n, d))
        Y = scale * rng.standard_normal((n, d))
        diff = (sorted_embedding(A, X) - sorted_embedding(A, Y)).ravel(order="F")
        denom = float(np.linalg.norm(diff))
        if math.ldexp(denom, -k) < 1e-10:
            skipped += 1
            continue
        ratios.append(float(np.linalg.norm(L @ diff)) / denom)
    return ratios, skipped


def reference_ose_check(A, L, n, epsilon, trials, seed):
    ratios, skipped = reference_ose_ratios(A, L, n, trials, seed)
    violations = 0
    max_err = 0.0
    for rho in ratios:
        max_err = max(max_err, abs(rho - 1.0))
        if rho < 1.0 - epsilon or rho > 1.0 + epsilon:
            violations += 1
    return OseReport(violations, max_err, len(ratios), skipped, epsilon, L.shape[0], seed)


def sorted_floor(X, Y):
    """The sorted-column floor on dist(X, Y), with np.sort."""
    gap = np.sort(X, axis=0) - np.sort(Y, axis=0)
    return math.sqrt(np.sum(gap * gap))


def reference_spot_check(kind, n, d, D, *, M=None, trials, seed, extra_pairs=()):
    """The spot check one trial at a time: its report, the clouds it embeds
    (X, Y and the same-orbit copy per trial, then X and Y per extra pair)
    and the number of Ys it redrew."""
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    width = n * max(d, D)
    if kind == "pooled":
        B = rng.standard_normal((n, D))
        embed = lambda X: pooled_embedding(A, B, X)  # noqa: E731
    elif kind == "sketched":
        L = rng.standard_normal((M, n * D)) / math.sqrt(M)
        embed = lambda X: sketched_embedding(A, L, X)  # noqa: E731
        width = max(width, M)
    else:
        embed = lambda X: sorted_embedding(A, X).ravel(order="F")  # noqa: E731
    collisions = 0
    false_separations = 0
    clouds = []
    redraws = 0
    for block in _blocks(trials, 3 * width):
        count = block.stop - block.start
        Xs, Ys = rng.standard_normal((2, count, n, d))
        perms = [rng.permutation(n) for _ in range(count)]
        for X, Y, perm in zip(Xs, Ys, perms):
            attempts = 0
            while sorted_floor(X, Y) < 0.1:
                assert attempts < 100
                Y = rng.standard_normal((n, d))
                attempts += 1
            redraws += attempts
            same = X[perm]
            clouds += [X, Y, same]
            ex = embed(X)
            if float(np.linalg.norm(ex - embed(Y))) <= 1e-8:
                collisions += 1
            scale = max(1.0, float(np.linalg.norm(ex)))
            if float(np.linalg.norm(ex - embed(same))) > 1e-9 * scale:
                false_separations += 1
    for X, Y in extra_pairs:
        clouds += [X, Y]
        if float(np.linalg.norm(embed(X) - embed(Y))) <= 1e-8:
            collisions += 1
    report = InjectivityReport(kind, n, d, D, M, trials, collisions, false_separations, seed)
    return report, clouds, redraws


def row_order_distance(X, Y):
    return math.sqrt(row_order_totals(X, Y)[0])


def check_against_the_pair_loop(A, n, trials, seed):
    """The audit's C1, C2 and pair count against the per-pair loop.  At
    n = 8 the loop adds each matching's costs in row order, and C1 and C2
    lie within 16 u of the assignment solver's loop: each of the two sums
    of one matching's eight costs errs by at most gamma_7."""
    report = empirical_distortion(A, n, trials, seed)
    pairs = reference_pool(n, A.shape[0], trials, seed)
    solved = reference_ratios(A, pairs)
    if n < 8:
        assert audit_ratios(report) == solved
        return
    assert audit_ratios(report) == reference_ratios(A, pairs, row_order_distance)
    for got, want in zip(audit_ratios(report)[:2], solved[:2]):
        assert abs(got - want) <= 16 * 2.0**-53 * want


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_empirical_distortion_matches_the_pair_loop(n):
    for d in (2, 3, 5):
        for D in (3, 8, 17):
            for seed in (0, 1):
                A = gaussian_directions(d, D, 50 + 7 * d + D)
                check_against_the_pair_loop(A, n, 120, seed)


def test_empirical_distortion_matches_the_pair_loop_across_blocks():
    n, trials = 8, 300
    A = circle_directions(256)
    assert len(_blocks(trials, 2 * n * 256)) > 1
    check_against_the_pair_loop(A, n, trials, 3)


def test_sample_pair_pool_draws_the_pairs_of_the_pair_loop():
    for n in range(2, 9):
        for d in range(1, 6):
            for seed in range(5):
                pool = sample_pair_pool(n, d, 40, seed)
                want = np.array(reference_pool(n, d, 40, seed))
                assert pool.shape == (40, 2, n, d)
                assert pool.tobytes() == want.tobytes(), (n, d, seed)


def test_sample_pair_pool_of_one_pair():
    assert sample_pair_pool(3, 2, 1, 0).tobytes() == np.array(reference_pool(3, 2, 1, 0)).tobytes()
    assert sample_pair_pool(3, 1, 1, 0).tobytes() == np.array(reference_pool(3, 1, 1, 0)).tobytes()


@pytest.mark.parametrize("lo", [-2.0, -5.0])
def test_uniform_is_a_scaled_random(lo):
    # sample_pair_pool and ose_check draw lo + 4.0 * rng.random() where the
    # pair loop drew rng.uniform(lo, lo + 4.0): same values, same stream
    uniform, scaled = make_rng(11), make_rng(11)
    want = [uniform.uniform(lo, lo + 4.0) for _ in range(200_000)]
    got = [lo + 4.0 * scaled.random() for _ in range(200_000)]
    assert got == want
    assert same_state(scaled, uniform)


def test_unit_uniform_is_random():
    uniform, plain = make_rng(12), make_rng(12)
    assert [uniform.uniform() for _ in range(100_000)] == [plain.random() for _ in range(100_000)]
    assert same_state(plain, uniform)


def same_state(a, b):
    """Whether two generators stand at the same point of the same stream."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return repr(sa) == repr(sb) and np.array_equal(a.bit_generator.random_raw(8),
                                                   b.bit_generator.random_raw(8))


# ---------------------------------------------------------------------------
# the batched assignment and the batched gap norms
# ---------------------------------------------------------------------------

# Multiples of 1/4 in [-2, 2]: costs and totals of such clouds are exact.
_DYADIC = [k / 4 for k in range(-8, 9)]


@st.composite
def cloud_pairs(draw):
    """(X, Y): rows taken from a palette of at most four rows, so rows
    repeat and coordinates tie; every coordinate dyadic, or some not."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    value = st.sampled_from(_DYADIC) if draw(st.booleans()) else st.one_of(
        st.sampled_from(_DYADIC), st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    palette = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = st.lists(st.integers(0, len(palette) - 1), min_size=n, max_size=n)
    X = np.array([palette[i] for i in draw(rows)], dtype=float)
    Y = np.array([palette[i] for i in draw(rows)], dtype=float)
    return X, Y


def row_order_totals(X, Y):
    """Every matching's total, its costs added in row order, least first."""
    n = len(X)
    cost = cdist(X, Y, "sqeuclidean")
    picked = cost[np.arange(n), _all_permutations(n)]
    totals = picked[:, 0].copy()
    for i in range(1, n):
        totals += picked[:, i]
    return np.sort(totals)


def check_the_screen(X, Y):
    """The DP's least total is the least row-order total, bit for bit, ties
    included; for n <= 7 its sqrt is the enumeration's distance."""
    n = len(X)
    best = _assignment_totals(np.array([[X, Y]]))[0]
    assert best == row_order_totals(X, Y)[0]
    if n <= 7:
        assert math.sqrt(best) == _enumerated_distance(X, Y)[0]


def check_the_reference(X, Y):
    """The enumeration against linear_sum_assignment: never above it, and
    its bits wherever the least total is apart from every other (the
    margin within which the solver picks the least-total matching).  Its
    row sums are those of a 1-D numpy sum, as the solver's total is; at
    n = 8 numpy's pairwise sum no longer adds in row order, so the margin
    is taken on row_order_totals."""
    n = len(X)
    enumerated, sigma = _enumerated_distance(X, Y)
    solved = _assignment_distance(X, Y)[0]
    cost = cdist(X, Y, "sqeuclidean")
    totals = row_order_totals(X, Y)
    assert enumerated == math.sqrt(cost[np.arange(n), sigma].sum())
    assert enumerated <= solved
    if n == 1 or totals[1] - totals[0] > n * cost.max() * 2.0**-30:
        assert enumerated == solved


@given(cloud_pairs())
@settings(max_examples=300, deadline=None)
def test_the_assignment_dp_matches_the_bruteforce(pair):
    check_the_screen(*pair)
    check_the_reference(*pair)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_assignment_dp_on_the_adversarial_pair(n):
    for d in (2, 3, 4):
        pair = adversarial_circle_pair(n, d)
        check_the_screen(pair.X, pair.Y)
        check_the_reference(pair.X, pair.Y)
        assert _enumerated_distance(pair.X, pair.Y)[0] == orbit_distance(pair.X, pair.Y).distance


def test_the_screen_bounds_the_reference_on_repeated_rows():
    rng = make_rng(5)
    for n in range(2, 9):
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 3))
        Y[1] = Y[0]  # swapping their partners leaves every total as it is
        check_the_screen(X, Y)
        check_the_reference(X, Y)


@given(st.integers(1, 8), st.integers(1, 4), st.integers(-3, 3), st.integers(0, 2**32 - 1),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_reference_enumeration_against_the_assignment_solver(n, d, decade, seed, repeated):
    X, Y = 10.0**decade * make_rng(seed).standard_normal((2, n, d))
    if repeated and n > 1:
        Y[1] = Y[0]  # a planted tie
    check_the_screen(X, Y)
    check_the_reference(X, Y)


def test_the_assignment_dp_stays_within_one_block():
    # the widest tables: n = 8, in the largest block the audit forms
    n, d, D = 8, 4, 2
    block = _blocks(10**6, max(2 * n * max(d, D), _assignment_width(n)))[0]
    pairs = make_rng(6).standard_normal((block.stop, 2, n, d))
    tracemalloc.start()
    try:
        _assignment_totals(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _BLOCK_ELEMENTS


def planted_pool(n, d, count, seed):
    """The pool of the seed with a pair at orbit distance about 1e-8 and a
    pair with a tied matching planted into it."""
    pairs = reference_pool(n, d, count, seed)
    X = np.arange(n * d, dtype=float).reshape(n, d)
    Y = X.copy()
    Y[0, 0] += 1e-8
    pairs[5] = (X, Y[::-1].copy())
    X, Y = pairs[7]
    Y = Y.copy()
    Y[1] = Y[0]
    pairs[7] = (X, Y)
    return pairs


@pytest.mark.parametrize("n", [2, 4, 6])
def test_empirical_distortion_matches_the_pair_loop_on_a_planted_pool(monkeypatch, n):
    d, D, count, seed = 3, 8, 60, 4
    pairs = planted_pool(n, d, count, seed)
    monkeypatch.setattr(audit, "sample_pair_pool", lambda *args: np.array(pairs))
    A = gaussian_directions(d, D, 70 + n)
    report = empirical_distortion(A, n, count, seed)
    assert audit_ratios(report) == reference_ratios(A, pairs)


@given(st.integers(1, 8), st.integers(1, 64), st.integers(1, 12), st.integers(-3, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_the_batched_gap_norms_match_the_norm_of_each_gap(n, D, count, decade, seed):
    # rows of a stacked (count, n, D) gap, in the audit's row-major order and
    # in ose_check's column-major order, against a norm of each fresh gap
    gap = 10.0**decade * make_rng(seed).standard_normal((count, n, D))
    for rows in (gap.reshape(count, -1), gap.transpose(0, 2, 1).reshape(count, -1)):
        want = [float(np.linalg.norm(g.copy())) for g in rows]
        assert _dot_norms(rows).tolist() == want
    assert _dot_norms(gap.reshape(count, -1)).tolist() == [float(np.linalg.norm(g)) for g in gap]


@pytest.mark.parametrize("n, d, D, M", [(2, 2, 3, 9), (3, 2, 7, 40), (4, 3, 12, 25), (5, 4, 9, 60)])
def test_ose_check_matches_the_pair_loop(n, d, D, M):
    for seed in (0, 1, 2):
        A = gaussian_directions(d, D, 90 + seed)
        L = gaussian_sketch(n, D, M, 190 + seed)
        assert ose_check(A, L, n, 0.3, 150, seed) == reference_ose_check(A, L, n, 0.3, 150, seed)


def test_ose_check_matches_the_pair_loop_across_blocks():
    # a 16 x 2048 sketch: fewer rows than columns
    n, D, trials = 8, 256, 300
    assert len(_blocks(trials, 2 * n * D)) > 1
    A = circle_directions(D)
    L = gaussian_sketch(n, D, 16, 5)
    assert ose_check(A, L, n, 0.5, trials, 5) == reference_ose_check(A, L, n, 0.5, trials, 5)


def test_ose_check_matches_the_pair_loop_with_few_pairs_and_a_wide_sketch():
    # 20 pairs against 2048 sketch columns
    n, D, trials = 8, 256, 20
    A = circle_directions(D)
    L = gaussian_sketch(n, D, 40, 7)
    assert ose_check(A, L, n, 0.5, trials, 7) == reference_ose_check(A, L, n, 0.5, trials, 7)


def test_ose_check_of_a_wide_sketch_forms_no_gram_matrix():
    # a 16 x 2048 sketch and 2048 trials: every pair is confirmed with the
    # matvec, and no 2048 x 2048 Gram matrix (32 MB) is formed
    n, D, M = 8, 256, 16
    N = n * D
    A = circle_directions(D)
    L = gaussian_sketch(n, D, M, 9)
    tracemalloc.start()
    try:
        got = ose_check(A, L, n, 0.5, N, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N
    assert got == reference_ose_check(A, L, n, 0.5, N, 9)


def count_gram_calls(monkeypatch):
    """The shapes of the sketches audit._gram gives a Gram matrix for, from now on."""
    calls = []
    gram = audit._gram

    def counted(L, G=None):
        screen = gram(L, G)
        if screen[0] is not None:
            calls.append(L.shape)
        return screen

    monkeypatch.setattr(audit, "_gram", counted)
    return calls


def test_ose_check_matches_the_pair_loop_across_blocks_with_a_tall_sketch(monkeypatch):
    # each block screens against the whole sketch, through one Gram matrix
    # formed for the check, and confirms its own candidates
    n, d, D, M, trials = 4, 3, 24, 300, 6000
    assert len(_blocks(trials, 2 * n * D)) == 2
    A = gaussian_directions(d, D, 17)
    L = gaussian_sketch(n, D, M, 5)
    calls = count_gram_calls(monkeypatch)
    assert ose_check(A, L, n, 0.1, trials, 5) == reference_ose_check(A, L, n, 0.1, trials, 5)
    assert len(calls) == 1


@pytest.mark.parametrize("below", [1, 0])
def test_ose_check_takes_the_gram_route_from_as_many_trials_as_sketch_columns(monkeypatch, below):
    # the sketch's shape picks the route, whatever the trial count: a Gram
    # matrix for M = N sketch rows, none for M = N - 1
    n, d, D = 3, 2, 8
    M = n * D - below
    A = gaussian_directions(d, D, 23)
    L = gaussian_sketch(n, D, M, 24)
    calls = count_gram_calls(monkeypatch)
    for trials in (5, n * D, 3 * n * D):
        for seed in (0, 1, 2):
            want = reference_ose_check(A, L, n, 0.2, trials, seed)
            assert ose_check(A, L, n, 0.2, trials, seed) == want
    assert len(calls) == (9 if below == 0 else 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_ose_check_matches_the_pair_loop_at_the_cli_shape(seed):
    # permorb audit --check-ose with n=6 on a 3 x 24 matrix: an 18,921 x 144 sketch
    n, d, D = 6, 3, 24
    M = ose_dimension(n, d, D, 0.25, 0.1)
    A = gaussian_directions(d, D, 60 + seed)
    L = gaussian_sketch(n, D, M, seed)
    assert ose_check(A, L, n, 0.25, 200, seed) == reference_ose_check(A, L, n, 0.25, 200, seed)


def test_ose_check_matches_the_pair_loop_with_a_ratio_on_the_threshold():
    n, d, D, M, trials, seed = 3, 2, 7, 40, 60, 4
    A = gaussian_directions(d, D, 12)
    L = gaussian_sketch(n, D, M, 13)
    ratios, _ = reference_ose_ratios(A, L, n, trials, seed)
    for rho in ratios:
        # a threshold one ulp below the pair's ratio, on it, and one ulp above
        for edge in (np.nextafter(rho, 0.0), rho, np.nextafter(rho, 2.0)):
            epsilon = abs(float(edge) - 1.0)
            assert edge in (1.0 - epsilon, 1.0 + epsilon)
            got = ose_check(A, L, n, epsilon, trials, seed)
            assert got == reference_ose_check(A, L, n, epsilon, trials, seed), (rho, edge)


def test_ose_check_matches_the_pair_loop_with_an_orthonormal_sketch():
    # ||L x|| = ||x||: every ratio error is a few ulps, so every pair lies
    # within the screen's margin of the largest and is confirmed
    n, d, D, M = 4, 3, 6, 60
    A = gaussian_directions(d, D, 21)
    L = np.linalg.qr(make_rng(22).standard_normal((M, n * D)))[0]
    report = ose_check(A, L, n, 0.1, 150, 8)
    assert report == reference_ose_check(A, L, n, 0.1, 150, 8)
    assert report.max_ratio_error < 1e-13


@pytest.mark.parametrize("scale", [1e140, 1e151, 1e155])
def test_ose_check_matches_the_pair_loop_with_a_huge_sketch(scale):
    # at 1e151 ||L||_F ||x|| is too large for the screen's margins and every
    # pair is confirmed; at 1e155 the reference norms themselves overflow to inf
    n, d, D, M = 3, 2, 5, 30
    A = gaussian_directions(d, D, 31)
    L = scale * gaussian_sketch(n, D, M, 32)
    with np.errstate(over="ignore"):
        got = ose_check(A, L, n, 0.2, 40, 3)
        want = reference_ose_check(A, L, n, 0.2, 40, 3)
    assert got == want
    assert (want.max_ratio_error == math.inf) == (scale > 1e152)


@given(
    st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 40),
    st.floats(0.01, 0.9), st.integers(1, 30), st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
@example(3, 2, 5, 14, 0.2, 20, 1)  # a wide sketch: 14 rows, 15 columns
@example(3, 2, 5, 15, 0.2, 20, 1)  # a square one, screened through its Gram matrix
def test_ose_check_matches_the_pair_loop_on_small_shapes(n, d, D, M, epsilon, trials, seed):
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    L = rng.standard_normal((M, n * D)) / math.sqrt(M)
    got = ose_check(A, L, n, epsilon, trials, seed)
    assert got == reference_ose_check(A, L, n, epsilon, trials, seed)


def check_the_ose_margin(V, L):
    """The screen's margin on each gap row x of V bounds its distance from
    the reference fl(||L @ x||) / fl(||x||) that ose_check confirms with."""
    denom = _dot_norms(V)
    with np.errstate(over="ignore"):
        rho, tau = audit._sketch_screen(V, denom, *audit._gram(L), len(L))
        ref = np.array([float(np.linalg.norm(L @ x)) / float(r) for x, r in zip(V, denom)])
    assert (np.abs(rho - ref) <= tau).all(), np.max(np.abs(rho - ref) - tau)
    return rho, tau


def _ose_margin_case(case, rng):
    """(V, L) for one margin case: P gap rows of N floats and an M x N sketch."""
    N = 48
    M = 20 if case == "null space" else 300
    L = rng.standard_normal((M, N)) / math.sqrt(M)
    V = rng.standard_normal((60, N))
    if case == "spread":
        V *= 10.0 ** rng.uniform(-3.0, 3.0, (60, 1))
    elif case == "null space":
        # rows in L's null space, some with a small part outside it
        null = np.linalg.svd(L)[2][M:]
        V[:40] = rng.standard_normal((40, N - M)) @ null
        V[20:40] += 1e-6 * rng.standard_normal((20, N))
    elif case == "repeated rows":
        L = np.repeat(L[:1], M, axis=0)
    elif case == "orthonormal":
        L = np.linalg.qr(rng.standard_normal((M, N)))[0]
    elif case == "tiny sketch":
        # the Gram matrix and the margin's own squares underflow to zero
        L *= 1e-170
    return V, L


@pytest.mark.parametrize("route", ["gram"])  # the screen's one route, named in the test ids
@pytest.mark.parametrize(
    "case", ["spread", "null space", "repeated rows", "orthonormal", "tiny sketch"]
)
def test_the_ose_screen_margin_bounds_the_reference(case, route):
    for seed in range(4):
        V, L = _ose_margin_case(case, make_rng(seed))
        rho, tau = check_the_ose_margin(V, L)
        if case != "null space":
            assert (tau < 1e-6).all()  # small enough to leave few pairs to confirm
        if case == "orthonormal":
            assert (np.abs(rho - 1.0) < 1e-13).all()


@pytest.mark.parametrize("route", ["gram"])  # the screen's one route, named in the test ids
@pytest.mark.parametrize("fro, gap_scale", [(1e153, 1e3), (1.2e154, 1e-9)])
def test_the_ose_screen_margin_is_infinite_past_the_overflow_guard(fro, gap_scale, route):
    # at 1.2e154 ||L||_F ||x|| is far below the guard, but ||L||_F^2, the
    # size of the Gram matrix's entries, is within a factor 2 of overflow
    rng = make_rng(9)
    unit = rng.standard_normal((30, 12))
    unit /= np.linalg.norm(unit)
    V = gap_scale * rng.standard_normal((15, 12))
    rho, tau = check_the_ose_margin(V, fro * unit)
    assert fro * max(1.0, float(np.max(_dot_norms(V)))) > _NO_OVERFLOW
    assert np.isinf(tau).all()


# ose_check against the pair loop at the CLI shape, under a given BLAS
# thread count: the syrk, gemm and gemv orders change with it
_OSE_AT_THREADS = """
from test_empirical_engine import reference_ose_check
from permorb import gaussian_directions, gaussian_sketch, ose_check, ose_dimension
n, d, D = 6, 3, 24
M = ose_dimension(n, d, D, 0.25, 0.1)
for seed in (0, 1):
    A = gaussian_directions(d, D, 60 + seed)
    L = gaussian_sketch(n, D, M, seed)
    got = ose_check(A, L, n, 0.25, 200, seed)
    assert got == reference_ose_check(A, L, n, 0.25, 200, seed), (seed, got)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ose_check_matches_the_pair_loop_at_one_and_two_blas_threads(threads):
    # a BLAS sets its thread count when it loads, so each count runs in a
    # fresh interpreter
    src = str(Path(audit.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _OSE_AT_THREADS], env=env, check=True)


# the perfbench spot-check shapes
SPOT_SHAPES = [("sorted", 4, 3, 12, None), ("pooled", 3, 2, 10, None), ("sketched", 4, 3, 12, 48)]


def checked_spot_check(monkeypatch, kind, n, d, D, *, trials, extra_pairs=(), **kwargs):
    """The report of spot_check_injectivity, the clouds it embeds in the
    reference loop's order, and the trial count of each sub-block."""
    calls = []
    project = separation._sort_project

    def projected(A, S, out=None):
        calls.append(S.copy())
        return project(A, S, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(separation, "_sort_project", projected)
        report = spot_check_injectivity(kind, n, d, D, trials=trials, extra_pairs=extra_pairs,
                                        **kwargs)
    # one call per sub-block, its X, Y and same-orbit thirds stacked
    # (3, m, n, d), then one per extra pair
    stacks = calls[: len(calls) - len(extra_pairs)]
    clouds = []
    sizes = []
    for stack in stacks:
        assert stack.shape[0] == 3 and stack.shape[2:] == (n, d)
        clouds.extend(stack.swapaxes(0, 1).reshape(-1, n, d))
        sizes.append(stack.shape[1])
    assert sum(sizes) == trials
    for pair in calls[len(stacks):]:
        assert len(pair) == 2
        clouds.extend(pair)
    return report, np.array(clouds), sizes


def check_against_the_reference(monkeypatch, kind, n, d, D, **kwargs):
    """The spot check's report and embedded clouds equal the reference
    loop's; returns the reference's report and redraw count, and the trial
    count of each sub-block.  The clouds are compared too, as the reports
    alone would not change if the check drew different clouds."""
    got, clouds, sizes = checked_spot_check(monkeypatch, kind, n, d, D, **kwargs)
    want, reference, redraws = reference_spot_check(kind, n, d, D, **kwargs)
    assert got == want
    assert clouds.tobytes() == np.array(reference).tobytes()
    return want, redraws, sizes


@pytest.mark.parametrize("kind, n, d, D, M", SPOT_SHAPES)
def test_spot_check_matches_the_pair_loop(monkeypatch, kind, n, d, D, M):
    for seed in range(4):
        check_against_the_reference(monkeypatch, kind, n, d, D, M=M, trials=200, seed=seed)


@pytest.mark.parametrize("kind, M", [("sorted", None), ("sketched", 30)])
def test_spot_check_matches_the_pair_loop_with_a_planted_collision(monkeypatch, kind, M):
    n, d, D, seed = 4, 2, 3, 3
    A = make_rng(seed).standard_normal((d, D))  # the directions the check draws first
    pair = parity_counterexample(A, 11)
    report, _, _ = check_against_the_reference(monkeypatch, kind, n, d, D, M=M, trials=100,
                                               seed=seed, extra_pairs=[(pair.X, pair.Y)])
    assert report.collisions >= 1


def test_sketched_spot_check_with_a_wide_sketch_matches_the_pair_loop(monkeypatch):
    n, d, D, M, trials = 3, 2, 8, 6000, 150
    assert len(_blocks(trials, 3 * M)) > 1  # the sketch outputs span several blocks
    check_against_the_reference(monkeypatch, "sketched", n, d, D, M=M, trials=trials, seed=6)


@pytest.mark.parametrize("kind, n, d, D, M", SPOT_SHAPES)
def test_spot_check_matches_the_pair_loop_across_sub_blocks(monkeypatch, kind, n, d, D, M):
    # three full sub-blocks and a partial one, and a planted same-orbit
    # collision
    sub = separation._sub_block(n, d, D)
    X = make_rng(9).standard_normal((n, d))
    report, _, sizes = check_against_the_reference(monkeypatch, kind, n, d, D, M=M,
                                                   trials=3 * sub + sub // 2, seed=5,
                                                   extra_pairs=[(X, X[::-1])])
    assert sizes == [sub, sub, sub, sub // 2]
    assert report.collisions == 1


@pytest.mark.parametrize("kind, n, d, D, M, trials", [
    *((kind, n, d, D, M, 600) for kind, n, d, D, M in SPOT_SHAPES),
    ("sorted", 4, 3, 12, None, 10),  # 3 * 10 * 12 columns, fewer than the benchmark's
    ("pooled", 7, 2, 26, None, 100),  # n = 7: np.sort, not the network
])
def test_the_fused_gap_norms_match_a_call_per_third(monkeypatch, kind, n, d, D, M, trials):
    # each sub-block's 3 m norms, taken in place in one call, against one
    # call per norm set on a copy of its embeddings: X, X - Y, X - same
    fused = []
    gap_norms = separation._gap_norms

    def checked(E):
        EX, EY, ES = np.split(E.copy(), 3)
        norms = gap_norms(E)
        want = np.concatenate([_dot_norms(EX), _dot_norms(EX - EY), _dot_norms(EX - ES)])
        fused.append(norms.tobytes() == want.tobytes())
        return norms

    monkeypatch.setattr(separation, "_gap_norms", checked)
    X = make_rng(9).standard_normal((n, d))
    report = spot_check_injectivity(kind, n, d, D, M=M, trials=trials, seed=3,
                                    extra_pairs=[(X, X[::-1])])
    sub = min(separation._sub_block(n, d, D), trials)
    assert fused == [True] * -(-trials // sub)
    assert report.collisions == 1  # the extra pair, after the fused sub-blocks


def test_sketched_spot_check_with_a_4096_row_sketch_matches_the_pair_loop(monkeypatch):
    n, d, D, M, trials = 4, 3, 12, 4096, 200
    assert [b.stop - b.start for b in _blocks(trials, 3 * M)] == [85, 85, 30]
    _, _, sizes = check_against_the_reference(monkeypatch, "sketched", n, d, D, M=M,
                                              trials=trials, seed=4)
    assert sizes == [85, 85, 30]  # each block is one sub-block


@pytest.mark.parametrize("kind, n, d, D, M, bound", [
    # (peaks measured with numpy 2.4: 0.80, 0.62 and 1.08 MB; embedding each
    # 600-trial block whole peaks at 2.25, 1.39 and 2.27 MB)
    ("sorted", 4, 3, 12, None, 1_000_000),
    ("pooled", 3, 2, 10, None, 770_000),
    ("sketched", 4, 3, 12, 48, 1_350_000),
])
def test_spot_check_memory_is_bounded_by_its_sub_blocks(kind, n, d, D, M, bound):
    # a warmed call at a perfbench shape (600 trials, one block): the sort
    # stage's sub-blocks and the per-call buffers bound its peak allocation
    spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=0)
    tracemalloc.start()
    try:
        spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def fresh_interpreter(script):
    """The output of script in a fresh interpreter with one BLAS thread,
    whose spot checks start with no held buffers; it may import this module."""
    paths = [str(Path(separation.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True,
                          text=True).stdout


_MINOR_FAULTS_PER_CALL = """
import resource
from permorb import spot_check_injectivity
faults = {}
for kind, n, d, D, M in SHAPES:
    for seed in range(3):
        spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=seed)
for kind, n, d, D, M in SHAPES:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in range(50):
        spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=100 + seed)
    faults[kind] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
print(faults)
"""


def test_a_warmed_spot_check_takes_no_minor_faults():
    # the buffers of every block and sub-block are held per thread, so a
    # warmed call at a perfbench shape maps no pages (95-131 minor faults a
    # sketched call when they were allocated per call)
    faults = eval(fresh_interpreter(f"SHAPES = {SPOT_SHAPES!r}\n{_MINOR_FAULTS_PER_CALL}"))
    assert max(faults.values()) < 1.0, faults


def planted_spot_checks(trials):
    """The report of each perfbench shape's spot check, with a same-orbit
    extra pair that must count as one collision."""
    reports = []
    for kind, n, d, D, M in SPOT_SHAPES:
        X = make_rng(n).standard_normal((n, d))
        reports.append(spot_check_injectivity(kind, n, d, D, M=M, trials=trials, seed=7,
                                              extra_pairs=[(X, X[::-1])]))
    return reports


def test_a_small_spot_check_after_a_large_one_gives_the_fresh_reports(monkeypatch):
    fresh = fresh_interpreter("from test_empirical_engine import planted_spot_checks\n"
                              "print(repr(planted_spot_checks(100)))")
    # larger than the small shapes in every held buffer: the clouds, the
    # point-major rows, the sorted projections and the sketch outputs
    spot_check_injectivity("sorted", 6, 3, 64, trials=600, seed=0)
    spot_check_injectivity("sketched", 3, 2, 8, M=6000, trials=150, seed=0)
    reports = planted_spot_checks(100)
    assert repr(reports) == fresh.strip()
    assert [report.collisions for report in reports] == [1, 1, 1]
    for kind, n, d, D, M in SPOT_SHAPES:
        check_against_the_reference(monkeypatch, kind, n, d, D, M=M, trials=100, seed=7)


def test_spot_checks_in_three_threads_give_the_serial_reports():
    # one thread per perfbench shape, each with its own held buffers; on a
    # two-core host the threads outnumber the cores
    def checks(shape):
        kind, n, d, D, M = shape
        X = make_rng(n).standard_normal((n, d))
        return [spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=seed,
                                       extra_pairs=[(X, X[::-1])]) for seed in range(8)]

    serial = [checks(shape) for shape in SPOT_SHAPES]
    start = threading.Barrier(len(SPOT_SHAPES))

    def run(shape):
        start.wait(timeout=60)
        return checks(shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the calls, not only between them
    try:
        with ThreadPoolExecutor(len(SPOT_SHAPES)) as pool:
            together = list(pool.map(run, SPOT_SHAPES, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert together == serial
    assert all(report.collisions == 1 for reports in serial for report in reports)


def test_extra_pairs_after_a_call_of_several_sub_blocks_count_their_collision():
    n, d, D = 4, 3, 12
    sub = separation._sub_block(n, d, D)
    report = spot_check_injectivity("sorted", n, d, D, trials=3 * sub + sub // 2, seed=5)
    assert report.collisions == 0
    X = make_rng(9).standard_normal((n, d))
    report = spot_check_injectivity("sorted", n, d, D, trials=10, seed=5,
                                    extra_pairs=[(X, X[::-1])])
    assert report.collisions == 1


@pytest.mark.parametrize("kind, n, d, D, M", SPOT_SHAPES)
def test_an_extra_pair_whose_projections_overflow_counts_no_collision(monkeypatch, kind, n, d, D, M):
    # finite points of +-1e308 project to infinities, and their sums may
    # reach inf - inf = nan (whether they do depends on the BLAS kernel's
    # use of fused multiply-adds); the pair reaches the network either way,
    # and its non-finite gap must count no collision
    seed = 5
    A = make_rng(seed).standard_normal((d, D))  # the directions the check draws first
    X = make_rng(9).standard_normal((n, d))
    Y = X.copy()
    X[0] = Y[1] = [1e308, -1e308, 1e308][:d]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(X @ A).all()
    sorts = []
    network_sort = embeddings._network_sort

    def recorded(buffer):
        sorts.append(buffer.shape)
        return network_sort(buffer)

    monkeypatch.setattr(embeddings, "_network_sort", recorded)
    want = spot_check_injectivity(kind, n, d, D, M=M, trials=50, seed=seed)
    sampled = len(sorts)
    with np.errstate(over="ignore", invalid="ignore"):
        got = spot_check_injectivity(kind, n, d, D, M=M, trials=50, seed=seed,
                                     extra_pairs=[(X, Y)])
    assert got == want
    assert sorts[2 * sampled:] == [(n + 1, 2, D)]


@pytest.mark.parametrize("kind, n, d, D, M, peak", [
    # the per-call peaks of test_spot_check_memory_is_bounded_by_its_sub_blocks
    ("sorted", 4, 3, 12, None, 800_000),
    ("pooled", 3, 2, 10, None, 620_000),
    ("sketched", 4, 3, 12, 48, 1_080_000),
])
def test_a_spot_check_holds_less_than_a_call_used_to_peak_at(kind, n, d, D, M, peak):
    # holding the buffers moves memory out of each call; it must add none
    def held_bytes():
        spot_check_injectivity(kind, n, d, D, M=M, trials=600, seed=0)
        return sum(buffer.nbytes for buffer in embeddings._HELD.buffers.values())

    with ThreadPoolExecutor(1) as pool:  # a fresh thread holds no buffers yet
        held = pool.submit(held_bytes).result()
    assert 0 < held < peak


def test_sketched_spot_check_rejects_an_empty_sketch():
    # a zero-row sketch maps every cloud to the empty vector: every pair would collide
    for M in (0, -1):
        with pytest.raises(ValueError, match="M >= 1"):
            spot_check_injectivity("sketched", 3, 2, 5, M=M, trials=5)


@pytest.mark.parametrize("n, d, trials, seed", [
    # n = 2, d = 1: a few pairs in a hundred lie within 0.1 in one block
    *(pytest.param(2, 1, 3000, seed, id=str(seed)) for seed in range(6)),
    # seeds whose one block holds a pair the redraw screen cannot clear
    (3, 2, 300, 1), (4, 3, 300, 47), (5, 4, 300, 1078), (6, 4, 300, 606),
])
def test_spot_check_matches_the_pair_loop_where_ys_are_redrawn(monkeypatch, n, d, trials, seed):
    assert len(_blocks(trials, 3 * n * max(d, 3))) == 1
    suspects = []
    screen = separation._suspects

    def screened(X, Y, gaps):
        found = screen(X, Y, gaps)
        suspects.extend(found)
        return found

    monkeypatch.setattr(separation, "_suspects", screened)
    _, redraws, _ = check_against_the_reference(monkeypatch, "sorted", n, d, 3, trials=trials,
                                                seed=seed)
    assert suspects
    if n == 2:
        assert redraws > 0


def test_spot_check_matches_the_pair_loop_where_ys_are_redrawn_across_blocks(monkeypatch):
    # a 6000-row sketch cuts 3000 trials into 52 blocks of up to 58
    n, d, D, M, trials = 2, 1, 3, 6000, 3000
    assert len(_blocks(trials, 3 * M)) == 52
    _, redraws, _ = check_against_the_reference(monkeypatch, "sketched", n, d, D, M=M,
                                                trials=trials, seed=0)
    assert redraws > 0


@pytest.mark.parametrize("kind, n, d, D, M", SPOT_SHAPES + [("sorted", 2, 1, 3, None)])
def test_spot_check_tests_distant_pairs_and_same_orbit_copies(monkeypatch, kind, n, d, D, M):
    # independent of the stream: every distinct pair lies at least 0.1 apart
    # (up to the floor's rounding) and every same-orbit copy permutes its X
    trials = 3000 if n == 2 else 200
    _, clouds, _ = checked_spot_check(monkeypatch, kind, n, d, D, M=M, trials=trials, seed=1)
    X, Y, same = clouds[0::3], clouds[1::3], clouds[2::3]
    assert len(X) == len(Y) == len(same) == trials
    assert min(orbit_distance_bruteforce(x, y).distance for x, y in zip(X, Y)) >= 0.1 - 1e-15
    assert all(np.array_equal(x[np.lexsort(x.T)], s[np.lexsort(s.T)]) for x, s in zip(X, same))


def test_spot_check_solves_no_assignment(monkeypatch):
    def refused(cost):
        raise AssertionError("the spot check solved an assignment")

    monkeypatch.setattr(metrics, "linear_sum_assignment", refused)
    for kind, n, d, D, M in SPOT_SHAPES + [("sorted", 2, 1, 3, None)]:
        report = spot_check_injectivity(kind, n, d, D, M=M, trials=3000, seed=2)
        assert report.collisions == report.false_separations == 0


def test_spot_check_gives_up_when_no_distant_pair_can_be_drawn(monkeypatch):
    # a floor of 0 redraws the first Y until the attempt guard stops it
    calls = []

    def never_distant(pairs):
        calls.append(None)
        return np.zeros(pairs.shape[:-3])

    monkeypatch.setattr(separation, "_orbit_distance_floor", never_distant)
    with pytest.raises(RuntimeError, match="could not sample a distant pair"):
        spot_check_injectivity("sorted", 2, 1, 3, trials=3000, seed=0)
    assert len(calls) == 1 + 100  # the block's screen, then 100 redraws
