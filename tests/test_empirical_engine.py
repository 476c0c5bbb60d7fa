"""The batched empirical checks against their one-pair-at-a-time loops.

``empirical_distortion``, ``ose_check`` and ``spot_check_injectivity``
sample their pairs sequentially and embed them in batches.  ``ose_check``
screens its ratios with a few gemms against the sketch;
``spot_check_injectivity`` screens its pairs' orbit distances with a
sorted-column floor and replays a block trial by trial only when a Y must
be redrawn.  The loops below are the per-pair forms they replaced, written
with the public, validating functions; the batched checks must reproduce
their reports exactly, floats included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb import (
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    make_rng,
    orbit_distance,
    ose_check,
    ose_dimension,
    parity_counterexample,
    pooled_embedding,
    sketched_embedding,
    sorted_embedding,
    spot_check_injectivity,
)
from permorb import separation
from permorb.audit import _SCREEN_FLOATS, OseReport, sample_pair_pool
from permorb.embeddings import _blocks
from permorb.separation import InjectivityReport


def reference_ratios(A, n, trials, seed):
    ratios = []
    for X, Y in sample_pair_pool(n, A.shape[0], trials, seed):
        dist = orbit_distance(X, Y).distance
        if dist < 1e-8:
            continue
        gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
        ratios.append(gap / dist)
    return min(ratios), max(ratios), len(ratios)


def reference_ose_ratios(A, L, n, trials, seed):
    """The ratio of every used pair, and the number of skipped pairs."""
    d = A.shape[0]
    rng = make_rng(seed)
    ratios = []
    skipped = 0
    for _ in range(trials):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        X = scale * rng.standard_normal((n, d))
        Y = scale * rng.standard_normal((n, d))
        diff = (sorted_embedding(A, X) - sorted_embedding(A, Y)).ravel(order="F")
        denom = float(np.linalg.norm(diff))
        if denom < 1e-10:
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


def reference_spot_check(kind, n, d, D, *, M=None, trials, seed, extra_pairs=()):
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    if kind == "pooled":
        B = rng.standard_normal((n, D))
        embed = lambda X: pooled_embedding(A, B, X)  # noqa: E731
    elif kind == "sketched":
        L = rng.standard_normal((M, n * D)) / math.sqrt(M)
        embed = lambda X: sketched_embedding(A, L, X)  # noqa: E731
    else:
        embed = lambda X: sorted_embedding(A, X).ravel(order="F")  # noqa: E731
    collisions = 0
    false_separations = 0
    for _ in range(trials):
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d))
        while orbit_distance(X, Y).distance < 0.1:
            Y = rng.standard_normal((n, d))
        ex = embed(X)
        if float(np.linalg.norm(ex - embed(Y))) <= 1e-8:
            collisions += 1
        same = X[rng.permutation(n)]
        scale = max(1.0, float(np.linalg.norm(ex)))
        if float(np.linalg.norm(ex - embed(same))) > 1e-9 * scale:
            false_separations += 1
    for X, Y in extra_pairs:
        if float(np.linalg.norm(embed(X) - embed(Y))) <= 1e-8:
            collisions += 1
    return InjectivityReport(kind, n, d, D, M, trials, collisions, false_separations, seed)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_empirical_distortion_matches_the_pair_loop(n):
    for d in (2, 3, 5):
        for D in (3, 8, 17):
            for seed in (0, 1):
                A = gaussian_directions(d, D, 50 + 7 * d + D)
                report = empirical_distortion(A, n, 120, seed)
                got = (report.empirical_C1, report.empirical_C2, report.pair_count)
                assert got == reference_ratios(A, n, 120, seed), (n, d, D, seed)


def test_empirical_distortion_matches_the_pair_loop_across_blocks():
    n, trials = 8, 300
    A = circle_directions(256)
    assert len(_blocks(trials, 2 * n * 256)) > 1
    report = empirical_distortion(A, n, trials, 3)
    got = (report.empirical_C1, report.empirical_C2, report.pair_count)
    assert got == reference_ratios(A, n, trials, 3)


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


def test_ose_check_matches_the_pair_loop_across_blocks_with_a_tall_sketch():
    # each block screens against the whole sketch and confirms its own candidates
    n, d, D, M, trials = 4, 3, 24, 300, 6000
    assert len(_blocks(trials, 2 * n * D)) == 2
    A = gaussian_directions(d, D, 17)
    L = gaussian_sketch(n, D, M, 5)
    assert ose_check(A, L, n, 0.1, trials, 5) == reference_ose_check(A, L, n, 0.1, trials, 5)


@pytest.mark.parametrize("seed", [0, 1])
def test_ose_check_matches_the_pair_loop_at_the_cli_shape(seed):
    # permorb audit --check-ose with n=6 on a 3 x 24 matrix: an 18,921 x 144 sketch
    n, d, D = 6, 3, 24
    M = ose_dimension(n, d, D, 0.25, 0.1)
    assert 200 * M > _SCREEN_FLOATS  # the screen takes the sketch's rows in slices
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
def test_ose_check_matches_the_pair_loop_on_small_shapes(n, d, D, M, epsilon, trials, seed):
    rng = make_rng(seed)
    A = rng.standard_normal((d, D))
    L = rng.standard_normal((M, n * D)) / math.sqrt(M)
    got = ose_check(A, L, n, epsilon, trials, seed)
    assert got == reference_ose_check(A, L, n, epsilon, trials, seed)


@pytest.mark.parametrize(
    "kind, n, d, D, M",
    [("sorted", 4, 3, 12, None), ("pooled", 3, 2, 10, None), ("sketched", 4, 3, 12, 48)],
)
def test_spot_check_matches_the_pair_loop(kind, n, d, D, M):
    for seed in range(4):
        got = spot_check_injectivity(kind, n, d, D, M=M, trials=200, seed=seed)
        assert got == reference_spot_check(kind, n, d, D, M=M, trials=200, seed=seed)


@pytest.mark.parametrize("kind, M", [("sorted", None), ("sketched", 30)])
def test_spot_check_matches_the_pair_loop_with_a_planted_collision(kind, M):
    n, d, D, seed = 4, 2, 3, 3
    A = make_rng(seed).standard_normal((d, D))  # the directions the check draws first
    pair = parity_counterexample(A, 11)
    extra = [(pair.X, pair.Y)]
    got = spot_check_injectivity(kind, n, d, D, M=M, trials=100, seed=seed, extra_pairs=extra)
    want = reference_spot_check(kind, n, d, D, M=M, trials=100, seed=seed, extra_pairs=extra)
    assert got == want
    assert got.collisions >= 1


def test_sketched_spot_check_with_a_wide_sketch_matches_the_pair_loop():
    n, d, D, M, trials = 3, 2, 8, 6000, 150
    assert len(_blocks(trials, 3 * M)) > 1  # the sketch outputs span several blocks
    got = spot_check_injectivity("sketched", n, d, D, M=M, trials=trials, seed=6)
    assert got == reference_spot_check("sketched", n, d, D, M=M, trials=trials, seed=6)


def trace_reference(monkeypatch):
    """Record the reference loop's orbit distance solves (redraws included)
    and the clouds it embeds, X, Y and the same-orbit copy per trial."""
    solves, clouds = [], []
    solve = orbit_distance

    def counted(X, Y):
        solves.append(None)
        return solve(X, Y)

    def recording(embed):
        def recorded(*args):
            clouds.append(args[-1].copy())
            return embed(*args)
        return recorded

    monkeypatch.setitem(globals(), "orbit_distance", counted)
    for name in ("sorted_embedding", "sketched_embedding"):
        monkeypatch.setitem(globals(), name, recording(globals()[name]))
    return solves, clouds


def trace_check(monkeypatch):
    """Record the clouds spot_check_injectivity embeds, X, Y and the
    same-orbit copy per trial, and the size of each block it replays."""
    clouds, replayed = [], []
    project, draw = separation._sort_project, separation._draw_trials

    def projected(A, S):
        clouds.extend(S.reshape(3, -1, *S.shape[1:]).transpose(1, 0, 2, 3))
        return project(A, S)

    def drawn(rng, block):
        replayed.append(block.shape[1])
        draw(rng, block)

    monkeypatch.setattr(separation, "_sort_project", projected)
    monkeypatch.setattr(separation, "_draw_trials", drawn)
    return clouds, replayed


def same_clouds(checked, reference):
    checked = np.array(checked)
    return np.array_equal(checked, np.reshape(reference, checked.shape))


@pytest.mark.parametrize("seed", range(6))
def test_spot_check_matches_the_pair_loop_where_ys_are_redrawn(monkeypatch, seed):
    # n = 2, d = 1: a few pairs in a hundred lie within 0.1, so the single
    # block is screened, found to need a redraw and replayed
    trials = 3000
    solves, reference = trace_reference(monkeypatch)
    checked, replayed = trace_check(monkeypatch)
    want = reference_spot_check("sorted", 2, 1, 3, trials=trials, seed=seed)
    assert len(solves) > trials  # the reference redrew some Y
    assert spot_check_injectivity("sorted", 2, 1, 3, trials=trials, seed=seed) == want
    assert same_clouds(checked, reference)
    assert replayed == [trials]


def test_spot_check_matches_the_pair_loop_with_screened_and_replayed_blocks(monkeypatch):
    # a 6000-row sketch cuts 3000 trials into 52 blocks of up to 58: some
    # blocks need a redraw and are replayed, the others are taken as screened
    n, d, D, M, trials = 2, 1, 3, 6000, 3000
    blocks = len(_blocks(trials, 3 * M))
    solves, reference = trace_reference(monkeypatch)
    checked, replayed = trace_check(monkeypatch)
    want = reference_spot_check("sketched", n, d, D, M=M, trials=trials, seed=0)
    assert len(solves) > trials
    assert spot_check_injectivity("sketched", n, d, D, M=M, trials=trials, seed=0) == want
    assert same_clouds(checked, reference)
    assert 0 < len(replayed) < blocks


def test_spot_check_gives_up_when_no_distant_pair_can_be_drawn(monkeypatch):
    # every solve reports distance 0: the screen sends the block to the
    # trial-by-trial loop, whose attempt guard must stop the redraws
    calls = []

    def never_distant(X, Y):
        calls.append(None)
        return 0.0, np.arange(len(X))

    monkeypatch.setattr(separation, "_assignment_distance", never_distant)
    with pytest.raises(RuntimeError, match="could not sample a distant pair"):
        spot_check_injectivity("sorted", 2, 1, 3, trials=3000, seed=0)
    assert len(calls) > 100
