"""The batched empirical checks against their one-pair-at-a-time loops.

``empirical_distortion``, ``ose_check`` and ``spot_check_injectivity``
sample their pairs sequentially and embed them in batches.  The loops
below are the per-pair forms they replaced, written with the public,
validating functions; the batched checks must reproduce their reports
exactly, floats included.
"""

import math

import numpy as np
import pytest

from permorb import (
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    make_rng,
    orbit_distance,
    ose_check,
    parity_counterexample,
    pooled_embedding,
    sketched_embedding,
    sorted_embedding,
    spot_check_injectivity,
)
from permorb.audit import OseReport, sample_pair_pool
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


def reference_ose_check(A, L, n, epsilon, trials, seed):
    d = A.shape[0]
    rng = make_rng(seed)
    violations = 0
    max_err = 0.0
    used = 0
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
        rho = float(np.linalg.norm(L @ diff)) / denom
        max_err = max(max_err, abs(rho - 1.0))
        if rho < 1.0 - epsilon or rho > 1.0 + epsilon:
            violations += 1
        used += 1
    return OseReport(violations, max_err, used, skipped, epsilon, L.shape[0], seed)


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
    n, D, trials = 8, 256, 300
    assert len(_blocks(trials, 2 * n * D)) > 1
    A = circle_directions(D)
    L = gaussian_sketch(n, D, 16, 5)
    assert ose_check(A, L, n, 0.5, trials, 5) == reference_ose_check(A, L, n, 0.5, trials, 5)


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
