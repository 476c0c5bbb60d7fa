"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test evaluates every clause of its criterion at the stated tolerance,
prints ``[ACCEPTANCE] criterion N: PASS|FAIL (elapsed)`` with per-clause
detail, and then asserts.  The n = 5, d = 2, D = 5 certification is split
out under the ``longrun`` marker (deselected by default; run it with
``pytest -m longrun``).
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from permorb import (
    adversarial_circle_pair,
    certify_separation,
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    identity_augmented,
    known_separating_matrix,
    make_rng,
    orbit_distance,
    orbit_distance_bruteforce,
    ose_check,
    ose_dimension,
    parity_counterexample,
    projective_uniformity,
    singular_values,
    sorted_embedding,
    sphere_directions,
    spot_check_injectivity,
    upper_lipschitz,
)
from permorb.audit import sample_pair_pool, subset_sigma_lower_bound
from permorb.cli import main
from permorb.separation import SeparationStatus


def _finish(num: int, clauses: list[tuple[str, bool]], t0: float, budget_s: float):
    elapsed = time.time() - t0
    clauses = clauses + [(f"runtime {elapsed:.1f}s < {budget_s:.0f}s", elapsed < budget_s)]
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in clauses)
    print(f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    rng = make_rng(101)
    for n in range(2, 8):
        for d in (1, 2, 5):
            for _ in range(500):
                X = rng.standard_normal((n, d))
                Y = rng.standard_normal((n, d))
                fast = orbit_distance(X, Y).distance
                slow = orbit_distance_bruteforce(X, Y).distance
                worst = max(worst, abs(fast - slow) / max(slow, 1.0))
    _finish(1, [(f"max relative error {worst:.2e} <= 1e-9", worst <= 1e-9)], t0, 60.0)


def test_criterion_2_upper_lipschitz():
    t0 = time.time()
    shapes = [(2, 1, 4), (3, 2, 6), (4, 2, 12), (5, 3, 9), (6, 3, 20),
              (7, 4, 11), (8, 5, 25), (4, 4, 4), (3, 5, 30), (8, 2, 16)]
    ok = True
    worst_excess = 0.0
    for index, (n, d, D) in enumerate(shapes):
        A = gaussian_directions(d, D, 200 + index)
        sigma1 = upper_lipschitz(A)
        pairs = sample_pair_pool(n, d, 10_000, 300 + index)
        for X, Y in pairs:
            dist = orbit_distance(X, Y).distance
            if dist < 1e-8:
                continue
            gap = float(np.linalg.norm(sorted_embedding(A, X) - sorted_embedding(A, Y)))
            excess = gap / dist / sigma1 - 1.0
            worst_excess = max(worst_excess, excess)
            ok = ok and gap <= sigma1 * dist * (1.0 + 1e-9)
    _finish(2, [(f"max ratio excess {worst_excess:.2e} <= 1e-9", ok)], t0, 120.0)


def test_criterion_3_circle_construction():
    t0 = time.time()
    clauses = []
    for n in (3, 4, 6, 8):
        D = 4 * n * n
        A = circle_directions(D)
        sv = singular_values(A)
        sigma_ok = bool(np.max(np.abs(sv - math.sqrt(D / 2.0))) < 1e-9)
        clauses.append((f"n={n}: sigma1 = sqrt(D/2)", sigma_ok))

        delta = projective_uniformity(A, 3).delta
        # The exact constant is sin(pi/D).  D = 4n^2 is even, so the columns
        # come in antipodal pairs and every |a_k . e(theta)| value appears
        # twice: the third-smallest value is the second-smallest distinct
        # |sin|, taken over D/2 angles spaced 2 pi/D apart, whose minimum
        # over theta is sin(pi/D) (the two angles nearest the zero straddle
        # it symmetrically).  Jordan's inequality sin x >= 2x/pi makes the
        # guaranteed floor 2/D hold; the ratio tends to pi/2, so a 10% window
        # above 2/D cannot contain it.  The equality checks that the sweep
        # neither overshoots nor undershoots the true constant.
        exact = math.sin(math.pi / D)
        delta_ok = delta >= 2.0 / D and abs(delta - exact) <= 1e-12
        clauses.append((f"n={n}: sweep delta={delta * D:.3f}/D >= 2/D and == sin(pi/D)",
                        delta_ok))

        report = empirical_distortion(A, n, 10_000, 400 + n)
        dist_ok = report.distortion <= 2 * n * n
        clauses.append((f"n={n}: distortion {report.distortion:.2f} <= {2 * n * n}", dist_ok))
    _finish(3, clauses, t0, 300.0)


def test_criterion_4_counterexample_generator():
    t0 = time.time()
    ok = True
    detail_worst = 0.0
    for d, D in ((2, 3), (2, 4), (3, 4), (4, 6)):
        for seed in range(20):
            A = gaussian_directions(d, D, 1000 + 31 * seed + d + D)
            pair = parity_counterexample(A, seed)
            rows = np.vstack([pair.X, pair.Y])
            scale = max(1.0, float(np.linalg.norm(A)) * float(np.linalg.norm(rows, axis=1).max()))
            gap = float(np.linalg.norm(sorted_embedding(A, pair.X) - sorted_embedding(A, pair.Y)))
            dist = orbit_distance(pair.X, pair.Y).distance
            detail_worst = max(detail_worst, gap / scale)
            ok = ok and gap <= 1e-8 * scale and dist >= 1e-3 * scale
    _finish(4, [(f"80 pairs collide to 1e-8*scale (worst {detail_worst:.1e}) "
                 "and stay 1e-3*scale apart", ok)], t0, 30.0)


def test_criterion_5_sqrtn_ceiling():
    t0 = time.time()
    pair_ok = True
    bound_ok = True
    for n in (4, 8, 16):
        for d in (2, 3, 5):
            pair = adversarial_circle_pair(n, d)
            dist = orbit_distance(pair.X, pair.Y).distance
            pair_ok = pair_ok and abs(dist - 1.0) <= 1e-9
            for seed in range(20):
                D = 5 + seed
                A = gaussian_directions(d, D, 5000 + 97 * seed + 7 * n + d)
                sv = singular_values(A)
                ceiling = (math.sqrt(2.0 + 1.0 / n) * math.pi / math.sqrt(n)
                           * math.hypot(sv[0], sv[1]))
                gap = float(np.linalg.norm(sorted_embedding(A, pair.X)
                                           - sorted_embedding(A, pair.Y)))
                bound_ok = bound_ok and gap <= ceiling
    _finish(5, [("adversarial distance = 1 +- 1e-9", pair_ok),
                ("gap <= (2+1/n)^1/2 pi n^-1/2 (s1^2+s2^2)^1/2 for 20 A per shape", bound_ok)],
            t0, 60.0)


def test_criterion_6_subset_bound():
    t0 = time.time()
    n, d, r, D = 3, 2, 1, 10
    A = gaussian_directions(d, D, 606)
    bound = subset_sigma_lower_bound(A, r, n)

    def sv2_smallest(M):
        tr = float(np.sum(M * M))
        det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
        disc = math.sqrt(max(tr * tr - 4.0 * det * det, 0.0))
        return math.sqrt(max((tr - disc) / 2.0, 0.0))

    independent = min(sv2_smallest(A[:, list(p)]) for p in combinations(range(D), r * d))
    exact_ok = abs(bound.value - independent) < 1e-12

    report = empirical_distortion(A, n, 10_000, 707)
    floor_ok = bound.value <= report.empirical_C1 * (1 + 1e-6)
    _finish(6, [(f"labelled certified for n = {n}, as D = r d ((n-1)^2 + 1)", bound.certified),
                (f"certified {bound.value:.6f} == exhaustive recomputation", exact_ok),
                (f"certified <= empirical C1 {report.empirical_C1:.6f}", floor_ok)],
            t0, 60.0)


def _rational_null_basis(rows, ncols):
    """Basis of {x : rows x = 0} over the rationals, by Gauss-Jordan elimination."""
    M = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(len(M)):
            f = M[i][c]
            if i != r and f != 0:
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -M[r][free]
        basis.append(v)
    return basis


def _witness_holds_exactly(A, witness):
    """Re-prove a separation witness in exact rational arithmetic.

    Rebuilds the witness tuple's constraint system
    sum_i a_j[i] (P_i - Q_j) x_i = 0 from the matrix's decimal entries,
    takes a rational element of its zero-sum null space, and checks that
    the clouds X (point t = (x_i[t])_i) and Y (point t = (x_i[P_i[t]])_i)
    have equal sorted projections on every column of A while Y is not a
    row permutation of X.  A float gap alone cannot tell a near-collision
    from a collision.
    """
    d, D = A.shape
    n = len(witness.P_tuple[0])
    a = [[Fraction(repr(float(v))) for v in row] for row in A]
    P = [[int(s) for s in perm] for perm in witness.P_tuple]
    rows = []
    for j, perm in enumerate(witness.Q_tuple):
        for t in range(n):
            row = [Fraction(0)] * (d * n)
            for i in range(d):
                row[i * n + P[i][t]] += a[i][d + j]
                row[i * n + int(perm[t])] -= a[i][d + j]
            rows.append(row)
    # zero-sum rows drop the constant solutions every tuple admits
    rows += [[Fraction(int(k // n == i)) for k in range(d * n)] for i in range(d)]
    basis = _rational_null_basis(rows, d * n)
    x = [sum((k + 1) * b[m] for k, b in enumerate(basis)) for m in range(d * n)]
    X = [tuple(x[i * n + t] for i in range(d)) for t in range(n)]
    Y = [tuple(x[i * n + P[i][t]] for i in range(d)) for t in range(n)]

    def projections(cloud):
        return [sorted(sum(a[i][k] * p[i] for i in range(d)) for p in cloud) for k in range(D)]

    return projections(X) == projections(Y) and sorted(X) != sorted(Y)


def test_criterion_7_separation_certifier():
    t0 = time.time()
    clauses = []
    # The (3,3,6) reference is kept as printed to 2 decimals, with entry
    # (2, 6) shown as exactly 0.  That matrix does not separate: an exact
    # enumeration of all 7776 reduced tuples finds 6 witness tuples, the
    # first at leaf 4020, and the witness is re-proven here in rationals.
    printed = known_separating_matrix(3, 3, 6)
    verdict = certify_separation(printed, 3)
    witness = verdict.witness
    exact_ok = witness is not None and _witness_holds_exactly(printed, witness)
    clauses.append((f"printed (3,3,6) -> {verdict.status.value} at leaf "
                    f"{None if witness is None else witness.leaf_index}, exact witness",
                    verdict.status is SeparationStatus.WITNESS_FOUND
                    and witness.leaf_index == 4020 and exact_ok))
    # Any value in (0, 0.005) prints as 0.00; with 0.004 there the matrix
    # gets a d = 3 exhaustive Separating certificate.
    restored = known_separating_matrix(3, 3, 6)
    restored[1, 5] = 0.004
    verdict = certify_separation(restored, 3)
    clauses.append((f"restored (3,3,6) -> {verdict.status.value} after "
                    f"{verdict.tuples_examined}/{verdict.total_tuples} tuples",
                    verdict.status is SeparationStatus.SEPARATING
                    and verdict.tuples_examined == verdict.total_tuples == 7776))
    for n, d, D in ((3, 4, 8), (4, 2, 4)):
        verdict = certify_separation(known_separating_matrix(n, d, D), n)
        status = verdict.status
        clauses.append((f"reference ({n},{d},{D}) -> {status.value}",
                        status is SeparationStatus.SEPARATING))
    for n, d, D in ((3, 2, 3), (3, 3, 5), (3, 4, 7)):
        hits = 0
        for seed in range(10):
            A = identity_augmented(gaussian_directions(d, D - d, 9000 + 13 * seed + n + D))
            v = certify_separation(A, n, seed=seed)
            if v.status is SeparationStatus.WITNESS_FOUND:
                hits += 1
        clauses.append((f"random tails ({n},{d},{D}): witnesses in {hits}/10 seeds", hits >= 9))
    _finish(7, clauses, t0, 600.0)


@pytest.mark.longrun
def test_criterion_7_longrun_5_2_5():
    # ~2e8 tuples; the thread count changes only the speed (see
    # test_threads_do_not_change_the_verdict)
    t0 = time.time()
    verdict = certify_separation(known_separating_matrix(5, 2, 5), 5, threads=2)
    ok = verdict.status is SeparationStatus.SEPARATING
    print(f"[ACCEPTANCE] criterion 7 (longrun 5,2,5): {'PASS' if ok else 'FAIL'} — "
          f"{verdict.status.value} after {verdict.tuples_examined} tuples "
          f"in {time.time() - t0:.0f}s")
    assert ok


def test_criterion_8_table_reproduction(capsys):
    t0 = time.time()
    code = main(["reproduce"])
    capsys.readouterr()
    from permorb.tables import maximal_nd_table, minimal_nd_table

    cells_ok = minimal_nd_table()[(3, 3)] == 21 and maximal_nd_table()[(4, 2)] == 12
    _finish(8, [("cmd_reproduce exit 0", code == 0),
                ("spot cells (3,3)->21 and (4,2)->12", cells_ok)], t0, 1.0)


def test_criterion_9_pooled_genericity():
    t0 = time.time()
    clean = 0
    for seed in range(20):
        report = spot_check_injectivity("pooled", 3, 2, 10, trials=10_000, seed=seed)
        if report.collisions == 0 and report.false_separations == 0:
            clean += 1
    _finish(9, [(f"0 collisions in {clean}/20 seeds (need >= 19)", clean >= 19)], t0, 60.0)


def test_criterion_10_ose_sketch():
    t0 = time.time()
    n, d, D = 3, 2, 7
    epsilon, eta, c = 0.25, 0.1, 4.0
    M = ose_dimension(n, d, D, epsilon, eta, c)
    clean = 0
    worst = 0.0
    for seed in range(10):
        A = gaussian_directions(d, D, 7000 + seed)
        L = gaussian_sketch(n, D, M, 7100 + seed)
        report = ose_check(A, L, n, epsilon, 10_000, 7200 + seed)
        worst = max(worst, report.max_ratio_error)
        if report.violations == 0:
            clean += 1
    _finish(10, [(f"M={M}; 0 violations in {clean}/10 seeds (worst |rho-1| {worst:.3f})",
                  clean >= 9)], t0, 120.0)


def test_criterion_11_probabilistic_distortion_regime():
    t0 = time.time()
    n, d = 4, 3
    D = 16 * n * n * d
    clauses = []
    for name, maker in (("gaussian", gaussian_directions), ("sphere", sphere_directions)):
        good = 0
        for seed in range(10):
            A = maker(d, D, 8000 + seed)
            report = empirical_distortion(A, n, 300, 8100 + seed)
            if report.distortion <= 4 * n * n:
                good += 1
        clauses.append((f"{name}: distortion <= 4n^2 in {good}/10 seeds", good >= 9))
    _finish(11, clauses, t0, 300.0)
