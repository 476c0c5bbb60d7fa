import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from depth_first_oracle import _defeated as gather_defeated
from depth_first_oracle import certify_depth_first
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permorb import (
    certify_separation,
    gaussian_directions,
    identity_augmented,
    known_separating_matrix,
    min_injective_D_upper,
    non_injective_D_threshold,
    orbit_distance,
    parity_counterexample,
    sorted_embedding,
    spot_check_injectivity,
)
from permorb.cli import main
from permorb.core import UnsupportedFormError, json_dumps, save_matrix_csv
from permorb.separation import (
    DEFAULT_TUPLE_BUDGET,
    KNOWN_NONSEPARATING_DIMS,
    KNOWN_SEPARATING_CASES,
    SeparationStatus,
    _checkpoint_key,
    _defeated,
    _write_checkpoint,
)


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------


def test_min_injective_examples():
    assert min_injective_D_upper(3, 3) == 7  # total dimension n*D = 21
    assert min_injective_D_upper(2, 2) == 3
    assert min_injective_D_upper(1, 5) == 1


def test_min_injective_validation():
    with pytest.raises(ValueError):
        min_injective_D_upper(3, 1)


def test_non_injective_examples():
    assert non_injective_D_threshold(4, 2) == 3  # n*D = 12
    assert non_injective_D_threshold(3, 3) == 4  # n*D = 12
    assert non_injective_D_threshold(2, 2) == 2  # n*D = 4


def test_non_injective_threshold_is_maximal():
    import math

    for n in range(2, 17):
        for d in range(2, 17):
            D = non_injective_D_threshold(n, d)
            assert math.ceil(D / (d - 1)) <= math.log2(n) + 1
            assert math.ceil((D + 1) / (d - 1)) > math.log2(n) + 1


def test_bounds_never_contradict():
    for n in range(2, 17):
        for d in range(2, 17):
            assert min_injective_D_upper(n, d) > non_injective_D_threshold(n, d)


# ---------------------------------------------------------------------------
# certification: reference separating matrices
# ---------------------------------------------------------------------------


def test_reference_4_2_4_separates():
    verdict = certify_separation(known_separating_matrix(4, 2, 4), 4)
    assert verdict.status is SeparationStatus.SEPARATING
    assert verdict.tuples_examined == verdict.total_tuples == 24**3


def test_reference_3_3_6_as_printed_has_a_genuine_witness():
    # The published 2-decimal rounding of this matrix has an exact zero at
    # entry (2, 6), which blinds the last tail constraint to the second
    # coordinate; the rounded matrix genuinely fails to separate even
    # though the unrounded original was reported to succeed.  We pin the
    # honest verdict and verify the witness end to end.
    A = known_separating_matrix(3, 3, 6)
    verdict = certify_separation(A, 3)
    assert verdict.status is SeparationStatus.WITNESS_FOUND
    w = verdict.witness
    Xc = w.X.T
    Yc = np.stack([w.X[i][w.P_tuple[i]] for i in range(3)]).T
    gap = np.linalg.norm(sorted_embedding(A, Xc) - sorted_embedding(A, Yc))
    assert gap < 1e-10
    assert orbit_distance(Xc, Yc).distance > 1e-3


def test_reference_3_3_6_separates_once_zero_entry_is_perturbed():
    A = known_separating_matrix(3, 3, 6)
    A[1, 5] = 0.004  # any nonzero value the display could have rounded away
    verdict = certify_separation(A, 3)
    assert verdict.status is SeparationStatus.SEPARATING


def test_two_point_clouds_separate_at_full_spark_2d_minus_1():
    # for n = 2, D >= 2d - 1 with full spark is necessary and sufficient
    d = 3
    tail = gaussian_directions(d, 2 * d - 1 - d, 7)
    A = identity_augmented(tail)
    verdict = certify_separation(A, 2)
    assert verdict.status is SeparationStatus.SEPARATING


# ---------------------------------------------------------------------------
# certification: witnesses
# ---------------------------------------------------------------------------


def _witness_clouds(verdict):
    w = verdict.witness
    d = len(w.P_tuple)
    Xc = w.X.T
    Yc = np.stack([w.X[i][w.P_tuple[i]] for i in range(d)]).T
    return Xc, Yc


@pytest.mark.parametrize("dims", [(3, 2, 3), (3, 3, 5)])
def test_random_tails_yield_verified_witnesses(dims):
    n, d, D = dims
    found = 0
    for seed in range(5):
        A = identity_augmented(gaussian_directions(d, D - d, seed))
        verdict = certify_separation(A, n, seed=seed)
        if verdict.status is not SeparationStatus.WITNESS_FOUND:
            continue
        found += 1
        Xc, Yc = _witness_clouds(verdict)
        gap = np.linalg.norm(sorted_embedding(A, Xc) - sorted_embedding(A, Yc))
        scale = max(1.0, float(np.linalg.norm(A)))
        assert gap <= 1e-8 * scale
        assert orbit_distance(Xc, Yc).distance > 1e-6
    assert found >= 4


def test_witness_conditions_reverified_from_definition():
    from itertools import permutations

    A = identity_augmented(gaussian_directions(2, 1, 3))
    verdict = certify_separation(A, 3, seed=3)
    assert verdict.status is SeparationStatus.WITNESS_FOUND
    w = verdict.witness
    d, D = A.shape
    # condition 1, rebuilt directly from the stored tuples and tail columns
    for j in range(D - d):
        tail = A[:, d + j]
        total = np.zeros(3)
        for i in range(d):
            total += tail[i] * (w.X[i][w.P_tuple[i]] - w.X[i][w.Q_tuple[j]])
        assert np.linalg.norm(total) <= 1e-8 * np.linalg.norm(w.X) * np.linalg.norm(A)
    # condition 2: no single permutation reproduces every coordinate move
    for perm in permutations(range(3)):
        sigma = np.asarray(perm)
        matches_all = all(
            np.linalg.norm(w.X[i][sigma] - w.X[i][w.P_tuple[i]]) <= 1e-8
            for i in range(2)
        )
        assert not matches_all


# ---------------------------------------------------------------------------
# certification: mechanics
# ---------------------------------------------------------------------------


def test_unsupported_form_rejected():
    A = gaussian_directions(2, 4, 0)
    with pytest.raises(UnsupportedFormError):
        certify_separation(A, 3)


def test_identity_only_matrix_never_separates_multirow_clouds():
    # coordinate multisets alone cannot pin a cloud once n, d >= 2
    verdict = certify_separation(np.eye(3), 3)
    assert verdict.status is SeparationStatus.WITNESS_FOUND


def test_trivial_sizes_separate():
    assert certify_separation(np.eye(2), 1).status is SeparationStatus.SEPARATING
    one_d = np.array([[1.0, 0.7, 0.2]])
    assert certify_separation(one_d, 3).status is SeparationStatus.SEPARATING


def test_large_n_refused():
    A = identity_augmented(gaussian_directions(2, 1, 0))
    with pytest.raises(ValueError):
        certify_separation(A, 7)


def test_budget_yields_inconclusive_with_position():
    A = known_separating_matrix(4, 2, 4)
    verdict = certify_separation(A, 4, budget=100)
    assert verdict.status is SeparationStatus.INCONCLUSIVE
    assert verdict.next_index == 100
    assert verdict.tuples_examined == 100


def test_coset_reduction_soundness():
    # the library always pins P_1; the oracle can also search every P tuple
    cases = [
        (2, identity_augmented(gaussian_directions(2, 1, 1))),   # separating
        (3, identity_augmented(gaussian_directions(2, 1, 2))),   # witness
        (2, identity_augmented(np.array([[1.0], [1.0]]))),       # degenerate tail
    ]
    for n, A in cases:
        reduced = certify_separation(A, n, seed=0)
        full = certify_depth_first(A, n, 10**9, 0, reduce_coset=False)
        assert reduced.status is full.status
        assert reduced.reduced and not full.reduced
        assert full.total_tuples == reduced.total_tuples * math.factorial(n)


def _checkpoint_chain(A, path, threads):
    # budget stops at 2000 and 6000, then a resume to the end
    stops = []
    for budget in (2000, 6000):
        verdict = certify_separation(A, 4, budget=budget, threads=threads, checkpoint_path=str(path))
        assert verdict.status is SeparationStatus.INCONCLUSIVE
        stops.append(path.read_bytes())
    return stops, certify_separation(A, 4, threads=threads, checkpoint_path=str(path))


@pytest.mark.parametrize("threads", [1, 2])
def test_checkpoint_resume_matches_uninterrupted(tmp_path, threads):
    A = known_separating_matrix(4, 2, 4)
    straight = certify_separation(A, 4)
    serial_stops, _ = _checkpoint_chain(A, tmp_path / "serial.json", 1)
    stops, resumed = _checkpoint_chain(A, tmp_path / "cp.json", threads)
    assert stops == serial_stops
    assert resumed.status is straight.status is SeparationStatus.SEPARATING
    assert resumed.tuples_examined == straight.tuples_examined == 24**3


def test_budget_stop_after_a_witness_leaves_no_position(tmp_path):
    # The budget runs out at leaf 4022, inside the final-level node whose
    # counted leaves include the witness at leaf 4020.  The run ends with
    # that witness: no resume position and no stop checkpoint, which would
    # resume past the witness and find the next one (leaf 4050).
    path = tmp_path / "cp.json"
    verdict = certify_separation(
        known_separating_matrix(3, 3, 6), 3, budget=4022, checkpoint_path=str(path)
    )
    assert verdict.status is SeparationStatus.WITNESS_FOUND
    assert verdict.witness.leaf_index == 4020
    assert verdict.next_index is None
    assert not path.exists()


def test_checkpoint_mismatch_rejected(tmp_path):
    A = known_separating_matrix(4, 2, 4)
    path = tmp_path / "cp.json"
    certify_separation(A, 4, budget=2000, checkpoint_path=str(path))
    other = A.copy()
    other[0, 2] += 0.01
    with pytest.raises(ValueError, match="checkpoint"):
        certify_separation(other, 4, checkpoint_path=str(path))


def test_checkpoint_of_an_unreduced_search_rejected(tmp_path):
    # the oracle's unreduced search numbers its leaves over every P tuple
    A = known_separating_matrix(4, 2, 4)
    path = tmp_path / "cp.json"
    certify_depth_first(A, 4, 2000, checkpoint_path=path, reduce_coset=False)
    with pytest.raises(ValueError, match="reduced: False != True"):
        certify_separation(A, 4, checkpoint_path=str(path))


@pytest.mark.parametrize(
    "next_index, examined, field",
    [(10**9, 0, "next_index"), (-5, 0, "next_index"), (0, -1, "tuples_examined"),
     (4020.0, 0, "next_index"), (0, "7", "tuples_examined")],
)
def test_checkpoint_positions_outside_the_tuple_space_rejected(
    tmp_path, capsys, next_index, examined, field
):
    # the printed (3,3,6) matrix has a witness at leaf 4020; a position past
    # the 7,776 tuples would certify it Separating without examining one
    A = known_separating_matrix(3, 3, 6)
    path = tmp_path / "cp.json"
    key = _checkpoint_key(A, 3, 0)
    path.write_text(json.dumps({"format": 1, **key, "next_index": next_index,
                                "tuples_examined": examined}), encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        certify_separation(A, 3, checkpoint_path=str(path))
    args = ["certify", "--directions", str(tmp_path / "A.csv"), "--n", "3",
            "--checkpoint", str(path), "--out", str(tmp_path / "v.json")]
    save_matrix_csv(tmp_path / "A.csv", A)
    assert main(args) == 1
    assert f"has {field} " in capsys.readouterr().err


def test_checkpoint_at_the_end_of_the_tuple_space_is_a_finished_run(tmp_path):
    A = known_separating_matrix(3, 3, 6)
    path = tmp_path / "cp.json"
    _write_checkpoint(path, _checkpoint_key(A, 3, 0), 6**5, 6**5)
    verdict = certify_separation(A, 3, checkpoint_path=str(path))
    assert verdict.status is SeparationStatus.SEPARATING
    assert verdict.tuples_examined == verdict.total_tuples == 6**5
    assert verdict.next_index is None


def _threads_cases():
    yield "(4,2,4)", known_separating_matrix(4, 2, 4), 4, 0, (100, 5000, 13000, DEFAULT_TUPLE_BUDGET)
    yield "(3,2,3)", identity_augmented(gaussian_directions(2, 1, 2)), 3, 0, (DEFAULT_TUPLE_BUDGET,)
    for d, D in ((3, 5), (4, 7)):
        for seed in range(3):
            A = identity_augmented(gaussian_directions(d, D - d, seed))
            yield f"(3,{d},{D}) seed {seed}", A, 3, seed, (DEFAULT_TUPLE_BUDGET,)
    yield "(3,3,6)", known_separating_matrix(3, 3, 6), 3, 0, (4022, 4030)
    # the budget runs out inside a pruned subtree: the stop moves to its end
    yield "(3,2,5) seed 0", identity_augmented(gaussian_directions(2, 3, 0)), 3, 0, (131,)


def test_threads_do_not_change_the_verdict():
    # the whole verdict, witness and resume position included, serialized
    # with floats at 17 significant digits
    for name, A, n, seed, budgets in _threads_cases():
        for budget in budgets:
            single = json_dumps(certify_separation(A, n, budget, seed, threads=1))
            for threads in (2, 3):
                multi = json_dumps(certify_separation(A, n, budget, seed, threads=threads))
                assert multi == single, (name, budget, threads)


def test_a_serial_stop_inside_a_window_matches_a_parallel_one(tmp_path):
    # both cut the window where the budget runs out into its second-level
    # ranges; the stop at leaf 131 lies inside a pruned subtree that ends at 132
    A = identity_augmented(gaussian_directions(2, 3, 0))
    runs = []
    for threads in (1, 2):
        path = tmp_path / f"cp{threads}.json"
        verdict = certify_separation(A, 3, 131, threads=threads, checkpoint_path=str(path))
        runs.append((json_dumps(verdict), path.read_bytes()))
    assert runs[0] == runs[1]
    assert verdict.status is SeparationStatus.INCONCLUSIVE
    assert verdict.tuples_examined == verdict.next_index == 132


def test_the_library_reads_no_budget_from_the_environment(monkeypatch):
    monkeypatch.setenv("PERMORB_BUDGET", "10")
    verdict = certify_separation(known_separating_matrix(4, 2, 4), 4)
    assert verdict.status is SeparationStatus.SEPARATING
    assert verdict.tuples_examined == 13_824
    assert verdict.budget == DEFAULT_TUPLE_BUDGET


@pytest.mark.parametrize(
    "dims, examined, leaf",
    [((3, 2, 3), 24, 22), ((3, 3, 5), 132, 130), ((3, 4, 7), 780, 778)],
)
def test_random_tail_witness_positions_are_pinned(dims, examined, leaf):
    # the leaves of the witness's final node stay counted as examined
    n, d, D = dims
    for seed in range(3):
        A = identity_augmented(gaussian_directions(d, D - d, seed))
        verdict = certify_separation(A, n, seed=seed)
        assert verdict.status is SeparationStatus.WITNESS_FOUND
        assert verdict.tuples_examined == examined
        assert verdict.witness.leaf_index == leaf


def _defeated_by_brute_force(X, p_rows):
    # some sigma in S_n moves every coordinate vector as its P_i does
    base = np.take_along_axis(X, p_rows, axis=1)
    return any(
        np.abs(X[:, list(sigma)] - base).max() <= 1e-8
        for sigma in itertools.permutations(range(X.shape[1]))
    )


_GAPS = (0.0, 0.5e-8, -0.5e-8, 2e-8, -2e-8)


@st.composite
def _defeat_inputs(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    # a few shared values make coordinate ties, and so partial matchings, common
    values = draw(
        st.sampled_from(
            [
                st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
                st.sampled_from([0.0, 0.25]),
            ]
        )
    )
    X = np.array(draw(st.lists(values, min_size=d * n, max_size=d * n))).reshape(d, n)
    sigma = np.array(draw(st.permutations(range(n))))
    p_rows = []
    for i in range(d):
        mode = draw(st.sampled_from(["sigma", "swap", "random"]))
        if mode == "random":
            p_rows.append(np.array(draw(st.permutations(range(n)))))
            continue
        # P_i = tau o sigma, where tau swaps two points planted a gap apart
        tau = np.arange(n)
        if mode == "swap":
            s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            tau[[s, t]] = tau[[t, s]]
            X[i, s] = X[i, t] + draw(st.sampled_from(_GAPS))
        p_rows.append(tau[sigma])
    for _ in range(draw(st.integers(0, n))):  # duplicate points and near-ties
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = draw(st.sampled_from([slice(None), draw(st.integers(0, d - 1))]))
        X[rows, s] = X[rows, t] + draw(st.sampled_from(_GAPS))
    return X, np.array(p_rows)


# every target point has a close point, yet no perfect matching exists
_GRID = np.array([[0.0, 0.0, 0.25, 0.25], [0.0, 0.25, 0.0, 0.25]])
_GRID_P = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])


@settings(max_examples=400, deadline=None)
@given(_defeat_inputs())
@example((_GRID, _GRID_P))
@example((_GRID + np.array([[0.0, 0.5e-8, 0.0, 0.0], [0.0] * 4]), _GRID_P))
def test_defeat_test_matches_brute_force_over_all_permutations(case):
    X, p_rows = case
    defeated = _defeated(np.stack([X, X]), p_rows)
    assert defeated.tolist() == [_defeated_by_brute_force(X, p_rows)] * 2


@st.composite
def _defeat_stacks(draw):
    # a stack of samples (s, d, n) under one P tuple, n = 1..6, whose points
    # share values and sit at planted ties and near-ties, so that close has
    # partial and perfect matchings alike
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 0.25, 0.5]) if draw(st.booleans()) else st.floats(-1.0, 1.0)
    Xs = np.array(draw(st.lists(values, min_size=s * d * n, max_size=s * d * n))).reshape(s, d, n)
    sigma = draw(st.permutations(range(n)))
    p_rows = np.array([sigma if draw(st.booleans()) else draw(st.permutations(range(n)))
                       for _ in range(d)])
    for _ in range(draw(st.integers(0, 2 * n))):
        k, i = draw(st.integers(0, s - 1)), draw(st.integers(0, d - 1))
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = slice(None) if draw(st.booleans()) else i
        Xs[k, rows, a] = Xs[k, rows, b] + draw(st.sampled_from(_GAPS))
    return Xs, p_rows


@settings(max_examples=300, deadline=None)
@given(_defeat_stacks())
# point 0's P-image is point 0 in one coordinate and point 1 in the other,
# and no point is close to both: a row of close with no close point
@example((np.array([[[0.0, 1.0], [0.0, 1.0]]]), np.array([[0, 1], [1, 0]])))
@example((_GRID[None], _GRID_P))
def test_defeat_dp_matches_the_permutation_gather(case):
    Xs, p_rows = case
    perms = np.array(list(itertools.permutations(range(Xs.shape[2]))))
    assert _defeated(Xs, p_rows).tolist() == gather_defeated(Xs, p_rows, perms).tolist()


def test_defeat_test_memory_at_n_6():
    # the gather held an (s, 720, 6) boolean array: 5.3 MB at 1,024 samples
    rng = np.random.default_rng(0)
    Xs = rng.standard_normal((1024, 2, 6))
    p_rows = np.array([rng.permutation(6) for _ in range(2)])
    _defeated(Xs, p_rows)  # builds the cached subset tables
    tracemalloc.start()
    try:
        _defeated(Xs, p_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_reference_case_dims_are_registered():
    assert set(KNOWN_SEPARATING_CASES) == {(3, 3, 6), (3, 4, 8), (4, 2, 4), (5, 2, 5)}
    assert (5, 2, 5) in KNOWN_NONSEPARATING_DIMS


# ---------------------------------------------------------------------------
# randomized injectivity spot checks
# ---------------------------------------------------------------------------


def test_spot_check_same_orbit_never_separates():
    report = spot_check_injectivity("sorted", 4, 2, 6, trials=300, seed=1)
    assert report.false_separations == 0


def test_spot_check_pooled_at_generic_dimension():
    report = spot_check_injectivity("pooled", 3, 2, 10, trials=500, seed=2)
    assert report.collisions == 0
    assert report.false_separations == 0


def test_spot_check_detects_injected_collision():
    n, d, D = 4, 2, 3  # D at the non-separation threshold for n = 4
    rng_seed = 3
    # reproduce the exact A drawn inside the spot check to build the pair
    from permorb.core import make_rng

    A = make_rng(rng_seed).standard_normal((d, D))
    pair = parity_counterexample(A, 11)
    assert pair.X.shape[0] == n
    report = spot_check_injectivity(
        "sorted", n, d, D, trials=200, seed=rng_seed, extra_pairs=[(pair.X, pair.Y)]
    )
    assert report.collisions == 1


def test_spot_check_sketched_runs():
    report = spot_check_injectivity("sketched", 3, 2, 8, M=24, trials=100, seed=4)
    assert report.collisions == 0
    assert report.false_separations == 0


def test_spot_check_validation():
    with pytest.raises(ValueError):
        spot_check_injectivity("pooled", 3, 2, 4, trials=10, seed=0)
    with pytest.raises(ValueError):
        spot_check_injectivity("sketched", 3, 2, 8, trials=10, seed=0)
    with pytest.raises(ValueError):
        spot_check_injectivity("unknown", 3, 2, 8, trials=10, seed=0)
    # only the sketched kind draws a sketch
    with pytest.raises(ValueError, match="takes no M"):
        spot_check_injectivity("sorted", 4, 3, 12, M=48, trials=10, seed=0)
    with pytest.raises(ValueError, match="takes no M"):
        spot_check_injectivity("pooled", 3, 2, 10, M=48, trials=10, seed=0)
    # every extra pair holds two n x d clouds
    good = np.zeros((4, 3))
    for pair, index in [((np.zeros((3, 3)), np.zeros((3, 3))), 0),  # n = 3 rows
                        ((np.zeros((4, 2)), np.zeros((4, 2))), 0),  # d = 2 features
                        ((good, np.zeros((3, 3))), 1)]:  # X and Y row counts differ
        extra = [(good, good + 1.0)] * index + [pair]
        with pytest.raises(ValueError, match=f"extra pair {index} must hold two 4 x 3 clouds"):
            spot_check_injectivity("sorted", 4, 3, 12, trials=10, seed=0, extra_pairs=extra)


@pytest.mark.parametrize("value", [True, False, 5.5, 5.0, "5"])
@pytest.mark.parametrize("name", ["n", "d", "D", "M", "trials"])
def test_spot_check_rejects_counts_that_are_not_integers(name, value):
    # a bool is an int to Python, so trials=True would run one trial and
    # report "trials": true; a float count would fail inside numpy
    args = dict(kind="sketched", n=4, d=3, D=12, M=48, trials=10, seed=0) | {name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        spot_check_injectivity(**args)


def test_spot_check_reports_python_ints():
    # numpy integer arguments give the report of Python ones, which JSON takes
    report = spot_check_injectivity("sketched", *np.int64([3, 2, 8]), M=np.int64(24),
                                    trials=np.int64(20), seed=np.uint64(4))
    assert report == spot_check_injectivity("sketched", 3, 2, 8, M=24, trials=20, seed=4)
    assert all(type(getattr(report, name)) is int for name in ("n", "d", "D", "M", "trials", "seed"))
    assert json.loads(json.dumps(vars(report)))["trials"] == 20
