"""The level-loop certifier against the depth-first search it replaced.

``depth_first_oracle`` holds the recursive search verbatim.  Every case
must give the same status, tuples examined, resume position, witness
leaf and witness bits, and the same checkpoint file bytes.
"""

import hashlib

import numpy as np
import pytest
from depth_first_oracle import _hash_coefficients as one_index_draw
from depth_first_oracle import certify_depth_first
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb import gaussian_directions, identity_augmented, known_separating_matrix
from permorb import separation
from permorb.separation import (
    KNOWN_NONSEPARATING_DIMS,
    KNOWN_SEPARATING_CASES,
    _checkpoint_key,
    _hash_coefficients,
    _write_checkpoint,
    certify_separation,
)


def _tail(d, D, seed):
    return identity_augmented(gaussian_directions(d, D - d, seed))


def _cases():
    """(name, A, n, budget, seed)"""
    for (n, d, D) in KNOWN_SEPARATING_CASES:
        A = known_separating_matrix(n, d, D)
        for budget in (1000, 20_000) if (n, d, D) == (5, 2, 5) else (10**9,):
            yield f"reference {(n, d, D)} budget {budget}", A, n, budget, 0
    for (n, d, D) in KNOWN_NONSEPARATING_DIMS:
        for seed in range(6):
            budget = 20_000 if (n, d, D) == (5, 2, 5) else 10**9
            yield f"tail {(n, d, D)} seed {seed}", _tail(d, D, seed), n, budget, seed
    # around the printed (3,3,6) witness at leaf 4020, whose final-level
    # node ends at 4026
    for budget in (4019, 4020, 4021, 4022, 4026, 4030):
        yield f"printed (3,3,6) budget {budget}", known_separating_matrix(3, 3, 6), 3, budget, 0
    # budget stops inside pruned subtrees, which count whole
    for seed in (0, 1):
        for budget in (131, 136, 166, 171):
            A = _tail(2, 5, seed)
            yield f"(3,2,5) seed {seed} budget {budget}", A, 3, budget, 0
    yield "eye(2), n = 1", np.eye(2), 1, 10**9, 0
    yield "eye(3), n = 3", np.eye(3), 3, 10**9, 0
    # more leaves than int64 holds: positions become Python integers
    yield "(6,2,10) budget 60", _tail(2, 10, 0), 6, 60, 0


_CASES = list(_cases())


def _summary(verdict):
    w = verdict.witness
    found = None
    if w is not None:
        found = (w.leaf_index, w.X.tobytes(), [p.tolist() for p in w.P_tuple],
                 [q.tolist() for q in w.Q_tuple])
    return verdict.status, verdict.tuples_examined, verdict.next_index, found


def _read(path):
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_level_loop_matches_the_depth_first_search(case, tmp_path):
    _, A, n, budget, seed = case
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old = certify_depth_first(A, n, budget, seed, checkpoint_path=old_path)
    new = certify_separation(A, n, budget, seed, checkpoint_path=new_path)
    assert _summary(new) == _summary(old)
    assert _read(new_path) == _read(old_path)


@pytest.mark.parametrize("threads", [1, 2])
def test_checkpoint_chains_match_the_depth_first_search(tmp_path, monkeypatch, threads):
    # a short period writes checkpoints at window boundaries (576 leaves);
    # each step resumes from the file the last one left
    monkeypatch.setattr(separation, "_CHECKPOINT_EVERY", 1000)
    A = known_separating_matrix(4, 2, 4)
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    for budget in (700, 2000, 2001, 6000, 10**9):
        old = certify_depth_first(A, 4, budget, checkpoint_path=old_path)
        new = certify_separation(A, 4, budget, threads=threads, checkpoint_path=new_path)
        assert _summary(new) == _summary(old), budget
        assert _read(new_path) == _read(old_path), budget


@pytest.mark.parametrize("threads", [1, 2])
def test_budget_stops_in_pruned_windows_match_the_depth_first_search(threads):
    # with d = 1 the top level is a tail column, so whole windows prune and
    # a stop inside one moves to the window's end
    A = np.array([[1.0, 0.7, 0.2]])
    for budget in range(1, 37):
        old = certify_depth_first(A, 3, budget)
        new = certify_separation(A, 3, budget, threads=threads)
        assert _summary(new) == _summary(old), budget


def test_resume_beyond_the_int64_range_matches_the_depth_first_search(tmp_path):
    # leaf indices above 2**64 key the samples modulo 2**64
    A = _tail(2, 10, 3)
    start = 720**9 // 3 * 2 + 7
    for name in ("old", "new"):
        _write_checkpoint(tmp_path / name, _checkpoint_key(A, 6, 0), start, start)
    old = certify_depth_first(A, 6, start + 60, checkpoint_path=tmp_path / "old")
    new = certify_separation(A, 6, start + 60, checkpoint_path=tmp_path / "new")
    assert _summary(new) == _summary(old)
    assert _read(tmp_path / "new") == _read(tmp_path / "old")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 720**3), min_size=1, max_size=6),
    st.integers(1, 8),
    st.integers(1, 10),
)
def test_keyed_draw_over_many_leaves_matches_the_one_leaf_draw(seed, leaves, rows, cols):
    draws = _hash_coefficients(seed, np.array(leaves), rows, cols)
    assert draws.shape == (len(leaves), rows, cols)
    for leaf, draw in zip(leaves, draws):
        assert draw.tobytes() == one_index_draw(seed, leaf, rows, cols).tobytes()
        assert draw.tobytes() == _hash_coefficients(seed, leaf, rows, cols).tobytes()


@pytest.mark.parametrize(
    "args, digest",
    [
        ((0, 0, 8, 2), "0d2e37549aef539d4fc609404b5edf3a11f10c657080eac8cea0c7ae70c6c77a"),
        ((0, 4020, 8, 3), "877ac69414f0a4b2354ff66c9fc520c67d2c4b939350c2fede21f1bb6bf66682"),
        ((7, 720**3 - 1, 8, 10), "90d16402a7f883744263680bf465d2b1d9c6084984513f9322e5fca5e2c65ea5"),
        ((2**64 - 1, 123456789, 3, 5), "429938ae160f528c9e52ac186aa7d8e06caf157bfcf2e53f70895dbfa19c4ed2"),
        ((12345, 2**70 + 11, 8, 4), "b6c7682d63e05c9dcef857c6b9fa15f81768916713815a0720204f58a039218f"),
    ],
)
def test_keyed_draw_bits_are_pinned(args, digest):
    assert hashlib.sha256(_hash_coefficients(*args).tobytes()).hexdigest() == digest
