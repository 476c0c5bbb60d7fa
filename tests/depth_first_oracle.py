"""The depth-first certifier that the level loop replaced, kept as an oracle.

``_Search`` and ``_run_window`` are the recursive enumeration of one window
as it stood before ``separation._search``; ``_hash_coefficients`` is its
one-index keyed draw, and ``_defeated`` its defeat test, which tries all n!
permutations at once where ``separation._defeated`` runs a subset DP.
``certify_depth_first`` is the serial window loop around them; it reads
``separation._CHECKPOINT_EVERY`` at run time, so a test can shorten the
checkpoint period of both.  Tests compare the library's verdicts and
checkpoint bytes with this module's.  The library always pins P_1 to the
identity; ``reduce_coset=False`` here searches every P tuple, the
reference that the coset reduction is checked against.
"""

from __future__ import annotations

import math
import os

import numpy as np

from permorb import separation
from permorb.core import as_matrix
from permorb.metrics import _all_permutations
from permorb.separation import (
    _NULL_SAMPLES,
    _NULL_TOL,
    _PRUNE_TOL,
    _WITNESS_TOL,
    SeparationStatus,
    SeparationVerdict,
    SeparationWitness,
    _centered_basis,
    _checkpoint_key,
    _load_checkpoint,
    _write_checkpoint,
)


def _defeated(Xs: np.ndarray, p_rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The defeat test for samples ``Xs`` (s, d, n) under P tuple ``p_rows`` (d, n).

    A sample x is defeated when some sigma in S_n moves every coordinate
    vector as its P_i does: max_{i,t} |x_i[sigma(t)] - x_i[p_i(t)]| <= tol.
    That holds exactly when sigma is a perfect matching of the boolean
    matrix close[t, s] = all_i |x_i[s] - x_i[p_i(t)]| <= tol, which is
    checked against all n! rows of ``perms`` at once.
    """
    n = Xs.shape[2]
    moved = np.take_along_axis(Xs, p_rows[None, :, :], axis=2)  # x_i[p_i(t)]
    close = (np.abs(Xs[:, :, None, :] - moved[:, :, :, None]) <= _WITNESS_TOL).all(axis=1)
    return close[:, np.arange(n), perms].all(axis=2).any(axis=1)


def _hash_coefficients(seed: int, index: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic generic coefficients in (-1, 1), keyed by (seed, index).

    A vectorized splitmix-style mix; the draw is independent of visit
    order, so resumed or partitioned searches test identical elements.
    """
    base = (seed * 0xD1342543DE82EF95 + index * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) % 2**64
    x = np.uint64(base) + np.arange(1, rows * cols + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    u = (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return (2.0 * u - 1.0).reshape(rows, cols)


class _Search:
    """The enumeration of one window: the leaves under one top-level digit.

    It decides leaves from ``start`` on, in leaf order, until it finds a
    witness or the tuples examined, counted from ``examined_base``, reach
    ``budget``; ``covered`` counts the leaves it decided.
    """

    def __init__(
        self,
        A: np.ndarray,
        n: int,
        budget: int,
        seed: int,
        reduced: bool,
        start: int,
        window: int,
        examined_base: int,
    ):
        d, D = A.shape
        self.A = A
        self.n, self.d, self.D = n, d, D
        self.tail = A[:, d:]
        scales = np.linalg.norm(self.tail, axis=0)
        self.tail_scales = scales
        safe = np.where(scales > 0, scales, 1.0)
        self.tail_n = self.tail / safe
        self.perms = _all_permutations(n)
        self.Pmats = np.eye(n)[self.perms]  # Pmats[r] applies sigma_r: (P v)[t] = v[sigma_r[t]]
        self.nfact = len(self.perms)
        self.n_p = d if not reduced else d - 1
        self.n_q = D - d
        self.L = self.n_p + self.n_q
        self.reduced = reduced
        self.spans = [self.nfact ** (self.L - 1 - lv) for lv in range(self.L)]
        top_span = self.spans[0] if self.L > 0 else 1
        self.window_hi = (window + 1) * top_span
        self.start = max(start, window * top_span)
        self.budget = budget
        self.seed = seed
        self.C = _centered_basis(n, d)
        self.Vs: list[np.ndarray] | None = None
        if self.n_p == 0:
            self.Vs = self._build_Vs(self._tuple(0)[0])
        # precompute W_j[q] = hstack_i tail_n[i, j] * Pmats[q]
        self.Ws = [
            np.einsum("i,qts->qtis", self.tail_n[:, j], self.Pmats).reshape(
                self.nfact, n, d * n
            )
            for j in range(self.n_q)
        ]
        self.covered = 0
        self.examined_base = examined_base
        self.witness: SeparationWitness | None = None
        self.next_index: int | None = None  # set by a budget stop

    # -- helpers ----------------------------------------------------------

    def _tuple(self, index: int) -> tuple[list[int], list[int]]:
        """P ranks (the pinned identity first in reduced runs) and Q ranks of a leaf."""
        digits = [(index // span) % self.nfact for span in self.spans]
        return ([0] if self.reduced else []) + digits[: self.n_p], digits[self.n_p :]

    def _build_Vs(self, p_full: list[int]) -> list[np.ndarray]:
        d = self.d
        out = []
        for j in range(self.n_q):
            blocks = [self.tail_n[i, j] * self.Pmats[p_full[i]] for i in range(d)]
            out.append(np.concatenate(blocks, axis=1))  # (n, d*n)
        return out

    # -- search -----------------------------------------------------------

    def run(self) -> None:
        if self.L == 0:
            # no free tuples at all: a single leaf with the full centered space
            self._leaf(0, self.C)
        else:
            self._node(0, 0, self.C)
        if self.witness is not None:
            # a budget stop inside a final-level node still decides that
            # node's counted leaves; a witness among them ends the run
            self.next_index = None

    def _node(self, level: int, base: int, K: np.ndarray) -> None:
        if self.witness is not None or self.next_index is not None:
            return
        if level == self.L:
            self._leaf(base, K)
            return
        span = self.spans[level]
        is_p_level = level < self.n_p
        last = level + 1 == self.L and not is_p_level
        svals = vhs = None
        dim_in = K.shape[1]
        if not is_p_level:
            j = level - self.n_p
            T = self.Vs[j][None, :, :] - self.Ws[j]  # (nfact, n, d*n)
            R = T @ K  # (nfact, n, dim)
            _, svals, vhs = np.linalg.svd(R, full_matrices=True)
        # candidate leaves of the final level are decided in one batch
        pending: list[tuple[int, np.ndarray]] = []
        for digit in range(self.nfact):
            lo = base + digit * span
            hi = lo + span
            if hi <= self.start or lo >= self.window_hi:
                continue
            if self.witness is not None or self.next_index is not None:
                break
            if self.covered + self.examined_base >= self.budget:
                self.next_index = max(lo, self.start)
                break
            if is_p_level:
                if level + 1 == self.n_p:
                    self.Vs = self._build_Vs(self._tuple(lo)[0])
                self._node(level + 1, lo, K)
                continue
            sv = svals[digit]
            top = float(sv[0]) if sv.size else 0.0
            # anchored at the O(1) block scale so a nearly zero constraint
            # counts as rank 0 instead of pruning its (unconstrained) subtree
            rank = int(np.count_nonzero(sv > _PRUNE_TOL * max(top, 1.0)))
            if rank >= dim_in:
                self.covered += hi - max(lo, self.start)
                continue
            null = vhs[digit, rank:, :].T  # (dim, dim - rank), orthonormal
            if last:
                pending.append((lo, K @ null))
                self.covered += 1  # counted now, decided by the batch below
            else:
                self._node(level + 1, lo, K @ null)
        if pending and self.witness is None:
            self._decide(pending)

    def _leaf(self, index: int, K: np.ndarray) -> None:
        self.covered += 1
        if K.shape[1] > 0:
            self._decide([(index, K)])

    # -- leaf decision ------------------------------------------------------

    def _decide(self, candidates: list[tuple[int, np.ndarray]]) -> None:
        """Decide candidate leaves ``(leaf_index, basis)`` sharing one P tuple.

        Every candidate's samples go through the defeat test together.
        Candidates with an undefeated sample are then taken in leaf order:
        a basis that is not strictly null for the full system is re-based
        through the strict null space and its samples re-tested, and the
        first sample whose residual passes becomes the witness.
        """
        d, n = self.d, self.n
        p_full = self._tuple(candidates[0][0])[0]
        a_norm = float(np.linalg.norm(self.A))
        for (index, basis), alive in zip(candidates, self._undefeated(candidates, p_full)):
            if len(alive) == 0:
                continue
            q_digits = self._tuple(index)[1]
            S = self._full_system(q_digits, normalized=True)
            if S.shape[0] and float(np.linalg.norm(S @ basis)) > _NULL_TOL:
                # any true solution survived the looser incremental cuts,
                # so null(S) = basis @ null(S basis)
                _, sv, vh = np.linalg.svd(S @ basis, full_matrices=True)
                top = float(sv[0]) if sv.size else 0.0
                rank = int(np.count_nonzero(sv > _NULL_TOL * max(top, 1.0)))
                if rank >= basis.shape[1]:
                    continue
                (alive,) = self._undefeated([(index, basis @ vh[rank:].T)], p_full)
            S_orig = self._full_system(q_digits, normalized=False)
            for X in alive:
                if S_orig.shape[0]:
                    residual = float(np.linalg.norm(S_orig @ X.reshape(d * n)))
                    if residual > _WITNESS_TOL * a_norm:
                        continue
                self.witness = SeparationWitness(
                    P_tuple=[self.perms[p].copy() for p in p_full],
                    Q_tuple=[self.perms[q].copy() for q in q_digits],
                    X=X.copy(),
                    leaf_index=index,
                )
                return

    def _undefeated(self, candidates, p_full: list[int]) -> list[np.ndarray]:
        """Unit samples of each candidate's basis that no permutation defeats.

        A line has one sample up to scaling; a wider basis gets
        ``_NULL_SAMPLES`` combinations keyed by (seed, leaf index).
        """
        blocks = [
            basis.T
            if basis.shape[1] == 1
            else _hash_coefficients(self.seed, index, _NULL_SAMPLES, basis.shape[1]) @ basis.T
            for index, basis in candidates
        ]
        samples = np.concatenate(blocks, axis=0)
        norms = np.linalg.norm(samples, axis=1)
        Xs = (samples / np.maximum(norms, 1e-300)[:, None]).reshape(-1, self.d, self.n)
        alive = (norms > 1e-12) & ~_defeated(Xs, self.perms[p_full], self.perms)
        cuts = np.cumsum([len(b) for b in blocks])[:-1]
        return [X[keep] for X, keep in zip(np.split(Xs, cuts), np.split(alive, cuts))]

    def _full_system(self, q_digits: list[int], normalized: bool) -> np.ndarray:
        if self.n_q == 0:
            return np.zeros((0, self.d * self.n))
        rows = []
        for j, q in enumerate(q_digits):
            block = self.Vs[j] - self.Ws[j][q]
            if not normalized:
                block = block * self.tail_scales[j]
            rows.append(block)
        return np.concatenate(rows, axis=0)


def _run_window(window: int, examined_base: int, **search_args):
    search = _Search(window=window, examined_base=examined_base, **search_args)
    search.run()
    return search.covered, search.witness, search.next_index


def certify_depth_first(A, n, budget, seed=0, *, checkpoint_path=None, reduce_coset=True):
    """``certify_separation`` with ``threads=1``, by the depth-first search."""
    A = as_matrix(A, "A")
    d, D = A.shape
    nfact = math.factorial(n)
    n_levels = (d - 1 if reduce_coset else d) + (D - d)
    total = nfact**n_levels if n_levels > 0 else 1
    n_windows = nfact if n_levels > 0 else 1
    span = total // n_windows

    key = dict(_checkpoint_key(A, n, seed), reduced=reduce_coset)
    start = examined_base = 0
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        start, examined_base = _load_checkpoint(checkpoint_path, key, total)
    examined, witness, next_index = examined_base, None, None
    since_checkpoint = 0
    for w in range(start // span, n_windows):
        covered, witness, next_index = _run_window(
            w, examined, A=A, n=n, budget=budget, seed=seed, reduced=reduce_coset, start=start
        )
        examined += covered
        if witness is not None or next_index is not None:
            break
        since_checkpoint += covered
        if checkpoint_path is not None and since_checkpoint >= separation._CHECKPOINT_EVERY:
            _write_checkpoint(checkpoint_path, key, (w + 1) * span, examined)
            since_checkpoint = 0
    if next_index is not None and checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, key, next_index, examined)

    if witness is not None:
        status = SeparationStatus.WITNESS_FOUND
    elif next_index is not None:
        status = SeparationStatus.INCONCLUSIVE
    else:
        status = SeparationStatus.SEPARATING
    return SeparationVerdict(
        status=status,
        witness=witness,
        tuples_examined=int(examined),
        budget=int(budget),
        total_tuples=int(total),
        n=n,
        d=d,
        D=D,
        seed=int(seed),
        reduced=reduce_coset,
        next_index=next_index,
    )
