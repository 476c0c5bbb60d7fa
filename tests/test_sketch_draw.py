"""The audit CLI's OSE sketch, drawn as two parts: one on a worker thread while the pool runs.

``permorb audit --check-ose`` starts drawing its Gaussian sketch before the
pair pool (``audit._drawn_sketch``, which gives the full account): one
worker thread draws the head, rows [0, h) with h = ``audit._head_rows(M)``,
and the sketch check draws the tail on the calling thread before its first
screen, from a copy of the stream advanced to a guessed word that a replay
proves, by Philox state equality before or after one of the copy's first
few normals, to continue the head's stream, or on a miss from the head's
generator.  The check's G is the sum of the parts' Gram parts, and the
caller forms the tail's before it waits for the head's.

These tests hold that draw to the sequential route: the same sketch bits
on the split and the miss paths, a Gram matrix that is the two parts'
sum, the same report bytes, the same first error on bad input, one worker
and no thread left behind (``conftest.py`` checks the thread count after
every test).
"""

import contextlib
import dataclasses
import importlib
import inspect
import math
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from permorb import (
    audit,
    embeddings,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    json_dumps,
    load_matrix_csv,
    make_rng,
    ose_check,
    ose_dimension,
    save_matrix_csv,
    subset_sigma_lower_bound,
)
from permorb.audit import _aligned_start, _drawn_sketch, _gram, _ose_check, _words_used
from permorb.cli import main
from permorb.core import DEFAULT_OSE_CONSTANT
from permorb.embeddings import _blocks

ROOT = Path(__file__).resolve().parents[1]


def _one_call_sketch(n, D, M, seed):
    """The sketch as one standard_normal call for all of it, then one division."""
    L = make_rng(seed).standard_normal((M, n * D))
    L /= math.sqrt(M)
    return L


def _drawn(n, D, M, seed):
    """The drawn sketch L and what its draw hands the check: (L, G, fro)."""
    with _drawn_sketch(n, D, M, seed) as (L, final):
        return (L, *final())


def _drawer_threads():
    return [t for t in threading.enumerate() if t.name.startswith("permorb-sketch")]


def _halves_gram(L):
    """L^T L as the drawn sketch's check sums it: one syrk for the head's rows, one for the tail's."""
    h = audit._head_rows(len(L))
    return L[:h].T @ L[:h] + L[h:].T @ L[h:]


# ---------------------------------------------------------------------------
# the two-half draw
# ---------------------------------------------------------------------------

_N, _D = 3, 16


def _alignments(monkeypatch):
    """Every alignment _drawn_sketch looks for from now on, as (j, the tail's
    start within the window's words): j is None on a miss."""
    found = []
    real = audit._aligned_start

    def spy(mark, end, starts):
        j = real(mark, end, starts)
        found.append((j, _words_used(mark) <= _words_used(starts[0]) <= _words_used(end)))
        return j

    monkeypatch.setattr(audit, "_aligned_start", spy)
    return found


@pytest.mark.parametrize("rate", [None, 0.5, 1.5], ids=["guess", "before-the-window", "past-the-head"])
@pytest.mark.parametrize("M", [1, 2, 100, 3000])
def test_drawn_sketch_gives_the_one_call_bits_and_the_halves_gram(monkeypatch, M, rate):
    # the rate only moves the tail's start: at 3,000 rows a rate of 0.5
    # starts it before the window and 1.5 past the head, and both miss,
    # while up to 100 rows the window holds all of the head's normals
    if rate is not None:
        monkeypatch.setattr(audit, "_WORDS_PER_NORMAL", rate)
    found = _alignments(monkeypatch)
    for seed in range(5):
        want = _one_call_sketch(_N, _D, M, seed)
        assert gaussian_sketch(_N, _D, M, seed).tobytes() == want.tobytes()
        L, G, fro = _drawn(_N, _D, M, seed)
        assert L.tobytes() == want.tobytes()
        if M >= _N * _D:
            assert G.tobytes() == _halves_gram(want).tobytes()
        else:  # a wide sketch: no Gram matrix, and every pair is confirmed
            assert G is None and fro == math.inf
    assert len(found) == 5
    if M == 3000:
        assert all((j is None) == (rate is not None) for j, _ in found)
        assert all(inside == (rate is None) for _, inside in found)


def _exact_fro(L):
    with np.errstate(over="ignore", under="ignore"):
        return math.sqrt(math.fsum((L * L).ravel()))


@pytest.mark.parametrize("M", [48, 100, 3001])
def test_fro_bounds_the_drawn_sketch(M):
    # the bound comes from the trace of the two halves' summed Gram parts
    L, _, fro = _drawn(_N, _D, M, 21)
    exact = _exact_fro(L)
    assert exact <= fro <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("scale", [-560, -300, 0, 480], ids=lambda s: f"2**{s}")
@pytest.mark.parametrize("M", [48, 100, 3001])
@pytest.mark.parametrize("parts", [1, 2], ids=["whole", "halves"])
def test_fro_bounds_a_finished_sketch_at_every_scale(M, scale, parts):
    # at 2**-560 every square is subnormal, or underflows to 0
    L = np.ldexp(gaussian_sketch(_N, _D, M, 22), scale)
    with np.errstate(under="ignore"):
        fro = _gram(L)[1] if parts == 1 else _gram(L, _halves_gram(L))[1]
    exact = _exact_fro(L)
    assert exact <= fro
    if scale > -500:
        assert fro <= exact * (1.0 + 1e-8)


def test_fro_of_a_sketch_whose_squares_overflow_is_infinite():
    L = np.ldexp(gaussian_sketch(_N, _D, 100, 23), 520)
    assert _gram(L)[1] == math.inf


def test_a_wide_sketch_gets_no_gram_matrix():
    L = gaussian_sketch(_N, _D, _N * _D - 1, 24)
    assert _gram(L) == (None, math.inf)


def test_no_public_function_runs_on_the_drawing_thread(tmp_path):
    # the benchmark's tracer keeps one span stack and assumes that every
    # public permorb function runs on the calling thread
    modules = [audit, embeddings, *(importlib.import_module(f"permorb.{name}") for name in
                                    ("core", "metrics", "constructions", "separation", "tables"))]
    public = {getattr(module, name).__code__ for module in modules for name in module.__all__
              if inspect.isfunction(getattr(module, name))}
    called = []

    def profile(frame, event, arg):
        if event == "call" and threading.current_thread().name.startswith("permorb-sketch"):
            called.append(frame.f_code)

    threading.setprofile(profile)
    try:
        assert main(_audit_argv(tmp_path)) == 0
    finally:
        threading.setprofile(None)
    assert audit._gaussian_fill.__code__ in called
    assert not [code.co_name for code in called if code in public]


def test_concurrent_draws_under_fast_thread_switching_keep_the_bits():
    # four draws, four workers and the caller on two cores, and a switch
    # every 10 us: a half divided or summed before it is final, or a tail
    # moved before the head's replay, would change the sketch or its Gram
    # matrix
    M = 6000
    wants = [_one_call_sketch(_N, _D, M, 30 + k) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.ExitStack() as stack:
            sketches = [stack.enter_context(_drawn_sketch(_N, _D, M, 30 + k)) for k in range(4)]
            for (L, final), want in zip(sketches, wants):
                assert final()[0].tobytes() == _halves_gram(want).tobytes()
                assert L.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert not _drawer_threads()


def test_leaving_the_draw_joins_the_worker_within_one_chunk(monkeypatch):
    # a head of four chunks; the worker's first chunk holds it until leaving
    # the context has set the stop flag, and then it fills no other chunk,
    # and no tail is drawn, as final() was never called
    stops, chunks, made = [], [], []
    entered = threading.Semaphore(0)
    fill = audit._gaussian_fill

    def recorded(rng, out, stop):
        stops.append(stop)
        fill(rng, out, stop)

    class Held(np.random.Generator):
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            chunks.append(self)
            entered.release()
            deadline = time.monotonic() + 10
            while not stops[0].is_set() and time.monotonic() < deadline:
                time.sleep(1e-3)
            return super().standard_normal(size, dtype, out)

    def held_rng(seed):
        made.append(Held(make_rng(seed).bit_generator))
        return made[-1]

    monkeypatch.setattr(audit, "_gaussian_fill", recorded)
    monkeypatch.setattr(audit, "make_rng", held_rng)
    M = 8 * (1 << 18) // (_N * _D)
    began = time.monotonic()
    with _drawn_sketch(_N, _D, M, 19):
        assert entered.acquire(timeout=10)
    assert time.monotonic() - began < 5
    assert len(made) == 2 and chunks == [made[0]]
    assert not _drawer_threads()


def test_a_check_ose_audit_starts_one_drawer_thread(tmp_path, monkeypatch):
    # no drawer is alive before the audit and it starts one, so at no point
    # are two alive
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert not _drawer_threads()
    assert main(_audit_argv(tmp_path, "--subset-r", "1", "--pu-m", "2")) == 0
    assert [name for name in started if name.startswith("permorb-sketch")] == ["permorb-sketch_0"]


@pytest.mark.parametrize(
    "extra, message",
    [(("--subset-r", "5"), "error: need D >= r*d = 10, got D = 6"),
     (("--pu-m", "7"), "error: m must lie in 1..6, got 7")],
    ids=["subset-r", "pu-m"],
)
def test_an_audit_failing_after_the_draw_began_draws_no_tail(tmp_path, monkeypatch, capsys,
                                                             extra, message):
    # the draw starts before these errors, which come before the check:
    # the worker's head may be drawn, but the tail's advanced generator
    # never fills
    made, filled = [], []
    real_rng, real_fill = audit.make_rng, audit._gaussian_fill

    def recording_rng(seed):
        made.append(real_rng(seed))
        return made[-1]

    def recording_fill(rng, out, stop):
        filled.append(rng)
        real_fill(rng, out, stop)

    monkeypatch.setattr(audit, "make_rng", recording_rng)
    monkeypatch.setattr(audit, "_gaussian_fill", recording_fill)
    assert main(_audit_argv(tmp_path, *extra)) == 1
    assert _first_error(capsys) == message
    assert len(made) >= 2 and all(rng is made[0] for rng in filled)


def test_final_draws_once_and_then_returns_its_pair(monkeypatch):
    fills = []
    real = audit._gaussian_fill

    def counted(rng, out, stop):
        fills.append(out.size)
        real(rng, out, stop)

    monkeypatch.setattr(audit, "_gaussian_fill", counted)
    with _drawn_sketch(_N, _D, 3000, 2) as (L, final):
        G, fro = final()
        drawn, bits = len(fills), L.tobytes()
        again = final()
        assert len(fills) == drawn and L.tobytes() == bits
    assert again[0] is G and again[1] == fro
    assert G.tobytes() == _halves_gram(_one_call_sketch(_N, _D, 3000, 2)).tobytes()


def test_the_caller_checks_its_tail_before_the_head_is_checked(monkeypatch):
    # the worker's finite check of the head, which comes before the head's
    # Gram part, is held until the caller has checked the tail, the step
    # before the tail's Gram part: a final() that waited for the head's
    # Gram part before the tail's check would never release it, so the
    # hold gives up after 10 s and the test fails
    tail_checked = threading.Event()
    held = []
    real = audit._blocks

    def checked(parts):
        yield from parts
        tail_checked.set()

    def blocks(count, width, cap=None):
        parts = real(count, width, cap)
        if width != _N * _D:  # a fill's chunks
            return parts
        if threading.current_thread().name.startswith("permorb-sketch"):
            held.append(tail_checked.wait(timeout=10))
            return parts
        return checked(parts)

    monkeypatch.setattr(audit, "_blocks", blocks)
    with _drawn_sketch(_N, _D, 3000, 2) as (L, final):
        G, _ = final()
    assert held == [True]
    assert G.tobytes() == _halves_gram(_one_call_sketch(_N, _D, 3000, 2)).tobytes()


def test_ose_check_takes_a_sketch_being_drawn():
    n, d, D = 3, 2, 7
    A = gaussian_directions(d, D, 5)
    M = 3000
    with _drawn_sketch(n, D, M, 6) as (L, final):
        got = _ose_check(A, L, final, n, 0.2, 60, 7)
    assert got == ose_check(A, gaussian_sketch(n, D, M, 6), n, 0.2, 60, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ose_check_rejects_a_sketch_with_a_non_finite_entry(bad):
    n, d, D = 2, 2, 4
    A = gaussian_directions(d, D, 8)
    L = gaussian_sketch(n, D, 30, 9)
    L[17, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ose_check(A, L, n, 0.2, 10, 1)


def _raise(out):
    raise RuntimeError("generator failed")


def _poison(out):
    out.fill(np.nan)


def _patch_drawer(monkeypatch, fail):
    """Pass each array the sketch drawer fills to ``fail``: only the drawer
    fills through audit._gaussian_fill (the pair pool and ose_check fill
    their clouds with ``out=`` too)."""
    real = audit._gaussian_fill

    def failing(rng, out, stop):
        real(rng, out, stop)
        fail(out)

    monkeypatch.setattr(audit, "_gaussian_fill", failing)


def test_drawing_error_reaches_the_caller(monkeypatch):
    _patch_drawer(monkeypatch, _raise)
    with _drawn_sketch(2, 5, 40, 3) as (L, final):
        with pytest.raises(RuntimeError, match="generator failed"):
            final()


def test_drawing_error_reaches_the_cli_caller(tmp_path, monkeypatch):
    _patch_drawer(monkeypatch, _raise)
    with pytest.raises(RuntimeError, match="generator failed"):
        main(_audit_argv(tmp_path))
    assert not (tmp_path / "r.json").exists()


def test_cli_checks_the_drawn_sketch_finite(tmp_path, monkeypatch, capsys):
    _patch_drawer(monkeypatch, _poison)
    assert main(_audit_argv(tmp_path)) == 1
    assert _first_error(capsys) == "error: L contains non-finite entries"


def test_cli_checks_a_drawn_wide_sketch_finite(tmp_path, monkeypatch, capsys):
    # a tiny --ose-constant gives a sketch of fewer rows than its 18
    # columns, which the check takes whole, with no Gram matrix
    _patch_drawer(monkeypatch, _poison)
    assert main(_audit_argv(tmp_path, "--ose-constant", "0.001")) == 1
    assert _first_error(capsys) == "error: L contains non-finite entries"
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# the split
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, M", [(4, 11_417), (6, 18_921)], ids=["n4", "n6"])
def test_the_benchmark_shapes_give_the_one_call_bits(monkeypatch, n, M):
    found = _alignments(monkeypatch)
    for seed in range(5):
        want = _one_call_sketch(n, 24, M, seed)
        L, G, _ = _drawn(n, 24, M, seed)
        assert L.tobytes() == want.tobytes()
        assert G.tobytes() == _halves_gram(want).tobytes()
    assert len(found) == 5 and sum(j is not None for j, _ in found) >= 4


def _walked_start(mark, target, most):
    """The brute-force _aligned_start: one normal at a time from mark."""
    rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = mark
    for count in range(most + 1):
        if _words_used(rng.bit_generator.state) == target:
            return count
        rng.standard_normal()
    return None


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_the_replay_finds_the_count_a_walk_finds(seed):
    # every start word of a stretch of the stream, against a walk of one
    # normal at a time: the words inside a normal's words have no count
    rng = make_rng(seed)
    rng.standard_normal(1000)
    mark = rng.bit_generator.state
    rng.standard_normal(600)
    end, used = rng.bit_generator.state, _words_used(mark)
    counts = []
    for block in range(used // 4 - 2, _words_used(end) // 4 + 3):
        start_rng = make_rng(seed)
        start_rng.bit_generator.advance(block)
        start = start_rng.bit_generator.state
        want = _walked_start(mark, 4 * block, 600) if used <= 4 * block <= _words_used(end) else None
        assert _aligned_start(mark, end, [start]) == want
        counts.append(want)
    found = [count for count in counts if count is not None]
    assert None in counts[3:-3] and found == sorted(found) and len(found) > 100


def _states_and_normals(rng, count):
    """rng's state after each of its first ``count`` normals (and before them), and those normals."""
    states, normals = [rng.bit_generator.state], []
    for _ in range(count):
        normals.append(rng.standard_normal())
        states.append(rng.bit_generator.state)
    return states, np.array(normals)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_a_start_inside_a_normal_aligns_a_few_normals_on(seed):
    # a second stream started at any word of the window: its states after
    # its first few normals place it in the first stream, where its normals
    # from there on are the first's, also where its start lies inside one
    # normal's words and the first stream never passes through it
    rng = make_rng(seed)
    rng.standard_normal(1000)
    mark = rng.bit_generator.state
    stream = rng.standard_normal(600)
    end, used = rng.bit_generator.state, _words_used(mark)
    inside = 0
    for block in range(used // 4 + 1, _words_used(end) // 4 - 10):
        second = make_rng(seed)
        second.bit_generator.advance(block)
        starts, normals = _states_and_normals(second, 8)
        c = _aligned_start(mark, end, starts[:5])
        assert c is not None
        assert normals[4:].tobytes() == stream[c + 4: c + 8].tobytes()
        inside += _aligned_start(mark, end, starts[:1]) is None
    assert inside > 0


def test_small_draws_all_split_and_keep_the_bits(monkeypatch):
    # 200 rows of 48 floats: a head of 110 rows, 5,280 normals, and a
    # 4,096-normal window
    assert audit._head_rows(200) * _N * _D > audit._DRAW_WINDOW
    calls = []
    real = audit._aligned_start
    monkeypatch.setattr(audit, "_aligned_start", lambda *args: calls.append(args) or real(*args))
    for seed in range(60):
        want = _one_call_sketch(_N, _D, 200, seed).tobytes()
        assert _drawn(_N, _D, 200, seed)[0].tobytes() == want
    assert len(calls) == 60
    for seed, (mark, end, starts) in enumerate(calls):
        assert real(mark, end, starts) is not None
        # seeds 14 and 50 start inside one normal's words, and align after
        # the tail's first normal
        assert (real(mark, end, starts[:1]) is None) == (seed in (14, 50))
        assert real(mark, end, starts[:2]) is not None


def test_a_forced_miss_redraws_the_tail_with_the_bits(monkeypatch):
    # a tail that starts inside the window but is not aligned is redrawn
    # from the head's generator, serially
    monkeypatch.setattr(audit, "_aligned_start", lambda mark, end, starts: None)
    for seed in range(5):
        want = _one_call_sketch(_N, _D, 200, seed)
        L, G, _ = _drawn(_N, _D, 200, seed)
        assert L.tobytes() == want.tobytes()
        assert G.tobytes() == _halves_gram(want).tobytes()


@pytest.mark.parametrize(
    "fail, error",
    [(_raise, "generator failed"), (_poison, "L contains non-finite entries")],
    ids=["raised", "non-finite"],
)
@pytest.mark.parametrize("which", [0, 1], ids=["head", "tail"])
def test_an_error_in_either_drawer_reaches_the_caller(monkeypatch, which, fail, error):
    # seed 1 splits, so a poisoned tail reaches its own finite check
    found = _alignments(monkeypatch)
    generators = []
    real_rng, real_fill = audit.make_rng, audit._gaussian_fill

    def recording_rng(seed):
        generators.append(real_rng(seed))
        return generators[-1]

    def failing(rng, out, stop):
        real_fill(rng, out, stop)
        if rng is generators[which]:
            fail(out)

    monkeypatch.setattr(audit, "make_rng", recording_rng)
    monkeypatch.setattr(audit, "_gaussian_fill", failing)
    with _drawn_sketch(_N, _D, 3000, 1) as (L, final):
        with pytest.raises((RuntimeError, ValueError), match=error):
            final()
    assert len(generators) == 2
    if fail is _raise:
        # a raised error comes before the alignment: the tail's in its own
        # draw, the head's where final() waits for the head's Philox states
        assert found == []
    else:
        # a non-finite half is found only by its finite check, after the
        # head's states are published and the tail aligned with them: the
        # tail's check is the caller's own, and the head's error is raised
        # where final() waits for the head's Gram part, after the tail's
        assert len(found) == 1 and found[0][0] is not None


def test_the_benchmark_sketches_take_the_split_path(tmp_path, monkeypatch):
    # the audit-cli workload's two --check-ose sketches (seeds 0-2, and 44,
    # whose n = 6 tail starts inside one normal's words) must split, not
    # miss: a numpy whose ziggurat takes another number of words per normal
    # fails here instead of silently drawing the tail twice
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    found = _alignments(monkeypatch)
    for seed in (0, 1, 2, 44):
        ops = [op for op in workloads.audit_cli(seed, tmp_path).ops if op.key.startswith("gauss3")]
        assert [op.key for op in ops] == ["gauss3-n4", "gauss3-n6"]
        for op in ops:
            assert op.call() == 0
    assert len(found) == 8 and all(j is not None for j, _ in found)


# ---------------------------------------------------------------------------
# the CLI report against the sequential route
# ---------------------------------------------------------------------------


def _sequential_report(path, n, trials, seed, ose_trials, *, subset_r=None, pu_m=None,
                       epsilon=0.25, eta=0.1, ose_constant=DEFAULT_OSE_CONSTANT):
    A = load_matrix_csv(path)
    d, D = A.shape
    report = empirical_distortion(A, n, trials, seed, pu_m=pu_m)
    if subset_r is not None:
        report.subset_bound = subset_sigma_lower_bound(A, subset_r, n)
    payload = dataclasses.asdict(report)
    M = ose_dimension(n, d, D, epsilon, eta, ose_constant)
    L = gaussian_sketch(n, D, M, seed)
    payload["ose_check"] = dataclasses.asdict(ose_check(A, L, n, epsilon, ose_trials, seed))
    payload["ose_dimension"] = M
    return json_dumps(payload)


def _cli_report(tmp_path, A, n, trials, seed, ose_trials, *, subset_r=None, pu_m=None,
                epsilon=0.25, ose_constant=DEFAULT_OSE_CONSTANT):
    path, out = tmp_path / "A.csv", tmp_path / "cli.json"
    save_matrix_csv(path, A)
    argv = ["audit", "--directions", str(path), "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--check-ose", "--ose-trials", str(ose_trials),
            "--epsilon", str(epsilon), "--ose-constant", repr(ose_constant), "--out", str(out)]
    if subset_r is not None:
        argv += ["--subset-r", str(subset_r)]
    if pu_m is not None:
        argv += ["--pu-m", str(pu_m)]
    assert main(argv) == 0
    want = _sequential_report(path, n, trials, seed, ose_trials, subset_r=subset_r, pu_m=pu_m,
                              epsilon=epsilon, ose_constant=ose_constant)
    return out.read_text(encoding="utf-8"), want


@pytest.mark.parametrize(
    "subset_r, pu_m", [(None, None), (1, None), (None, 3), (1, 3)], ids=str
)
def test_cli_report_equals_the_sequential_report(tmp_path, subset_r, pu_m):
    # a 10,353 x 48 sketch
    A = gaussian_directions(3, 12, 41)
    got, want = _cli_report(tmp_path, A, 4, 60, 42, 80, subset_r=subset_r, pu_m=pu_m)
    assert got == want


def test_cli_report_equals_the_sequential_report_across_blocks(tmp_path, monkeypatch):
    # small blocks: the screen waits for the sketch in the first block,
    # and the confirming matvecs run in every block
    monkeypatch.setattr(embeddings, "_BLOCK_ELEMENTS", 1 << 12)
    n, d, D, ose_trials = 3, 2, 8, 200
    assert len(_blocks(ose_trials, 2 * n * max(d, D))) >= 2
    A = gaussian_directions(d, D, 43)
    got, want = _cli_report(tmp_path, A, n, 40, 44, ose_trials, subset_r=1, pu_m=2)
    assert got == want


def test_cli_report_equals_the_sequential_report_with_a_head_inside_the_window(tmp_path):
    # a 126 x 8 sketch: the replay window holds all of the head's normals
    n, d, D, epsilon = 2, 2, 4, 0.9
    M = ose_dimension(n, d, D, epsilon, 0.1)
    assert audit._head_rows(M) * n * D < audit._DRAW_WINDOW
    A = gaussian_directions(d, D, 45)
    got, want = _cli_report(tmp_path, A, n, 30, 46, 50, epsilon=epsilon)
    assert got == want


def test_cli_report_equals_the_sequential_report_with_a_wide_sketch(tmp_path):
    # a tiny --ose-constant gives fewer sketch rows than columns: the check
    # forms no Gram matrix, waits for the drawn halves and confirms every
    # pair with the drawn sketch
    n, d, D = 4, 3, 12
    M = ose_dimension(n, d, D, 0.25, 0.1, 0.001)
    assert 1 < M < n * D
    A = gaussian_directions(d, D, 47)
    got, want = _cli_report(tmp_path, A, n, 30, 48, 50, ose_constant=0.001)
    assert got == want


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

# flag -> (value, first error line); the parent reports them in this order
_BAD_FLAGS = {
    "--n": ("9", "error: n must lie in 2..8, got 9"),
    "--trials": ("0", "error: trials must be >= 1, got 0"),
    "--epsilon": ("1.5", "error: epsilon and eta must lie in (0, 1)"),
    "--ose-trials": ("0", "error: trials must be >= 1, got 0"),
}


def _audit_argv(tmp_path, *extra):
    A = tmp_path / "A.csv"
    if not A.exists():
        save_matrix_csv(A, np.random.default_rng(6).standard_normal((2, 6)))
    flags = {"--n": "3", "--trials": "20", "--seed": "4", "--ose-trials": "30"}
    for flag, value in zip(extra[0::2], extra[1::2]):
        flags[flag] = value
    argv = ["audit", "--directions", str(A), "--check-ose", "--out", str(tmp_path / "r.json")]
    for flag, value in flags.items():
        argv += [flag, value]
    return argv


def _first_error(capsys):
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    return lines[0] if lines else None


@pytest.mark.parametrize(
    "bad",
    [combo for k in range(1, len(_BAD_FLAGS) + 1) for combo in combinations(_BAD_FLAGS, k)],
    ids="+".join,
)
def test_audit_check_ose_reports_the_first_invalid_flag(tmp_path, capsys, bad):
    extra = [item for flag in bad for item in (flag, _BAD_FLAGS[flag][0])]
    assert main(_audit_argv(tmp_path, *extra)) == 1
    assert _first_error(capsys) == _BAD_FLAGS[bad[0]][1]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--subset-r", "5", "--epsilon", "1.5"), "error: need D >= r*d = 10, got D = 6"),
        (("--pu-m", "7", "--ose-trials", "0"), "error: m must lie in 1..6, got 7"),
        (("--eta", "0", "--ose-trials", "0"), "error: epsilon and eta must lie in (0, 1)"),
        (("--ose-constant", "-1", "--trials", "0"), "error: trials must be >= 1, got 0"),
        (("--ose-constant", "-1",), "error: c must be positive, got -1.0"),
        (("--seed", "-1",), "error: seed must be a 64-bit unsigned integer, got -1"),
        # a non-finite constant is an invalid flag, not a traceback
        (("--ose-constant", "inf",), "error: c = inf and epsilon = 0.25 give no finite sketch dimension"),
        (("--ose-constant", "nan",), "error: c must be positive, got nan"),
        # a sketch far too large to allocate: the n error still comes first
        (("--n", "1000",), "error: n must lie in 2..8, got 1000"),
    ],
)
def test_audit_check_ose_keeps_the_order_of_other_errors(tmp_path, capsys, extra, message):
    assert main(_audit_argv(tmp_path, *extra)) == 1
    assert _first_error(capsys) == message
