"""The audit CLI's OSE sketch, drawn by a one-worker executor while the pool runs.

``permorb audit --check-ose`` starts drawing its Gaussian sketch before the
pair pool (``audit._drawn_sketch``), and the sketch check walks the row
slices once, adding each into the sketch's Gram matrix as soon as it is
drawn.  These tests hold that overlap to the sequential route: the same
sketch bits, the same report bytes, the same first error on bad input,
and no thread left behind (``conftest.py`` checks the thread count after
every test).
"""

import concurrent.futures
import contextlib
import dataclasses
import importlib
import inspect
import math
import sys
import threading
import time
from itertools import combinations

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
from permorb.audit import _drawn_sketch, _gram, _ose_check
from permorb.cli import main
from permorb.core import DEFAULT_OSE_CONSTANT
from permorb.embeddings import _blocks


def _one_call_sketch(n, D, M, seed):
    """The sketch as one standard_normal call for all of it, then one division."""
    L = make_rng(seed).standard_normal((M, n * D))
    L /= math.sqrt(M)
    return L


def _drawn(n, D, M, seed):
    with _drawn_sketch(n, D, M, seed) as (L, slices):
        for _ in slices:
            pass
        return L


# ---------------------------------------------------------------------------
# the sliced draw
# ---------------------------------------------------------------------------

_N, _D = 3, 16
_SLICE = audit._DRAW_FLOATS // (_N * _D)  # rows per draw slice


@pytest.mark.parametrize(
    "M",
    [1, 100, _SLICE, _SLICE + 1, 3 * _SLICE + 7],
    ids=["one-row", "below-a-slice", "one-slice", "one-slice-plus-1", "several-slices"],
)
def test_sliced_draw_gives_the_one_call_bits(M):
    want = _one_call_sketch(_N, _D, M, 17).tobytes()
    assert gaussian_sketch(_N, _D, M, 17).tobytes() == want
    assert _drawn(_N, _D, M, 17).tobytes() == want


def _sliced_gram(L):
    """L^T L summed with one syrk per draw slice, as _gram sums a drawn sketch."""
    G = np.zeros((L.shape[1], L.shape[1]))
    for rows in _blocks(*L.shape, audit._DRAW_FLOATS):
        G += L[rows].T @ L[rows]
    return G


def test_rows_are_final_once_handed_over():
    # _gram adds each slice into L^T L as soon as it is yielded: a slice
    # added before it is drawn and divided would change the sum
    M = 2 * _SLICE + 3
    want = _one_call_sketch(_N, _D, M, 18)
    with _drawn_sketch(_N, _D, M, 18) as (L, slices):
        G, _ = _gram(slices, *L.shape)
        assert G.tobytes() == _sliced_gram(want).tobytes()
        assert L.tobytes() == want.tobytes()


def _exact_fro(L):
    with np.errstate(over="ignore", under="ignore"):
        return math.sqrt(math.fsum((L * L).ravel()))


@pytest.mark.parametrize("M", [1, 100, 3 * _SLICE + 7], ids=["one-row", "one-slice", "several-slices"])
def test_fro_bounds_the_drawn_sketch(M):
    with _drawn_sketch(_N, _D, M, 21) as (L, slices):
        fro, exact = _gram(slices, *L.shape)[1], _exact_fro(L)
    assert exact <= fro <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("scale", [-560, -300, 0, 480], ids=lambda s: f"2**{s}")
@pytest.mark.parametrize("M", [1, 100, 3 * _SLICE + 7], ids=["one-row", "one-slice", "several-slices"])
def test_fro_bounds_a_finished_sketch_at_every_scale(M, scale):
    # at 2**-560 every square is subnormal, or underflows to 0
    L = np.ldexp(gaussian_sketch(_N, _D, M, 22), scale)
    fro, exact = _gram(iter((L,)), *L.shape)[1], _exact_fro(L)
    assert exact <= fro
    if scale > -500:
        assert fro <= exact * (1.0 + 1e-8)


def test_fro_of_a_sketch_whose_squares_overflow_is_infinite():
    L = np.ldexp(gaussian_sketch(_N, _D, 100, 23), 520)
    assert _gram(iter((L,)), *L.shape)[1] == math.inf


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


def test_rows_handed_over_under_fast_thread_switching_are_final(monkeypatch):
    # four drawers on two cores, 17-row slices, a switch every 10 us, and
    # Gram sums that keep up with the drawer: a row added before its slice
    # is drawn and divided would change the sum
    monkeypatch.setattr(audit, "_DRAW_FLOATS", 17 * _N * _D)
    M = 6000
    wants = [_one_call_sketch(_N, _D, M, 30 + k) for k in range(4)]
    grams = [_sliced_gram(want).tobytes() for want in wants]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.ExitStack() as stack:
            sketches = [stack.enter_context(_drawn_sketch(_N, _D, M, 30 + k)) for k in range(4)]
            for (L, slices), want, gram in zip(sketches, wants, grams):
                assert _gram(slices, *L.shape)[0].tobytes() == gram
                assert L.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in threading.enumerate() if t.name.startswith("permorb-sketch")]


def _record_futures(monkeypatch):
    """The futures of every task the sketch's executor is given, from now on."""
    futures = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return futures


def test_close_cancels_the_slices_not_yet_begun(monkeypatch):
    # one row a slice; the first slice's task holds the worker until leaving
    # the draw has cancelled the second, so every later slice is cancelled
    # unbegun
    monkeypatch.setattr(audit, "_DRAW_FLOATS", _N * _D)
    futures = _record_futures(monkeypatch)
    fill = audit._gaussian_fill

    def held(rng, rows):
        deadline = time.monotonic() + 10
        while not (len(futures) > 1 and futures[1].cancelled()) and time.monotonic() < deadline:
            time.sleep(1e-3)
        fill(rng, rows)

    monkeypatch.setattr(audit, "_gaussian_fill", held)
    with _drawn_sketch(_N, _D, 50, 19):
        pass
    assert len(futures) == 50
    assert futures[0].result() is None
    assert all(future.cancelled() for future in futures[1:])
    assert not [t for t in threading.enumerate() if t.name.startswith("permorb-sketch")]


def test_ose_check_takes_a_sketch_being_drawn():
    n, d, D = 3, 2, 7
    A = gaussian_directions(d, D, 5)
    M = 3 * audit._DRAW_FLOATS // (n * D) + 11
    with _drawn_sketch(n, D, M, 6) as (L, slices):
        got = _ose_check(A, L, slices, n, 0.2, 60, 7)
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
    out[-1, 0] = np.nan


def _patch_drawer(monkeypatch, fail):
    """Pass each slice the sketch drawer fills to ``fail``: only the drawer
    fills through audit._gaussian_fill (the pair pool and ose_check fill
    their clouds with ``out=`` too)."""
    real = audit._gaussian_fill

    def failing(rng, rows):
        real(rng, rows)
        fail(rows)

    monkeypatch.setattr(audit, "_gaussian_fill", failing)


def test_drawing_error_reaches_the_caller(monkeypatch):
    _patch_drawer(monkeypatch, _raise)
    futures = _record_futures(monkeypatch)
    with _drawn_sketch(2, 5, 40, 3) as (L, slices):
        # every task ends on its error, so the walk cannot wait for ever
        assert not concurrent.futures.wait(futures, timeout=10).not_done
        with pytest.raises(RuntimeError, match="generator failed"):
            _gram(slices, *L.shape)


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
    # a 10,353 x 48 sketch: one draw slice and most of a second
    A = gaussian_directions(3, 12, 41)
    got, want = _cli_report(tmp_path, A, 4, 60, 42, 80, subset_r=subset_r, pu_m=pu_m)
    assert got == want


def test_cli_report_equals_the_sequential_report_across_blocks(tmp_path, monkeypatch):
    # small blocks and small draw slices: the Gram matrix the screen forms
    # in the first block waits on the drawer many times, and the
    # confirming matvecs run in every block
    monkeypatch.setattr(embeddings, "_BLOCK_ELEMENTS", 1 << 12)
    monkeypatch.setattr(audit, "_DRAW_FLOATS", 1 << 10)
    n, d, D, ose_trials = 3, 2, 8, 200
    assert len(_blocks(ose_trials, 2 * n * max(d, D))) >= 2
    A = gaussian_directions(d, D, 43)
    got, want = _cli_report(tmp_path, A, n, 40, 44, ose_trials, subset_r=1, pu_m=2)
    assert got == want


def test_cli_report_equals_the_sequential_report_with_a_sketch_below_one_slice(tmp_path):
    n, d, D, epsilon = 2, 2, 4, 0.9
    M = ose_dimension(n, d, D, epsilon, 0.1)
    assert M * n * D < audit._DRAW_FLOATS
    A = gaussian_directions(d, D, 45)
    got, want = _cli_report(tmp_path, A, n, 30, 46, 50, epsilon=epsilon)
    assert got == want


def test_cli_report_equals_the_sequential_report_with_a_wide_sketch(tmp_path, monkeypatch):
    # a tiny --ose-constant gives fewer sketch rows than columns: the check
    # forms no Gram matrix, drains the one-row draw slices and confirms
    # every pair with the drawn sketch
    monkeypatch.setattr(audit, "_DRAW_FLOATS", 1)
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
