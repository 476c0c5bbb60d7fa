"""The argument rules of the public API.

Every count and seed passes through ``core._check_count``: it must be an
integer and not a bool, and a report or certificate holds it as a Python
int, so a run can be regenerated from the integers it reports.  A float
parameter that must be finite rejects NaN and infinity by name.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from permorb import (
    adversarial_circle_pair,
    blueprint_lower_bound,
    certify_separation,
    circle_directions,
    empirical_distortion,
    gaussian_directions,
    gaussian_sketch,
    is_full_spark,
    json_dumps,
    known_separating_matrix,
    make_rng,
    min_injective_D_upper,
    non_injective_D_threshold,
    ose_check,
    ose_dimension,
    parity_counterexample,
    projective_uniformity,
    region_count_bound,
    sphere_directions,
    spot_check_injectivity,
    sqrtn_ceiling,
    subset_sigma_lower_bound,
    subset_sigma_lower_bound_sampled,
    translation_offset,
)
from permorb.audit import sample_pair_pool
from permorb.cli import main

_A2 = gaussian_directions(2, 6, 1)
_A3 = gaussian_directions(3, 8, 2)
_A336 = known_separating_matrix(3, 3, 6)
_PARITY = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])

# function -> (the call, its valid arguments, the counts and seeds among them)
_CALLS = {
    "subset_sigma_lower_bound": (
        lambda r, budget: subset_sigma_lower_bound(_A2, r, budget=budget),
        dict(r=2, budget=100)),
    "subset_sigma_lower_bound_sampled": (
        lambda r, samples, seed: subset_sigma_lower_bound_sampled(_A2, r, samples, seed),
        dict(r=1, samples=5, seed=3)),
    "projective_uniformity": (
        lambda m, seed: projective_uniformity(_A2, m, seed=seed), dict(m=2, seed=3)),
    "projective_uniformity-sampled": (
        lambda m, seed: projective_uniformity(_A3, m, seed=seed), dict(m=2, seed=3)),
    "blueprint_lower_bound": (
        lambda m, D, n: blueprint_lower_bound(0.5, m, D, n), dict(m=2, D=9, n=3)),
    "sqrtn_ceiling": (lambda n: sqrtn_ceiling(_A3, n), dict(n=4)),
    "sample_pair_pool": (sample_pair_pool, dict(n=3, d=2, count=5, seed=1)),
    "empirical_distortion": (
        lambda n, trials, seed: empirical_distortion(_A2, n, trials, seed),
        dict(n=3, trials=20, seed=1)),
    "ose_dimension": (
        lambda n, d, D: ose_dimension(n, d, D, 0.25, 0.1), dict(n=3, d=2, D=6)),
    "gaussian_sketch": (gaussian_sketch, dict(n=3, D=6, M=10, seed=1)),
    "ose_check": (
        lambda n, trials, seed: ose_check(_A2, gaussian_sketch(3, 6, 40, 1), n, 0.5, trials, seed),
        dict(n=3, trials=10, seed=2)),
    "region_count_bound": (region_count_bound, dict(n=2, d=2, D=3)),
    "gaussian_directions": (gaussian_directions, dict(d=2, D=5, seed=1)),
    "sphere_directions": (sphere_directions, dict(d=2, D=5, seed=1)),
    "circle_directions": (circle_directions, dict(D=6)),
    "parity_counterexample": (
        lambda seed, max_rows: parity_counterexample(_PARITY, seed, max_rows=max_rows),
        dict(seed=3, max_rows=64)),
    "adversarial_circle_pair": (adversarial_circle_pair, dict(n=4, d=3)),
    "translation_offset": (
        lambda n: translation_offset(_A2, np.array([1.0, -2.0]), n), dict(n=3)),
    "min_injective_D_upper": (min_injective_D_upper, dict(n=3, d=3)),
    "non_injective_D_threshold": (non_injective_D_threshold, dict(n=3, d=3)),
    "certify_separation": (
        lambda n, budget, seed, threads: certify_separation(
            _A336, n, budget=budget, seed=seed, threads=threads),
        dict(n=3, budget=10, seed=1, threads=1)),
    "spot_check_injectivity": (
        lambda n, d, D, M, trials, seed: spot_check_injectivity(
            "sketched", n, d, D, M=M, trials=trials, seed=seed),
        dict(n=3, d=2, D=5, M=12, trials=10, seed=1)),
    "make_rng": (make_rng, dict(seed=5)),
    "is_full_spark": (lambda budget: is_full_spark(_A336, budget=budget), dict(budget=100)),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("function, name", [
    (function, name) for function, (_, kwargs) in _CALLS.items() for name in kwargs
])
def test_a_count_or_seed_that_is_not_an_integer_is_rejected_by_name(function, name, bad):
    call, kwargs = _CALLS[function]
    message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(**kwargs | {name: bad})


def _payload(result):
    """The JSON fields of a report or certificate, or None for another result."""
    if hasattr(result, "certificate"):
        return result.certificate
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result)
    return None


def _fingerprint(result):
    if isinstance(result, np.random.Generator):
        return result.standard_normal(4).tobytes()
    return json_dumps(result)


@pytest.mark.parametrize("function", _CALLS)
def test_numpy_integers_give_the_result_of_python_ints(function):
    call, kwargs = _CALLS[function]
    result = call(**{name: np.int64(value) for name, value in kwargs.items()})
    assert _fingerprint(result) == _fingerprint(call(**kwargs))
    payload = _payload(result)
    if payload is not None:
        json.dumps(payload)  # a numpy integer would raise TypeError here
        for name in kwargs.keys() & payload.keys():
            assert type(payload[name]) is int, name


@pytest.mark.parametrize("call, message", [
    # the seed is reported, and keys the coefficients of the search
    (lambda: certify_separation(_A336, 3, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: certify_separation(_A336, 3, seed=-1),
     "seed must be a 64-bit unsigned integer, got -1"),
    (lambda: certify_separation(_A336, 3, budget=10.5), "budget must be an integer, got 10.5"),
    (lambda: circle_directions(6.5), "D must be an integer, got 6.5"),
    (lambda: make_rng(1.7), "seed must be an integer, got 1.7"),
    (lambda: make_rng(True), "seed must be an integer, got True"),
    (lambda: make_rng(2**64), "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    (lambda: empirical_distortion(_A2, 9, 20, 0), "n must lie in 2..8, got 9"),
    (lambda: circle_directions(1), "D must be >= 2, got 1"),
], ids=["certify-seed-1.5", "certify-seed--1", "certify-budget-10.5", "circle-6.5",
        "make_rng-1.7", "make_rng-True", "make_rng-2**64", "distortion-n-9", "circle-1"])
def test_rejected_counts_and_seeds(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ose_dimension(3, 2, 6, 0.25, 0.1, c=math.inf),
     "c = inf and epsilon = 0.25 give no finite sketch dimension"),
    (lambda: ose_dimension(3, 2, 6, 0.25, 0.1, c=1e308),
     "c = 1e+308 and epsilon = 0.25 give no finite sketch dimension"),
    (lambda: ose_dimension(3, 2, 6, 1e-200, 0.1),
     "c = 4.0 and epsilon = 1e-200 give no finite sketch dimension"),
    (lambda: ose_dimension(3, 2, 6, 0.25, 0.1, c=math.nan), "c must be positive, got nan"),
    (lambda: ose_dimension(3, 2, 6, math.nan, 0.1), "epsilon and eta must lie in (0, 1)"),
    (lambda: is_full_spark(np.zeros((2, 3)), tol=math.nan),
     "tol must be positive and finite, got nan"),
    (lambda: is_full_spark(np.eye(2), tol=math.inf), "tol must be positive and finite, got inf"),
    (lambda: blueprint_lower_bound(math.nan, 2, 9, 3), "delta must be finite and >= 0, got nan"),
    (lambda: blueprint_lower_bound(math.inf, 2, 9, 3), "delta must be finite and >= 0, got inf"),
    (lambda: ose_check(_A2, gaussian_sketch(3, 6, 40, 1), 3, math.inf, 10, 2),
     "epsilon must be positive and finite, got inf"),
], ids=["c-inf", "c-overflow", "epsilon-overflow", "c-nan", "epsilon-nan", "tol-nan", "tol-inf", "delta-nan",
        "delta-inf", "ose-epsilon-inf"])
def test_non_finite_floats_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_construct_rejects_a_tolerance_before_writing(tmp_path, capsys, tol):
    # a NaN tolerance used to write A.csv, then fail to serialise the certificate
    tail = tmp_path / "tail.csv"
    tail.write_text("0.5\n0.25\n")
    out = tmp_path / "out"
    argv = ["construct", "identity-augmented", "--tail", str(tail), "--tol", tol, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: tol must be positive and finite, got {float(tol)}\n"
    assert not (out / "A.csv").exists()
