"""The package namespace: each public name listed once, resolved from its module on first use."""

import importlib

import pytest

import permorb

# the package's public names before they were resolved on first use
PUBLIC_NAMES = [
    "AuditReport", "BudgetExceededError", "ConstructionError", "CounterexamplePair",
    "InjectivityReport", "OrbitDistanceResult", "OseReport", "PUEstimate", "SeparationStatus",
    "SeparationVerdict", "SeparationWitness", "SubsetBound", "UnsupportedFormError",
    "__version__", "adversarial_circle_pair", "blueprint_lower_bound", "certify_separation",
    "circle_directions", "empirical_distortion", "flatten_embedding", "gaussian_directions",
    "gaussian_sketch", "identity_augmented", "is_full_spark", "json_dumps",
    "known_separating_matrix", "load_matrix_csv", "make_rng", "min_injective_D_upper",
    "non_injective_D_threshold", "orbit_distance", "orbit_distance_bruteforce", "ose_check",
    "ose_dimension", "parity_counterexample", "permute_rows", "pooled_embedding",
    "projective_uniformity", "region_count_bound", "save_matrix_csv", "singular_values",
    "sketched_embedding", "sliced_w2_sampled", "sort_ascending", "sorted_embedding",
    "sphere_directions", "spot_check_injectivity", "sqrtn_ceiling", "subset_sigma_lower_bound",
    "subset_sigma_lower_bound_sampled", "translation_offset", "upper_lipschitz",
    "wasserstein2",
]


def test_the_public_names_are_unchanged():
    assert sorted(permorb.__all__) == PUBLIC_NAMES
    assert len(permorb.__all__) == len(set(permorb.__all__))


def test_each_name_is_the_object_its_module_defines():
    for module, names in permorb._PUBLIC.items():
        defining = importlib.import_module(f"permorb.{module}")
        for name in names:
            assert name in defining.__all__, f"{module}.__all__ lacks {name}"
            assert getattr(permorb, name) is getattr(defining, name), name
    assert importlib.import_module("permorb.core").__version__ is permorb.__version__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from permorb import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(permorb.__all__)
    assert set(permorb.__all__) <= set(dir(permorb))


@pytest.mark.parametrize("module", ["core", "embeddings", "metrics", "constructions", "audit",
                                    "separation", "tables", "cli"])
def test_submodules_resolve_as_attributes(module):
    assert getattr(permorb, module) is importlib.import_module(f"permorb.{module}")
    assert module in dir(permorb)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        permorb.no_such_name
    assert not hasattr(permorb, "no_such_name")
    with pytest.raises(ImportError):
        exec("from permorb import no_such_name", {})
