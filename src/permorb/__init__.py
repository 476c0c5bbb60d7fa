"""permorb: permutation-invariant sorted embeddings of point clouds.

Orbit distances (exact assignment plus a factorial oracle), the sorted /
pooled / sketched embedding family, generators for direction matrices and
hard cloud pairs, certified and empirical bi-Lipschitz distortion audits,
and an exhaustive orbit-separation certifier with a CLI front end.

Each public name is listed once, in ``_PUBLIC``, under the module that
defines it, and that module is imported the first time the name is used
(PEP 562).  So ``import permorb`` loads no submodule and not numpy, and a
program loads only the modules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in __all__ order
_PUBLIC = {
    "core": (
        "BudgetExceededError",
        "ConstructionError",
        "UnsupportedFormError",
        "flatten_embedding",
        "is_full_spark",
        "json_dumps",
        "load_matrix_csv",
        "make_rng",
        "permute_rows",
        "save_matrix_csv",
        "singular_values",
        "sort_ascending",
    ),
    "embeddings": (
        "pooled_embedding",
        "sketched_embedding",
        "sorted_embedding",
        "translation_offset",
    ),
    "metrics": (
        "OrbitDistanceResult",
        "orbit_distance",
        "orbit_distance_bruteforce",
        "sliced_w2_sampled",
        "wasserstein2",
    ),
    "constructions": (
        "CounterexamplePair",
        "adversarial_circle_pair",
        "circle_directions",
        "gaussian_directions",
        "identity_augmented",
        "parity_counterexample",
        "sphere_directions",
    ),
    "audit": (
        "AuditReport",
        "OseReport",
        "PUEstimate",
        "SubsetBound",
        "blueprint_lower_bound",
        "empirical_distortion",
        "gaussian_sketch",
        "ose_check",
        "ose_dimension",
        "projective_uniformity",
        "region_count_bound",
        "sqrtn_ceiling",
        "subset_sigma_lower_bound",
        "subset_sigma_lower_bound_sampled",
        "upper_lipschitz",
    ),
    "separation": (
        "InjectivityReport",
        "SeparationStatus",
        "SeparationVerdict",
        "SeparationWitness",
        "certify_separation",
        "known_separating_matrix",
        "min_injective_D_upper",
        "non_injective_D_threshold",
        "spot_check_injectivity",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "tables", "cli")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and bound here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
