"""Exact character identities between symmetric groups and the hyperoctahedral group.

The library computes symmetric-group characters by the Murnaghan-Nakayama
recursion, hyperoctahedral (B_n) characters and dimensions, the norm map on
even-cycle classes, the basechange map through 2-cores and 2-quotients, and
exact rational Schur polynomial values, together with harnesses that verify
the identities tying all of these together.

The library has six layers, partitions, census, characters, hyperoctahedral,
symfunc and verify, and each imports only layers listed before it.
`import octachar` runs none of them: an exported name is looked up in its
layer on first use (PEP 562), so a program compiles and runs only the layers
it touches.
"""

import importlib

__version__ = "0.1.0"

# Each layer, in import order, with the names it exports.
_LAYERS = {
    "partitions": (
        "Partition", "PartitionParseError", "beta_mask", "format_partition", "from_core_and_quotient",
        "hook_lengths", "p_core", "p_quotient", "parse_partition", "partitions_of", "sign_shuffle",
    ),
    "census": ("SignCensus", "partition_counts", "sign_census"),
    "characters": (
        "centralizer_order", "character_table", "class_size", "dimension", "even_cycle_classes",
        "mn_character", "mn_column", "product_character",
    ),
    "hyperoctahedral": (
        "BiPartition", "BnClass", "basechange", "bipartition", "bipartitions_of", "bn_character", "bn_class",
        "bn_column", "bn_dimension", "format_bipartition", "norm", "parse_bipartition",
    ),
    "symfunc": (
        "det", "mirrored_point", "mirrored_point_plus", "random_rationals", "schur_eval",
        "verify_factorization_even", "verify_factorization_odd", "verify_frobenius",
    ),
    "verify": (
        "CorrespondenceRow", "SweepReport", "TableResult", "build_table", "dimension_match",
        "main_theorem_sweep", "w0_class",
    ),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}  # name -> its layer

__all__ = sorted([*_EXPORTS, *_LAYERS, "clear_caches"])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module("." + name, __name__)
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def clear_caches() -> None:
    """Empty every cache: the one the library keeps is the Schur kernel's
    e/h sequences per point.  Characters keep no memo."""
    from . import symfunc

    symfunc._point.cache_clear()
