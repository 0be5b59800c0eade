"""The package exports its API lazily, with the same objects as the layers.

`octachar/__init__.py` imports no layer; a name is looked up in its layer on
first access.  These tests pin the exported names, that each is the layer's
own object, and that star imports and `clear_caches` work in an interpreter
that has loaded nothing else.
"""

import importlib

import pytest

import octachar
from fresh import fresh

LAYERS = ("partitions", "census", "characters", "hyperoctahedral", "symfunc", "verify")
EXPORTS = {
    "BiPartition", "BnClass", "CorrespondenceRow", "Partition", "PartitionParseError", "SignCensus",
    "SweepReport", "TableResult", "basechange", "beta_mask", "bipartition", "bipartitions_of",
    "bn_character", "bn_class", "bn_column", "bn_dimension", "build_table", "centralizer_order",
    "character_table", "class_size", "clear_caches", "det", "dimension", "dimension_match",
    "even_cycle_classes", "format_bipartition", "format_partition", "from_core_and_quotient",
    "hook_lengths", "main_theorem_sweep", "mirrored_point", "mirrored_point_plus", "mn_character",
    "mn_column", "norm", "p_core", "p_quotient", "parse_bipartition", "parse_partition",
    "partition_counts", "partitions_of", "product_character", "random_rationals", "schur_eval",
    "sign_census", "sign_shuffle", "verify_factorization_even", "verify_factorization_odd",
    "verify_frobenius", "w0_class", *LAYERS,
}
MOVED_TO_ORACLES = (
    "beta_set", "bn_class_of", "double_class", "embed_class", "is_p_core", "partition_from_beta", "sign_odd_parts",
    "sign_of_class",
)


def _run(code: str) -> str:
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_exports():
    assert sorted(octachar.__all__) == sorted(EXPORTS)
    assert len(set(octachar.__all__)) == len(octachar.__all__)


@pytest.mark.parametrize("name", sorted(EXPORTS - set(LAYERS) - {"clear_caches"}))
def test_name_is_the_layer_object(name):
    value = getattr(octachar, name)
    package, _, layer = value.__module__.rpartition(".")
    assert (package, layer in LAYERS) == ("octachar", True)
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_layers_are_the_submodules():
    for layer in LAYERS:
        assert getattr(octachar, layer) is importlib.import_module("octachar." + layer)


def test_dir_lists_the_exports():
    assert set(octachar.__all__) <= set(dir(octachar))
    assert "__version__" in dir(octachar)


@pytest.mark.parametrize("name", ("no_such_name",) + MOVED_TO_ORACLES)
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(octachar, name)
    assert not hasattr(octachar, name)


def test_star_import_in_a_fresh_interpreter():
    names = _run("from octachar import *\nprint(' '.join(sorted(k for k in dir() if not k.startswith('_'))))")
    assert set(names.split()) == EXPORTS


def test_clear_caches_in_a_fresh_interpreter():
    assert _run("import octachar\noctachar.clear_caches()\nprint('cleared')") == "cleared\n"
