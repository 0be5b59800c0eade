"""Exact character identities between symmetric groups and the hyperoctahedral group.

The library computes symmetric-group characters by the Murnaghan-Nakayama
recursion, hyperoctahedral (B_n) characters and dimensions, the norm map on
even-cycle classes, the basechange map through 2-cores and 2-quotients, and
exact rational Schur polynomial values, together with harnesses that verify
the identities tying all of these together.
"""

from .partitions import (
    Partition,
    PartitionParseError,
    beta_mask,
    beta_set,
    format_partition,
    from_core_and_quotient,
    hook_lengths,
    is_p_core,
    p_core,
    p_quotient,
    parse_partition,
    partition_counts,
    partition_from_beta,
    partitions_of,
    sign_odd_parts,
    sign_shuffle,
)
from .characters import (
    centralizer_order,
    character_table,
    class_size,
    dimension,
    double_class,
    even_cycle_classes,
    mn_character,
    mn_column,
    product_character,
    sign_of_class,
)
from .hyperoctahedral import (
    BiPartition,
    BnClass,
    basechange,
    bipartition,
    bipartitions_of,
    bn_character,
    bn_character_bruteforce,
    bn_class,
    bn_column,
    bn_class_of,
    bn_dimension,
    embed_class,
    format_bipartition,
    norm,
    parse_bipartition,
)
from .symfunc import (
    det,
    mirrored_point,
    mirrored_point_plus,
    random_rationals,
    schur_eval,
    verify_factorization_even,
    verify_factorization_odd,
    verify_frobenius,
)
from .verify import (
    CorrespondenceRow,
    SignCensus,
    SweepReport,
    TableResult,
    basechange_image_matches_support,
    build_table,
    dimension_match,
    main_theorem_sweep,
    sign_census,
    w0_class,
)

from . import hyperoctahedral, symfunc

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache: the oracle's per-n class sizes, the Schur kernel's
    h/e sequences kept per point, the class columns kept per size, and the
    Frobenius expansions kept per point.  Characters keep no memo."""
    hyperoctahedral._class_sizes.cache_clear()
    symfunc._point.cache_clear()
    symfunc._class_columns.cache_clear()
    symfunc._frobenius_weights.cache_clear()
