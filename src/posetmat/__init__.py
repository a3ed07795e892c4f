"""Poset matrices and their partial-composition algebra."""

from .core import (
    BinaryMatrix,
    BlockView,
    PosetMatrix,
    UNIT,
    block_decompose,
    cover_relation,
    maximal_elements,
    minimal_elements,
    principal_subposet,
    submatrix,
    validate,
)
from .compose import (
    ALL_BOXED,
    ALL_KINDS,
    Boxed,
    MASK_KINDS,
    MAX,
    MIN,
    MINMAX,
    OPERAD_KINDS,
    SQUARE,
    compose,
    insert,
    kind_name,
    max_mask,
    min_mask,
    parse_kind,
)
from .duality import dual, dual_index_set, is_self_dual, semi_equidual
from .enumeration import IsoClass, canonical_form, classes, generate_all
from .operad import LawReport, check_nested, check_parallel, check_unit, verify_laws
from .pascal import pascal_decomposition_check, pascal_matrix
from .structure import (
    ConnectivityClass,
    Factorization,
    classify_connectivity,
    decompose_disconnected,
    dpm_check,
    equal_columns,
    equal_rows,
    factor,
    insertion_invariance_class,
    is_totally_connected,
    is_totally_disconnected,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
