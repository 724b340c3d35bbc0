"""Exact workbench for polynomial reducibility between finite sets.

Works over cyclotomic fields Q(zeta_N) with exact rational coordinates;
no floating point enters any decision procedure.
"""
from .field import (
    CyclotomicField,
    FieldElement,
    FieldMismatchError,
    make_field,
)
from .poly import (
    NEG_INF,
    LinearMap,
    Poly,
)
from .classes import (
    ClassInvariant,
    FiniteSubset,
    canonical_invariant,
    characteristic_lambda_points,
    lambda_tuple,
    roots_of_unity,
    sigma3_coordinate,
)
from .reduction import (
    DegreeWindow,
    Reduction,
    Stabilizer,
    SuccessorClass,
    check_exact_preimage,
    chi,
    degree_bounds,
    equivalent,
    find_reductions,
    linear_maps_between,
    normalize_to_contain_0_1,
    predecessor_2n_minus_1,
    reduces,
    singleton_reduction,
    stabilizer,
    successors,
)
from .exceptional import (
    ExceptionalStructure,
    decompose,
    generate_exceptional,
    is_exceptional,
    order2_criterion,
)
from .vandermonde import (
    EnrichedVandermonde,
    build_enriched,
    exact_rank,
    nullspace,
)
from .poset import (
    PosetReport,
    build_poset,
)
from .cli import (
    SetFile,
    SetFileError,
    emit_set_file,
    main,
    parse_set_file,
    parse_set_text,
)

__all__ = [
    "CyclotomicField", "FieldElement", "FieldMismatchError", "make_field",
    "NEG_INF", "LinearMap", "Poly",
    "ClassInvariant", "FiniteSubset", "Stabilizer", "canonical_invariant",
    "characteristic_lambda_points", "chi", "equivalent", "lambda_tuple",
    "linear_maps_between", "roots_of_unity", "sigma3_coordinate", "stabilizer",
    "ExceptionalStructure", "decompose", "generate_exceptional",
    "is_exceptional", "order2_criterion",
    "DegreeWindow", "Reduction", "SuccessorClass", "check_exact_preimage",
    "degree_bounds", "find_reductions", "normalize_to_contain_0_1",
    "predecessor_2n_minus_1", "reduces", "singleton_reduction", "successors",
    "EnrichedVandermonde", "build_enriched", "exact_rank", "nullspace",
    "PosetReport", "SetFile", "SetFileError", "build_poset", "emit_set_file",
    "main", "parse_set_file", "parse_set_text",
]

__version__ = "0.1.0"
