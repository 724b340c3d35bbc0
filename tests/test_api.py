"""The public surface of the package: a change to it is a reviewed diff here."""
import types

import pytest

import polyred

PUBLIC = [
    "ClassInvariant", "CyclotomicField", "DegreeWindow", "EnrichedVandermonde",
    "ExceptionalStructure", "FieldElement", "FieldMismatchError", "FiniteSubset",
    "LinearMap", "NEG_INF", "Poly", "PosetReport", "Reduction", "SetFile",
    "SetFileError", "Stabilizer", "SuccessorClass", "build_enriched", "build_poset",
    "canonical_invariant", "characteristic_lambda_points", "check_exact_preimage",
    "chi", "decompose", "degree_bounds", "emit_set_file", "equivalent", "exact_rank",
    "find_reductions", "generate_exceptional", "is_exceptional", "lambda_tuple",
    "linear_maps_between", "main", "make_field", "normalize_to_contain_0_1",
    "nullspace", "order2_criterion", "parse_set_file", "parse_set_text",
    "predecessor_2n_minus_1", "reduces", "roots_of_unity", "sigma3_coordinate",
    "singleton_reduction", "stabilizer", "successors",
]


def test_public_surface_is_pinned():
    assert sorted(polyred.__all__) == PUBLIC
    assert len(set(polyred.__all__)) == len(polyred.__all__)
    for name in PUBLIC:
        assert getattr(polyred, name, None) is not None, name
    # every name the import block binds is exported, and nothing else
    imported = {name for name, value in vars(polyred).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert imported == set(PUBLIC)


def test_elements_are_built_by_the_field(F4):
    with pytest.raises(TypeError):
        polyred.FieldElement(F4, [1, 0])
    assert F4.element([1, 0]) == F4.one()
