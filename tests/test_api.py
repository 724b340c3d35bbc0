"""The public surface of the package and its module layering: a change to
either is a reviewed diff here."""
import ast
import pathlib
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


# Each module imports only from earlier layers; modules in one layer are
# independent of each other.  __init__ re-exports from all of them.
LAYERS = [("field",), ("poly",), ("classes",), ("reduction",),
          ("exceptional", "vandermonde"), ("poset",), ("cli",)]


def test_module_layering():
    """Relative imports run strictly down field -> poly -> classes -> reduction
    -> exceptional/vandermonde -> poset -> cli, all at module level, so there
    is no import cycle and no deferred import."""
    rank = {mod: i for i, layer in enumerate(LAYERS) for mod in layer}
    src = pathlib.Path(polyred.__file__).parent
    files = {path.stem: path for path in src.glob("*.py") if path.stem != "__init__"}
    assert set(files) == set(rank)
    for mod, path in files.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "polyred" for a in node.names), mod
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0:
                assert (node.module or "").split(".")[0] != "polyred", mod
                continue
            assert node.level == 1 and node.module in rank, (mod, node.module)
            assert id(node) in top_level, f"{mod} defers its import of {node.module}"
            assert rank[node.module] < rank[mod], f"{mod} imports {node.module}"


def test_no_unused_module_imports():
    """Every module-level import of a package module is used in it."""
    src = pathlib.Path(polyred.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, f"{path.stem} imports unused {sorted(bound - used)}"
