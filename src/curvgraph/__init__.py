"""Curvature-tensor symmetry algebra, graph and fuzzy-graph analogs, and
eigenstructure-based Petrov classification.

The public names resolve on first access (PEP 562): ``import curvgraph``
loads no submodule, and ``curvgraph.classify`` imports only the modules
that define it.
"""

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DIMENSION",
        "INGEST_TOL",
        "METRIC_SIGNATURE",
        "ConflictingEntry",
        "DegenerateNonzero",
        "PairBasis",
        "PairSlot",
        "RiemannComponents",
        "basis_pairs",
        "canonical_quad",
        "cyclic_quads",
        "cyclic_sum",
        "from_component_list",
        "generalized_count",
        "get_component",
        "independent_component_count",
        "pair_count",
        "pair_matrix",
        "pair_slot",
        "project_bianchi",
        "random_riemann",
        "ricci",
        "ricci_matrix",
        "zero_riemann",
    ), "symcore"),
    "symmetry_space_dimension_oracle": "ratlinalg",
    **dict.fromkeys((
        "Edge",
        "GeneralizedGraphSpec",
        "Graph",
        "GraphVariant",
        "OddParityError",
        "Orientation",
        "RiemannGraphSpec",
        "STANDARD_SPEC",
        "Vertex",
        "edge_count",
        "enumerate_variants",
        "export_dot",
        "export_graph",
        "export_structured",
        "k6_structure",
        "pair_vertex_count",
        "parse_structured",
        "variant_graph",
    ), "graphana"),
    **dict.fromkeys((
        "BridgeMismatch",
        "EpsilonLoop",
        "FuzzyGraph",
        "cycle_sign",
        "domination_set",
        "epsilon_loop",
        "fuzzy_riemann_graph",
        "fuzzy_to_graph",
        "fuzzy_union",
        "is_complete",
        "levi_civita",
        "strong_arcs",
    ), "fuzzy"),
    **dict.fromkeys((
        "BlockInconsistency",
        "Blocks",
        "EigenSolution",
        "NotSymmetric",
        "NotTraceless",
        "PetrovType",
        "SixMatrix",
        "assemble_six_matrix",
        "blocks",
        "classification_report",
        "classify",
        "eigen",
        "from_omega",
        "lambda_mat",
        "omega",
        "psi",
        "sigma",
        "trace_b",
    ), "petrov"),
    **dict.fromkeys((
        "IndexExpression",
        "Term",
        "canonicalize_expression",
        "dump_component_document",
        "evaluate_expression",
        "format_expression",
        "ingest",
        "parse_expression",
    ), "cli"),
}
_SUBMODULES = ("symcore", "graphana", "fuzzy", "petrov", "cli", "ratlinalg")
__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name):
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    mod = import_module(f"{__name__}.{module}")  # the import binds curvgraph.<module>
    if module == name:
        return mod
    value = globals()[name] = getattr(mod, name)  # later lookups skip __getattr__
    return value


def __dir__():
    # the module's own attributes and every public name, without the lookup machinery
    hidden = {"_EXPORTS", "_SUBMODULES", "__all__", "__getattr__", "__dir__"}
    return sorted((globals().keys() - hidden) | set(__all__))
