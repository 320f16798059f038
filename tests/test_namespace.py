"""The public namespace of ``curvgraph``: the names resolve on first access,
and are exactly the names the package exports."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvgraph as cg

PACKAGE_ROOT = str(Path(cg.__file__).resolve().parents[1])

SUBMODULES = ["cli", "fuzzy", "graphana", "petrov", "ratlinalg", "symcore"]
#: ``from curvgraph import *``: every public name and the six submodules
STAR = sorted(SUBMODULES + [
    "BlockInconsistency", "Blocks", "BridgeMismatch", "ConflictingEntry", "DIMENSION",
    "DegenerateNonzero", "Edge", "EigenSolution", "EpsilonLoop", "FuzzyGraph",
    "GeneralizedGraphSpec", "Graph", "GraphVariant", "INGEST_TOL", "IndexExpression",
    "METRIC_SIGNATURE", "NotSymmetric", "NotTraceless", "OddParityError", "Orientation",
    "PairBasis", "PairSlot", "PetrovType", "RiemannComponents", "RiemannGraphSpec",
    "STANDARD_SPEC", "SixMatrix", "Term", "Vertex", "assemble_six_matrix",
    "basis_pairs", "blocks", "canonical_quad", "canonicalize_expression",
    "classification_report", "classify", "cycle_sign", "cyclic_quads", "cyclic_sum",
    "domination_set", "dump_component_document", "edge_count",
    "eigen", "enumerate_variants", "epsilon_loop", "evaluate_expression", "export_dot",
    "export_graph", "export_structured", "format_expression", "from_component_list", "from_omega",
    "fuzzy_riemann_graph", "fuzzy_to_graph", "fuzzy_union",
    "generalized_count", "get_component", "independent_component_count", "ingest",
    "is_complete", "k6_structure", "lambda_mat", "levi_civita", "omega", "pair_count",
    "pair_matrix", "pair_slot", "pair_vertex_count", "parse_expression", "parse_structured",
    "project_bianchi", "psi", "random_riemann", "ricci", "ricci_matrix", "sigma",
    "strong_arcs", "symmetry_space_dimension_oracle", "trace_b", "variant_graph",
    "zero_riemann",
])
#: ``dir(curvgraph)``: those names and the module's own attributes
DIR = sorted(STAR + ["__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                     "__name__", "__package__", "__path__", "__spec__", "__version__"])


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def test_star_import_and_dir_give_the_same_names():
    assert len(STAR) == 87 and len(DIR) == 97
    namespace = {}
    exec("from curvgraph import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == STAR
    assert sorted(cg.__all__) == STAR
    assert dir(cg) == DIR


def test_names_resolve_to_their_defining_modules():
    for name in SUBMODULES:
        module = getattr(cg, name)
        assert module is sys.modules[f"curvgraph.{name}"]
        assert module.__name__ == f"curvgraph.{name}"
    for name in set(STAR) - set(SUBMODULES):
        value = getattr(cg, name)
        owners = [m for m in SUBMODULES if getattr(sys.modules[f"curvgraph.{m}"], name, None)
                  is value]
        assert owners, name
    assert cg.__version__ == "0.1.0"
    assert cg.classify is cg.petrov.classify and cg.ingest is cg.cli.ingest
    with pytest.raises(AttributeError, match="module 'curvgraph' has no attribute 'nope'"):
        cg.nope
    with pytest.raises(ImportError):
        exec("from curvgraph import nope", {})


def test_import_loads_no_submodule():
    after, names = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import curvgraph\n"
        "print(json.dumps([sorted(sys.modules.keys() - before), dir(curvgraph)]))"
    )
    assert after == ["curvgraph"]
    assert names == DIR


def test_a_name_loads_only_its_modules():
    loaded = _fresh(
        "import json, sys\n"
        "import curvgraph as cg\n"
        "cg.classify\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('curvgraph'))))"
    )
    assert loaded == ["curvgraph", "curvgraph.petrov", "curvgraph.symcore"]
    # the counting oracle is one module, and it reads its integer through symcore
    loaded = _fresh(
        "import json, sys\n"
        "import curvgraph as cg\n"
        "cg.symmetry_space_dimension_oracle\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('curvgraph'))))"
    )
    assert loaded == ["curvgraph", "curvgraph.ratlinalg", "curvgraph.symcore"]
    assert cg.symmetry_space_dimension_oracle is cg.ratlinalg.symmetry_space_dimension_oracle


def test_a_submodule_loads_on_first_access():
    # every other test reaches a submodule after something has imported it
    assert _fresh(
        "import json, sys\n"
        "import curvgraph\n"
        "module = curvgraph.petrov\n"
        "print(json.dumps([module.__name__, module is sys.modules['curvgraph.petrov']]))"
    ) == ["curvgraph.petrov", True]


def test_the_library_path_loads_no_command_line_parser():
    # argparse, and the gettext it imports, load only when a command line is parsed
    fixture = Path(__file__).parent / "fixtures" / "ricci_flat.json"
    assert _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import curvgraph as cg\n"
        f"text = open({str(fixture)!r}, encoding='utf-8').read()\n"
        "cg.ingest(text)\n"
        "print(json.dumps(sorted({'argparse', 'gettext'} & (sys.modules.keys() - before))))"
    ) == []
