"""Operator-mutation pass over the classify kernel, the route tables, the
document reader and the expression language.

Run from the repository root, with the test requirements installed:

    python tests/mutate.py

Each mutant swaps one operator at one site: ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*`` and ``/``. A site is found by
its index in ``ast.walk`` of the module, so every operator of a chain such as
``a - b * c`` or ``0 < x <= y`` is reached, not only the outermost one. The
mutated module is written with ``ast.unparse`` into a copy of ``src/`` and
``tests/``, and the whole tier-1 suite runs on it with ``-x``, the tests of
the mutated module first. A mutant is killed when the suite fails; one that
runs past ``TIMEOUT`` seconds is counted as killed and marked hung. Before
any mutant, the unmutated ``ast.unparse`` of each module must pass, so a
failure is the mutant's.

The targets and the operators are fixed: the script takes no options. It
prints killed and surviving mutants per target, each survivor with its line
and the expression it mutated to, then each module's kill rate. It uses the
standard library only.
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvgraph"
TIMEOUT = 300  # seconds per suite run
WORKERS = 2

#: module -> the top-level functions and tables it mutates. A table is a
#: module-level assignment to the name, or a method call on it.
TARGETS = {
    "petrov": ("_decide", "_rank_modulus_pivot", "_validated", "_char_coeffs",
               "_depressed", "_cubic_roots", "_normalised"),
    "symcore": ("_slot_table", "_SLOTS", "_ROUTE", "_REPRESENTATIVES", "_CYCLIC_TERMS",
                "_PAIR_ROUTES", "_RICCI_PAIRS", "_RICCI_TERMS", "_from_routed_records"),
    "cli": ("parse_component_document",),
    "expressions": ("_INDEX_CHARS", "_next", "_expect", "_integer", "_parse_term",
                    "parse_expression", "format_expression", "_combine",
                    "canonicalize_expression", "evaluate_expression"),
}
#: module -> the test files that run first, the rest following in name order.
FIRST = {
    "petrov": ("test_petrov.py", "test_classify_kernel.py", "test_acceptance.py"),
    "symcore": ("test_symcore.py", "test_ingest.py", "test_rows.py"),
    "cli": ("test_cli.py", "test_ingest.py"),
    "expressions": ("test_expressions.py",),
}
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}


def _target_name(stmt):
    # the name a top-level statement defines or calls a method on, else None
    if isinstance(stmt, ast.FunctionDef):
        return stmt.name
    if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id
    return None


def _op_line(lines, left, right):
    # the line of the operator between two operands: the first line between
    # them that holds more than blanks, closing brackets and a comment
    for n in range(left.end_lineno, right.lineno + 1):
        text = lines[n - 1]
        if n == right.lineno:
            text = text[:right.col_offset]
        if n == left.end_lineno:
            text = text[left.end_col_offset:]
        if text.split("#")[0].strip().strip(")]}").strip():
            return n
    return right.lineno


def _short(node, width=32):
    text = ast.unparse(node)
    return text if len(text) <= width else text[:width - 3] + "..."


def mutants(module):
    """(target, walk index, op position, line, mutated expression) for each
    site of the module's targets, in walk order."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    owner = {}
    for stmt in tree.body:
        name = _target_name(stmt)
        if name in TARGETS[module]:
            for node in ast.walk(stmt):
                owner[id(node)] = name
    out = []
    for index, node in enumerate(ast.walk(tree)):
        target = owner.get(id(node))
        if target is None:
            continue
        if isinstance(node, ast.Compare):
            sites = [(pos, op, ([node.left] + node.comparators)[pos], node.comparators[pos])
                     for pos, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp):
            sites = [(0, node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            sites = [(0, node.op, node.target, node.value)]
        else:
            continue
        for pos, op, left, right in sites:
            if type(op) in SWAPS:
                mutated = f"{_short(left)} {SYMBOLS[SWAPS[type(op)]]} {_short(right)}"
                out.append((target, index, pos, _op_line(lines, left, right), mutated))
    return out


def mutated_source(module, index=None, pos=0):
    """The module unparsed, with the operator at walk index ``index`` (and
    position ``pos`` of a comparison chain) swapped; unmutated for None."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    if index is not None:
        node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
        if isinstance(node, ast.Compare):
            node.ops[pos] = SWAPS[type(node.ops[pos])]()
        else:
            node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def outcome(module, source):
    """Run tier-1 with ``-x`` on a copy whose module is ``source``: "killed",
    "hung" or "survived"."""
    tests = sorted(p.name for p in (ROOT / "tests").glob("test_*.py"))
    order = list(FIRST[module]) + [t for t in tests if t not in FIRST[module]]
    with tempfile.TemporaryDirectory(prefix="curvgraph-mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", Path(tmp, "tests"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, "src", "curvgraph", f"{module}.py").write_text(source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{t}" for t in order)]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "hung"
    return "survived" if proc.returncode == 0 else "killed"


def main():
    for module in TARGETS:
        if outcome(module, mutated_source(module)) != "survived":
            sys.exit(f"the unmutated unparse of {module} fails the suite")
    jobs = [(module, m) for module in TARGETS for m in mutants(module)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(
            lambda job: outcome(job[0], mutated_source(job[0], job[1][1], job[1][2])), jobs))
    for module in TARGETS:
        rows = [(m, r) for (mod, m), r in zip(jobs, results) if mod == module]
        for target in TARGETS[module]:
            mine = [(m, r) for m, r in rows if m[0] == target]
            dead = sum(r != "survived" for _, r in mine)
            hung = sum(r == "hung" for _, r in mine)
            print(f"{module}.{target}: {dead} killed ({hung} hung), "
                  f"{len(mine) - dead} survived, of {len(mine)}")
            for (_, _, _, line, mutated), r in mine:
                if r == "survived":
                    print(f"    survived: line {line}: {mutated}")
        dead = sum(r != "survived" for _, r in rows)
        print(f"{module}: {dead}/{len(rows)} killed"
              + (f" ({100.0 * dead / len(rows):.1f}%)" if rows else ""))


if __name__ == "__main__":
    main()
