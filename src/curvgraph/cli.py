"""Command-line surface: the component documents the commands read and write,
and the subcommands that wire the library together.

Component files are JSON documents with fields ``n`` and ``components``
(records ``{"idx": [a, b, c, d], "value": x}``, lowered-index convention,
omitted components zero). The ``canon`` command reads the expression
language of ``curvgraph.expressions``.

Within one process, consecutive commands that read the same document text
ingest it once: ``run`` keeps the storage of the last text it ingested.
"""
from __future__ import annotations

import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, lru_cache

from . import petrov, symcore
from .expressions import canonicalize_expression, format_expression, parse_expression
from .jsondoc import DocumentError, dumps, read_object
from .symcore import _ROUTE, DIMENSION, LEX_PAIRS, PairBasis, RiemannComponents

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import argparse

_OUT_OF_RANGE = object()  # route-table miss: a quad of ints outside 0..3


# --- component documents ----------------------------------------------------

def parse_component_document(text: str):
    """Parse a component document into (n, records).

    One pass over the records checks each one and routes it: ``records``
    holds ``(quad, route, value)`` with ``quad`` a tuple of four ints in
    0..3, ``route`` its ``symcore._ROUTE`` entry and ``value`` a finite
    float. Every record is checked here, before ``ingest`` tests n,
    degenerate records and conflicts. Other fields, such as ``metadata``,
    are ignored.
    """
    doc = read_object(text)
    if "n" not in doc or isinstance(doc["n"], bool) or not isinstance(doc["n"], int):
        raise DocumentError("field 'n' must be an integer")
    comps = doc.get("components", [])
    if not isinstance(comps, list):
        raise DocumentError("field 'components' must be an array")
    records = []
    for rec_no, rec in enumerate(comps):
        if not isinstance(rec, dict) or "idx" not in rec or "value" not in rec:
            raise DocumentError(f"components[{rec_no}]: need 'idx' and 'value'")
        idx = rec["idx"]
        if not isinstance(idx, list) or len(idx) != 4:
            raise DocumentError(f"components[{rec_no}]: 'idx' must list 4 indices")
        quad = a, b, c, d = tuple(idx)
        # json.loads yields no int subclass but bool; with exact ints, a quad
        # missing from the route table has an index outside 0..3
        if not (type(a) is type(b) is type(c) is type(d) is int):
            raise DocumentError(f"components[{rec_no}]: 'idx' entries must be integers")
        route = _ROUTE.get(quad, _OUT_OF_RANGE)
        if route is _OUT_OF_RANGE:
            raise DocumentError(f"components[{rec_no}]: 'idx' entries must lie in 0..3")
        value = rec["value"]
        if type(value) is int:  # json.loads yields exactly int or float for a number
            try:
                value = float(value)
            except OverflowError:
                raise DocumentError(
                    f"components[{rec_no}]: 'value' is an integer too large for a float"
                ) from None
        elif type(value) is not float:
            raise DocumentError(f"components[{rec_no}]: 'value' must be a number")
        if not math.isfinite(value):
            raise DocumentError(f"components[{rec_no}]: 'value' must be finite")
        records.append((quad, route, value))
    return doc["n"], records


def ingest(text: str) -> RiemannComponents:
    """Component document -> RiemannComponents, as stored: no projection
    (compose with ``project_bianchi`` for that)."""
    n, records = parse_component_document(text)
    return symcore._from_routed_records(n, records)


def dump_component_document(R: RiemannComponents) -> str:
    """Upper-triangle slot components as a document; zeros omitted."""
    comps = []
    for s in range(symcore.NUM_SLOTS):
        for t in range(s, symcore.NUM_SLOTS):
            v = R.rows[s][t]
            if v != 0.0:
                comps.append({"idx": [*LEX_PAIRS[s], *LEX_PAIRS[t]], "value": v})
    return dumps({"n": DIMENSION, "components": comps}) + "\n"


# --- subcommands -------------------------------------------------------------

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@lru_cache(maxsize=1)
def _document_storage(text: str) -> RiemannComponents:
    # consecutive commands on one document text share its read-only storage;
    # the key is the text, so a rewritten file is read again, and a document
    # that fails raises on every command, as no exception is stored; it looks
    # ``ingest`` up by name at each miss, so a patched ``cli.ingest`` is seen
    return ingest(text)


def _ingest_args(args) -> RiemannComponents:
    R = _document_storage(_read_input(args.input))
    if args.enforce_bianchi:
        R = symcore.project_bianchi(R)
    return R


def _positive_finite(text: str) -> float:
    import argparse  # loaded already: this type runs only while argparse parses

    try:
        return petrov._checked_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}") from None


def _emit_json(payload, out):
    try:
        text = dumps(payload)
    except ValueError:  # NaN or infinity: input is finite, so a result overflowed
        raise OverflowError("a result is not a finite float") from None
    out.write(text + "\n")


def _cmd_count(args, out):
    if args.r is not None:
        print(symcore.generalized_count(args.n, args.r), file=out)
    else:
        print(symcore.independent_component_count(args.n), file=out)
    return 0


def _cmd_canon(args, out):
    expr = parse_expression(args.expr)
    print(format_expression(canonicalize_expression(expr, args.bianchi)), file=out)
    return 0


def _cmd_check(args, out):
    R = _ingest_args(args)
    rows = R.rows
    upper = symcore._ricci_upper(rows)
    # the duad entries (01,23), (02,31), (03,12) of trace B are the cyclic
    # terms, raised by eta_00 = -1
    x0, x1, x2 = symcore._cyclic_terms(rows)
    payload = {
        "n": DIMENSION,
        "bianchi_enforced": R.bianchi_enforced,
        "bianchi_residual": abs(symcore._cyclic_residual(rows)),
        "trace_b": -x0 - x1 - x2,
        "ricci": symcore._ricci_rows(upper),
        "ricci_max_abs": symcore._ricci_max(upper),
    }
    _emit_json(payload, out)
    return 0


def _cmd_matrix(args, out):
    rows = _ingest_args(args).rows
    if args.basis == "lex":
        matrix = symcore._pair_rows(rows, PairBasis.LEX)
        payload = {"basis": "lex", "mixed": False, "matrix": matrix}
    else:
        matrix = petrov._raised(symcore._pair_rows(rows, PairBasis.DUAD))
        payload = {"basis": "duad", "mixed": True, "matrix": matrix}
    _emit_json(payload, out)
    return 0


def _cmd_classify(args, out):
    R = _ingest_args(args)
    _emit_json(petrov.classification_report(R, tol=args.tol), out)
    return 0


def _cmd_graph(args, out):
    from . import graphana
    from .graphana import STANDARD_SPEC, enumerate_variants, export_graph

    if args.kind == "k6":
        if args.input is None:
            raise DocumentError("--input is required for the k6 graph")
        if args.label is not None:
            raise ValueError("--label is read only by the variant graph")
        g = graphana.k6_structure(_ingest_args(args))
    else:
        if args.input is not None:
            raise ValueError("--input is read only by the k6 graph")
        if args.enforce_bianchi:
            raise ValueError("--enforce-bianchi is read only by the k6 graph")
        variants = {v.label: v for v in enumerate_variants(STANDARD_SPEC)}
        g = graphana.variant_graph(STANDARD_SPEC, variants[args.label or "G1"])
    out.write(export_graph(g, args.format))
    return 0


def _cmd_fuzzy(args, out):
    from . import fuzzy as fuzzy_mod
    from .graphana import STANDARD_SPEC, export_graph

    if args.alpha is not None and not args.union:
        raise ValueError("--alpha is read only with --union")
    fg = fuzzy_mod.fuzzy_riemann_graph(STANDARD_SPEC)
    if args.union:
        bridge = STANDARD_SPEC.permuting[0]
        eps = fuzzy_mod.epsilon_loop(STANDARD_SPEC.fixed_vertex, bridge)
        fg = fuzzy_mod.fuzzy_union(eps, fg, 3 if args.alpha is None else args.alpha)
    out.write(export_graph(fuzzy_mod.fuzzy_to_graph(fg), args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; ``run`` builds its own once per process."""
    return _parsers()[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the main parser and the map from each command to its own parser
    import argparse  # loaded only when a command line is parsed

    p = argparse.ArgumentParser(
        prog="curvgraph",
        description="Curvature-component symmetry algebra, graph analogs, and "
        "eigenstructure classification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="independent component counts")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--r", type=int, default=None,
                   help="permuting-index count for the generalized formula")
    c.set_defaults(func=_cmd_count)

    c = sub.add_parser("canon", help="canonicalize an index expression")
    c.add_argument("--expr", required=True)
    c.add_argument("--bianchi", action="store_true",
                   help="also eliminate the cyclic-identity-dependent quads")
    c.set_defaults(func=_cmd_canon)

    def add_input(cmd):
        cmd.add_argument("--input", required=True, help="component document ('-' for stdin)")
        cmd.add_argument("--enforce-bianchi", action="store_true",
                         help="project onto the cyclic-identity subspace after ingest")

    c = sub.add_parser("check", help="symmetry / cyclic / contraction residual report")
    add_input(c)
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("matrix", help="emit the 6x6 pair matrix")
    add_input(c)
    c.add_argument("--basis", choices=("lex", "duad"), default="lex",
                   help="lex: covariant storage order; duad: mixed matrix with the "
                        "first pair raised")
    c.set_defaults(func=_cmd_matrix)

    c = sub.add_parser("classify", help="eigenstructure classification report")
    add_input(c)
    c.add_argument("--tol", type=_positive_finite, default=petrov.DEFAULT_TOL,
                   help="relative tolerance of the classification (finite, > 0)")
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("graph", help="emit variant or K6 graphs")
    c.add_argument("--kind", choices=("variant", "k6"), default="variant")
    c.add_argument("--label", choices=[f"G{i}" for i in range(1, 7)], default=None,
                   help="the variant to draw (default G1)")
    c.add_argument("--input", default=None, help="component document (k6 weights)")
    c.add_argument("--enforce-bianchi", action="store_true")
    c.add_argument("--format", choices=("dot", "structured"), default="dot")
    c.set_defaults(func=_cmd_graph)

    c = sub.add_parser("fuzzy", help="emit the fuzzy analog graph")
    c.add_argument("--union", action="store_true",
                   help="apply the loop union at the bridge vertex")
    c.add_argument("--alpha", type=int, default=None,
                   help="the union's alpha (default 3)")
    c.add_argument("--format", choices=("dot", "structured"), default="dot")
    c.set_defaults(func=_cmd_fuzzy)
    return p, sub.choices


@cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # parsing leaves a parser unchanged, so one instance serves every run()
    # in the process; it is built on first use, so an import pays nothing
    return _parsers()


def _parse(argv: list[str]) -> argparse.Namespace:
    # A line that starts with a command goes to that command's parser alone,
    # which is what the main parser hands it on to. Any other line, or one
    # with arguments the command does not take, goes to the main parser, so
    # every help, usage and error text is the one it gives.
    parser, commands = _shared_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv=None, out=None, err=None) -> int:
    """Dispatch a command line; returns the exit code instead of raising.

    0 on success, 1 on validation failure or when a result overflows the
    float range, 2 on usage errors. Help and usage text go to ``out`` and
    ``err`` as well.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"curvgraph: error: {exc}", file=err)
        return 1
    except OverflowError as exc:
        print(f"curvgraph: error: overflow: {exc}", file=err)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
