import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import curvgraph as cg
from conftest import DIGIT_LIMIT
from curvgraph import cli, petrov, symcore
from curvgraph.cli import (
    DocumentError,
    build_parser,
    dump_component_document,
    ingest,
    parse_component_document,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in CLI output")


def strict_json(text):
    """CLI output as JSON; the NaN and Infinity literals are not JSON, so they fail."""
    return json.loads(text, parse_constant=_reject_constant)


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_json_constants(literal):
    assert strict_json('{"x": 1.5}') == {"x": 1.5}
    with pytest.raises(ValueError, match="non-JSON constant"):
        strict_json(f'{{"x": {literal}}}')


def test_document_roundtrip():
    R = cg.random_riemann(31)
    text = dump_component_document(R)
    n, entries = parse_component_document(text)
    assert n == 4
    back = ingest(text)
    assert np.array_equal(back.matrix, R.matrix)
    # a field other than n and components, such as metadata, is ignored
    doc = json.loads(text)
    doc["metadata"] = {"seed": 31}
    assert parse_component_document(json.dumps(doc)) == (n, entries)


def test_document_errors():
    with pytest.raises(DocumentError, match="line 1"):
        parse_component_document("{not json")
    with pytest.raises(DocumentError, match="'n'"):
        parse_component_document('{"components": []}')
    with pytest.raises(DocumentError, match=r"components\[0\]"):
        parse_component_document('{"n": 4, "components": [{"idx": [0, 1]}]}')
    with pytest.raises(DocumentError, match=r"components\[1\]"):
        parse_component_document(
            '{"n": 4, "components": ['
            '{"idx": [0, 1, 0, 1], "value": 1.0},'
            '{"idx": [0, 1, 2, 3], "value": "x"}]}'
        )


def test_ingest_single_entry_reports_zero_residual():
    text = json.dumps({"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": -2.0}]})
    R = ingest(text)
    assert R.matrix[0, 0] == -2.0
    assert cg.cyclic_sum(R, (0, 1, 2, 3)) == 0.0


def test_ingest_then_project_bianchi():
    text = json.dumps({"n": 4, "components": [{"idx": [0, 1, 2, 3], "value": 1.0}]})
    raw = ingest(text)
    assert not raw.bianchi_enforced
    projected = cg.project_bianchi(ingest(text))
    assert projected.bianchi_enforced
    assert abs(cg.cyclic_sum(projected, (0, 1, 2, 3))) <= 1e-12


def test_count_command():
    code, out, _ = run_cli(["count", "--n", "4"])
    assert code == 0
    assert out.strip() == "20"
    code, out, _ = run_cli(["count", "--n", "4", "--r", "3"])
    assert code == 0
    assert out.strip() == "17"


@pytest.mark.parametrize("argv, message", [
    (["--n", "-3"], "n must be >= 1, got -3"),
    (["--n", "-3", "--r", "0"], "n must be >= 1, got -3"),
    (["--n", "4", "--r", "9"], "r must satisfy 0 <= r <= n, got r = 9 with n = 4"),
])
def test_count_command_names_the_rule_and_the_numbers(argv, message):
    assert run_cli(["count", *argv]) == (1, "", f"curvgraph: error: {message}\n")


def test_canon_command():
    code, out, _ = run_cli(
        ["canon", "--expr", "R_{iklm}+R_{ilmk}+R_{imkl}", "--bianchi"]
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(["canon", "--expr", "R_{lmik}"])
    assert code == 0
    assert out.strip() == "R_{0123}"
    # argparse reads a separate value that starts with '-' as an option
    assert run_cli(["canon", "--expr=-R_{lmik}"]) == (0, "-R_{0123}\n", "")
    code, out, err = run_cli(["canon", "--expr", "-R_{0123}"])
    assert (code, out) == (2, "")
    assert "--expr" in err
    code, _, err = run_cli(["canon", "--expr", "R_{ikl}"])
    assert code == 1
    assert "error" in err


@pytest.mark.skipif(not DIGIT_LIMIT, reason="str() has no digit limit")
def test_canon_names_a_combined_coefficient_too_long_to_print():
    # each integer read has d + 1 digits, within the limit; the sum 1/A + 1/B
    # has a (2d + 1)-digit denominator, past what str() converts
    d = DIGIT_LIMIT // 2 + 1
    A, B = 10**d + 1, 10**d + 3
    code, out, err = run_cli(["canon", "--expr", f"1/{A}*R_{{0123}} + 1/{B}*R_{{0123}}"])
    assert (code, out, err) == (
        1, "", "curvgraph: error: coefficient of R_{0123} has too many digits\n"
    )


def test_check_command(tmp_path):
    path = write_doc(
        tmp_path, "d.json", {"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 1.0}]}
    )
    code, out, _ = run_cli(["check", "--input", path])
    assert code == 0
    report = strict_json(out)
    assert report["bianchi_residual"] == 0.0
    assert report["ricci_max_abs"] == 1.0


def test_check_conflicting_document_exits_1(tmp_path):
    path = write_doc(
        tmp_path,
        "bad.json",
        {
            "n": 4,
            "components": [
                {"idx": [0, 1, 2, 3], "value": 1.0},
                {"idx": [1, 0, 2, 3], "value": 1.0},
            ],
        },
    )
    code, _, err = run_cli(["check", "--input", path])
    assert code == 1
    assert "error" in err


def test_matrix_command(tmp_path):
    path = write_doc(
        tmp_path, "d.json", {"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 2.0}]}
    )
    code, out, _ = run_cli(["matrix", "--input", path, "--basis", "lex"])
    assert code == 0
    payload = strict_json(out)
    assert payload["matrix"][0][0] == 2.0
    assert not payload["mixed"]

    code, out, _ = run_cli(["matrix", "--input", path, "--basis", "duad"])
    payload = strict_json(out)
    assert payload["mixed"]
    assert payload["matrix"][0][0] == -2.0


def test_classify_command_zero_is_type_o(tmp_path):
    path = write_doc(tmp_path, "flat.json", {"n": 4, "components": []})
    code, out, _ = run_cli(["classify", "--input", path])
    assert code == 0
    report = strict_json(out)
    assert report["petrov_type"] == "O"
    assert report["nilpotency_degree"] == 1


def test_classify_rejects_non_flat_input(tmp_path):
    # generic tensor: the combination matrix is not symmetric, exit 1
    path = tmp_path / "generic.json"
    path.write_text(dump_component_document(cg.random_riemann(5)))
    code, _, err = run_cli(["classify", "--input", str(path)])
    assert code == 1
    assert "symmetric" in err


def test_classify_fixture_file():
    code, out, _ = run_cli(["classify", "--input", str(FIXTURES / "ricci_flat.json")])
    assert code == 0
    report = strict_json(out)
    assert report["petrov_type"] in {"I", "II", "D", "III", "N", "O"}
    for key in ("trace_psi", "sigma_asymmetry", "psi_plus_lambda", "trace_omega"):
        assert report["residuals"][key] <= 1e-10


def test_ingest_tolerance_does_not_follow_classify_tol(tmp_path):
    # a duplicate record 1e-10 off is a conflict at the fixed ingest tolerance
    # of 1e-12, whatever --tol classify runs with
    doc = json.loads((FIXTURES / "ricci_flat.json").read_text())
    first = doc["components"][0]
    a, b, c, d = first["idx"]
    doc["components"].append({"idx": [c, d, a, b], "value": first["value"] + 1e-10})
    path = write_doc(tmp_path, "dup.json", doc)
    for argv in (["check"], ["classify"], ["classify", "--tol", "1e-6"]):
        code, _, err = run_cli(argv + ["--input", path])
        assert code == 1
        assert "already recorded" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
def test_classify_rejects_invalid_tol(tol):
    code, out, err = run_cli(["classify", "--input", str(FIXTURES / "ricci_flat.json"), "--tol", tol])
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("argv", [["classify"], ["check"], ["matrix", "--basis", "lex"],
                                  ["matrix", "--basis", "duad"], ["graph", "--kind", "k6"]],
                         ids=["classify", "check", "matrix-lex", "matrix-duad", "graph-k6"])
@pytest.mark.parametrize("enforce", [[], ["--enforce-bianchi"]], ids=["plain", "enforce-bianchi"])
def test_document_commands_never_read_a_matrix_input(monkeypatch, argv, enforce):
    # the commands store the rows that ingest builds and run on them: the
    # reader of matrices from outside the library is never called
    def refuse(*args):
        raise AssertionError("symcore._square_rows was called")

    monkeypatch.setattr(symcore, "_square_rows", refuse)
    monkeypatch.setattr(petrov, "_square_rows", refuse)
    cli._document_storage.cache_clear()  # run the ingest path, not a stored result
    code, out, err = run_cli([*argv, *enforce, "--input", str(FIXTURES / "ricci_flat.json")])
    assert (code, err) == (0, "")
    assert out


def test_graph_command():
    code, out, _ = run_cli(["graph", "--kind", "variant", "--label", "G1"])
    assert code == 0
    assert out.count(" -- ") == 4
    code, out, _ = run_cli(["graph", "--kind", "variant", "--format", "structured"])
    parsed = cg.parse_structured(out)
    assert len(parsed.vertices) == 4


def test_graph_k6_command(tmp_path):
    path = write_doc(
        tmp_path, "d.json", {"n": 4, "components": [{"idx": [0, 1, 2, 3], "value": 1.0}]}
    )
    code, out, _ = run_cli(["graph", "--kind", "k6", "--input", path])
    assert code == 0
    assert out.count(" -- ") == 15
    code, _, err = run_cli(["graph", "--kind", "k6"])
    assert code == 1
    assert "--input" in err


@pytest.mark.parametrize("argv, message", [
    (["graph", "--kind", "variant", "--input", str(FIXTURES / "ricci_flat.json")],
     "--input is read only by the k6 graph"),
    (["graph", "--input", str(FIXTURES / "ricci_flat.json"), "--label", "G2"],
     "--input is read only by the k6 graph"),
    (["graph", "--kind", "variant", "--enforce-bianchi"],
     "--enforce-bianchi is read only by the k6 graph"),
    (["graph", "--kind", "k6", "--input", str(FIXTURES / "ricci_flat.json"), "--label", "G1"],
     "--label is read only by the variant graph"),
    (["fuzzy", "--alpha", "0"], "--alpha is read only with --union"),
    (["fuzzy", "--alpha", "3", "--format", "structured"], "--alpha is read only with --union"),
], ids=["variant-input", "default-kind-input", "variant-enforce-bianchi", "k6-label",
        "fuzzy-alpha-0", "fuzzy-alpha-3"])
def test_an_option_the_command_does_not_read_exits_1(argv, message):
    assert run_cli(argv) == (1, "", f"curvgraph: error: {message}\n")


def test_graph_and_fuzzy_defaults_are_g1_and_alpha_3():
    assert run_cli(["graph"]) == run_cli(["graph", "--kind", "variant", "--label", "G1"])
    assert run_cli(["fuzzy", "--union"]) == run_cli(["fuzzy", "--union", "--alpha", "3"])
    assert run_cli(["fuzzy", "--union"]) != run_cli(["fuzzy", "--union", "--alpha", "5"])


def test_check_trace_b_keeps_the_sign_of_zero(tmp_path):
    # check reads trace B off the three cyclic entries; it gives the floats,
    # signed zeros included, of petrov.trace_b on the assembled six-matrix
    signs = set()
    for values in product((0.0, -0.0, 1.0, -1e-300), repeat=3):
        doc = {"n": 4, "components": [{"idx": list(q), "value": v}
                                      for q, v in zip(symcore.CYCLIC_QUADS, values)]}
        path = write_doc(tmp_path, "zeros.json", doc)
        code, out, err = run_cli(["check", "--input", path])
        assert (code, err) == (0, ""), values
        got = strict_json(out)["trace_b"]
        want = cg.trace_b(cg.assemble_six_matrix(ingest(json.dumps(doc))))
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), values
        if got == 0.0:
            signs.add(math.copysign(1.0, got))
    assert signs == {1.0, -1.0}


def test_fuzzy_command():
    code, out, _ = run_cli(["fuzzy", "--format", "structured"])
    assert code == 0
    g = cg.parse_structured(out)
    memberships = {v.id: v.membership for v in g.vertices}
    assert str(memberships[0]) == "1"
    assert str(memberships[1]) == "1/3"

    code, out, _ = run_cli(["fuzzy", "--union", "--format", "structured"])
    g = cg.parse_structured(out)
    memberships = {v.id: v.membership for v in g.vertices}
    assert str(memberships[1]) == "1/9"
    loops = [e for e in g.edges if e.u == e.v]
    assert len(loops) == 1

    # the union's DOT: each vertex has its index letter and sigma, each edge its mu
    code, out, _ = run_cli(["fuzzy", "--union", "--alpha", "3"])
    assert code == 0
    lines = out.splitlines()
    for line in ('  "1" [label="k", sigma="1/9"];', '  "0" -- "1" [mu="1/3"];',
                 '  "1" -- "1" [mu="1/9"];'):
        assert line in lines


def test_run_without_streams_writes_errors_to_stderr(capsys):
    assert run(["fuzzy", "--union", "--alpha", "0"]) == 1
    assert capsys.readouterr() == ("", "curvgraph: error: alpha must be >= 1, got 0\n")


def test_usage_errors_exit_2(capsys):
    assert run(["count"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["classify", "--tol", "0"], ["count"], ["no-such-command"], []], ids=repr
)
def test_usage_text_goes_to_given_err(argv, capsys):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: curvgraph") and "error:" in err
    assert capsys.readouterr() == ("", "")


def test_help_text_goes_to_given_out(capsys):
    code, out, err = run_cli(["classify", "--help"])
    assert code == 0
    assert out.startswith("usage: curvgraph classify") and "--tol" in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


def _fresh_parser_run(argv):
    """(parsed fields, exit code, stdout, stderr) of argv on a parser built
    for this call alone; parsed fields are None after a usage error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return None, exc.code, out.getvalue(), err.getvalue()
    return vars(args), args.func(args, out), out.getvalue(), err.getvalue()


def test_run_reuses_one_parser_without_carrying_state(monkeypatch):
    fixture = str(FIXTURES / "ricci_flat.json")
    sequence = [
        ["classify", "--input", fixture, "--tol", "1e-6"],
        ["classify", "--input", fixture, "--tol", "0"],
        ["classify", "--input", fixture],
        ["graph", "--kind", "k6", "--input", fixture, "--format", "structured"],
        ["graph", "--label", "G7"],
        ["graph"],
        ["fuzzy", "--union", "--alpha", "5"],
        ["fuzzy"],
        ["canon", "--expr", "R_{lmik}", "--bianchi"],
        ["canon", "--expr", "R_{iklm}"],
    ]
    shared = cli._shared_parsers()
    parse = cli._parse
    parsed = []

    def recording_parse(argv):
        parsed.append(None)  # stays None when parsing exits
        ns = parse(argv)
        parsed[-1] = dict(vars(ns))
        return ns

    monkeypatch.setattr(cli, "_parse", recording_parse)
    for argv in sequence:
        code, out, err = run_cli(argv)
        fields, *expected = _fresh_parser_run(argv)
        assert parsed[-1] == fields, argv
        assert [code, out, err] == expected, argv
    assert cli._shared_parsers() is shared
    assert len(parsed) == len(sequence)
    assert parsed[2]["tol"] == petrov.DEFAULT_TOL
    assert parsed[5]["kind"] == "variant" and parsed[5]["label"] is None


#: lines that the command's own parser does not settle alone, or that it
#: settles with a usage error, help or a refusal
DISPATCH_LINES = [
    pytest.param(["check", "--input", str(FIXTURES / "ricci_flat.json"), "--bogus"],
                 id="unrecognised-trailing-option"),
    pytest.param(["check", "--inp", str(FIXTURES / "ricci_flat.json")], id="abbreviated-option"),
    pytest.param(["matrix", "-h"], id="help-after-command"),
    pytest.param(["canon", "--expr=-R_{lmik}"], id="expr-equals-form"),
    pytest.param(["canon", "--expr", "R_{iklm}", "--", "R_{lmik}"], id="double-dash-then-more"),
    pytest.param(["count", "--", "--n", "4"], id="double-dash-before-options"),
    pytest.param(["count", "--n", "-1"], id="negative-count"),
    pytest.param(["matrix", "--input", str(FIXTURES / "ricci_flat.json"), "--basis", "nope"],
                 id="bad-choice"),
    pytest.param(["check"], id="missing-required-option"),
    pytest.param([], id="empty"),
    pytest.param(["--help"], id="main-help"),
    pytest.param(["-h", "classify"], id="help-before-command"),
    pytest.param(["frobnicate", "--n", "4"], id="unknown-command"),
]


@pytest.mark.parametrize("argv", DISPATCH_LINES)
def test_run_answers_as_the_main_parser_does(argv, monkeypatch):
    direct = run_cli(argv)
    main = cli._shared_parsers()[0]
    monkeypatch.setattr(cli, "_parse", main.parse_args)
    assert run_cli(argv) == direct


ALL_QUADS = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4) for d in range(4)]


def _redundant_document(seed):
    """All 256 raw components of a seeded tensor, shuffled: a redundant
    document, as the cli_structure benchmark writes them."""
    R = cg.random_riemann(seed)
    order = np.random.default_rng(seed).permutation(len(ALL_QUADS))
    comps = [{"idx": list(ALL_QUADS[i]), "value": cg.get_component(R, ALL_QUADS[i])} for i in order]
    return {"n": 4, "components": comps}


def _fresh_run(argv):
    # the command as it runs when no earlier command has read a document
    cli._document_storage.cache_clear()
    return run_cli(argv)


def _document_sequence(path):
    return [
        ["check", "--input", path, "--enforce-bianchi"],
        ["matrix", "--input", path, "--basis", "duad"],
        ["graph", "--kind", "k6", "--input", path, "--format", "structured"],
        ["check", "--input", path],
        ["matrix", "--input", path, "--basis", "lex"],
        ["classify", "--input", path],
        ["graph", "--kind", "k6", "--input", path, "--enforce-bianchi"],
    ]


def _count_ingests(monkeypatch):
    calls = []

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest", counting_ingest)
    return calls


def test_consecutive_commands_on_one_document_ingest_it_once(tmp_path, monkeypatch):
    path = write_doc(tmp_path, "d.json", _redundant_document(7))
    cli._document_storage.cache_clear()
    calls = _count_ingests(monkeypatch)
    for argv in _document_sequence(path)[:3]:
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "") and out, argv
    assert len(calls) == 1


def test_consecutive_commands_print_what_a_fresh_run_prints(tmp_path):
    path = write_doc(tmp_path, "d.json", _redundant_document(8))
    sequence = _document_sequence(path)
    expected = [_fresh_run(argv) for argv in sequence]
    cli._document_storage.cache_clear()
    assert [run_cli(argv) for argv in sequence] == expected
    assert expected[5][0] == 1  # classify refuses the non-flat tensor, every time


def test_a_rewritten_document_is_read_again(tmp_path):
    path = write_doc(tmp_path, "d.json", _redundant_document(9))
    first = run_cli(["check", "--input", path])
    write_doc(tmp_path, "d.json", _redundant_document(10))
    second = run_cli(["check", "--input", path])
    assert second == _fresh_run(["check", "--input", path])
    assert second[0] == 0 and second != first


def test_a_bad_document_fails_on_every_command(tmp_path, monkeypatch):
    path = write_doc(tmp_path, "bad.json", {"n": 4, "components": [
        {"idx": [0, 1, 0, 1], "value": 1.0}, {"idx": [1, 0, 1, 0], "value": 2.0}]})
    calls = _count_ingests(monkeypatch)
    first = run_cli(["check", "--input", path])
    assert first[0] == 1 and "already recorded" in first[2]
    assert run_cli(["check", "--input", path]) == first
    assert len(calls) == 2


def test_enforce_bianchi_never_reaches_the_next_command(tmp_path):
    # one record breaks the cyclic identity; the projection of one command is
    # not the storage that the next command on the same text reads
    path = write_doc(tmp_path, "d.json", {"n": 4, "components": [{"idx": [0, 1, 2, 3], "value": 1.0}]})
    lex = ["matrix", "--input", path, "--basis", "lex"]
    enforced = ["check", "--input", path, "--enforce-bianchi"]
    unprojected = _fresh_run(lex)
    projected = _fresh_run(enforced)
    assert strict_json(projected[1])["bianchi_enforced"] is True
    assert strict_json(unprojected[1])["matrix"][0][5] == 1.0
    cli._document_storage.cache_clear()
    assert run_cli(lex) == unprojected
    assert run_cli(enforced) == projected
    assert run_cli(lex) == unprojected


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_check_rejects_non_integer_index(tmp_path, bad):
    path = write_doc(
        tmp_path,
        "bad.json",
        {
            "n": 4,
            "components": [
                {"idx": [0, 1, 0, 1], "value": 1.0},
                {"idx": [bad, 0, 2, 3], "value": 1.0},
            ],
        },
    )
    code, out, err = run_cli(["check", "--input", path])
    assert code == 1
    assert out == ""
    assert "components[1]" in err and "integers" in err


@pytest.mark.parametrize("idx", [[0, 1, 2, 5], [-1, 1, 2, 3]])
@pytest.mark.parametrize("argv", [["check"], ["classify"]], ids=lambda a: a[0])
def test_input_commands_name_record_with_index_out_of_range(tmp_path, argv, idx):
    doc = {"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 1.0}, {"idx": idx, "value": 1.0}]}
    with pytest.raises(DocumentError, match=r"components\[1\]: 'idx' entries must lie in 0\.\.3"):
        parse_component_document(json.dumps(doc))
    code, out, err = run_cli([*argv, "--input", write_doc(tmp_path, "range.json", doc)])
    assert code == 1
    assert out == ""
    assert err == "curvgraph: error: components[1]: 'idx' entries must lie in 0..3\n"


INPUT_COMMANDS = [
    ["check"],
    ["check", "--enforce-bianchi"],
    ["matrix", "--basis", "duad"],
    ["classify"],
    ["graph", "--kind", "k6"],
]


@pytest.mark.parametrize("argv", INPUT_COMMANDS, ids=lambda a: " ".join(a))
def test_input_commands_reject_value_too_large_for_float(tmp_path, argv):
    path = write_doc(
        tmp_path,
        "huge.json",
        {
            "n": 4,
            "components": [
                {"idx": [0, 1, 0, 1], "value": 1.0},
                {"idx": [0, 1, 2, 3], "value": 10**400},
            ],
        },
    )
    code, out, err = run_cli([*argv, "--input", path])
    assert code == 1
    assert out == ""
    assert "components[1]" in err and "too large" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("argv", [["check"], ["classify"]], ids=lambda a: a[0])
def test_input_commands_reject_non_finite_value(tmp_path, argv, literal):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 1.0}, '
        f'{{"idx": [0, 1, 2, 3], "value": {literal}}}]}}'
    )
    code, out, err = run_cli([*argv, "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err == "curvgraph: error: components[1]: 'value' must be finite\n"


@pytest.mark.parametrize("n", [True, False])
def test_document_rejects_boolean_n(tmp_path, n):
    text = json.dumps({"n": n, "components": []})
    with pytest.raises(DocumentError, match="field 'n' must be an integer"):
        parse_component_document(text)
    code, out, err = run_cli(["check", "--input", write_doc(tmp_path, "n.json", {"n": n})])
    assert code == 1
    assert out == ""
    assert "field 'n' must be an integer" in err


@pytest.mark.parametrize("argv", INPUT_COMMANDS, ids=lambda a: " ".join(a))
def test_input_dash_reads_the_document_from_stdin(monkeypatch, argv):
    path = FIXTURES / "ricci_flat.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text(encoding="utf-8")))
    got = run_cli(argv + ["--input", "-"])
    assert got[0] == 0
    assert got == run_cli(argv + ["--input", str(path)])


def test_missing_file_exits_1():
    code, _, err = run_cli(["check", "--input", "/nonexistent/file.json"])
    assert code == 1
    assert "error" in err


def test_module_entry_point():
    # the child process imports the same package as this test session
    package_root = str(Path(cg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    fixture = str(FIXTURES / "ricci_flat.json")
    # cli.main leaves through sys.exit(run()): the exit code, stdout, and what
    # stderr names
    for argv, code, out, named in (
        (["count", "--n", "4"], 0, "20\n", ""),
        (["classify", "--tol", "abc", "--input", fixture], 2, "", "--tol"),
        (["graph", "--kind", "variant", "--input", fixture], 1, "", "--input"),
        (["fuzzy", "--union", "--alpha", "0"], 1, "", "got 0"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvgraph", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (code, out), argv
        assert named in proc.stderr, argv
    # importing the module runs no command line, so pydoc can read it
    proc = subprocess.run([sys.executable, "-c", "import curvgraph.__main__"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _huge_flat_document():
    # a Ricci-flat tensor scaled so its largest entry is 1.7e308: valid input
    # whose eigenvalues leave the float range
    R = cg.random_riemann(3, ricci_flat=True)
    return {"n": 4, "components": json.loads(dump_component_document(
        cg.RiemannComponents(R.matrix / np.abs(R.matrix).max() * 1.7e308)))["components"]}


#: Finite records whose cyclic terms sum past the float range.
CYCLIC_OVERFLOW_DOC = {"n": 4, "components": [
    {"idx": [0, 1, 2, 3], "value": 1.7e308}, {"idx": [0, 2, 3, 1], "value": 1.7e308}]}
#: R_1212 = R_1313 = 1.7e308: W is zero, Ricci_11 = R_2121 + R_3131 overflows.
RICCI_OVERFLOW_DOC = {"n": 4, "components": [
    {"idx": [1, 2, 1, 2], "value": 1.7e308}, {"idx": [1, 3, 1, 3], "value": 1.7e308}]}


@pytest.mark.parametrize("argv,doc,message", [
    (["check"], {"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 1.7e308},
                                        {"idx": [0, 2, 0, 2], "value": 1.7e308}]},
     "overflow: a result is not a finite float"),
    (["check"], {"n": 4, "components": [
        {"idx": [0, 1, 2, 3], "value": 1.7e308}, {"idx": [0, 2, 3, 1], "value": 1.7e308}]},
     "overflow: a result is not a finite float"),
    (["classify"], _huge_flat_document(), "overflow: eigenvalues exceed the float range"),
    # finite but not contraction-free: rejected by validation, no overflow left
    (["classify"], {"n": 4, "components": [{"idx": [0, 1, 0, 1], "value": 1.5e308},
                                           {"idx": [2, 3, 0, 1], "value": 1.5e308}]},
     "matrix trace exceeds tolerance"),
    # W validates (it is zero) but the scalar Ricci contraction overflows
    (["classify"], RICCI_OVERFLOW_DOC, "overflow: a result is not a finite float"),
    *[([*argv, "--enforce-bianchi"], CYCLIC_OVERFLOW_DOC,
       "overflow: projecting out the cyclic residual exceeds the float range")
      for argv in (["check"], ["classify"], ["matrix"], ["graph", "--kind", "k6"])],
], ids=["check-ricci", "check-cyclic", "classify-eigenvalues", "classify-not-flat",
        "classify-ricci", "check-project", "classify-project", "matrix-project", "k6-project"])
def test_overflowing_results_exit_1_with_one_error_line(tmp_path, argv, doc, message):
    code, out, err = run_cli([*argv, "--input", write_doc(tmp_path, "huge.json", doc)])
    assert (code, out, err) == (1, "", f"curvgraph: error: {message}\n")


def test_non_finite_result_is_never_written(tmp_path, monkeypatch):
    monkeypatch.setattr(petrov, "classification_report", lambda R, tol: {"x": float("nan")})
    code, out, err = run_cli(["classify", "--input", str(FIXTURES / "ricci_flat.json")])
    assert (code, out, err) == (1, "", "curvgraph: error: overflow: a result is not a finite float\n")
    with pytest.raises(OverflowError):
        cli._emit_json({"x": [1.0, float("inf")]}, io.StringIO())
