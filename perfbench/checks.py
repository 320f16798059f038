"""Output checkers for every workload.

Expected values are computed here from the source pair matrix (full tensor by
pair routing, contractions by einsum) or taken from the pinned acceptance
values. Nothing in this module calls curvgraph, so a defect in the program
cannot also hide in the check that is meant to catch it.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

LEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
DUAD_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
ETA = np.array([-1.0, 1.0, 1.0, 1.0])

EPS3 = np.zeros((3, 3, 3))
for _a, _b, _c in itertools.permutations(range(3)):
    EPS3[_a, _b, _c] = 1.0 if (_a, _b, _c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0

#: Residuals that acceptance criterion 10 pins at 1e-10.
PINNED_RESIDUALS = ("trace_psi", "sigma_asymmetry", "psi_plus_lambda", "trace_omega")

_ROUTE = np.zeros((4, 4, 6))
for _s, (_a, _b) in enumerate(LEX_PAIRS):
    _ROUTE[_a, _b, _s] = 1.0
    _ROUTE[_b, _a, _s] = -1.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    consistent: Optional[bool] = None  # classify reports only
    reason: str = ""
    ptype: Optional[str] = None


def full_tensor(M: np.ndarray) -> np.ndarray:
    """All 256 lowered components R_abcd of a LEX pair matrix.

    Every entry is one stored value times a sign, so this is exact."""
    return np.einsum("abs,st,cdt->abcd", _ROUTE, M, _ROUTE)


def omega_of(M: np.ndarray) -> np.ndarray:
    """psi + i*sigma: psi_ab = R_0a0b, sigma_ab = 1/2 eps_agd R_gd0b."""
    T = full_tensor(M)
    psi = T[0, 1:, 0, 1:]
    sigma = 0.5 * np.einsum("agd,gdb->ab", EPS3, T[1:, 1:, 0, 1:])
    return psi + 1j * sigma


def ricci_of(M: np.ndarray) -> np.ndarray:
    return np.einsum("a,axay->xy", ETA, full_tensor(M))


def cyclic_of(M: np.ndarray) -> float:
    T = full_tensor(M)
    return float(T[0, 1, 2, 3] + T[0, 2, 3, 1] + T[0, 3, 1, 2])


# --- classify reports ---------------------------------------------------------

def implied_type(report: dict) -> Optional[str]:
    """Type the report's own multiplicities and nilpotency imply, per the
    decision table of the Petrov classification; None when they fit no row."""
    nil = report["nilpotency_degree"]
    if nil is not None:
        return {1: "O", 2: "N", 3: "III"}.get(nil)
    mult = report["multiplicities"]
    if len(mult) == 3 and all(m["algebraic"] == 1 for m in mult):
        return "I"
    if len(mult) == 2:
        repeated = [m for m in mult if m["algebraic"] == 2]
        if len(repeated) == 1:
            return {2: "D", 1: "II"}.get(repeated[0]["geometric"])
    return None


def _classify_verdict(report: dict, ok: bool, reason: str) -> Verdict:
    ptype = report["petrov_type"]
    return Verdict(ok, implied_type(report) == ptype, reason, ptype)


def check_generic(W: np.ndarray, text: str) -> Verdict:
    """Type I, eigenvalues against numpy.linalg.eigvals, pinned residuals."""
    rep = json.loads(text)
    if rep["petrov_type"] != "I":
        return _classify_verdict(rep, False, f"type {rep['petrov_type']}, expected I")
    got = [complex(e["re"], e["im"]) for e in rep["eigenvalues"]]
    ref = np.linalg.eigvals(W)
    gap = min(
        max(abs(got[p] - ref[i]) for i, p in enumerate(perm))
        for perm in itertools.permutations(range(3))
    )
    limit = 1e-8 * float(np.abs(W).max())
    if gap > limit:
        return _classify_verdict(rep, False, f"eigenvalues off by {gap:.3g} > {limit:.3g}")
    for key in PINNED_RESIDUALS:
        if rep["residuals"][key] > 1e-10:
            return _classify_verdict(rep, False, f"residual {key} = {rep['residuals'][key]}")
    return _classify_verdict(rep, True, "")


def check_special(expected_type: str, text: str) -> Verdict:
    rep = json.loads(text)
    ok = rep["petrov_type"] == expected_type
    reason = "" if ok else f"type {rep['petrov_type']}, expected {expected_type}"
    return _classify_verdict(rep, ok, reason)


def check_cold(expected: dict, result: tuple[int, str]) -> Verdict:
    """Exit code 0 and a report equal to the in-process one."""
    code, stdout = result
    if code != 0:
        return Verdict(False, reason=f"exit code {code}")
    if json.loads(stdout) != expected:
        return Verdict(False, reason="report differs from the in-process report")
    return Verdict(True)


# --- CLI structure outputs ------------------------------------------------------

def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= tol


def _check_check(M, text, tol) -> str:
    rep = json.loads(text)
    ric = ricci_of(M)
    if rep["n"] != 4 or rep["bianchi_enforced"] is not True:
        return "check: n or bianchi_enforced wrong"
    if abs(rep["bianchi_residual"]) > tol or abs(rep["trace_b"]) > tol:
        return "check: cyclic residual or trace B above tolerance"
    if not _close(rep["ricci"], ric, tol):
        return "check: ricci differs from the contraction of the source"
    if abs(rep["ricci_max_abs"] - float(np.abs(ric).max())) > tol:
        return "check: ricci_max_abs wrong"
    return ""


def _check_matrix(M, text, tol) -> str:
    rep = json.loads(text)
    T = full_tensor(M)
    cov = np.array([[T[(*p, *q)] for q in DUAD_PAIRS] for p in DUAD_PAIRS])
    raising = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    if rep["basis"] != "duad" or rep["mixed"] is not True:
        return "matrix: wrong basis flags"
    if not _close(rep["matrix"], raising[:, None] * cov, tol):
        return "matrix: duad entries differ from the source"
    return ""


def _check_k6(M, text) -> str:
    doc = json.loads(text)
    vertices = [(v["id"], v.get("label")) for v in doc["vertices"]]
    edges = [(e["u"], e["v"], e["weight"]) for e in doc["edges"]]
    want_v = [(f"u{s + 1}", f"{a}{b}") for s, (a, b) in enumerate(LEX_PAIRS)]
    want_e = [
        (f"u{s + 1}", f"u{t + 1}", float(M[s, t])) for s in range(6) for t in range(s + 1, 6)
    ]
    if doc.get("name") != "K6" or vertices != want_v or edges != want_e:
        return "graph: K6 structure differs from the source pair matrix"
    return ""


_DOT_VERTEX = re.compile(r'^\s*"(\d+)" \[.*sigma="([0-9/]+)".*\];$')
_DOT_EDGE = re.compile(r'^\s*"(\d+)" -- "(\d+)" \[.*mu="([0-9/]+)".*\];$')


def _check_fuzzy(alpha, text) -> str:
    """Pinned acceptance values: fixed vertex 1, bridge 1/(3 alpha), others
    1/3; four proper edges at 1/3 and the bridge loop at 1/(3 alpha)."""
    bridge = Fraction(1, 3 * alpha)
    sigma, mu = {}, {}
    for line in text.splitlines():
        if m := _DOT_VERTEX.match(line):
            sigma[int(m[1])] = Fraction(m[2])
        elif m := _DOT_EDGE.match(line):
            mu[frozenset((int(m[1]), int(m[2])))] = Fraction(m[3])
    third = Fraction(1, 3)
    want_sigma = {0: Fraction(1), 1: bridge, 2: third, 3: third}
    want_mu = {frozenset(p): third for p in ((0, 1), (1, 2), (2, 3), (3, 1))}
    want_mu[frozenset((1,))] = bridge
    if sigma != want_sigma or mu != want_mu:
        return f"fuzzy: memberships differ from the pinned values for alpha = {alpha}"
    return ""


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?([A-Za-z][A-Za-z0-9]*)_\{([0-3]{4})\}")


def parse_terms(text: str) -> list[tuple[Fraction, str, tuple]]:
    """Terms of a canonical expression as printed: '0' or signed terms."""
    text = text.strip()
    if text == "0":
        return []
    terms, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos > 0 and m[1] is None):
            raise ValueError(f"unparsable canonical expression {text!r}")
        coeff = Fraction(m[2] or 1) * (-1 if m[1] == "-" else 1)
        terms.append((coeff, m[3], tuple(int(c) for c in m[4])))
        pos = m.end()
    return terms


def _orbit(q):
    a, b, c, d = q
    return ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
            (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a))


def _is_canonical(q) -> bool:
    a, b, c, d = q
    if a == b or c == d or q != min(_orbit(q)):
        return False
    s = sorted(q)
    # the cyclic identity eliminates (s0, s3, s1, s2) on distinct support
    return not (len(set(q)) == 4 and q == (s[0], s[3], s[1], s[2]))


def evaluate(terms, tensors) -> tuple[float, float]:
    """Value of a term list with each name read from its own tensor, plus the
    magnitude sum that scales the rounding of that value."""
    value = sum(float(c) * tensors[name][q] for c, name, q in terms)
    size = sum(abs(float(c)) for c, _, _ in terms)
    return value, size


def _check_canon(item, text) -> str:
    terms = parse_terms(text)
    keys = [(name, q) for _, name, q in terms]
    if keys != sorted(set(keys)) or any(c == 0 for c, _, _ in terms):
        return "canon: terms not combined in sorted order"
    if not all(_is_canonical(q) for _, q in keys):
        return "canon: a term is not its canonical orbit representative"
    got, got_size = evaluate(terms, item.tensors)
    want, want_size = evaluate(item.terms, item.tensors)
    scale = max(float(np.abs(T).max()) for T in item.tensors.values())
    if abs(got - want) > 1e-9 * (got_size + want_size + 1.0) * scale:
        return "canon: value on Bianchi-enforced tensors changed"
    return ""


def check_structure(item, results) -> Verdict:
    """The five outputs of one cli_structure op, in argv order."""
    for code, _ in results:
        if code != 0:
            return Verdict(False, reason=f"exit code {code}")
    M = item.matrix
    tol = 1e-12 * max(1.0, float(np.abs(M).max()))
    texts = [text for _, text in results]
    for reason in (
        _check_check(M, texts[0], tol),
        _check_matrix(M, texts[1], tol),
        _check_k6(M, texts[2]),
        _check_fuzzy(item.alpha, texts[3]),
        _check_canon(item, texts[4]),
    ):
        if reason:
            return Verdict(False, reason=reason)
    return Verdict(True)
