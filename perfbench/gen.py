"""Seeded inputs for every workload, built before any timing starts.

Each generator takes the workload seed alone, so the same seed gives the same
documents. Special-type tensors are solved for through the public API and
verified on the spot: an input that misses its target stops the benchmark
instead of being counted as a failure of the program.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

import checks
from curvgraph import cli, petrov, symcore
from curvgraph.symcore import RiemannComponents

UPPER = [(s, t) for s in range(6) for t in range(s, 6)]

# The pinned acceptance fixtures of each algebraically special type.
FIXTURES = {
    "D": np.diag([-2.0, 1.0, 1.0]).astype(complex),
    "II": np.array([[2, 1j, 0], [1j, 0, 0], [0, 0, -2]], dtype=complex),
    "N": np.array([[1, 1j, 0], [1j, -1, 0], [0, 0, 0]], dtype=complex),
    "III": np.array([[0, 0, 1], [0, 0, 1j], [1, 1j, 0]], dtype=complex),
    "O": np.zeros((3, 3), dtype=complex),
}

POOL = {"classify_generic": 256, "classify_special": 250, "cli_structure": 32, "cli_cold": 16}


class InputError(RuntimeError):
    """A generated input does not meet its own specification."""


@dataclass
class ClassifyItem:
    text: str
    omega: np.ndarray
    expected_type: Optional[str] = None  # None: generic, checked as type I


@dataclass
class StructureItem:
    path: str
    matrix: np.ndarray
    alpha: int
    terms: list
    tensors: dict = field(repr=False)  # name -> full 4x4x4x4 tensor, for canon
    argvs: list


@dataclass
class ColdItem:
    path: str
    text: str
    expected: dict


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _lex_matrix(x) -> np.ndarray:
    M = np.zeros((6, 6))
    for (s, t), v in zip(UPPER, x):
        M[s, t] = M[t, s] = v
    return M


def records(text: str) -> int:
    return len(json.loads(text)["components"])


def generic_items(seed: int, count: int) -> list[ClassifyItem]:
    rng = _rng(seed, "classify_generic")
    items = []
    for sub in rng.integers(0, 2**32, size=count):
        R = symcore.random_riemann(int(sub), ricci_flat=True)
        items.append(ClassifyItem(cli.dump_component_document(R), checks.omega_of(R.matrix)))
    return items


class SpecialSolver:
    """Solves for a Ricci-flat, Bianchi-enforced tensor with a given omega.

    The map from the 21 LEX slot entries to (Re W, Im W, Ricci, cyclic) is
    linear; it is probed once on the 21 unit slot tensors through the public
    API and inverted by pseudo-inverse."""

    def __init__(self):
        cols = [self._features(RiemannComponents(_lex_matrix(np.eye(21)[k]))) for k in range(21)]
        self.pinv = np.linalg.pinv(np.array(cols).T)

    @staticmethod
    def _features(R: RiemannComponents) -> np.ndarray:
        W = petrov.omega(R)
        return np.concatenate([
            W.real.ravel(), W.imag.ravel(),
            symcore.ricci_matrix(R).ravel(), [symcore.cyclic_sum(R, (0, 1, 2, 3))],
        ])

    def solve(self, W: np.ndarray) -> RiemannComponents:
        target = np.concatenate([W.real.ravel(), W.imag.ravel(), np.zeros(17)])
        R = RiemannComponents(_lex_matrix(self.pinv @ target))
        miss = float(np.abs(self._features(R) - target).max())
        if miss > 1e-12 * float(np.abs(W).max()):
            raise InputError(f"special-type input misses its target omega by {miss:.3g}")
        return R


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def special_items(seed: int, count: int) -> list[ClassifyItem]:
    """Equal shares of D, II, N, III and O, each scaled by c with |c| in
    1e-3..1e3 and a random phase, and conjugated by a random rotation."""
    rng = _rng(seed, "classify_special")
    solver = SpecialSolver()
    types = [list(FIXTURES)[k % len(FIXTURES)] for k in range(count)]
    rng.shuffle(types)
    items = []
    for ptype in types:
        Q = _rotation(rng)
        c = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        R = solver.solve(c * (Q @ FIXTURES[ptype] @ Q.T))
        items.append(ClassifyItem(cli.dump_component_document(R), checks.omega_of(R.matrix), ptype))
    return items


_LETTERS = "iklm0123"


def _expression(rng: np.random.Generator):
    """A random index expression over the names R and T, sometimes carrying a
    full cyclic triple so the Bianchi elimination has work to do."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        coeff = Fraction(int(rng.integers(1, 10)), int(rng.choice([1, 1, 2, 3, 7])))
        if rng.random() < 0.4:
            coeff = -coeff
        terms.append((coeff, str(rng.choice(["R", "T"])), tuple(int(v) for v in rng.integers(0, 4, 4))))
    if rng.random() < 0.5:
        a, b, c, d = (int(v) for v in rng.permutation(4))
        name = str(rng.choice(["R", "T"]))
        terms += [(Fraction(1), name, q) for q in ((a, b, c, d), (a, c, d, b), (a, d, b, c))]
    parts = []
    for k, (coeff, name, quad) in enumerate(terms):
        letters = "".join(_LETTERS[v + 4 * int(rng.integers(0, 2))] for v in quad)
        mag = abs(coeff)
        body = ("" if mag == 1 else f"{mag}*") + f"{name}_{{{letters}}}"
        sign = "-" if coeff < 0 else ("" if k == 0 else "+")
        parts.append(f"{sign} {body}" if k else f"{sign}{body}")
    return " ".join(parts), terms


def structure_items(seed: int, count: int, workdir: Path) -> list[StructureItem]:
    """Documents listing all 256 raw components, shuffled, so every slot
    value arrives several times under different orientation signs."""
    rng = _rng(seed, "cli_structure")
    items = []
    quads = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4) for d in range(4)]
    for k in range(count):
        R = symcore.random_riemann(int(rng.integers(0, 2**32)))
        other = symcore.random_riemann(int(rng.integers(0, 2**32)))
        T = checks.full_tensor(R.matrix)
        order = rng.permutation(len(quads))
        comps = [{"idx": list(quads[i]), "value": float(T[quads[i]])} for i in order]
        path = workdir / f"structure-{k}.json"
        path.write_text(json.dumps({"n": 4, "components": comps}, indent=2) + "\n")
        expr, terms = _expression(rng)
        alpha = int(rng.integers(1, 10))
        tensors = {"R": T, "T": checks.full_tensor(other.matrix)}
        p = str(path)
        argvs = [
            ["check", "--input", p, "--enforce-bianchi"],
            ["matrix", "--input", p, "--basis", "duad"],
            ["graph", "--kind", "k6", "--input", p, "--format", "structured"],
            ["fuzzy", "--union", "--alpha", str(alpha)],
            ["canon", f"--expr={expr}", "--bianchi"],
        ]
        items.append(StructureItem(p, R.matrix.copy(), alpha, terms, tensors, argvs))
    return items


def cold_items(seed: int, count: int, workdir: Path, classify_doc) -> list[ColdItem]:
    """Generic documents on disk; the expected report is the in-process one."""
    items = []
    for k, g in enumerate(generic_items(seed, count)):
        path = workdir / f"cold-{k}.json"
        path.write_text(g.text)
        items.append(ColdItem(str(path), g.text, json.loads(classify_doc(g.text))))
    return items
