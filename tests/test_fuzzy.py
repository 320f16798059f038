from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import curvgraph as cg
from curvgraph.fuzzy import FuzzyGraph

THIRD = Fraction(1, 3)


def standard_graph():
    return cg.fuzzy_riemann_graph(cg.STANDARD_SPEC)


def test_memberships_exact():
    g = standard_graph()
    assert g.sigma == {0: 1, 1: THIRD, 2: THIRD, 3: THIRD}
    assert g.mu_of(1, 2) == THIRD
    assert g.mu_of(2, 3) == THIRD
    assert g.mu_of(3, 1) == THIRD
    assert g.mu_of(0, 1) == THIRD
    assert g.mu_of(0, 2) == 0
    assert g.mu_of(0, 3) == 0
    assert isinstance(g.sigma[1], Fraction)


def test_pair_bound_holds_exactly():
    g = standard_graph()
    assert g.respects_bound()
    for key, m in g.mu.items():
        u, v = tuple(key)
        assert m <= min(g.sigma[u], g.sigma[v])


def test_membership_validation():
    with pytest.raises(ValueError):
        FuzzyGraph({0: Fraction(3, 2)})
    with pytest.raises(ValueError):
        FuzzyGraph({0: 1}, {frozenset((0, 9)): THIRD})
    # two keys of one edge that agree read as one membership, as ingest reads
    # agreeing records
    g = FuzzyGraph({0: 1, 1: 1}, {(0, 1): THIRD, (1, 0): "1/3", frozenset((0, 1)): THIRD})
    assert g.mu == {frozenset((0, 1)): THIRD}


def test_is_complete():
    g = standard_graph()
    assert cg.is_complete(g, (1, 2, 3))
    assert not cg.is_complete(g)  # fixed vertex misses two triangle partners
    assert cg.is_complete(g, (2,))
    missing = FuzzyGraph(
        {1: THIRD, 2: THIRD, 3: THIRD},
        {frozenset((1, 2)): THIRD, frozenset((2, 3)): THIRD},
    )
    assert not cg.is_complete(missing, (1, 2, 3))
    with pytest.raises(ValueError):
        cg.is_complete(g, (7,))


def test_strong_arcs():
    g = standard_graph()
    assert cg.strong_arcs(g) == {
        frozenset((0, 1)),
        frozenset((1, 2)),
        frozenset((2, 3)),
        frozenset((3, 1)),
    }
    weak = FuzzyGraph({1: THIRD, 2: THIRD}, {frozenset((1, 2)): THIRD / 2})
    assert cg.strong_arcs(weak) == set()
    assert cg.strong_arcs(FuzzyGraph({})) == set()


def test_domination_set():
    assert cg.domination_set(standard_graph(), 0) == {1}
    rotated = cg.fuzzy_riemann_graph(cg.RiemannGraphSpec(0, (2, 3, 1)))
    assert cg.domination_set(rotated, 0) == {2}
    nobridge = FuzzyGraph({0: 1, 1: THIRD, 2: THIRD}, {frozenset((1, 2)): THIRD})
    assert cg.domination_set(nobridge, 0) == set()


def test_cycle_sign():
    assert cg.cycle_sign(0) == 1
    assert cg.cycle_sign(1) == -1
    assert cg.cycle_sign(2) == 1
    with pytest.raises(ValueError):
        cg.cycle_sign(-1)
    for m in range(6):
        for mp in range(6):
            assert cg.cycle_sign(m) * cg.cycle_sign(mp) == cg.cycle_sign(m + mp)


def _parity(triple):
    inversions = sum(
        1 for i in range(3) for j in range(i + 1, 3) if triple[i] > triple[j]
    )
    return -1 if inversions % 2 else 1


def test_levi_civita_matches_permutation_parity_exhaustively():
    for triple in product((1, 2, 3), repeat=3):
        expected = 0 if len(set(triple)) < 3 else _parity(triple)
        assert cg.levi_civita(*triple) == expected


def test_levi_civita_examples_and_antisymmetry():
    assert cg.levi_civita(1, 2, 3) == 1
    assert cg.levi_civita(2, 1, 3) == -1
    assert cg.levi_civita(1, 1, 3) == 0
    for a, b, c in product((1, 2, 3), repeat=3):
        v = cg.levi_civita(a, b, c)
        assert cg.levi_civita(b, a, c) == -v
        assert cg.levi_civita(a, c, b) == -v
        assert cg.levi_civita(c, b, a) == -v


def test_levi_civita_reference_handling():
    assert cg.levi_civita("x", "y", "z", reference=("x", "y", "z")) == 1
    with pytest.raises(ValueError):
        cg.levi_civita(0, 2, 3)  # 0 not in the default cycle
    # the coincidence rule fires before membership is checked
    assert cg.levi_civita(0, 2, 2) == 0


def test_fuzzy_union():
    g = standard_graph()
    u = cg.fuzzy_union(cg.epsilon_loop(0, 1), g, 3)
    assert u.sigma[1] == Fraction(1, 9)
    assert u.loops[1] == Fraction(1, 9)
    # nothing else moves
    assert {v: s for v, s in u.sigma.items() if v != 1} == {0: 1, 2: THIRD, 3: THIRD}
    assert u.mu == g.mu

    unchanged = cg.fuzzy_union(cg.epsilon_loop(0, 1), g, 1)
    assert unchanged.sigma == g.sigma
    assert unchanged.loops[1] == THIRD

    with pytest.raises(cg.BridgeMismatch):
        cg.fuzzy_union(cg.epsilon_loop(0, 2), g, 3)
    with pytest.raises(cg.BridgeMismatch):
        cg.fuzzy_union(cg.epsilon_loop(2, 1), g, 3)


def test_union_constructed_values_stay_rational():
    u = cg.fuzzy_union(cg.epsilon_loop(0, 1), standard_graph(), 3)
    values = set(u.sigma.values()) | set(u.mu.values()) | set(u.loops.values())
    assert values <= {Fraction(0), Fraction(1, 9), THIRD, Fraction(1)}


def test_permuting_triple_complete_with_strong_arcs():
    # the permuting triangle is complete and all arcs of the analog are strong
    g = standard_graph()
    assert cg.is_complete(g, cg.STANDARD_SPEC.permuting)
    assert len(cg.strong_arcs(g)) == 4
    assert cg.domination_set(g, cg.STANDARD_SPEC.fixed_vertex) == {
        cg.STANDARD_SPEC.permuting[0]
    }


# The fuzzy analog against the 6x6 matrix: one test per row of the README's
# table. Each evaluates the matrix side on the two negative controls it already
# has, the unenforced tensor of acceptance criterion 4 and the generic, not
# Ricci-flat, tensor of criterion 5. No fuzzy function reads a tensor, so the
# fuzzy side reads the same on both controls.


def _controls():
    return {
        "unenforced": cg.from_component_list(4, [((0, 1, 2, 3), 1.0)]),
        "generic": cg.random_riemann(0),
    }


def test_table_row_symmetry():
    for R in _controls().values():
        assert all(R.rows[s][t] == R.rows[t][s] for s in range(6) for t in range(6))
        # graph: one undirected K6 edge per slot pair carries R_st = R_ts
        weights = {frozenset((e.u, e.v)): e.weight for e in cg.k6_structure(R).edges}
        assert weights == {frozenset((f"u{s + 1}", f"u{t + 1}")): R.rows[t][s]
                           for s in range(6) for t in range(s + 1, 6)}
    # fuzzy: memberships are keyed by unordered pairs, before and after the
    # union, and the permuting triangle is complete
    g = standard_graph()
    for h in (g, cg.fuzzy_union(cg.epsilon_loop(0, 1), g, 3)):
        assert all(h.mu_of(u, v) == h.mu_of(v, u) for u, v in permutations(h.sigma, 2))
    assert cg.is_complete(g, cg.STANDARD_SPEC.permuting)


def test_table_row_block_relation_is_analogy_only():
    for R in _controls().values():
        cg.blocks(cg.assemble_six_matrix(R))  # symmetric storage always meets it
    broken = cg.assemble_six_matrix(cg.random_riemann(0)).entries.copy()
    broken[3, 0] += 1.0
    with pytest.raises(cg.BlockInconsistency):
        cg.blocks(broken)
    # no fuzzy statement: the fuzzy analog has the four index vertices, not
    # the six pair slots a block is made of


def test_table_row_trace_b():
    traces = {name: cg.trace_b(cg.assemble_six_matrix(R)) for name, R in _controls().items()}
    assert traces["unenforced"] == -1.0
    assert abs(traces["generic"]) <= 1e-12
    # fuzzy: the three loop-shaped terms vanish by the coincidence rule alone;
    # vertex 0 lies outside the reference cycle, which no other rule admits
    assert [cg.levi_civita(0, v, v) for v in (1, 2, 3)] == [0, 0, 0]
    with pytest.raises(ValueError, match="not drawn from reference"):
        cg.levi_civita(0, 1, 2)


def test_table_row_twenty_components():
    controls = _controls()
    assert {name: R.bianchi_enforced for name, R in controls.items()} == {
        "unenforced": False, "generic": True}
    # graph: the K6 on the pair_count(4) slot vertices has one edge per
    # off-diagonal slot pair; with the diagonal that is the 21 upper-triangle
    # entries, and the one cyclic identity leaves 20
    assert cg.pair_count(4) + 15 - 1 == cg.generalized_count(4, 4) == 20
    assert cg.independent_component_count(4) == 20
    matching = {}
    for name, R in controls.items():
        k6 = cg.k6_structure(R)
        assert (len(k6.vertices), len(k6.edges)) == (6, 15)
        w = {(e.u, e.v): e.weight for e in k6.edges}
        # the identity on the weights of the matching u1u6, u2u5, u3u4
        matching[name] = 0.0 + w["u1", "u6"] - w["u2", "u5"] + w["u3", "u4"]
        assert matching[name] == cg.cyclic_sum(R, (0, 1, 2, 3))
    assert matching == {"unenforced": 1.0, "generic": 0.0}


def test_table_row_ricci_flat_relations_are_analogy_only():
    violations = {}
    for name, R in _controls().items():
        P, S, L, W = cg.psi(R), cg.sigma(R), cg.lambda_mat(R), cg.omega(R)
        violations[name] = (abs(np.trace(P)), np.abs(S - S.T).max(), np.abs(P + L).max(),
                            abs(np.trace(W)))
    assert violations["unenforced"] == (0.0, 0.0, 0.0, 1.0)
    assert min(violations["generic"]) > 1e-6
    # no fuzzy statement: no fuzzy function takes a contraction, or any tensor
