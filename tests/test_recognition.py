"""Claw / even-hole / simplicial-clique searches against naive oracles."""

import itertools
import random

import networkx as nx
import pytest

from conftest import (
    cycle_graph,
    naive_has_claw,
    naive_has_even_hole,
    naive_is_simplicial_clique,
    random_graph,
)
from ffsolve.errors import SearchBudgetError
from ffsolve.graphs import WeightedGraph, frustration_graph
from ffsolve.models import chain_model, h6_model, junction_graph
from ffsolve.recognition import (
    classify,
    find_claw,
    find_even_hole,
    find_simplicial_cliques,
    find_twins,
    is_chordal,
)


def star(leaves=3):
    return WeightedGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_find_claw_examples():
    assert find_claw(star()) is not None
    assert find_claw(cycle_graph(5)) is None
    assert find_claw(frustration_graph(h6_model())) is None


def test_claw_witness_induces_k13():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        w = find_claw(g)
        assert (w is not None) == naive_has_claw(g)
        if w is not None:
            found += 1
            center, leaves = w
            assert all(g.has_edge(center, v) for v in leaves)
            assert not any(g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2))
    assert found > 20


def test_find_even_hole_examples():
    assert find_even_hole(cycle_graph(4)) is not None
    assert len(find_even_hole(cycle_graph(4))) == 4
    assert find_even_hole(cycle_graph(5)) is None
    assert find_even_hole(cycle_graph(6)) is not None
    g = frustration_graph(chain_model(3, 3, periodic=True))
    assert find_even_hole(g) is not None


def test_even_hole_witness_is_chordless_even_cycle():
    rng = random.Random(37)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 9), 0.35)
        w = find_even_hole(g)
        assert (w is not None) == naive_has_even_hole(g)
        if w is not None:
            found += 1
            assert len(w) >= 4 and len(w) % 2 == 0
            edges = {(min(a, b), max(a, b))
                     for a, b in zip(w, w[1:] + (w[0],))}
            induced = {(min(a, b), max(a, b)) for a, b in itertools.combinations(w, 2)
                       if g.has_edge(a, b)}
            assert induced == edges
    assert found > 20


def test_even_hole_budget_raises():
    g = random_graph(random.Random(1), 12, 0.5)
    with pytest.raises(SearchBudgetError):
        find_even_hole(g, budget=3)


def _tree_line_graph(rng: random.Random, edges: int) -> WeightedGraph:
    tree = [(rng.randrange(v), v) for v in range(1, edges + 1)]
    return WeightedGraph(edges, [(i, j) for i, j in itertools.combinations(range(edges), 2)
                                 if set(tree[i]) & set(tree[j])])


def test_chordal_graphs_need_no_hole_search():
    graphs = [frustration_graph(chain_model(16, 3)),
              frustration_graph(chain_model(6, 6)),
              junction_graph((3, 2, 2), 3),
              _tree_line_graph(random.Random(5), 30)]
    for g in graphs:
        assert is_chordal(g)
        assert find_even_hole(g, budget=0) is None


def test_is_chordal_against_networkx():
    rng = random.Random(47)
    chordal = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.9))
        ref = nx.Graph(g.edges())
        ref.add_nodes_from(range(g.n))
        assert is_chordal(g) == nx.is_chordal(ref)
        chordal += is_chordal(g)
    assert 60 < chordal < 240


def test_simplicial_cliques_on_c5():
    cliques = find_simplicial_cliques(cycle_graph(5))
    # every edge is simplicial, no singleton is
    assert sorted(cliques) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_isolated_vertex_is_simplicial():
    g = WeightedGraph(1)
    assert find_simplicial_cliques(g) == [(0,)]


def test_h6_maximal_cliques_all_simplicial():
    from ffsolve.graphs import maximal_cliques, bits
    g = frustration_graph(h6_model())
    simp = set(find_simplicial_cliques(g))
    for m in maximal_cliques(g):
        assert tuple(bits(m)) in simp


def test_simplicial_cliques_against_naive():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        got = set(find_simplicial_cliques(g))
        naive = set()
        for size in range(1, g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                if naive_is_simplicial_clique(g, sub):
                    naive.add(sub)
        assert got == naive


def test_classify_aggregates():
    rep = classify(cycle_graph(5))
    assert rep.ecf is True and rep.claw_free and rep.even_hole_free
    rep = classify(star())
    assert rep.ecf is False and rep.claw_witness is not None
    rep = classify(cycle_graph(4))
    assert rep.ecf is False and rep.even_hole_witness is not None
    d = rep.to_dict()
    assert d["ecf"] is False and d["even_hole_witness"] is not None


def test_classify_undecided_propagates():
    g = random_graph(random.Random(2), 12, 0.5)
    rep = classify(g, hole_budget=3)
    assert rep.undecided and rep.even_hole_free is None
    # claw-free graphs with budget exhaustion stay undecided on ecf
    assert rep.ecf is None or rep.claw_witness is not None


def test_ecf_implies_simplicial_clique_exists():
    rng = random.Random(43)
    checked = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7))
        rep = classify(g)
        if rep.ecf:
            checked += 1
            assert rep.simplicial_cliques
    assert checked > 40


def test_twins_and_closed_duplicates():
    # 0 and 1 are nonadjacent with the same open neighborhood {2, 3}
    g = WeightedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert (0, 1) in find_twins(g)
    rep = classify(g)
    assert (0, 1) in rep.twins
    # adjacent pair sharing closed neighborhood: a triangle's vertices
    tri = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert (0, 1) in classify(tri).closed_duplicates
