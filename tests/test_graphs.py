"""Weighted graphs and frustration graph construction."""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    edge_list,
    maximal_cliques,
    pairwise_frustration_graph,
    random_graph,
    stable_sets,
    to_dense,
    without,
    zero_weights,
)
from ffsolve.graphs import (
    WeightedGraph,
    bits,
    component_count,
    frustration_graph,
)
from ffsolve.indpoly import weighted_independence_polynomial
from ffsolve.models import (
    Hamiltonian,
    back_to_back_model,
    chain_model,
    h5_model,
    h6_model,
    junction_model,
)
from ffsolve.paulis import OperatorSum, PauliTerm


def test_simple_graph_invariants():
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1)], weights=[1.0, -0.5])
    g = WeightedGraph(3, [(0, 1), (1, 0)])  # parallel edge collapses
    assert edge_list(g) == [(0, 1)]


def test_h5_frustration_graph_is_five_cycle():
    g = frustration_graph(h5_model(1, 2, 3, 4, 5))
    assert g.n == 5
    assert sorted(edge_list(g)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert g.weights == (1.0, 4.0, 9.0, 16.0, 25.0)


def test_single_term_graph():
    h = chain_model(1, 2)
    sub = frustration_graph(h)
    assert sub.n == 2
    from ffsolve.models import Hamiltonian
    single = Hamiltonian(h.n, (h.terms[0],))
    g1 = frustration_graph(single)
    assert g1.n == 1 and edge_list(g1) == []


def test_chain_graph_is_unit_interval():
    for n_cells, k in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        g = frustration_graph(chain_model(n_cells, k))
        n = n_cells * k
        expected = [(i, j) for i in range(n) for j in range(i + 1, n) if j - i < k]
        assert sorted(edge_list(g)) == expected


def test_back_to_back_edges_match_hand_derivation():
    # pairwise anticommutation worked out symbol by symbol from the term list
    g = frustration_graph(back_to_back_model())
    assert sorted(edge_list(g)) == [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]


def test_frustration_graph_basis_faithful_dense():
    """Edges match anticommutation of the dense matrices, term pair by pair."""
    models = [h5_model(1.0, 0.7, -1.3, 0.4, 2.0), h6_model(*[1.1, 0.3, 0.9, -0.7, 1.4, 0.6]),
              chain_model(2, 3, [1.0, -0.8, 1.2]), back_to_back_model(1, 2, 3, 4, 5, 6)]
    for h in models:
        g = frustration_graph(h)
        dense = [to_dense(OperatorSum.from_term(t)) for _, t in h.terms]
        for i in range(g.n):
            for j in range(i + 1, g.n):
                anti = np.max(np.abs(dense[i] @ dense[j] + dense[j] @ dense[i]))
                assert g.adj[i] >> j & 1 == (anti < 1e-12)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 200), st.integers(1, 24), st.sampled_from([0.01, 0.1, 0.5, 1.0]),
       st.integers(0, 2**32))
def test_frustration_graph_matches_pairwise_reference(n, count, density, seed):
    """On 1-200 qubits (words of 1-4 machine words), with sparse and dense
    strings, the rows and weights equal those of the pair loop."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        support = [q for q in range(n) if rng.random() < density] or [rng.randrange(n)]
        pairs.append((rng.uniform(0.1, 2.0) * rng.choice((-1, 1)),
                      PauliTerm.from_ops(n, {q: rng.choice("XYZ") for q in support})))
    h = Hamiltonian.from_pairs(pairs, n=n)
    got, want = frustration_graph(h), pairwise_frustration_graph(h)
    assert (got.n, got.adj, got.weights) == (want.n, want.adj, want.weights)


def test_c5_minus_closed_neighborhood_is_path_on_two():
    g = cycle_graph(5)
    sub = without(g, bits(g.closed_adj(0)))
    assert (sub.n, edge_list(sub)) == (2, [(0, 1)])
    zeroed = zero_weights(g, bits(g.closed_adj(0)))
    assert weighted_independence_polynomial(zeroed) == weighted_independence_polynomial(sub)


def test_maximal_cliques_c5_and_complete():
    """The networkx reference of the tests keeps isolated vertices."""
    assert sorted(maximal_cliques(cycle_graph(5))) == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    k4 = WeightedGraph(4, list(itertools.combinations(range(4), 2)))
    assert maximal_cliques(k4) == [[0, 1, 2, 3]]
    assert sorted(maximal_cliques(WeightedGraph(3, [(0, 1)]))) == [[0, 1], [2]]


def test_maximal_cliques_against_naive():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        got = {tuple(c) for c in maximal_cliques(g)}
        naive = set()
        for size in range(1, g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                if all(g.adj[a] >> b & 1 for a, b in itertools.combinations(sub, 2)):
                    if not any(all(g.adj[v] >> u & 1 for u in sub)
                               for v in range(g.n) if v not in sub):
                        naive.add(sub)
        assert got == naive


def test_junction_graph_has_hub_clique():
    h = junction_model((1, 1, 1), 2)
    g = frustration_graph(h)
    assert g.n == 12
    hub = (1 << 6) - 1
    assert g.is_clique(hub)


def test_stable_sets_against_itertools():
    """On adjacency rows the independent sets, on complement rows the
    cliques: each set once, the empty set first, and each set after its
    parent, the set without its highest vertex."""
    rng = random.Random(58)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.9))
        complement = [g.full_mask ^ g.closed_adj(v) for v in range(g.n)]
        for rows, joined in ((g.adj, True), (complement, False)):
            got = list(stable_sets(rows))
            want = {sum(1 << v for v in sub)
                    for size in range(g.n + 1)
                    for sub in itertools.combinations(range(g.n), size)
                    if all(g.adj[a] >> b & 1 != joined
                           for a, b in itertools.combinations(sub, 2))}
            assert len(got) == len(want) and set(got) == want
            assert got[0] == 0
            position = {mask: i for i, mask in enumerate(got)}
            for mask in got[1:]:
                parent = mask ^ (1 << (mask.bit_length() - 1))
                assert position[parent] < position[mask]


def test_component_count_against_networkx():
    rng = random.Random(60)
    counts = set()
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.0, 0.5))
        ref = nx.Graph(edge_list(g))
        ref.add_nodes_from(range(g.n))
        assert component_count(g) == nx.number_connected_components(ref)
        counts.add(component_count(g))
    assert {0, 1} < counts and max(counts) >= 4
