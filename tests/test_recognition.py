"""Claw / even-hole / simplicial-clique searches against naive oracles."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    edge_list,
    is_induced_cycle,
    maximal_cliques,
    naive_has_claw,
    naive_has_even_hole,
    naive_independence_polynomial,
    naive_is_simplicial_clique,
    naive_simplicial_cliques,
    plain_find_claw,
    plain_find_even_hole,
    plain_is_chordal,
    random_graph,
    relabel,
)
from ffsolve.errors import ComplexRootError, SearchBudgetError
from ffsolve.graphs import WeightedGraph, frustration_graph
from ffsolve.indpoly import single_particle_energies, weighted_independence_polynomial
from ffsolve.models import chain_model, h6_model, junction_graph, parse_graph
from ffsolve.recognition import (
    HOLE_SEARCH_BUDGET,
    classify,
    find_claw,
    find_even_hole,
    is_chordal,
    is_simplicial_clique,
    smallest_simplicial_clique,
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
            assert all(g.adj[center] >> v & 1 for v in leaves)
            assert not any(g.adj[a] >> b & 1 for a, b in itertools.combinations(leaves, 2))
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
                       if g.adj[a] >> b & 1}
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
        ref = nx.Graph(edge_list(g))
        ref.add_nodes_from(range(g.n))
        assert is_chordal(g) == nx.is_chordal(ref)
        chordal += is_chordal(g)
    assert 60 < chordal < 240


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def test_simplicial_cliques_on_c5():
    g = cycle_graph(5)
    edges = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    # every edge is simplicial, no singleton is
    assert sorted(naive_simplicial_cliques(g)) == edges
    assert [e for e in itertools.combinations(range(5), 2)
            if is_simplicial_clique(g, _mask(e))] == edges
    assert not any(is_simplicial_clique(g, 1 << v) for v in range(5))
    assert smallest_simplicial_clique(g) == (0, 1)


def test_isolated_vertex_is_simplicial():
    g = WeightedGraph(1)
    assert list(naive_simplicial_cliques(g)) == [(0,)]
    assert smallest_simplicial_clique(g) == (0,)


def test_a_weight_zero_vertex_is_no_simplicial_clique():
    """A vertex of weight 0 is no term of H.  In the star file whose centre
    0 has weight 0, the centre is left isolated, and simplicial, but the
    clique reported is leaf 1; a graph of zero weights has none."""
    star = parse_graph("p 4\nv 0 0\nv 1 1.0\nv 2 0.5\nv 3 2.0\ne 0 1\ne 0 2\ne 0 3\n")
    assert smallest_simplicial_clique(star) == (1,)
    assert classify(star).simplicial_clique == (1,)
    assert smallest_simplicial_clique(WeightedGraph(3, weights=[0.0] * 3)) is None


def test_h6_maximal_cliques_all_simplicial():
    g = frustration_graph(h6_model())
    simp = set(naive_simplicial_cliques(g))
    for clique in maximal_cliques(g):
        assert tuple(clique) in simp and is_simplicial_clique(g, _mask(clique))


def _assert_smallest_is_first_minimal(g):
    """The search returns the first simplicial clique of the brute-force
    enumeration by size, then lexicographically, or None when it finds none."""
    got = smallest_simplicial_clique(g)
    assert got == next(naive_simplicial_cliques(g), None)
    return got


def test_smallest_simplicial_clique_is_first_minimal():
    rng = random.Random(53)
    sizes, none = set(), 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.9))
        got = _assert_smallest_is_first_minimal(g)
        if got is None:
            none += 1
        else:
            sizes.add(len(got))
    # the draws reach cliques above size 1 and graphs with none at all
    assert none > 0 and max(sizes) >= 3


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))))
def test_smallest_simplicial_clique_property(n, pairs):
    edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j and max(i, j) < n}
    _assert_smallest_is_first_minimal(WeightedGraph(n, edges))


def test_smallest_simplicial_clique_against_naive():
    """Simplicial by the brute-force definition, and no smaller or
    lexicographically earlier clique of its size is."""
    rng = random.Random(59)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
        assert smallest_simplicial_clique(g) == next(naive_simplicial_cliques(g), None)


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
            assert rep.simplicial_clique is not None
    assert checked > 40


@st.composite
def dense_graphs(draw):
    """Graphs on 1-9 vertices, each pair an edge with even odds: dense
    enough that claws, even holes and undecided searches all occur."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, list(itertools.compress(pairs, picks)))


@settings(max_examples=150, deadline=None)
@given(dense_graphs(), st.sampled_from([1, 10, HOLE_SEARCH_BUDGET]))
def test_verdicts_follow_from_the_witnesses(g, budget):
    """A claw refutes ECF whatever the hole search; an undecided search
    leaves ``even_hole_free`` null, and ``ecf`` too when there is no claw;
    otherwise ``ecf`` is ``even_hole_free``.  The witnesses agree with the
    naive searches, and only an ECF graph carries its simplicial clique."""
    d = classify(g, hole_budget=budget).to_dict()
    assert d["claw_free"] == (d["claw_witness"] is None) == (not naive_has_claw(g))
    assert (d["even_hole_free"] is None) == d["undecided"]
    if not d["undecided"]:
        assert d["even_hole_free"] == (d["even_hole_witness"] is None) == (not naive_has_even_hole(g))
    if not d["claw_free"]:
        assert d["ecf"] is False
    elif d["undecided"]:
        assert d["ecf"] is None
    else:
        assert d["ecf"] == d["even_hole_free"]
    assert (d["simplicial_clique"] is not None) == (d["ecf"] is True)


@st.composite
def claw_free_graphs(draw):
    """Weighted claw-free graphs on at most 12 vertices: the line graph of
    a graph with at most 12 edges, or a graph on at most 9 vertices
    without a claw.  The weights repeat, so repeated roots occur."""
    if draw(st.booleans()):
        pairs = list(itertools.combinations(range(draw(st.integers(2, 8))), 2))
        base = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
        n = len(base)
        edges = [(i, j) for i in range(n) for j in range(i) if set(base[i]) & set(base[j])]
    else:
        n = draw(st.integers(1, 9))
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = list(itertools.compress(pairs, picks))
        assume(not naive_has_claw(WeightedGraph(n, edges)))
    weights = draw(st.lists(st.sampled_from((0.25, 0.7, 1.0, 1.3, 2.0)), min_size=n, max_size=n))
    return WeightedGraph(n, edges, weights=weights)


def _hole_in(g: WeightedGraph, hole) -> bool:
    """``hole`` lists, in order around it, an induced cycle of even length."""
    ring = zip(hole, hole[1:] + hole[:1])
    return (len(hole) % 2 == 0 and is_induced_cycle(g, hole)
            and all(g.adj[a] >> b & 1 for a, b in ring))


@settings(max_examples=150, deadline=None)
@given(claw_free_graphs(), st.data())
def test_relabeling_changes_no_answer(g, data):
    """The answer depends on the graph, not on its labels: relabeled, a
    claw-free graph gets the same verdicts, its witnesses mapped through
    the permutation are witnesses of the relabeled graph and back, and
    the polynomial and the energies agree to 1e-12."""
    perm = data.draw(st.permutations(range(g.n)))
    inverse = [0] * g.n
    for v, p in enumerate(perm):
        inverse[p] = v
    h = relabel(g, perm)
    a, b = classify(g), classify(h)
    assert a.claw_witness is None and b.claw_witness is None
    assert (a.undecided, a.even_hole_free, a.ecf) == (b.undecided, b.even_hole_free, b.ecf)
    if a.even_hole_witness:
        assert _hole_in(h, tuple(perm[v] for v in a.even_hole_witness))
        assert _hole_in(g, tuple(inverse[v] for v in b.even_hole_witness))
    if a.simplicial_clique:
        assert len(a.simplicial_clique) == len(b.simplicial_clique)
        assert naive_is_simplicial_clique(h, [perm[v] for v in a.simplicial_clique])
        assert naive_is_simplicial_clique(g, [inverse[v] for v in b.simplicial_clique])
    pg, ph = weighted_independence_polynomial(g), weighted_independence_polynomial(h)
    assert len(pg.coeffs) == len(ph.coeffs)
    assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(pg.coeffs, ph.coeffs))
    answers = []
    for poly in (pg, ph):
        try:
            answers.append(single_particle_energies(poly).energies)
        except ComplexRootError:
            answers.append(None)
    eg, eh = answers
    assert (eg is None) == (eh is None)
    if eg is not None:
        assert [m for _, m in eg] == [m for _, m in eh]
        assert all(math.isclose(x, y, rel_tol=1e-12) for (x, _), (y, _) in zip(eg, eh))


@st.composite
def front_end_graphs(draw):
    """Graphs on at most 16 vertices of four kinds: line graphs of graphs
    with at most 16 edges (claw-free), open and periodic chains, random
    graphs with a claw planted in them, each relabeled or not.  The
    weights include 0 and 1e-150, whose products underflow."""
    kind = draw(st.sampled_from(("line", "chain", "claw")))
    if kind == "line":
        pairs = list(itertools.combinations(range(draw(st.integers(2, 8))), 2))
        base = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=16, unique=True))
        n = len(base)
        edges = [(i, j) for i in range(n) for j in range(i) if set(base[i]) & set(base[j])]
    elif kind == "chain":
        k = draw(st.integers(2, 4))
        cells = draw(st.integers(2, 16 // k))
        n, periodic = cells * k, draw(st.booleans())
        edges = edge_list(frustration_graph(chain_model(cells, k, periodic=periodic)))
    else:
        n = draw(st.integers(4, 16))
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        center, *leaves = draw(st.permutations(range(n)))[:4]
        claw = {tuple(sorted((center, leaf))) for leaf in leaves}
        apart = set(itertools.combinations(sorted(leaves), 2))
        edges = [e for e in itertools.compress(pairs, picks) if e not in apart]
        edges = sorted(set(edges) | claw)
    # on half the graphs most weights are 1e-150, so that c_alpha underflows
    palette = draw(st.sampled_from([(0.0, 1e-150, 0.25, 0.7, 1.0, 1.3, 2.0),
                                    (0.0, 1e-150, 1e-150, 1e-150, 1.0)]))
    weights = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    g = WeightedGraph(n, edges, weights=weights)
    if draw(st.booleans()):
        g = relabel(g, draw(st.permutations(range(n))))
    return g


def _alpha(g: WeightedGraph, mask: int) -> int:
    """The largest number of pairwise nonadjacent vertices of ``mask``."""
    if not mask:
        return 0
    v = (mask & -mask).bit_length() - 1
    return max(_alpha(g, mask & ~(1 << v)), 1 + _alpha(g, mask & ~g.adj[v] & ~(1 << v)))


def _hole_or_budget(search, g: WeightedGraph, budget: int):
    try:
        return search(g, budget)
    except SearchBudgetError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(front_end_graphs(), st.sampled_from([3, 30, HOLE_SEARCH_BUDGET]))
# the path 0-1-2 closes an even hole at 3 or at 4, and the first is taken
@example(WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 3), (0, 4), (3, 4)]),
         HOLE_SEARCH_BUDGET)
def test_inlined_loops_match_the_plain_ones(g, budget):
    """The loops that walk the bitmask rows inline give what the ones
    written with ``bits`` and ``closed_adj`` give: the same claw and hole
    witnesses, the same budget error, the same chordality.  The DP's
    integer coefficients are those of the enumeration, and their length
    is alpha of the vertices of positive weight."""
    assert find_claw(g) == plain_find_claw(g)
    assert is_chordal(g) == plain_is_chordal(g)
    assert _hole_or_budget(find_even_hole, g, budget) == _hole_or_budget(plain_find_even_hole, g, budget)
    poly = weighted_independence_polynomial(g)
    positive = sum(1 << v for v, w in enumerate(g.weights) if w)
    assert poly.alpha == _alpha(g, positive)
    assert (list(poly.ints), poly.shift) == naive_independence_polynomial(g)
