"""Parsing, writing, and the built-in model generators."""

import random

import pytest

from conftest import edge_list, plain_from_pairs, random_graph, without
from ffsolve.errors import ModelError, ParseError
from ffsolve.graphs import WeightedGraph, frustration_graph
from ffsolve.indpoly import weighted_independence_polynomial
from ffsolve.models import (
    Hamiltonian,
    chain_model,
    generate_model,
    h5_model,
    h6_model,
    junction_graph,
    junction_model,
    parse_graph,
    parse_hamiltonian,
    realize_graph,
    write_hamiltonian,
)
from ffsolve.paulis import PauliTerm


H5_FILE = """\
# five terms on three qubits
1.0  X0 X1
0.5  Z1
-1.25 Y0 Y1 X2
0.75 Y0 Z1
2.0  X0 Z1
"""


def test_parse_simple():
    h = parse_hamiltonian("1.0 X0 X1")
    assert h.n == 2 and len(h) == 1
    assert h.terms[0] == (1.0, PauliTerm.from_ops(2, {0: "X", 1: "X"}))


def test_parse_h5_file_matches_generator():
    h = parse_hamiltonian(H5_FILE)
    assert h.n == 3 and len(h) == 5
    gen = h5_model(1.0, 0.5, -1.25, 0.75, 2.0)
    assert h == gen


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_hamiltonian("1.0 X0 X0")  # repeated qubit index
    with pytest.raises(ParseError):
        parse_hamiltonian("1.0 W0")
    with pytest.raises(ParseError):
        parse_hamiltonian("nan X0")
    with pytest.raises(ParseError):
        parse_hamiltonian("inf X0")
    with pytest.raises(ParseError):
        parse_hamiltonian("1.0")
    with pytest.raises(ParseError):
        parse_hamiltonian("# only a comment\n\n")


def test_parse_merges_duplicates_and_drops_zeros():
    h = parse_hamiltonian("1.0 X0\n2.0 X0\n0.0 Z0\n1.0 Z1")
    assert len(h) == 2
    assert h.terms[0][0] == 3.0
    # full cancellation of every term is rejected
    with pytest.raises(ParseError):
        parse_hamiltonian("1.0 X0\n-1.0 X0")


def test_hamiltonian_round_trip():
    h = h6_model(1.0, -0.5, 0.25, 2.0, -1.0, 0.125)
    assert parse_hamiltonian(write_hamiltonian(h)) == h


def test_identity_term_rejected():
    with pytest.raises(ModelError):
        Hamiltonian.from_pairs([(1.0, PauliTerm.identity(2))])


def test_graph_file_round_trip():
    text = "p 2\nv 0 1.0\nv 1 4.0\ne 0 1\n"
    g = parse_graph(text)
    assert g.n == 2 and edge_list(g) == [(0, 1)] and g.weights == (1.0, 4.0)


def test_graph_file_isolates_its_weight_zero_vertices():
    """A vertex of weight 0 keeps its label and loses its edges, still
    checked for range and repeats."""
    g = parse_graph("p 4\nv 1 0\ne 0 1\ne 1 2\ne 2 3\n")
    assert (g.n, edge_list(g), g.weights) == (4, [(2, 3)], (1.0, 0.0, 1.0, 1.0))
    with pytest.raises(ParseError, match="^line 4: duplicate edge"):
        parse_graph("p 2\nv 0 0\ne 0 1\ne 1 0")


def test_graph_parse_edge_cases():
    with pytest.raises(ParseError):
        parse_graph("p 2\ne 0 5")
    with pytest.raises(ParseError):
        parse_graph("p 2\ne 0 1\ne 1 0")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("p 2\nv 0 -1.0")
    for text in ("p 0", "p -1", "p 1\nv 0 nan", "p 1\nv 0 inf"):
        with pytest.raises(ParseError):
            parse_graph(text)
    with pytest.raises(ParseError):
        parse_graph("e 0 1")  # missing header
    # a repeated vertex record, a field past the end of a record and a missing
    # field each raise naming the line: no weight is replaced or dropped unread
    for text, line in (("p 2\nv 0 1.0\nv 0 4.0\ne 0 1", 3), ("p 2\ne 0 1 9", 2),
                       ("p 2\nv 0 1.0 7", 2), ("p 2 3\ne 0 1", 1), ("p 2\ne 0", 2)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_graph(text)
    assert parse_graph("p 2\nv 0 1.0\nv 1 4.0\ne 0 1 # a comment").weights == (1.0, 4.0)


def test_h6_with_f_zero_equals_h5_graph():
    g6 = frustration_graph(h6_model(1.0, 0.7, 1.3, 0.4, 2.0, 0.0))
    g5 = frustration_graph(h5_model(1.0, 0.7, 1.3, 0.4, 2.0))
    assert g6 == g5


def test_chain_term_count_and_shape():
    h = chain_model(2, 3)
    assert len(h) == 6 and h.n == 6
    # interior terms keep the full X Y Y shape
    assert h.terms[0][1] == PauliTerm.from_ops(6, {0: "X", 1: "Y", 2: "Y"})
    assert h.terms[3][1] == PauliTerm.from_ops(6, {3: "X", 4: "Y", 5: "Y"})
    tiny = chain_model(1, 2)
    assert len(tiny) == 2
    # every term: X on qubit m, then Y on the next k - 1 qubits, cut at the
    # last qubit when open and wrapped around when periodic
    for periodic in (False, True):
        for n_cells in range(2, 6):
            for k in range(2, 7):
                n = n_cells * k
                h = chain_model(n_cells, k, periodic=periodic)
                assert len(h) == n and h.n == n
                for m, (_, term) in enumerate(h.terms):
                    ops = {m: "X"}
                    ops.update((q % n, "Y") for q in range(m + 1, m + k) if q < n or periodic)
                    assert term == PauliTerm.from_ops(n, ops), (n_cells, k, periodic, m)


def test_chain_invalid_sizes():
    with pytest.raises(ModelError):
        chain_model(0, 2)
    with pytest.raises(ModelError):
        chain_model(2, 1)
    with pytest.raises(ModelError):
        chain_model(1, 3, periodic=True)
    with pytest.raises(ModelError):
        chain_model(2, 3, [1.0])


def test_chain_staggered_couplings():
    h = chain_model(2, 2, [0.5, 1.5])
    assert h.couplings() == (0.5, 1.5, 0.5, 1.5)


def test_periodic_chain_graph_is_circulant():
    g = frustration_graph(chain_model(3, 3, periodic=True))
    n = 9
    for i in range(n):
        for j in range(i + 1, n):
            d = min(j - i, n - (j - i))
            assert g.adj[i] >> j & 1 == (d < 3)


def test_junction_realization_matches_target_graph():
    for arms, k in [((1, 1, 1), 2), ((1, 2), 3), ((2, 1, 1), 2)]:
        target = junction_graph(arms, k)
        got = frustration_graph(junction_model(arms, k))
        assert got == target


def test_junction_with_couplings():
    target = junction_graph((1, 1), 2)
    couplings = [0.5 + 0.1 * i for i in range(target.n)]
    h = junction_model((1, 1), 2, couplings)
    g = frustration_graph(h)
    assert g.adj == target.adj
    assert g.weights == tuple(c * c for c in couplings)


def test_junction_couplings_keep_their_sign():
    """The couplings are those given, signs included: they once went
    through the graph's squared weights and came back as square roots, so
    a seeded junction ran another Hamiltonian than the one its config
    records, and one with a coupling of 0 drops that term."""
    rng = random.Random(4)
    couplings = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(12)]
    couplings[0] = -1.5
    h = junction_model((1, 1, 1), 2, couplings)
    assert h.couplings() == tuple(couplings)
    assert write_hamiltonian(h).startswith("-1.5 X0\n")
    assert frustration_graph(h) == WeightedGraph(12, edge_list(junction_graph((1, 1, 1), 2)),
                                                 weights=[c * c for c in couplings])
    dropped = junction_model((1, 1, 1), 2, [0.0] + couplings[1:])
    assert dropped.couplings() == tuple(couplings[1:]) and dropped.n == 12


def test_realize_graph_faithful():
    rng = random.Random(29)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), 0.45, weighted=True)
        h = realize_graph(g)
        # term i: X on qubit i, Z on each lower-indexed neighbour of vertex i
        for i, (_, term) in enumerate(h.terms):
            ops = {i: "X"}
            ops.update((j, "Z") for j, l in edge_list(g) if l == i)
            assert term == PauliTerm.from_ops(g.n, ops)
        got = frustration_graph(h)
        assert got.adj == g.adj
        # couplings are sqrt(weight), so squaring back costs one rounding
        assert all(abs(a - b) <= 1e-15 * b for a, b in zip(got.weights, g.weights))


def assert_realizes_less_zero_weights(h, g):
    """The frustration graph of ``h`` is ``g`` less its vertices of weight
    0, and the two have one independence polynomial, to the rounding of
    squaring sqrt(weight) back."""
    want = without(g, [v for v in range(g.n) if g.weights[v] == 0])
    got = frustration_graph(h)
    assert (got.n, got.adj) == (want.n, want.adj)
    assert all(abs(a - b) <= 1e-15 * b for a, b in zip(got.weights, want.weights))
    p_got = weighted_independence_polynomial(got).coeffs
    p_want = weighted_independence_polynomial(g).coeffs
    assert len(p_got) == len(p_want)
    assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(p_got, p_want))


def test_realize_graph_drops_weight_zero_vertices():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), 0.45, weighted=True)
        zero = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        g = WeightedGraph(g.n, edge_list(g), weights=[0.0 if v in zero else w
                                                   for v, w in enumerate(g.weights)])
        h = realize_graph(g)
        assert len(h.terms) == g.n - len(zero) and h.n == g.n
        assert_realizes_less_zero_weights(h, g)
    # the path 0-1-2 with a middle vertex of weight 0 leaves two commuting terms
    h = realize_graph(WeightedGraph(3, [(0, 1), (1, 2)], weights=[1.0, 0.0, 2.0]))
    assert len(h.terms) == 2 and frustration_graph(h).adj == (0, 0)
    with pytest.raises(ModelError):
        realize_graph(WeightedGraph(2, [(0, 1)], weights=[0.0, 0.0]))


def test_junction_with_a_zero_coupling():
    target = junction_graph((1, 1, 1), 3)
    for zero in (0, 7, target.n - 1):
        couplings = [0.0 if v == zero else 0.5 + 0.1 * v for v in range(target.n)]
        g = WeightedGraph(target.n, edge_list(target), weights=[c * c for c in couplings])
        h = junction_model((1, 1, 1), 3, couplings)
        assert len(h.terms) == target.n - 1
        assert_realizes_less_zero_weights(h, g)


def test_generate_model_dispatch():
    assert generate_model("h5") == h5_model()
    assert generate_model("chain", n_cells=2, k=3) == chain_model(2, 3)
    with pytest.raises(ModelError):
        generate_model("nope")
    with pytest.raises(ModelError):
        generate_model("h5", couplings=[1.0])
    with pytest.raises(ModelError):
        generate_model("chain", k=3)


MODELS = [
    ("h5", {}), ("h5", {"couplings": [1.0, -0.5, 2.0, 0.25, -1.5]}), ("h6", {}),
    ("back_to_back", {"couplings": [0.5, 1.0, -1.0, 2.0, 0.75, 1.25]}),
    ("chain", {"n_cells": 4, "k": 3}), ("chain", {"n_cells": 5, "k": 4, "couplings": [1.0, -0.7, 1.3, 0.9]}),
    ("chain", {"n_cells": 3, "k": 3, "periodic": True}),
    ("chain", {"n_cells": 2, "k": 2, "couplings": [1e-160, -1e150], "periodic": True}),
    ("junction", {"arm_cells": (2, 1, 1), "k": 3}),
    ("junction", {"arm_cells": (1, 1), "k": 2, "couplings": [0.5 + 0.25 * i for i in range(8)]}),
]


@pytest.mark.parametrize("name,kwargs", MODELS)
def test_models_keep_the_terms_they_build(name, kwargs, monkeypatch):
    """``from_pairs`` keeps a term on n qubits as it is given instead of
    building it again, and every model, parsed file and realized graph
    comes out equal to the one built with a new term for every label:
    the same qubit count, couplings and Pauli strings, in the same order."""
    built = generate_model(name, **kwargs)
    monkeypatch.setattr(Hamiltonian, "from_pairs", classmethod(
        lambda cls, pairs, n=None: plain_from_pairs(pairs, n)))
    rebuilt = generate_model(name, **kwargs)
    assert built == rebuilt and repr(built) == repr(rebuilt)
    assert all(term.n == built.n for _, term in built.terms)


def test_parsing_and_realizing_keep_the_terms_they_build(monkeypatch):
    """Parsing merges a repeated label and drops a coupling that cancels;
    realizing drops a vertex of weight 0.  Both agree with the terms built
    anew for every label."""
    text = H5_FILE + "0.5 Z1\n0.25 X3\n-0.25 X3\n"
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 0.0, 2.0, 0.5])
    built = (parse_hamiltonian(text), realize_graph(g))
    monkeypatch.setattr(Hamiltonian, "from_pairs", classmethod(
        lambda cls, pairs, n=None: plain_from_pairs(pairs, n)))
    rebuilt = (parse_hamiltonian(text), realize_graph(g))
    assert built == rebuilt and repr(built) == repr(rebuilt)
    assert built[0].n == 4 and len(built[0]) == 5 and built[0].terms[1][0] == 1.0
    assert built[1].n == 4 and len(built[1]) == 3
