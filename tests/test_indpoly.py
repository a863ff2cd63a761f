"""Independence polynomial, root isolation, and the free spectrum."""

import itertools
import math
import random

import pytest

from conftest import cycle_graph, naive_has_claw, naive_independence_polynomial, random_graph
from ffsolve.errors import ComplexRootError
from ffsolve.graphs import WeightedGraph, bits, frustration_graph, maximal_cliques
from ffsolve.indpoly import (
    IndependencePolynomial,
    free_spectrum,
    independence_number,
    independent_sets,
    single_particle_energies,
    verify_clique_recurrence,
    weighted_independence_polynomial,
)
from ffsolve.models import chain_model, h5_model, h6_model, junction_model


def h5_printed_polynomial(a, b, c, d, e):
    """Closed form of the five-term model's quartic in u, as x-coefficients."""
    s1 = a * a + b * b + c * c + d * d + e * e
    s2 = a * a * (c * c + d * d) + b * b * (d * d + e * e) + c * c * e * e
    return (1.0, s1, s2)


def h6_printed_polynomial(a, b, c, d, e, f):
    s1 = a * a + b * b + c * c + d * d + e * e + f * f
    s2 = (a * a * (c * c + d * d + f * f) + b * b * (d * d + e * e)
          + c * c * e * e + e * e * f * f)
    return (1.0, s1, s2)


def test_independent_set_counts_c5():
    sets = independent_sets(cycle_graph(5))
    assert [len(sets.get(k, [])) for k in range(3)] == [1, 5, 5]
    assert independence_number(cycle_graph(5)) == 2


def test_independent_sets_edgeless():
    g = WeightedGraph(3)
    total = sum(len(v) for v in independent_sets(g).values())
    assert total == 8


def test_independent_sets_against_naive():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), 0.45)
        got = {frozenset(s) for group in independent_sets(g).values() for s in group}
        naive = set()
        for size in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                if not any(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                    naive.add(frozenset(sub))
        assert got == naive


def test_chain_alpha_is_cell_count():
    for n_cells, k in [(1, 2), (2, 3), (3, 3), (4, 2)]:
        g = frustration_graph(chain_model(n_cells, k))
        assert independence_number(g) == n_cells


def test_h5_polynomial_matches_printed_quartic():
    rng = random.Random(101)
    for _ in range(10):
        cs = [rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for _ in range(5)]
        poly = weighted_independence_polynomial(frustration_graph(h5_model(*cs)))
        expected = h5_printed_polynomial(*cs)
        assert poly.alpha == 2
        for got, want in zip(poly.coeffs, expected):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_h6_polynomial_matches_printed_quartic():
    rng = random.Random(103)
    for _ in range(10):
        cs = [rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for _ in range(6)]
        poly = weighted_independence_polynomial(frustration_graph(h6_model(*cs)))
        expected = h6_printed_polynomial(*cs)
        for got, want in zip(poly.coeffs, expected):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_single_vertex_polynomial():
    g = WeightedGraph(1, weights=[2.5])
    assert weighted_independence_polynomial(g).coeffs == (1.0, 2.5)


def test_polynomial_against_subset_oracle():
    """Elimination DP against naive subset sums, relabelled at random too."""
    rng = random.Random(107)
    for trial in range(150):
        n = rng.randint(1, 12)
        # sparse draws give disconnected graphs and isolated vertices
        g = random_graph(rng, n, rng.choice([0.0, 0.1, 0.25, 0.5, 0.8]), weighted=True)
        weights = [0.0 if rng.random() < 0.15 else w for w in g.weights]
        g = WeightedGraph(n, g.edges(), weights=weights)
        want = naive_independence_polynomial(g)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = WeightedGraph(n, [(perm[i], perm[j]) for i, j in g.edges()],
                                 weights=[weights[perm.index(v)] for v in range(n)])
        for graph in (g, shuffled):
            got = weighted_independence_polynomial(graph).coeffs
            assert len(got) == len(want), trial
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * b, trial


def test_polynomial_on_long_path_matches_closed_form():
    """A 1,200-vertex path: c_k = C(n - k + 1, k), beyond any recursion
    limit and far beyond set enumeration."""
    n = 1200
    poly = weighted_independence_polynomial(
        WeightedGraph(n, [(i, i + 1) for i in range(n - 1)]))
    assert poly.alpha == n // 2
    for k, c in enumerate(poly.coeffs):
        exact = math.comb(n - k + 1, k)
        assert abs(c - exact) <= 1e-12 * exact


def test_polynomial_basics():
    poly = weighted_independence_polynomial(cycle_graph(5))
    assert poly(0.0) == 1.0
    assert poly(1.0) < poly(2.0)  # monotone on x >= 0
    with pytest.raises(ValueError):
        IndependencePolynomial((2.0, 1.0))
    with pytest.raises(ValueError):
        IndependencePolynomial((1.0, -3.0))


def test_clique_recurrence_single_vertex_base():
    g = cycle_graph(5, weights=[1.0, 2.0, 0.5, 1.5, 0.7])
    for v in range(5):
        assert verify_clique_recurrence(g, [v])


def test_clique_recurrence_on_h5_edge_and_junction():
    rng = random.Random(7)
    g5 = frustration_graph(h5_model(*[rng.uniform(0.4, 1.6) for _ in range(5)]))
    assert verify_clique_recurrence(g5, [0, 1])
    hj = junction_model((1, 1, 1), 2, [rng.uniform(0.5, 1.5) for _ in range(12)])
    gj = frustration_graph(hj)
    assert verify_clique_recurrence(gj, list(range(6)))  # the 6-vertex hub


def test_clique_recurrence_every_maximal_clique():
    rng = random.Random(53)
    graphs = [frustration_graph(h5_model(*[rng.uniform(0.3, 1.5) for _ in range(5)])),
              frustration_graph(h6_model(*[rng.uniform(0.3, 1.5) for _ in range(6)])),
              frustration_graph(chain_model(2, 4, [rng.uniform(0.3, 1.5) for _ in range(4)]))]
    graphs += [random_graph(rng, rng.randint(2, 8), 0.5, weighted=True) for _ in range(10)]
    for g in graphs:
        for mask in maximal_cliques(g):
            assert verify_clique_recurrence(g, list(bits(mask)))


def test_clique_recurrence_rejects_non_clique():
    with pytest.raises(ValueError):
        verify_clique_recurrence(cycle_graph(5), [0, 2])


def test_two_term_energy():
    # single edge, weights a^2 and b^2: eps = sqrt(a^2 + b^2)
    g = WeightedGraph(2, [(0, 1)], weights=[9.0, 16.0])
    en = single_particle_energies(weighted_independence_polynomial(g))
    assert en.energies == ((5.0, 1),)


def test_h5_unit_coupling_energies_quadratic_formula():
    poly = weighted_independence_polynomial(frustration_graph(h5_model()))
    assert poly.coeffs == (1.0, 5.0, 5.0)
    en = single_particle_energies(poly)
    exp_low = math.sqrt((5 - math.sqrt(5)) / 2)
    exp_high = math.sqrt((5 + math.sqrt(5)) / 2)
    assert abs(en.energies[0][0] - exp_low) < 1e-12
    assert abs(en.energies[1][0] - exp_high) < 1e-12
    assert en.residual < 1e-12


def test_repeated_root_multiplicity():
    # two disjoint unit-weight vertices: P = (1 + x)^2
    g = WeightedGraph(2, weights=[1.0, 1.0])
    poly = weighted_independence_polynomial(g)
    assert poly.coeffs == (1.0, 2.0, 1.0)
    en = single_particle_energies(poly)
    assert en.energies == ((1.0, 2),)
    # three disjoint: multiplicity 3
    g3 = WeightedGraph(3, weights=[1.0, 1.0, 1.0])
    en3 = single_particle_energies(weighted_independence_polynomial(g3))
    assert en3.energies[0][1] == 3
    # mixed: (1+x)^2 (1+4x), roots x = -1 (double) and -1/4, so eps = 1, 1, 2
    en_mixed = single_particle_energies(IndependencePolynomial((1.0, 6.0, 9.0, 4.0)))
    assert [(round(e, 9), m) for e, m in en_mixed.energies] == [(1.0, 2), (2.0, 1)]


def test_claw_free_real_rootedness():
    """Random positive weights on claw-free graphs give all real roots."""
    rng = random.Random(61)
    solved = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.8), weighted=True)
        if naive_has_claw(g):
            continue
        poly = weighted_independence_polynomial(g)
        if poly.alpha < 1:
            continue
        en = single_particle_energies(poly)  # must not raise
        assert en.total == poly.alpha
        solved += 1
    assert solved > 60


def test_root_residuals_small():
    rng = random.Random(67)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 8), 0.6, weighted=True)
        if naive_has_claw(g):
            continue
        poly = weighted_independence_polynomial(g)
        if poly.alpha < 1:
            continue
        en = single_particle_energies(poly)
        for e, _ in en.energies:
            x = -1.0 / (e * e)
            scale = sum(abs(c * x ** k) for k, c in enumerate(poly.coeffs))
            assert abs(poly(x)) <= 1e-11 * scale


def test_complex_roots_detected():
    # 1 + x + x^2 has complex roots; degree says two energies, none real
    with pytest.raises(ComplexRootError):
        single_particle_energies(IndependencePolynomial((1.0, 1.0, 1.0)))


def test_free_spectrum_examples():
    # single weight-4 vertex: P = 1 + 4x, eps = 2
    one = single_particle_energies(IndependencePolynomial((1.0, 4.0)))
    assert one.energies == ((2.0, 1),)
    assert free_spectrum(one, 1) == [(-2.0, 1), (2.0, 1)]

    # (1+x)(1+4x): eps = 1 and 2
    two = single_particle_energies(IndependencePolynomial((1.0, 5.0, 4.0)))
    assert [round(e, 12) for e, _ in two.energies] == [1.0, 2.0]
    assert free_spectrum(two, 2) == [(-3.0, 1), (-1.0, 1), (1.0, 1), (3.0, 1)]

    # alpha=2 on three qubits: four levels, each doubled
    h5 = single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h5_model())))
    spec = free_spectrum(h5, 3)
    assert len(spec) == 4
    assert all(d == 2 for _, d in spec)


def test_free_spectrum_total_degeneracy():
    rng = random.Random(71)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.6, weighted=True)
        if naive_has_claw(g):
            continue
        poly = weighted_independence_polynomial(g)
        if poly.alpha < 1:
            continue
        en = single_particle_energies(poly)
        n = g.n + 2
        assert sum(d for _, d in free_spectrum(en, n)) == 1 << n


def test_free_spectrum_alpha_exceeds_n():
    en = single_particle_energies(IndependencePolynomial((1.0, 2.0, 1.0)))
    with pytest.raises(ValueError):
        free_spectrum(en, 1)


def test_zero_weight_vertex_drops_degree():
    g = WeightedGraph(2, weights=[1.0, 0.0])
    poly = weighted_independence_polynomial(g)
    assert poly.alpha == 1
