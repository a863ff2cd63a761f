"""Independence polynomial, root isolation, and the free spectrum."""

import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EPS,
    bisection_energies,
    certify_groups,
    chain_graph,
    chain_polynomial,
    claw_free_graph,
    cycle_graph,
    edge_list,
    exact_count_above,
    exact_polynomial,
    forest_energies,
    forest_line_graph,
    maximal_cliques,
    naive_has_claw,
    naive_independence_polynomial,
    random_forest,
    random_graph,
    record_sweeps,
    reference_free_spectrum,
    stable_sets,
    verify_clique_recurrence,
    without,
    zero_weights,
)
from ffsolve import indpoly
from ffsolve.chains import ChainSpec, chain_energies
from ffsolve.errors import ComplexRootError, ConditioningError
from ffsolve.graphs import WeightedGraph, bits, frustration_graph
from ffsolve.indpoly import (
    ROOT_REL_TOL,
    IndependencePolynomial,
    SingleParticleEnergies,
    free_spectrum,
    roots_by_count,
    single_particle_energies,
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
    sizes = [mask.bit_count() for mask in stable_sets(cycle_graph(5).adj)]
    assert [sizes.count(k) for k in range(4)] == [1, 5, 5, 0]
    assert weighted_independence_polynomial(cycle_graph(5)).alpha == 2


def test_independent_sets_edgeless():
    assert sum(1 for _ in stable_sets(WeightedGraph(3).adj)) == 8


def test_independence_number_against_brute_force():
    """The degree of the polynomial with unit weights."""
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        want = max(size for size in range(n + 1)
                   for sub in itertools.combinations(range(n), size)
                   if not any(g.adj[a] >> b & 1 for a, b in itertools.combinations(sub, 2)))
        assert weighted_independence_polynomial(g).alpha == want


def test_chain_alpha_is_cell_count():
    for n_cells, k in [(1, 2), (2, 3), (3, 3), (4, 2)]:
        g = frustration_graph(chain_model(n_cells, k))
        assert weighted_independence_polynomial(g).alpha == n_cells


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
    """Elimination DP against naive subset sums in integers, exactly,
    relabelled at random too."""
    rng = random.Random(107)
    for trial in range(150):
        n = rng.randint(1, 12)
        # sparse draws give disconnected graphs and isolated vertices
        g = random_graph(rng, n, rng.choice([0.0, 0.1, 0.25, 0.5, 0.8]), weighted=True)
        weights = [0.0 if rng.random() < 0.15 else w for w in g.weights]
        g = WeightedGraph(n, edge_list(g), weights=weights)
        want = naive_independence_polynomial(g)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = WeightedGraph(n, [(perm[i], perm[j]) for i, j in edge_list(g)],
                                 weights=[weights[perm.index(v)] for v in range(n)])
        for graph in (g, shuffled):
            got = weighted_independence_polynomial(graph)
            assert (list(got.ints), got.shift) == want, trial


def test_polynomial_on_long_path_matches_closed_form():
    """A 1,200-vertex path: c_k = C(n - k + 1, k), beyond any recursion
    limit and far beyond set enumeration."""
    n = 1200
    poly = weighted_independence_polynomial(
        WeightedGraph(n, [(i, i + 1) for i in range(n - 1)]))
    assert poly.alpha == n // 2 and poly.shift == 0
    assert poly.ints == tuple(math.comb(n - k + 1, k) for k in range(n // 2 + 1))


def test_polynomial_basics():
    poly = weighted_independence_polynomial(cycle_graph(5))
    assert poly.at(0.0) == 1.0 and poly.at(0.0, slope=True) == 5.0
    assert poly.at(1.0) < poly.at(2.0)  # monotone on x >= 0
    with pytest.raises(ValueError):
        IndependencePolynomial((2, 1), 0)
    with pytest.raises(ValueError):
        IndependencePolynomial((1, -3), 0)
    # c_2 = 0.1 is 3602879701896397 / 2^55, so C_2 = 3602879701896397 * 2 at D = 28
    exact = IndependencePolynomial((1, 1 << 27, 3602879701896397 << 1), 28)
    assert exact.coeffs == (1.0, 0.5, 0.1)
    assert exact_polynomial((1.0, 0.5, 0.1)) == exact


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.floats(-1e3, 1e3))
def test_values_and_slopes_are_exact_then_rounded(seed, x):
    """On random claw-free graphs, a tree's line graph and a G(n, p), P(x)
    and P'(x) are their exact rational values rounded once, at x and at
    -1/e^2 of each energy, where the terms of P cancel."""
    for poly in claw_free_polynomials(seed, 2):
        c = [Fraction(n, 1 << poly.shift * k) for k, n in enumerate(poly.ints)]
        for w in [x] + [-1.0 / (e * e) for e in single_particle_energies(poly).flat()]:
            q = Fraction(w)
            assert poly.at(w) == float(sum(ck * q ** k for k, ck in enumerate(c)))
            assert poly.at(w, slope=True) == float(sum(k * ck * q ** (k - 1)
                                                       for k, ck in enumerate(c) if k))


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
        for clique in maximal_cliques(g):
            assert verify_clique_recurrence(g, clique)


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
    assert en.width <= 1e-15


def test_repeated_root_multiplicity():
    # two disjoint unit-weight vertices: P = (1 + x)^2
    g = WeightedGraph(2, weights=[1.0, 1.0])
    poly = weighted_independence_polynomial(g)
    assert poly.coeffs == (1.0, 2.0, 1.0)
    en = single_particle_energies(poly)
    assert en.energies == ((1.0, 2),)
    # three, four and six disjoint: multiplicity 3, 4 and 6
    for copies in (3, 4, 6):
        disjoint = WeightedGraph(copies, weights=[1.0] * copies)
        en_copies = single_particle_energies(weighted_independence_polynomial(disjoint))
        assert en_copies.energies[0][1] == copies
    # mixed: (1+x)^2 (1+4x), roots x = -1 (double) and -1/4, so eps = 1, 1, 2
    en_mixed = single_particle_energies(IndependencePolynomial((1, 6, 9, 4), 0))
    assert [(round(e, 9), m) for e, m in en_mixed.energies] == [(1.0, 2), (2.0, 1)]
    # (1 + x/2)(1 + x)^2 (1 + 2x): the double root sits between two simple
    # ones, and the cuts between them lie outside its noise
    spread = WeightedGraph(4, weights=[0.5, 1.0, 1.0, 2.0])
    en_spread = single_particle_energies(weighted_independence_polynomial(spread))
    assert [(round(e * e, 12), m) for e, m in en_spread.energies] == [(0.5, 1), (1.0, 2), (2.0, 1)]
    # nine vertices of weight 2 and three of 0.3: (1 + 2x)^9 (1 + 0.3x)^3, whose
    # rounded coefficients spread the ninefold root over the noise of a wide cluster
    tied = WeightedGraph(12, weights=[2.0] * 9 + [0.3] * 3)
    en_tied = single_particle_energies(weighted_independence_polynomial(tied))
    assert [(round(e * e, 9), m) for e, m in en_tied.energies] == [(0.3, 3), (2.0, 9)]


@pytest.mark.parametrize("spec", [ChainSpec(6, 3, (1.0, 2.0**-300, 2.0**-300)),
                                  ChainSpec(7, 3, (2.0**-300, 1.0, 2.0**-280)),
                                  ChainSpec(5, 4, (0.3, 2.0**-250, 2.0**-260, 2.0**-270)),
                                  ChainSpec(8, 2, (2.0**-200, 0.7))])
def test_decoupled_chains_give_one_level_from_complex_seeds(spec, monkeypatch):
    """Chains whose couplings but one are below 2^-200 have N roots within
    2^-100 of each other.  The companion matrix returns its N seeds as a
    disc of complex eigenvalues; the exact counts place the N roots in one
    bracket, which gives the level as ``chains.chain_energies`` does."""
    seeds = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seeds.append(eigvals(a)) or seeds[-1])
    got = single_particle_energies(weighted_independence_polynomial(chain_graph(spec)))
    ((energy, mult),) = got.energies
    assert np.iscomplexobj(seeds[0]) and mult == spec.n_cells and got.width <= ROOT_REL_TOL
    ((want, n),) = chain_energies(spec).energies
    assert n == mult and math.isclose(energy, want, rel_tol=2 * EPS)


def _exact_chain_energies(n_cells, b2):
    """Energies of the chain by 80-digit mpmath: the polynomial vertex by
    vertex, P(G_i) = P(G_(i-1)) + x w_i P(G_(i-k)), then polyroots."""
    k = len(b2)
    with mpmath.workdps(80):
        polys = [[mpmath.mpf(1)]] * k  # P of G_(1-k) .. G_0, all empty graphs
        for i in range(n_cells * k):
            a, b = polys[-1], polys[-k]
            new = list(a) + [mpmath.mpf(0)] * (len(b) + 1 - len(a))
            for j, c in enumerate(b):
                new[j + 1] += mpmath.mpf(b2[i % k]) * c
            polys = polys[1:] + [new]
        roots = mpmath.polyroots(polys[-1][::-1], maxsteps=400, extraprec=400)
        return sorted(float(1 / mpmath.sqrt(-mpmath.re(x))) for x in roots)


@pytest.mark.parametrize("n_cells,b2", [(10, (1.0, 0.49, 1.69)), (20, (1.0, 0.49, 1.69)),
                                        (22, (1.0, 0.49, 1.69)), (40, (1.0, 0.49, 1.69)),
                                        (17, (0.3, 0.9, 0.5))])
def test_generic_path_is_right_or_refuses(n_cells, b2):
    """The monomial coefficients of chain polynomials in floats lost the
    roots to rounding as alpha grew; the exact ones keep them.  Every
    alpha here is solved: each group of energies, widened by 1e-14, holds
    as many roots as it has members by an exact count, and up to alpha =
    22, where polyroots takes about a second, the energies are within
    1e-14 of the 80-digit ones."""
    poly = weighted_independence_polynomial(chain_graph(ChainSpec(n_cells, len(b2), b2)))
    got = single_particle_energies(poly)
    certify_groups(lambda w: exact_count_above(poly, w), n_cells, got, 1e-14)
    if n_cells <= 22:
        want = _exact_chain_energies(n_cells, b2)
        assert max(abs(a - b) / b for a, b in zip(got.flat(), want)) <= 1e-14


def test_roots_are_placed_below_the_float_noise():
    """Uniform chain 14x3 has integer coefficients, so its roots are those
    of the exact polynomial.  They are placed within 1e-15 of 80-digit
    ones; the float evaluation noise alone left them 2.7e-10 away."""
    poly = chain_polynomial(ChainSpec(14, 3, (1.0, 1.0, 1.0)))
    got = single_particle_energies(poly).flat()
    want = _exact_chain_energies(14, (1.0, 1.0, 1.0))
    assert max(abs(a - b) / b for a, b in zip(got, want)) <= 1e-15


def test_forest_reference_against_exact_roots():
    """The Jordan-Wigner energies of a weighted forest are the roots of P
    of its line graph: against 50-digit roots of P summed over its
    independent sets, on forests of one to three trees and 1-10 edges."""
    rng = random.Random(5)
    for _ in range(30):
        n, edges, b = random_forest(rng, rng.randint(1, 10), trees=rng.randint(1, 3))
        g = forest_line_graph(edges, b)
        with mpmath.workdps(50):
            coeffs = [mpmath.mpf(0)] * (g.n + 1)
            for s in stable_sets(g.adj):
                coeffs[s.bit_count()] += mpmath.fprod(mpmath.mpf(b[e]) ** 2 for e in bits(s))
            while not coeffs[-1]:
                coeffs.pop()
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
            want = sorted(float(1 / mpmath.sqrt(-mpmath.re(x))) for x in roots)
        got = forest_energies(n, edges, b)
        assert len(got) == len(want)
        assert max(abs(a - w) / w for a, w in zip(got, want)) <= 1e-12


def forest_cases():
    """360 weighted trees of 10-50 edges, each as its vertex count, edges
    and weights, and the polynomial of its line graph."""
    rng = random.Random(1)
    for _ in range(360):
        n, edges, b = random_forest(rng, rng.randint(10, 50))
        yield n, edges, b, weighted_independence_polynomial(forest_line_graph(edges, b))


def test_forest_line_graphs_are_right_or_refuse():
    """Line graphs of weighted trees of 10-50 edges: each is solved to
    1e-12 of the Jordan-Wigner energies.  With float coefficients 279 of
    the 360 were, the worst to 2.9e-9, and the refusals started at alpha
    = 13."""
    for n, edges, b, poly in forest_cases():
        got = single_particle_energies(poly).flat()
        want = forest_energies(n, edges, b)
        assert len(got) == len(want) == poly.alpha
        assert max(abs(a - w) / w for a, w in zip(got, want)) <= 1e-12


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
            assert abs(poly.at(x)) <= 1e-11 * scale


def claw_free_polynomials(seed: int, count: int) -> list[IndependencePolynomial]:
    """Polynomials with 1 <= alpha <= 12 of random weighted claw-free
    graphs, ``conftest.claw_free_graph``: in turn the line graph of a
    random tree with a few more edges, and a small G(n, p) without a claw."""
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        poly = weighted_independence_polynomial(claw_free_graph(rng, not len(polys) % 2))
        if 1 <= poly.alpha <= 12:
            polys.append(poly)
    return polys


def test_generic_roots_match_midpoint_bisection():
    """The polished and certified roots give the bisection's energies and
    multiplicities, certified by an exact count, on the generic corpus."""
    polys = claw_free_polynomials(29, 60)
    assert max(p.alpha for p in polys) >= 8
    for poly in polys:
        assert_matches_bisection(poly, single_particle_energies(poly))


def solve_or_refuse(poly: IndependencePolynomial):
    """The energies of ``poly``, or None where they are refused."""
    try:
        return single_particle_energies(poly)
    except (ComplexRootError, ConditioningError):
        return None


def assert_matches_bisection(poly, got, rel: float = 1e-12) -> None:
    """The multiplicities of the bisection reference, squared energies
    within 2 ROOT_REL_TOL of its own, which both isolate by exact counts,
    and every group of ``got``, widened by ``rel``, certified by an exact
    count."""
    want = bisection_energies(poly)
    assert [m for _, m in got.energies] == [m for _, m in want.energies]
    for (a, _), (b, _) in zip(got.energies, want.energies):
        assert math.isclose(a * a, b * b, rel_tol=2 * ROOT_REL_TOL), (a, b)
    certify_groups(lambda w: exact_count_above(poly, w), poly.alpha, got, rel)


def test_isolation_and_polish_equal_full_refinement():
    """On the forest line graphs, alpha up to 22, every root is the exact
    one: the groups of energies, each widened by 1e-13, hold as many roots
    as they have members by an exact count, so the multiplicities and the
    energies to 1e-13 are those of a full refinement.  With float
    coefficients 81 of the 360 were refused, from alpha = 13 up."""
    for *_, poly in forest_cases():
        got = single_particle_energies(poly)
        certify_groups(lambda w: exact_count_above(poly, w), poly.alpha, got, 1e-13)


def test_certified_seeds_equal_isolation_and_polish():
    """Every polynomial of the generic corpora at seeds 31, 37, 41 and 43
    is solved, with the bisection's multiplicities and energies, and every
    group certified by an exact count."""
    for seed in (31, 37, 41, 43):
        for poly in claw_free_polynomials(seed, 60):
            assert_matches_bisection(poly, single_particle_energies(poly))


FALLBACK_CASES = {
    # (1 + 3x)^2 (1 + 9x + 12x^2): two real eigenvalues 2e-8 apart at the
    # double root
    "junction double energy": ((1.0, 15.0, 75.0, 153.0, 108.0), [1, 2, 1]),
    # (1 + x/2)(1 + x)^2(1 + 2x): the double root comes back as a complex pair
    "complex pair": ((1.0, 4.5, 7.0, 4.5, 1.0), [1, 2, 1]),
    # two simple roots 1e-7 apart, where the float coefficients hid R
    # within noise between them and gave one double root
    "corpus": ((1.0, 2.0000001, 1.0000001), [1, 1]),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_uncertified_seeds_take_the_sweeps(case):
    """Seeds that no sign change certifies, a pair of real eigenvalues at a
    double root or a complex pair, are isolated by exact counts, and every
    answer comes back with the bisection's multiplicities, each group
    certified by an exact count."""
    coeffs, mult = FALLBACK_CASES[case]
    poly = exact_polynomial(coeffs)
    got = single_particle_energies(poly)
    assert [m for _, m in got.energies] == mult
    assert_matches_bisection(poly, got)


def test_a_shifted_seed_still_gives_the_exact_roots(monkeypatch):
    """The roots 1/8 and 1/2 (in s) of (1 + x)(1 + 4x), from seeds 1e-6
    off them, are placed exactly by the Newton steps and certified by
    signs; from two seeds at one point, whose brackets meet, by the
    counts.  Both give the energies 1 and 2 exactly."""
    poly = IndependencePolynomial((1, 5, 4), 0)
    for seeds in ([0.125 * (1 + 1e-6), 0.5 * (1 - 1e-6)], [0.3, 0.3]):
        monkeypatch.setattr(np.linalg, "eigvals", lambda companion: np.array(seeds))
        assert single_particle_energies(poly).energies == ((1.0, 1), (2.0, 1))


def test_a_wrong_sign_at_a_bracket_end_takes_the_counts(monkeypatch):
    """A sign that does not change across a seed's bracket certifies
    nothing: made wrong here, the roots are isolated by the counts, and
    come back the same."""
    poly = IndependencePolynomial((1, 5, 4), 0)
    sweeps = record_sweeps(monkeypatch, indpoly)
    want = single_particle_energies(poly)
    assert not sweeps
    value = indpoly._value
    monkeypatch.setattr(indpoly, "_value", lambda q, b, x: abs(value(q, b, x)))
    assert single_particle_energies(poly) == want and sweeps


def test_uniform_junction_double_energy():
    """Junction (1,1,1) with its 15 couplings at 1 has P = (1 + 3x)^2
    (1 + 9x + 12x^2): the two real seeds at the double root are placed as
    simple roots with R within noise at the cut between them, joined, and
    come back as sqrt(3), twice."""
    h = junction_model((1, 1, 1), 3, [1.0] * 15)
    poly = weighted_independence_polynomial(frustration_graph(h))
    assert poly.coeffs == (1.0, 15.0, 75.0, 153.0, 108.0)
    got = single_particle_energies(poly).energies
    want = [(math.sqrt(24 / (9 + math.sqrt(33))), 1), (math.sqrt(3), 2),
            (math.sqrt(24 / (9 - math.sqrt(33))), 1)]
    assert [m for _, m in got] == [m for _, m in want]
    for (e, _), (w, _) in zip(got, want):
        assert math.isclose(e, w, rel_tol=1e-13)


@st.composite
def tied_claw_free_graphs(draw):
    """Disjoint copies of one small claw-free graph whose weights are drawn
    from {1/4, 1/2, 1, 2}, so that every root of a copy is a root of the
    whole with the number of copies as its multiplicity, at least.  The
    weights are powers of two, so the coefficients are exact and so are
    the repeated roots that the exact count certifies."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                       max_size=len(pairs)))) if keep]
    base = WeightedGraph(n, edges)
    assume(not naive_has_claw(base))
    weights = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0)), min_size=n, max_size=n))
    copies = draw(st.integers(1, 3))
    return WeightedGraph(n * copies, [(i + c * n, j + c * n) for c in range(copies)
                                      for i, j in edges], weights=weights * copies)


@settings(max_examples=80, deadline=None)
@given(tied_claw_free_graphs())
def test_tied_weights_give_the_bisection_multiplicities(graph):
    """Claw-free graphs with repeated roots are solved, with the
    multiplicities of the bisection reference, and every answer is
    certified group by group by an exact count."""
    poly = weighted_independence_polynomial(graph)
    assume(1 <= poly.alpha <= 12)
    assert_matches_bisection(poly, single_particle_energies(poly))


@pytest.mark.parametrize("graph, want", [
    # P = (1 + 2x)^6 (1 + 2.25x)^3: w = 2.25 is placed exactly, but its
    # noise bound reads 5.6e-6 of s
    (WeightedGraph(12, [(1, 2), (5, 6), (9, 10)], weights=[2.0, 0.25, 2.0, 2.0] * 3),
     [(math.sqrt(2.0), 6), (1.5, 3)]),
    # P = [(1 + 2.5x + 0.5x^2)(1 + 2.25x)]^3: the triple roots w = 2.25 and
    # 2.2808 join one cluster of 6
    (WeightedGraph(15, [(i + 5 * c, j + 5 * c) for c in range(3)
                        for i, j in ((0, 1), (0, 2), (3, 4))],
                   weights=[0.25, 0.25, 2.0, 0.25, 2.0] * 3),
     [(math.sqrt(1.25 - math.sqrt(17) / 4), 3), (1.5, 3),
      (math.sqrt(1.25 + math.sqrt(17) / 4), 3)]),
])
def test_tied_triple_roots_are_refused(graph, want):
    """Two inputs of the tied-weight generator whose coefficients and
    roots are exact: the float certificate refused them, and the exact
    counts give their multiplicities."""
    got = single_particle_energies(weighted_independence_polynomial(graph)).energies
    assert [m for _, m in got] == [m for _, m in want]
    assert all(math.isclose(e, w, rel_tol=1e-13) for (e, _), (w, _) in zip(got, want))


@pytest.mark.parametrize("graph", [
    WeightedGraph(1, weights=[2.5]),
    WeightedGraph(2, [(0, 1)], weights=[9.0, 16.0]),
    WeightedGraph(3, [(0, 1), (0, 2), (1, 2)], weights=[1.0, 0.3, 2.0]),
])
def test_single_root_is_the_weight_sum(graph):
    """A vertex, an edge and a triangle: alpha = 1, and the one root, c_1,
    lies strictly below the upper end 1 of s, and is placed to 2 eps."""
    energies = single_particle_energies(weighted_independence_polynomial(graph))
    ((energy, mult),) = energies.energies
    assert mult == 1
    assert math.isclose(energy, math.sqrt(sum(graph.weights)), rel_tol=2 * EPS)


def _thirds(hi):
    """First cuts at the thirds of (0, hi]."""
    return np.array([hi / 3, hi - hi / 3])


@pytest.mark.parametrize("root", [0.3, 1 / 3, 0.7316, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_roots_by_count_stops_in_noise_at_adjacent_floats(root, seed):
    """A count that rounding garbles on the floats within two ulps of its
    one root, to values out of range too: the bracket still ends at most
    ROOT_REL_TOL wide, in that noise."""
    ulp = math.ulp(root)

    def evaluate(ws):
        garbled = [random.Random(f"{seed}:{float(w).hex()}").choice((-1, 0, 1, 2)) for w in ws]
        counts = np.where(np.abs(ws - root) <= 2 * ulp, garbled, (ws < root).astype(int))
        return counts, ws - root

    lo, hi, m = roots_by_count(evaluate, 1, 1.0, _thirds(1.0))
    assert m.tolist() == [1]
    assert hi[0] - lo[0] <= ROOT_REL_TOL * hi[0]
    assert lo[0] - 2 * ulp <= root <= hi[0] + 2 * ulp


def test_roots_by_count_survives_misleading_newton_steps():
    """Newton steps that all point 1e-3 above the root leave each guided
    bracket nearly as wide as it was; the next sweep cuts it into thirds."""
    root = 0.3
    sweeps = []

    def evaluate(ws):
        sweeps.append(len(ws))
        assert len(sweeps) <= 100
        return (ws < root).astype(int), ws - (root + 1e-3)

    lo, hi, m = roots_by_count(evaluate, 1, 1.0, _thirds(1.0))
    assert m.tolist() == [1]
    assert lo[0] < root <= hi[0] and hi[0] - lo[0] <= ROOT_REL_TOL * hi[0]


@pytest.mark.parametrize("wrong", ["nan", "zero", "away", "other root"])
def test_roots_by_count_survives_a_wrong_far_step(wrong):
    """Roots at 0.3 and 0.6, with the right steps everywhere but between
    0.3 and 0.45, where they are NaN, 0, pointing away from the roots, or
    exact for a root at 0.9 that is not there.  Each bracket then has one
    end whose step misreads the pull of the other root; the corrected
    estimate costs sweeps but never a root."""
    roots = np.array([0.3, 0.6])
    poly = np.polynomial.Polynomial.fromroots(roots)
    sweeps = []

    def evaluate(ws):
        sweeps.append(len(ws))
        assert len(sweeps) <= 100
        step = poly(ws) / poly.deriv()(ws)
        bad = {"nan": np.full(len(ws), np.nan), "zero": np.zeros(len(ws)),
               "away": -step, "other root": ws - 0.9}[wrong]
        counts = (ws[:, None] < roots).sum(axis=1)
        return counts, np.where((ws > 0.3) & (ws < 0.45), bad, step)

    lo, hi, m = roots_by_count(evaluate, 2, 1.0, _thirds(1.0))
    assert m.tolist() == [1, 1]
    assert np.all(lo < roots) and np.all(roots <= hi)
    assert np.all(hi - lo <= ROOT_REL_TOL * hi)


def test_a_bracket_of_two_roots_is_cut_at_its_one_good_cut():
    """Roots at 0.499 and 0.501, with exact Newton steps, and a count of 3,
    more than the 2 roots there are, for w in (0.49998, 0.49999).  The first
    cuts leave (0.25, 0.75] with both roots, and the window around their
    Newton estimates puts a cut in that noise; the bracket is cut at its
    other cut alone, and each root ends in a bracket of its own.  Were it
    kept as it is, the search would stop at one bracket holding both."""
    roots = np.array([0.499, 0.501])
    poly = np.polynomial.Polynomial.fromroots(roots)

    def evaluate(ws):
        counts = (ws[:, None] < roots).sum(axis=1)
        return np.where((ws > 0.49998) & (ws < 0.49999), 3, counts), poly(ws) / poly.deriv()(ws)

    lo, hi, m = roots_by_count(evaluate, 2, 1.0, np.array([0.25, 0.75]))
    assert m.tolist() == [1, 1]
    assert np.all(lo < roots) and np.all(roots <= hi)
    assert np.all(hi - lo <= ROOT_REL_TOL * hi)


def test_roots_by_count_stops_at_adjacent_subnormals():
    """Among subnormal floats ROOT_REL_TOL is finer than adjacent floats:
    the bracket stops when no cut can shrink it."""
    root = 5e-320

    def evaluate(ws):
        return (ws < root).astype(int), ws - root

    lo, hi, m = roots_by_count(evaluate, 1, 1e-319, _thirds(1e-319))
    assert m.tolist() == [1]
    assert lo[0] < root <= hi[0] and hi[0] - lo[0] <= 2 * math.ulp(root)


def test_bisection_reference_stops_at_adjacent_subnormals():
    """Two isolated vertices of weights 1 and 1.37 2^-1050: in s = w / 2 the
    smaller root lies among the subnormal floats, where a midpoint rounds
    to an end of its bracket long before the bracket is ROOT_REL_TOL wide.
    The reference stops such a bracket as it is, and gives the energies of
    ``solve`` to the width of either's brackets."""
    poly = weighted_independence_polynomial(WeightedGraph(2, (), [1.0, 1.37 * 2.0 ** -1050]))
    got, want = bisection_energies(poly), single_particle_energies(poly)
    assert [m for _, m in got.energies] == [m for _, m in want.energies] == [1, 1]
    rel = max(got.width, want.width)
    assert all(math.isclose(a, b, rel_tol=rel)
               for (a, _), (b, _) in zip(got.energies, want.energies))


def test_complex_roots_detected():
    """1 + x + x^2 has complex roots: degree says two energies, none real.
    So does 1 + 4x + 3x^2 + x^3 of the unit-weight claw K_{1,3}, where
    Newton's inequality fails at k = 2: 3^2 2 1 = 18 < 4 1 3 2 = 24.  The
    message names alpha and the k at which the inequality fails."""
    newton = ("Newton's inequality C_k^2 k (alpha - k) >= C_(k-1) C_(k+1) (k + 1) "
              "(alpha - k + 1)")
    claw = weighted_independence_polynomial(WeightedGraph(4, [(0, 1), (0, 2), (0, 3)]))
    for poly, alpha, k in ((IndependencePolynomial((1, 1, 1), 0), 2, 1), (claw, 3, 2)):
        with pytest.raises(ComplexRootError) as refusal:
            single_particle_energies(poly)
        assert str(refusal.value) == (f"alpha={alpha}: {newton} fails at k={k}, "
                                      "so the polynomial has complex roots")


def test_underflowed_top_coefficient_keeps_alpha():
    """Chain 4x3 at couplings (1.3346e-133, 8.1609e-129, 2.1212e-127):
    c_2..c_4 underflow to 0 as floats, but the exact coefficients keep
    them, so alpha is 4, the graph's, and not 1, and the four energies,
    2.06 to 2.19e-127, are those of ``chain_energies``, with no warning."""
    couplings = (1.3346e-133, 8.1609e-129, 2.1212e-127)
    poly = weighted_independence_polynomial(frustration_graph(chain_model(4, 3, couplings)))
    assert poly.alpha == 4 and poly.coeffs[2:] == (0.0, 0.0, 0.0) and all(poly.ints)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = single_particle_energies(poly).flat()
    reference = chain_energies(ChainSpec(4, 3, tuple(c * c for c in couplings))).flat()
    assert len(reference) == 4 and 2.0e-127 < reference[0] < reference[-1] < 2.2e-127
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, reference))


def test_weight_zero_vertices_add_no_degree():
    """A vertex of weight 0 adds no term, so alpha counts the vertices of
    positive weight: on the path 0-1-2-3 with weights (1, 0, 0, 1) it is
    2, and with (0, 1, 1, 0) it is 1, however small the other weights."""
    path = [(0, 1), (1, 2), (2, 3)]
    assert weighted_independence_polynomial(WeightedGraph(4, path, [1.0, 0.0, 0.0, 1.0])).coeffs \
        == (1.0, 2.0, 1.0)
    assert weighted_independence_polynomial(WeightedGraph(4, path, [0.0, 1e-200, 1e-200, 0.0])).coeffs \
        == (1.0, 2e-200)
    tiny = weighted_independence_polynomial(WeightedGraph(4, path, [1e-200, 0.0, 0.0, 1e-200]))
    assert tiny.coeffs == (1.0, 2e-200, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zero_weights_are_the_induced_subgraph(data):
    """A weight of 0 removes its vertex: the DP of G with the vertices of K
    weighted 0 is, bit for bit, the DP of G - K as networkx induces it,
    relabelled in order."""
    n = data.draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = list(itertools.compress(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))))
    weights = data.draw(st.lists(st.sampled_from((0.0, 1e-150, 0.25, 0.7, 1.0, 1.3, 2.0)),
                                 min_size=n, max_size=n))
    ks = data.draw(st.sets(st.integers(0, n - 1)))
    g = WeightedGraph(n, edges, weights=weights)
    got = weighted_independence_polynomial(zero_weights(g, ks))
    want = weighted_independence_polynomial(without(g, ks))
    assert got.ints == want.ints and [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs]


@pytest.mark.parametrize("poly, message, error", [
    (exact_polynomial((1.0, 1e200, 1e-120)), "isolated 1 real roots, expected 2", ConditioningError),
    (chain_polynomial(ChainSpec(5, 2, (6.9e-226, 7.9e-184))),
     "alpha=5, but c_5 is 0: a root at 0", ComplexRootError),
], ids=["huge-c1", "chain-5x2"])
def test_underflowed_constant_term_is_refused(poly, message, error):
    """Roots that no float in s reaches are refused, naming alpha.  The
    float recursion of the chain underflows its c_5 to 0, so R has a root
    at 0, which no energy has, and no real-rooted R of degree 5 has.  The
    other R has roots near 1 and 1e-520 in s: the first is isolated, and
    the second is below the least float, a limit of the range of s.
    They were answered with an energy of 0.0 (four of them on the chain),
    a NaN residual and a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            single_particle_energies(poly)


def test_overflowed_float_coefficient_is_only_a_view():
    """c_3 of chain 4x3 at couplings 1e60 overflows as a float, which once
    made the chain unsolvable.  Only the float view overflows: the exact
    coefficients do not, and the chain is solved."""
    poly = weighted_independence_polynomial(frustration_graph(chain_model(4, 3, (1e60,) * 3)))
    assert poly.coeffs[3:] == (math.inf, math.inf)
    got = single_particle_energies(poly).flat()
    want = chain_energies(ChainSpec(4, 3, (1e120,) * 3)).flat()
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))


def test_coefficients_scale_without_underflow():
    """h5 at couplings (1e90, 1e50, 1, 1, 1): c_2 / unit^2 is about 2^-597,
    but unit^-2 = 2^-1196 underflows to 0, which put a root at 0 and
    returned the energy 0 where sqrt(2) is right."""
    got = single_particle_energies(exact_polynomial((1.0, 1e180, 2e180))).flat()
    assert all(math.isclose(e, want, rel_tol=1e-15) for e, want in zip(got, (math.sqrt(2), 1e90)))


def test_root_failure_on_a_claw_free_graph_is_conditioning():
    """The root finder tells its two failures apart itself: 1 + x + x^2,
    which breaks Newton's inequalities, has complex roots, while two
    isolated vertices of weights 1e300 and 1e-300, a claw-free graph, have
    a root below every float of s, a conditioning failure whose message
    says nothing of complex roots or of the graph."""
    with pytest.raises(ComplexRootError):
        single_particle_energies(IndependencePolynomial((1, 1, 1), 0))
    apart = weighted_independence_polynomial(WeightedGraph(2, (), [1e300, 1e-300]))
    with pytest.raises(ConditioningError) as failure:
        single_particle_energies(apart)
    assert "complex" not in str(failure.value) and "claw-free" not in str(failure.value)


def test_free_spectrum_examples():
    # single weight-4 vertex: P = 1 + 4x, eps = 2
    one = single_particle_energies(IndependencePolynomial((1, 4), 0))
    assert one.energies == ((2.0, 1),)
    assert free_spectrum(one, 1) == [(-2.0, 1), (2.0, 1)]

    # (1+x)(1+4x): eps = 1 and 2
    two = single_particle_energies(IndependencePolynomial((1, 5, 4), 0))
    assert [round(e, 12) for e, _ in two.energies] == [1.0, 2.0]
    assert free_spectrum(two, 2) == [(-3.0, 1), (-1.0, 1), (1.0, 1), (3.0, 1)]

    # alpha=2 on three qubits: four levels, each doubled
    h5 = single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h5_model())))
    spec = free_spectrum(h5, 3)
    assert len(spec) == 4
    assert all(d == 2 for _, d in spec)


def assert_matches_reference(energies, n):
    got, want = free_spectrum(energies, n), reference_free_spectrum(energies, n)
    assert [d for _, d in got] == [d for _, d in want]
    scale = max(abs(want[0][0]), abs(want[-1][0]))
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) <= 1e-12 * scale
    assert all(type(v) is float and type(d) is int for v, d in got)


def test_free_spectrum_repeated_energies():
    assert_matches_reference(SingleParticleEnergies(((0.7, 3), (1.9, 2)), 0.0), 7)
    assert_matches_reference(SingleParticleEnergies(((1.0, 10),), 0.0), 10)
    rng = random.Random(73)
    for _ in range(40):
        levels = sorted(rng.sample([rng.uniform(0.1, 3.0) for _ in range(6)], rng.randint(1, 4)))
        energies = SingleParticleEnergies(tuple((e, rng.randint(1, 3)) for e in levels), 0.0)
        assert_matches_reference(energies, energies.total + rng.randint(0, 3))


def test_free_spectrum_tied_sign_sums():
    # 1 + 2 = 3 exactly; 0.1 + 0.2 - 0.3 and 0.3 - 0.2 - 0.1 differ in the
    # last bit and merge
    for flat in ((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                 (0.1, 0.2, 0.3, 0.6)):
        energies = SingleParticleEnergies(tuple((e, 1) for e in flat), 0.0)
        assert_matches_reference(energies, len(flat))
    spec = free_spectrum(SingleParticleEnergies(((0.1, 1), (0.2, 1), (0.3, 1)), 0.0), 3)
    assert [d for _, d in spec] == [1, 1, 1, 2, 1, 1, 1]


def test_free_spectrum_run_of_small_gaps():
    """Gaps each below 1e-9 of the scale that together span more than it
    are split by the sequential rule, not merged into one level."""
    flat = (4e-10, 4.1e-10, 4.2e-10, 4.3e-10, 1.0)
    energies = SingleParticleEnergies(tuple((e, 1) for e in flat), 0.0)
    sums = np.sort([sum(s * e for s, e in zip(signs, flat))
                    for signs in itertools.product((1, -1), repeat=len(flat))])
    top = sums[sums > 0.5]
    tol = 1e-9 * sums[-1]
    assert np.diff(top).max() < tol < top[-1] - top[0]
    assert_matches_reference(energies, 5)
    assert len(free_spectrum(energies, 5)) > 2


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


def test_no_energies_at_alpha_zero():
    """P = 1, a graph whose weights are all 0, has no roots: no energies,
    residual 0, and one level 0 of all 2^n states."""
    poly = weighted_independence_polynomial(WeightedGraph(3, weights=[0.0] * 3))
    en = single_particle_energies(poly)
    assert en == SingleParticleEnergies((), 0.0)
    assert free_spectrum(en, 3) == [(0.0, 8)]


def test_free_spectrum_alpha_exceeds_n():
    en = single_particle_energies(IndependencePolynomial((1, 2, 1), 0))
    with pytest.raises(ValueError):
        free_spectrum(en, 1)


def test_zero_weight_vertex_drops_degree():
    g = WeightedGraph(2, weights=[1.0, 0.0])
    poly = weighted_independence_polynomial(g)
    assert poly.alpha == 1
