"""Shared test helpers: naive reference checkers and graph generators.

The naive checkers deliberately use brute-force subset enumeration so they
stay independent of the bitset search paths they are used to validate.
"""

from __future__ import annotations

import itertools
import math
import random

from ffsolve.graphs import WeightedGraph


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 weighted: bool = False) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)] if weighted else None
    return WeightedGraph(n, edges, weights=weights)


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)], weights=weights)


def naive_has_claw(g: WeightedGraph) -> bool:
    for quad in itertools.combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.has_edge(center, v) for v in leaves) and \
                    not any(g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2)):
                return True
    return False


def is_induced_cycle(g: WeightedGraph, subset) -> bool:
    sub = set(subset)
    if len(sub) < 3:
        return False
    for v in sub:
        if sum(1 for u in sub if u != v and g.has_edge(u, v)) != 2:
            return False
    # degree-2 everywhere means a disjoint union of cycles; connectivity
    # makes it a single one
    seen = {next(iter(sub))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in sub:
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                frontier.append(u)
    return seen == sub


def naive_has_even_hole(g: WeightedGraph) -> bool:
    for size in range(4, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), size):
            if is_induced_cycle(g, subset):
                return True
    return False


def naive_is_simplicial_clique(g: WeightedGraph, kset) -> bool:
    kset = set(kset)
    if not kset:
        return False
    for a, b in itertools.combinations(kset, 2):
        if not g.has_edge(a, b):
            return False
    for v in kset:
        kv = ({u for u in range(g.n) if g.has_edge(u, v)} | {v}) - (kset - {v})
        if any(not g.has_edge(a, b) for a, b in itertools.combinations(kv, 2)):
            return False
    return True


def naive_independence_polynomial(g: WeightedGraph) -> list[float]:
    """c_k = sum over the independent k-subsets of their weight products,
    with trailing zero coefficients dropped."""
    coeffs = [0.0] * (g.n + 1)
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
                coeffs[size] += math.prod(g.weights[v] for v in subset)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs
