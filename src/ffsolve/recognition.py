"""Structural recognition: claws, even holes, simplicial cliques.

The even-hole search first tests chordality in O(n + m) (maximum
cardinality search plus a perfect-elimination-order check, Tarjan &
Yannakakis, SIAM J. Comput. 13, 1984): a chordal graph has no hole at
all.  Only a non-chordal graph reaches the exhaustive induced-path
search, which carries a node budget and reports "undecided" instead of
guessing when the budget runs out.  The claw search is exhaustive with
bitset pruning.  Simplicial cliques come from one walk over the cliques
by size: ``classify`` stops at the first, on ECF graphs only, and only
``find_simplicial_cliques`` lists them all.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from .errors import SearchBudgetError
from .graphs import WeightedGraph, bits

HOLE_SEARCH_BUDGET = 10**8


@dataclass
class StructureReport:
    """Aggregated recognition verdicts for one graph.

    ``even_hole_free`` and ``ecf`` are None when the hole search ran out
    of budget (undecided).  ``simplicial_clique`` is, on an ECF graph, its
    smallest simplicial clique, lexicographically first among its size;
    every ECF graph has one (Chudnovsky & Seymour, JCTB 97, 2007).  It is
    None on every other graph, which the modes never reach.  ``refusal``
    says why a graph that is not ECF, or not known to be, is refused.
    Twin pairs (identical open neighborhoods) and closed-neighborhood
    duplicates are advisory: they mark symmetries and removable vertices
    but trigger no further machinery.
    """

    claw_free: bool
    claw_witness: tuple[int, tuple[int, int, int]] | None
    even_hole_free: bool | None
    even_hole_witness: tuple[int, ...] | None
    simplicial_clique: tuple[int, ...] | None
    ecf: bool | None
    undecided: bool = False
    twins: list[tuple[int, int]] = field(default_factory=list)
    closed_duplicates: list[tuple[int, int]] = field(default_factory=list)

    @property
    def refusal(self) -> str | None:
        """Why the graph cannot be solved: None on an ECF graph."""
        if self.ecf is None:
            return "even-hole search undecided (budget exhausted)"
        return None if self.ecf else "frustration graph is not (even-hole, claw)-free"

    def to_dict(self) -> dict:
        return {
            "claw_free": self.claw_free,
            "claw_witness": (
                {"center": self.claw_witness[0], "leaves": list(self.claw_witness[1])}
                if self.claw_witness else None
            ),
            "even_hole_free": self.even_hole_free,
            "even_hole_witness": list(self.even_hole_witness) if self.even_hole_witness else None,
            "simplicial_clique": list(self.simplicial_clique) if self.simplicial_clique else None,
            "ecf": self.ecf,
            "undecided": self.undecided,
            "twins": [list(p) for p in self.twins],
            "closed_neighborhood_duplicates": [list(p) for p in self.closed_duplicates],
        }


def find_claw(graph: WeightedGraph) -> tuple[int, tuple[int, int, int]] | None:
    """First induced K_{1,3}: (center, three pairwise nonadjacent leaves)."""
    for center in range(graph.n):
        nb = graph.adj[center]
        if nb.bit_count() < 3:
            continue
        for a in bits(nb):
            rest_a = nb & ~graph.closed_adj(a) & ~((1 << (a + 1)) - 1)
            for b in bits(rest_a):
                rest_b = rest_a & ~graph.closed_adj(b) & ~((1 << (b + 1)) - 1)
                if rest_b:
                    c = next(bits(rest_b))
                    return center, (a, b, c)
    return None


def is_chordal(graph: WeightedGraph) -> bool:
    """True iff the graph has no induced cycle of length >= 4.

    Maximum cardinality search visits next an unvisited vertex with the
    most visited neighbours; the graph is chordal iff the reverse visit
    order is a perfect elimination order.  That holds iff, for every v,
    the neighbours visited before v, less the last of them p, are all
    adjacent to p.
    """
    n = graph.n
    weight = [0] * n
    buckets: list[set[int]] = [set(range(n))] + [set() for _ in range(n)]
    last = [-1] * n
    top = 0
    visited = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        p = last[v]
        if p >= 0 and graph.adj[v] & visited & ~graph.closed_adj(p):
            return False
        visited |= 1 << v
        for u in graph.neighbors[v]:
            if not (visited >> u) & 1:
                buckets[weight[u]].remove(u)
                weight[u] += 1
                buckets[weight[u]].add(u)
                last[u] = v
        top += 1
    return True


def find_even_hole(graph: WeightedGraph,
                   budget: int = HOLE_SEARCH_BUDGET) -> tuple[int, ...] | None:
    """First induced chordless cycle of even length >= 4, as a vertex tuple.

    A chordal graph returns None at once, without spending budget.
    Otherwise grows induced paths anchored at the minimum cycle vertex; a
    candidate adjacent to the anchor closes a chordless cycle.  Raises
    SearchBudgetError when more than ``budget`` extensions are explored.
    """
    if is_chordal(graph):
        return None
    nodes_left = budget

    for v0 in range(graph.n):
        above = ~((1 << (v0 + 1)) - 1)
        anchor_adj = graph.adj[v0]

        # path = [v0, x1, ..., xk]; banned blocks vertices adjacent to
        # interior path vertices, everything <= v0, and the path itself
        stack = []
        for x1 in bits(anchor_adj & above):
            stack.append(((v0, x1), (1 << v0) | (1 << x1) | ~above))
        while stack:
            path, banned = stack.pop()
            nodes_left -= 1
            if nodes_left < 0:
                raise SearchBudgetError(
                    f"even-hole search exceeded budget {budget}")
            last = path[-1]
            cand = graph.adj[last] & ~banned
            if len(path) >= 3:
                for w in bits(cand & anchor_adj):
                    if (len(path) + 1) % 2 == 0 and w > path[1]:
                        return path + (w,)
            new_banned = banned | graph.adj[last]
            for w in bits(cand & ~anchor_adj):
                stack.append((path + (w,), new_banned | (1 << w)))
    return None


def is_simplicial_clique(graph: WeightedGraph, mask: int) -> bool:
    """True iff ``mask`` is a nonempty clique K such that for every member
    v the closed neighborhood of v minus the rest of K induces a clique."""
    if not mask:
        return False
    for v in bits(mask):
        closed = graph.closed_adj(v)
        if closed & mask != mask or not graph.is_clique(closed & ~mask | 1 << v):
            return False
    return True


def _simplicial_cliques(graph: WeightedGraph) -> Iterator[tuple[int, ...]]:
    """The simplicial cliques as sorted tuples, by size, then
    lexicographically, from a walk over every clique: a clique grows by the
    common neighbours above its top vertex."""
    level = [(1 << v, graph.adj[v] & ~((2 << v) - 1)) for v in range(graph.n)]
    while level:
        for mask, _ in level:
            if is_simplicial_clique(graph, mask):
                yield tuple(bits(mask))
        level = [(mask | 1 << w, above & graph.adj[w] & ~((2 << w) - 1))
                 for mask, above in level for w in bits(above)]


def find_simplicial_cliques(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """All simplicial cliques as sorted tuples, by size, then lexicographically."""
    return list(_simplicial_cliques(graph))


def smallest_simplicial_clique(graph: WeightedGraph) -> tuple[int, ...] | None:
    """The first of ``find_simplicial_cliques(graph)``, or None; the walk
    lists every clique only on a graph that has no simplicial one."""
    return next(_simplicial_cliques(graph), None)


def _equal_rows(rows) -> list[tuple[int, int]]:
    """Pairs i < j with ``rows[i] == rows[j]``, in ascending order."""
    groups = defaultdict(list)
    for v, row in enumerate(rows):
        groups[row].append(v)
    return sorted(pair for group in groups.values() if len(group) > 1
                  for pair in itertools.combinations(group, 2))


def find_twins(graph: WeightedGraph) -> list[tuple[int, int]]:
    """Vertex pairs with identical open neighborhoods (never adjacent)."""
    return _equal_rows(graph.adj)


def find_closed_duplicates(graph: WeightedGraph) -> list[tuple[int, int]]:
    """Adjacent vertex pairs sharing the same closed neighborhood."""
    return _equal_rows(graph.closed_adj(v) for v in range(graph.n))


def classify(graph: WeightedGraph,
             hole_budget: int = HOLE_SEARCH_BUDGET) -> StructureReport:
    """Run the claw and even-hole searches, the simplicial-clique search on
    an ECF graph, and the advisory symmetry scans."""
    claw = find_claw(graph)
    undecided = False
    hole: tuple[int, ...] | None = None
    hole_free: bool | None = None
    try:
        hole = find_even_hole(graph, budget=hole_budget)
        hole_free = hole is None
    except SearchBudgetError:
        undecided = True
    ecf: bool | None
    if claw is not None:
        ecf = False
    elif undecided:
        ecf = None
    else:
        ecf = hole_free
    return StructureReport(
        claw_free=claw is None,
        claw_witness=claw,
        even_hole_free=hole_free,
        even_hole_witness=hole,
        simplicial_clique=smallest_simplicial_clique(graph) if ecf else None,
        ecf=ecf,
        undecided=undecided,
        twins=find_twins(graph),
        closed_duplicates=find_closed_duplicates(graph),
    )
