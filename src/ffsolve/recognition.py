"""Structural recognition: claws, even holes, simplicial cliques.

The even-hole search first tests chordality in O(n + m) (maximum
cardinality search plus a perfect-elimination-order check, Tarjan &
Yannakakis, SIAM J. Comput. 13, 1984): a chordal graph has no hole at
all.  Only a non-chordal graph reaches the exhaustive induced-path
search, which carries a node budget and reports "undecided" instead of
guessing when the budget runs out.  The claw and simplicial-clique
searches are exhaustive with bitset pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SearchBudgetError
from .graphs import WeightedGraph, all_cliques, bits

HOLE_SEARCH_BUDGET = 10**8


@dataclass
class StructureReport:
    """Aggregated recognition verdicts for one graph.

    ``even_hole_free`` and ``ecf`` are None when the hole search ran out
    of budget (undecided).  Twin pairs (identical open neighborhoods) and
    closed-neighborhood duplicates are advisory: they mark symmetries and
    removable vertices but trigger no further machinery.
    """

    claw_free: bool
    claw_witness: tuple[int, tuple[int, int, int]] | None
    even_hole_free: bool | None
    even_hole_witness: tuple[int, ...] | None
    simplicial_cliques: list[tuple[int, ...]]
    ecf: bool | None
    undecided: bool = False
    twins: list[tuple[int, int]] = field(default_factory=list)
    closed_duplicates: list[tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "claw_free": self.claw_free,
            "claw_witness": (
                {"center": self.claw_witness[0], "leaves": list(self.claw_witness[1])}
                if self.claw_witness else None
            ),
            "even_hole_free": self.even_hole_free,
            "even_hole_witness": list(self.even_hole_witness) if self.even_hole_witness else None,
            "simplicial_cliques": [list(k) for k in self.simplicial_cliques],
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


def find_simplicial_cliques(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """All simplicial cliques, as sorted vertex tuples.

    A clique K is simplicial when for every member v the closed
    neighborhood of v minus the rest of K induces a clique.
    """
    out = []
    for mask in all_cliques(graph):
        ok = True
        for v in bits(mask):
            kv = graph.closed_adj(v) & ~(mask & ~(1 << v))
            if not graph.is_clique(kv):
                ok = False
                break
        if ok:
            out.append(tuple(bits(mask)))
    return out


def find_twins(graph: WeightedGraph) -> list[tuple[int, int]]:
    """Vertex pairs with identical open neighborhoods (never adjacent)."""
    return [(i, j) for i in range(graph.n) for j in range(i + 1, graph.n)
            if graph.adj[i] == graph.adj[j]]


def find_closed_duplicates(graph: WeightedGraph) -> list[tuple[int, int]]:
    """Adjacent vertex pairs sharing the same closed neighborhood."""
    return [(i, j) for i in range(graph.n) for j in range(i + 1, graph.n)
            if graph.closed_adj(i) == graph.closed_adj(j)]


def classify(graph: WeightedGraph,
             hole_budget: int = HOLE_SEARCH_BUDGET) -> StructureReport:
    """Run all three searches plus the advisory symmetry scans."""
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
        simplicial_cliques=find_simplicial_cliques(graph),
        ecf=ecf,
        undecided=undecided,
        twins=find_twins(graph),
        closed_duplicates=find_closed_duplicates(graph),
    )
