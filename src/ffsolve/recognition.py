"""Structural recognition: claws, even holes, simplicial cliques.

The even-hole search first tests chordality in O(n + m) (maximum
cardinality search plus a perfect-elimination-order check, Tarjan &
Yannakakis, SIAM J. Comput. 13, 1984): a chordal graph has no hole at
all.  Only a non-chordal graph reaches the exhaustive induced-path
search, which carries a node budget and reports "undecided" instead of
guessing when the budget runs out.  The claw search is exhaustive with
bitset pruning.  These three loops walk the bitmask rows inline, taking
the lowest set bit of a mask at each step, with no call per vertex.  The
simplicial-clique search walks the cliques by size and stops at the
first simplicial one; ``classify`` runs it on ECF graphs only.  A report
stores the witnesses and derives its verdicts from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SearchBudgetError
from .graphs import WeightedGraph, bits

HOLE_SEARCH_BUDGET = 10**8


@dataclass
class StructureReport:
    """The certificates of one graph's recognition, and the verdicts they give.

    ``claw_witness`` and ``even_hole_witness`` refute ECF; ``undecided``
    says the hole search ran out of budget, so ``even_hole_free`` is None,
    and ``ecf`` too unless a claw refutes it.  ``simplicial_clique`` is,
    on an ECF graph, its smallest simplicial clique of vertices of
    positive weight, lexicographically first among its size.  Every ECF
    graph has a simplicial clique (Chudnovsky & Seymour, JCTB 97, 2007),
    so this one exists when a weight is positive and the weight-0
    vertices are isolated, as a graph file leaves them.  It is None
    otherwise, and the modes are refused.  ``refusal`` says why a graph
    that is not ECF, or not known to be, is refused.
    """

    claw_witness: tuple[int, tuple[int, int, int]] | None
    even_hole_witness: tuple[int, ...] | None
    undecided: bool
    simplicial_clique: tuple[int, ...] | None

    @property
    def claw_free(self) -> bool:
        return self.claw_witness is None

    @property
    def even_hole_free(self) -> bool | None:
        return None if self.undecided else self.even_hole_witness is None

    @property
    def ecf(self) -> bool | None:
        """False with a claw, whatever the hole search; else ``even_hole_free``."""
        return self.even_hole_free if self.claw_free else False

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
        }


def find_claw(graph: WeightedGraph) -> tuple[int, tuple[int, int, int]] | None:
    """First induced K_{1,3}: (center, three pairwise nonadjacent leaves).

    The centers, and the leaves a < b < c of each, are taken in ascending
    order; the leaves after a that a misses are ``rest & ~adj[a]``, with
    ``rest`` the neighbours of the center above a.
    """
    adj = graph.adj
    for center, nb in enumerate(adj):
        if nb.bit_count() < 3:
            continue
        rest = nb
        while rest:
            low = rest & -rest
            rest ^= low
            rest_a = rest & ~adj[low.bit_length() - 1]
            while rest_a & (rest_a - 1):  # two leaves left to try
                low_b = rest_a & -rest_a
                rest_a ^= low_b
                rest_b = rest_a & ~adj[low_b.bit_length() - 1]
                if rest_b:
                    return center, (low.bit_length() - 1, low_b.bit_length() - 1,
                                    (rest_b & -rest_b).bit_length() - 1)
    return None


def is_chordal(graph: WeightedGraph) -> bool:
    """True iff the graph has no induced cycle of length >= 4.

    Maximum cardinality search visits next an unvisited vertex with the
    most visited neighbours, here the lowest of them; the graph is chordal
    iff the reverse visit order is a perfect elimination order.  That
    holds iff, for every v, the neighbours visited before v, less the last
    of them p, are all adjacent to p.  ``buckets[k]`` is the bitmask of
    the unvisited vertices with k visited neighbours.
    """
    adj = graph.adj
    n = graph.n
    weight = [0] * n
    buckets = [0] * (n + 1)
    buckets[0] = graph.full_mask
    last = [-1] * n
    top = 0
    visited = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        p = last[v]
        if p >= 0 and adj[v] & visited & ~(adj[p] | 1 << p):
            return False
        visited |= low
        rest = adj[v] & ~visited
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            k = weight[u]
            buckets[k] ^= bit
            buckets[k + 1] |= bit
            weight[u] = k + 1
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
    adj = graph.adj
    nodes_left = budget

    for v0, anchor_adj in enumerate(adj):
        below = (2 << v0) - 1
        # path = [v0, x1, ..., xk]; banned blocks vertices adjacent to
        # interior path vertices, everything <= v0, and the path itself
        stack = []
        rest = anchor_adj & ~below
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append(((v0, low.bit_length() - 1), below | low))
        while stack:
            path, banned = stack.pop()
            nodes_left -= 1
            if nodes_left < 0:
                raise SearchBudgetError(
                    f"even-hole search exceeded budget {budget}")
            row = adj[path[-1]]
            cand = row & ~banned
            # an odd path closes an even cycle at a neighbour of the anchor above x1
            if len(path) & 1 and len(path) >= 3:
                close = cand & anchor_adj & ~((2 << path[1]) - 1)
                if close:
                    return path + ((close & -close).bit_length() - 1,)
            rest = cand & ~anchor_adj
            banned |= row
            while rest:
                low = rest & -rest
                rest ^= low
                stack.append((path + (low.bit_length() - 1,), banned | low))
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


def smallest_simplicial_clique(graph: WeightedGraph) -> tuple[int, ...] | None:
    """The first simplicial clique of vertices of positive weight, the terms
    of H, as a sorted tuple, by size, then lexicographically, or None.  The
    walk over the cliques starts from those vertices and grows each clique
    by their common neighbours above its top vertex; it lists every clique
    only on a graph that has no simplicial one."""
    terms = sum(1 << v for v, w in enumerate(graph.weights) if w)
    level = [(1 << v, graph.adj[v] & terms & ~((2 << v) - 1)) for v in bits(terms)]
    while level:
        for mask, _ in level:
            if is_simplicial_clique(graph, mask):
                return tuple(bits(mask))
        level = [(mask | 1 << w, above & graph.adj[w] & ~((2 << w) - 1))
                 for mask, above in level for w in bits(above)]
    return None


def classify(graph: WeightedGraph,
             hole_budget: int = HOLE_SEARCH_BUDGET) -> StructureReport:
    """Run the claw and even-hole searches, and the simplicial-clique search
    on an ECF graph.  The hole search runs after a claw too, so that a
    refused graph reports both witnesses."""
    claw = find_claw(graph)
    hole: tuple[int, ...] | None = None
    undecided = False
    try:
        hole = find_even_hole(graph, budget=hole_budget)
    except SearchBudgetError:
        undecided = True
    report = StructureReport(claw, hole, undecided, None)
    if report.ecf:
        report.simplicial_clique = smallest_simplicial_clique(graph)
    return report
