"""Weighted simple graphs and the frustration graph of a Hamiltonian.

A graph is its bitset rows: ``adj[v]`` is a Python int whose set bits
are the neighbours of v, since the hot loops downstream are
neighbourhood intersections, and ``bits`` walks a row.  Vertex weights
are squared Hamiltonian couplings.  The frustration graph is read
straight off the terms' (x, z) words.  The one walk over the independent
sets, which builds the transfer operator, is ``paulis.subset_products``
on the adjacency rows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WeightedGraph:
    """Simple graph with nonnegative vertex weights."""

    __slots__ = ("n", "adj", "weights")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 weights: Sequence[float] | None = None):
        self.n = n
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)
        if weights is None:
            weights = [1.0] * n
        if len(weights) != n:
            raise ValueError("weight list length mismatch")
        if any(w < 0 for w in weights):
            raise ValueError("negative vertex weight")
        self.weights = tuple(float(w) for w in weights)

    # -- queries -------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_adj(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def is_clique(self, mask: int) -> bool:
        """True iff the vertices of ``mask`` are pairwise adjacent."""
        for v in bits(mask):
            if (self.adj[v] | (1 << v)) & mask != mask:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n == other.n and self.adj == other.adj
                and self.weights == other.weights)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={sum(row.bit_count() for row in self.adj) // 2})"


def frustration_graph(hamiltonian) -> WeightedGraph:
    """Frustration graph: vertex per term, edge iff the Paulis anticommute.

    Vertex i is term i and carries the weight coupling_i**2.  Terms i and
    j anticommute iff their symplectic product |x_i & z_j| + |z_i & x_j|
    is odd; the terms of one Hamiltonian share its qubit count.
    """
    words = [(t.x, t.z) for _, t in hamiltonian.terms]
    rows = [0] * len(words)
    for i, (xi, zi) in enumerate(words):
        for j in range(i):
            xj, zj = words[j]
            # |a| + |b| and |a ^ b| have one parity
            if ((xi & zj) ^ (zi & xj)).bit_count() & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    graph = WeightedGraph(len(rows), weights=[c * c for c, _ in hamiltonian.terms])
    graph.adj = tuple(rows)
    return graph


def component_count(graph: WeightedGraph) -> int:
    """The number of connected components of ``graph``."""
    count, left = 0, graph.full_mask
    while left:
        count, seen, frontier = count + 1, 0, left & -left
        while frontier:
            seen |= frontier
            for v in bits(frontier):
                frontier |= graph.adj[v]
            frontier &= ~seen
        left &= ~seen
    return count
