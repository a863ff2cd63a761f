"""Hamiltonian construction: text formats and the built-in model families.

Hamiltonian file format (UTF-8): one term per line,

    <coupling> <tok> <tok> ...

where each tok matches ``[XYZ]<qubit index>``, ``#`` starts a comment and
blank lines are ignored.  Qubit indices are 0-based.  Duplicate Pauli
labels are merged at parse time and zero-coupling terms are dropped.

Graph file format (DIMACS-like): ``p <n>``, then ``v <idx> <weight>``
lines (weight is the squared coupling), then ``e <i> <j>`` lines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import ModelError, ParseError
from .graphs import WeightedGraph
from .paulis import PauliTerm

_TOKEN_RE = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True)
class Hamiltonian:
    """Ordered list of (real coupling, Hermitian PauliTerm) pairs."""

    n: int
    terms: tuple[tuple[float, PauliTerm], ...]

    @classmethod
    def from_pairs(cls, pairs, n: int | None = None) -> "Hamiltonian":
        """Merge duplicate labels, drop zero couplings, infer qubit count.

        Raises ModelError for identity terms, non-finite couplings, or an
        empty term list after cleanup.
        """
        # (x, z) -> [merged coupling, the first term with that label]
        merged: dict[tuple[int, int], list] = {}
        support = 0
        for coupling, term in pairs:
            coupling = float(coupling)
            if not math.isfinite(coupling):
                raise ModelError(f"non-finite coupling {coupling!r}")
            if term.is_identity:
                raise ModelError("identity term not allowed (Hamiltonian is traceless)")
            key = (term.x, term.z)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [coupling, term]
            else:
                entry[0] += coupling
            support |= term.x | term.z
        max_q = support.bit_length() - 1
        if n is None:
            n = max_q + 1
        elif max_q + 1 > n:
            raise ModelError(f"term acts on qubit {max_q} but n={n}")
        # a term on n qubits is kept as it is given: its key is all the rest of it
        out = [(c, term if term.n == n else PauliTerm(n, term.x, term.z))
               for c, term in merged.values() if c != 0.0]
        if not out:
            raise ModelError("no terms remain after merging/dropping")
        return cls(n, tuple(out))

    def couplings(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    def __len__(self):
        return len(self.terms)


def records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of a text format, its ``#`` comment
    and surrounding blanks stripped, that holds anything else."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


# -- Hamiltonian text format --------------------------------------------

def parse_hamiltonian(text: str) -> Hamiltonian:
    pairs = []
    for lineno, line in records(text):
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"line {lineno}: expected '<coupling> <tok> ...'")
        try:
            coupling = float(fields[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad coupling {fields[0]!r}") from None
        if not math.isfinite(coupling):
            raise ParseError(f"line {lineno}: non-finite coupling {fields[0]!r}")
        ops: dict[int, str] = {}
        for tok in fields[1:]:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ParseError(f"line {lineno}: malformed token {tok!r}")
            axis, q = m.group(1), int(m.group(2))
            if q in ops:
                raise ParseError(f"line {lineno}: repeated qubit index {q}")
            ops[q] = axis
        n_line = max(ops) + 1
        pairs.append((coupling, PauliTerm.from_ops(n_line, ops)))
    if not pairs:
        raise ParseError("no Hamiltonian terms found")
    try:
        return Hamiltonian.from_pairs(pairs)
    except ModelError as exc:
        raise ParseError(str(exc)) from None


def write_hamiltonian(h: Hamiltonian) -> str:
    lines = [f"{c!r} {term.label()}" for c, term in h.terms]
    return "\n".join(lines) + "\n"


# -- graph text format ----------------------------------------------------

def parse_graph(text: str) -> WeightedGraph:
    n = None
    weights: dict[int, float] = {}
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, line in records(text):
        fields = line.split()
        kind = fields[0]
        size = {"p": 2, "v": 3, "e": 3}.get(kind)
        if size is None:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
        if len(fields) != size:  # a missing field, or one that would be dropped unread
            raise ParseError(f"line {lineno}: malformed record {line!r}")
        try:
            if kind == "p":
                if n is not None:
                    raise ParseError(f"line {lineno}: duplicate 'p' line")
                n = int(fields[1])
                if n < 1:
                    raise ParseError(f"line {lineno}: a graph needs at least one vertex, got {n}")
            elif kind == "v":
                idx, w = int(fields[1]), float(fields[2])
                if n is None or not 0 <= idx < n:
                    raise ParseError(f"line {lineno}: vertex index {idx} out of range")
                if not 0 <= w < math.inf:
                    raise ParseError(f"line {lineno}: weight {fields[2]!r} must be finite and >= 0")
                if idx in weights:
                    raise ParseError(f"line {lineno}: duplicate 'v' line for vertex {idx}")
                weights[idx] = w
            elif kind == "e":
                i, j = int(fields[1]), int(fields[2])
                if n is None or not (0 <= i < n and 0 <= j < n) or i == j:
                    raise ParseError(f"line {lineno}: bad edge ({i},{j})")
                key = (min(i, j), max(i, j))
                if key in seen_edges:
                    raise ParseError(f"line {lineno}: duplicate edge ({i},{j})")
                seen_edges.add(key)
                edges.append(key)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed record {line!r}") from None
    if n is None:
        raise ParseError("missing 'p <n>' header")
    wlist = [weights.get(i, 1.0) for i in range(n)]
    if 0.0 in wlist:  # a vertex of weight 0 is no term of H: it stays, isolated, to keep its label
        edges = [(i, j) for i, j in edges if wlist[i] and wlist[j]]
    return WeightedGraph(n, edges, weights=wlist)


def realize_graph(g: WeightedGraph) -> Hamiltonian:
    """A Pauli Hamiltonian whose frustration graph is ``g`` less its weight-0 vertices.

    Vertex i becomes X on qubit i times Z on every lower-indexed neighbor,
    with coupling sqrt(weight).  Two such terms anticommute iff the
    vertices are adjacent.  A weight-0 vertex adds nothing to the
    independence polynomial, and ``Hamiltonian.from_pairs`` drops its term.
    """
    if g.n == 0:
        raise ModelError("cannot realize the empty graph")
    pairs = [(math.sqrt(g.weights[i]), PauliTerm(g.n, 1 << i, g.adj[i] & ((1 << i) - 1)))
             for i in range(g.n)]
    return Hamiltonian.from_pairs(pairs, n=g.n)


# -- built-in model families ----------------------------------------------

# the Pauli labels of the terms of the three-qubit models, in order
SMALL_MODELS = {
    "h5": ("X0 X1", "Z1", "Y0 Y1 X2", "Y0 Z1", "X0 Z1"),
    "h6": ("X0 X1", "Z1", "Y0 Y1 X2", "Y0 Z1", "X0 Z1", "Y0 Y1 Z2"),
    "back_to_back": ("Z1", "Y0 X1", "X0 Y1", "Z0 Y2", "Y0 X2", "Z2"),
}


def _small_model(name: str, couplings) -> Hamiltonian:
    """Model ``name`` of SMALL_MODELS; couplings None means all of them 1."""
    labels = SMALL_MODELS[name]
    if couplings is None:
        couplings = [1.0] * len(labels)
    if len(couplings) != len(labels):
        raise ModelError(f"{name} takes {len(labels)} couplings, got {len(couplings)}")
    return Hamiltonian.from_pairs(
        [(c, PauliTerm.from_ops(3, {int(tok[1:]): tok[0] for tok in label.split()}))
         for c, label in zip(couplings, labels)], n=3)


def h5_model(*couplings: float) -> Hamiltonian:
    """Three-qubit five-term model whose frustration graph is a 5-cycle."""
    return _small_model("h5", couplings or None)


def h6_model(*couplings: float) -> Hamiltonian:
    """The 5-cycle model plus one term; not a line graph, still ECF."""
    return _small_model("h6", couplings or None)


def chain_model(n_cells: int, k: int, couplings=None, periodic: bool = False) -> Hamiltonian:
    """Distance-k chain on n = N*k qubits with k-periodically staggered couplings.

    Term m is X on qubit m followed by Y on the next k-1 qubits.  With
    open boundaries the trailing Y's are truncated at the last qubit,
    which keeps the qubit count at N*k without changing the frustration
    graph: it is the unit-interval graph with adjacency |i-j| < k.  With
    periodic boundaries the Y string wraps around (requires N >= 2) and
    the graph is the circulant with distances 1..k-1.
    """
    if k < 2:
        raise ModelError(f"k must be >= 2, got {k}")
    if n_cells < 1:
        raise ModelError(f"N must be >= 1, got {n_cells}")
    if periodic and n_cells < 2:
        raise ModelError("periodic chains need N >= 2")
    if couplings is None:
        couplings = [1.0] * k
    couplings = list(couplings)
    if len(couplings) != k:
        raise ModelError(f"expected {k} staggered couplings, got {len(couplings)}")
    n = n_cells * k
    full = (1 << n) - 1
    pairs = []
    for m in range(n):
        y = ((1 << k) - 2) << m  # qubits m+1 .. m+k-1
        if periodic:
            y |= y >> n  # qubit q >= n wraps to q % n, as k < n
        y &= full
        pairs.append((couplings[m % k], PauliTerm(n, 1 << m | y, y)))
    return Hamiltonian.from_pairs(pairs, n=n)


def junction_graph(arm_cells: tuple[int, ...], k: int) -> WeightedGraph:
    """Frustration graph of a junction: chains attached to a central clique,
    all vertex weights 1.

    The central clique has 2*len(arm_cells) vertices, two per arm, which
    keeps the graph claw-free; each arm is the distance-k chain graph of
    the given number of unit cells, attached by its first vertex.  The
    result is ECF (the clique is a cutset and the arms are chordal).
    """
    arms = len(arm_cells)
    if arms < 1:
        raise ModelError("need at least one arm")
    if k < 2:
        raise ModelError(f"k must be >= 2, got {k}")
    if any(c < 1 for c in arm_cells):
        raise ModelError("arm lengths must be >= 1")
    hub = 2 * arms
    edges = [(i, j) for i in range(hub) for j in range(i + 1, hub)]
    nv = hub
    for a, cells in enumerate(arm_cells):
        arm_len = cells * k
        base = nv
        for i in range(arm_len):
            for j in range(i + 1, min(i + k, arm_len)):
                edges.append((base + i, base + j))
        edges.append((2 * a, base))
        edges.append((2 * a + 1, base))
        nv += arm_len
    return WeightedGraph(nv, edges)


def junction_model(arm_cells: tuple[int, ...], k: int, couplings=None) -> Hamiltonian:
    """A Pauli realization of the junction graph, the couplings signed as given (1 if None)."""
    g = junction_graph(tuple(arm_cells), k)
    couplings = [1.0] * g.n if couplings is None else list(couplings)
    if len(couplings) != g.n:
        raise ModelError(f"expected {g.n} couplings, got {len(couplings)}")
    strings = [t for _, t in realize_graph(g).terms]  # every weight of g is 1
    return Hamiltonian.from_pairs(zip(couplings, strings), n=g.n)


def back_to_back_model(*couplings: float) -> Hamiltonian:
    """Three-qubit non-example: its frustration graph has claws and even holes."""
    return _small_model("back_to_back", couplings or None)


def generate_model(name: str, couplings=None, n_cells: int | None = None,
                   k: int | None = None, periodic: bool = False,
                   arm_cells=None) -> Hamiltonian:
    """Dispatch by family name: h5, h6, chain, junction, back_to_back."""
    name = name.lower()
    if name in SMALL_MODELS:
        return _small_model(name, couplings)
    if name == "chain":
        if n_cells is None or k is None:
            raise ModelError("chain requires N and k")
        return chain_model(n_cells, k, couplings, periodic=periodic)
    if name == "junction":
        if arm_cells is None or k is None:
            raise ModelError("junction requires arm lengths and k")
        return junction_model(tuple(arm_cells), k, couplings)
    raise ModelError(f"unknown model {name!r}")
