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

from .errors import ModelError, ParseError
from .graphs import WeightedGraph, frustration_graph
from .paulis import PauliTerm

_TOKEN_RE = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True)
class Hamiltonian:
    """Ordered list of (real coupling, phase-(+1) PauliTerm) pairs."""

    n: int
    terms: tuple[tuple[float, PauliTerm], ...]

    @classmethod
    def from_pairs(cls, pairs, n: int | None = None) -> "Hamiltonian":
        """Merge duplicate labels, drop zero couplings, infer qubit count.

        Raises ModelError for identity terms, non-finite couplings, or an
        empty term list after cleanup.
        """
        merged: dict[tuple[int, int], float] = {}
        order: list[tuple[int, int]] = []
        max_q = -1
        for coupling, term in pairs:
            coupling = float(coupling)
            if not math.isfinite(coupling):
                raise ModelError(f"non-finite coupling {coupling!r}")
            if term.phase_pow != 0:
                raise ModelError("Hamiltonian terms must carry phase +1")
            if term.is_identity:
                raise ModelError("identity term not allowed (Hamiltonian is traceless)")
            key = (term.x, term.z)
            if key not in merged:
                merged[key] = 0.0
                order.append(key)
            merged[key] += coupling
            max_q = max(max_q, (term.x | term.z).bit_length() - 1)
        if n is None:
            n = max_q + 1
        elif max_q + 1 > n:
            raise ModelError(f"term acts on qubit {max_q} but n={n}")
        out = []
        for key in order:
            c = merged[key]
            if c != 0.0:
                out.append((c, PauliTerm(n, key[0], key[1], 0)))
        if not out:
            raise ModelError("no terms remain after merging/dropping")
        return cls(n, tuple(out))

    def couplings(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    def graph(self) -> WeightedGraph:
        return frustration_graph(self)

    def __len__(self):
        return len(self.terms)


# -- Hamiltonian text format --------------------------------------------

def parse_hamiltonian(text: str) -> Hamiltonian:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
    n = max(t.n for _, t in pairs)
    pairs = [(c, PauliTerm(n, t.x, t.z, 0)) for c, t in pairs]
    try:
        return Hamiltonian.from_pairs(pairs, n=n)
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "p":
                if n is not None:
                    raise ParseError(f"line {lineno}: duplicate 'p' line")
                n = int(fields[1])
            elif kind == "v":
                idx, w = int(fields[1]), float(fields[2])
                if n is None or not 0 <= idx < n:
                    raise ParseError(f"line {lineno}: vertex index {idx} out of range")
                if w < 0:
                    raise ParseError(f"line {lineno}: negative weight {w}")
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
            else:
                raise ParseError(f"line {lineno}: unknown record {kind!r}")
        except (IndexError, ValueError):
            raise ParseError(f"line {lineno}: malformed record {line!r}") from None
    if n is None:
        raise ParseError("missing 'p <n>' header")
    wlist = [weights.get(i, 1.0) for i in range(n)]
    return WeightedGraph(n, edges, weights=wlist)


def write_graph(g: WeightedGraph) -> str:
    lines = [f"p {g.n}"]
    lines += [f"v {i} {g.weights[i]!r}" for i in range(g.n)]
    lines += [f"e {i} {j}" for i, j in g.edges()]
    return "\n".join(lines) + "\n"


def realize_graph(g: WeightedGraph) -> Hamiltonian:
    """A Pauli Hamiltonian whose frustration graph is exactly ``g``.

    Vertex i becomes X on qubit i times Z on every lower-indexed neighbor,
    with coupling sqrt(weight).  Two such terms anticommute iff the
    vertices are adjacent.
    """
    if g.n == 0:
        raise ModelError("cannot realize the empty graph")
    pairs = []
    for i in range(g.n):
        ops = {i: "X"}
        for j in g.neighbors[i]:
            if j < i:
                ops[j] = "Z"
        pairs.append((math.sqrt(g.weights[i]), PauliTerm.from_ops(g.n, ops)))
    return Hamiltonian.from_pairs(pairs, n=g.n)


# -- built-in model families ----------------------------------------------

def h5_model(a=1.0, b=1.0, c=1.0, d=1.0, e=1.0) -> Hamiltonian:
    """Three-qubit five-term model whose frustration graph is a 5-cycle."""
    mk = PauliTerm.from_ops
    return Hamiltonian.from_pairs([
        (a, mk(3, {0: "X", 1: "X"})),
        (b, mk(3, {1: "Z"})),
        (c, mk(3, {0: "Y", 1: "Y", 2: "X"})),
        (d, mk(3, {0: "Y", 1: "Z"})),
        (e, mk(3, {0: "X", 1: "Z"})),
    ], n=3)


def h6_model(a=1.0, b=1.0, c=1.0, d=1.0, e=1.0, f=1.0) -> Hamiltonian:
    """The 5-cycle model plus one term; not a line graph, still ECF."""
    mk = PauliTerm.from_ops
    pairs = [
        (a, mk(3, {0: "X", 1: "X"})),
        (b, mk(3, {1: "Z"})),
        (c, mk(3, {0: "Y", 1: "Y", 2: "X"})),
        (d, mk(3, {0: "Y", 1: "Z"})),
        (e, mk(3, {0: "X", 1: "Z"})),
        (f, mk(3, {0: "Y", 1: "Y", 2: "Z"})),
    ]
    return Hamiltonian.from_pairs(pairs, n=3)


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
    pairs = []
    for m in range(n):
        ops = {m: "X"}
        for step in range(1, k):
            q = m + step
            if q >= n:
                if not periodic:
                    break
                q -= n
            ops[q] = "Y"
        pairs.append((couplings[m % k], PauliTerm.from_ops(n, ops)))
    return Hamiltonian.from_pairs(pairs, n=n)


def junction_graph(arm_cells: tuple[int, ...], k: int,
                   weights=None) -> WeightedGraph:
    """Frustration graph of a junction: chains attached to a central clique.

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
    if weights is None:
        weights = [1.0] * nv
    if len(weights) != nv:
        raise ModelError(f"expected {nv} vertex weights, got {len(weights)}")
    return WeightedGraph(nv, edges, weights=weights)


def junction_model(arm_cells: tuple[int, ...], k: int, couplings=None) -> Hamiltonian:
    """A Pauli realization of the junction graph (couplings per vertex)."""
    g = junction_graph(tuple(arm_cells), k)
    if couplings is not None:
        couplings = list(couplings)
        if len(couplings) != g.n:
            raise ModelError(f"expected {g.n} couplings, got {len(couplings)}")
        g = WeightedGraph(g.n, g.edges(), weights=[c * c for c in couplings])
    return realize_graph(g)


def back_to_back_model(a=1.0, b=1.0, c=1.0, d=1.0, e=1.0, f=1.0) -> Hamiltonian:
    """Three-qubit non-example: its frustration graph has claws and even holes."""
    mk = PauliTerm.from_ops
    return Hamiltonian.from_pairs([
        (a, mk(3, {1: "Z"})),
        (b, mk(3, {0: "Y", 1: "X"})),
        (c, mk(3, {0: "X", 1: "Y"})),
        (d, mk(3, {0: "Z", 2: "Y"})),
        (e, mk(3, {0: "Y", 2: "X"})),
        (f, mk(3, {2: "Z"})),
    ], n=3)


MODEL_COUPLING_COUNT = {"h5": 5, "h6": 6, "back_to_back": 6}


def generate_model(name: str, couplings=None, n_cells: int | None = None,
                   k: int | None = None, periodic: bool = False,
                   arm_cells=None) -> Hamiltonian:
    """Dispatch by family name: h5, h6, chain, junction, back_to_back."""
    name = name.lower()
    if name in ("h5", "h6", "back_to_back"):
        count = MODEL_COUPLING_COUNT[name]
        if couplings is None:
            couplings = [1.0] * count
        if len(couplings) != count:
            raise ModelError(f"{name} takes {count} couplings, got {len(couplings)}")
        fn = {"h5": h5_model, "h6": h6_model, "back_to_back": back_to_back_model}[name]
        return fn(*couplings)
    if name == "chain":
        if n_cells is None or k is None:
            raise ModelError("chain requires N and k")
        return chain_model(n_cells, k, couplings, periodic=periodic)
    if name == "junction":
        if arm_cells is None or k is None:
            raise ModelError("junction requires arm lengths and k")
        return junction_model(tuple(arm_cells), k, couplings)
    raise ModelError(f"unknown model {name!r}")
