"""Seeded op mixes for the three benchmark workloads.

Every op is one ``ffsolve`` command line plus the input files it reads.
Each op also carries what the checker needs to judge its output without
asking ffsolve: the frustration graph and Pauli strings by construction,
the structural verdict known by construction, or the chain couplings.

A run draws one round of ops from its seed and replays that round in a
closed loop.  The round is stratified: the op classes and their counts
are fixed, and the seed draws couplings, junction arms and random graph
shapes.  Random graph shapes are drawn within a band of independent-set
counts, so that the work per op, and with it the latency of each class,
does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum", "chain-scan", "operators")

# A seed no figure in the benchmark's history was tuned on; claims of a
# gain are re-checked on it.
HELD_OUT_SEED = 9173


@dataclass
class Op:
    """One command line of a workload round."""

    name: str                      # op class, e.g. "solve-chain-8x3"
    argv: list[str]                # ffsolve arguments, without -o
    expect: int                    # expected exit code
    kind: str                      # solve | verify | dispersion | scan
    graph: dict | None = None      # {"n", "edges", "weights"} by construction
    paulis: list | None = None     # [[coupling, "IXYZ..."], ...] when a model
    verdict: dict | None = None    # {"claw_free", "even_hole_free"} by construction
    chain: dict | None = None      # chain couplings for dispersion / scan
    modes: bool = False
    files: dict = field(default_factory=dict)  # relative path -> text

    @property
    def key(self) -> str:
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- graphs and Pauli strings by construction ------------------------------

def _couplings(rng: random.Random, count: int) -> list[float]:
    return [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(count)]


def _graph(n: int, edges, weights) -> dict:
    return {"n": n, "edges": sorted((min(i, j), max(i, j)) for i, j in edges),
            "weights": list(weights)}


def chain_paulis(n_cells: int, k: int, couplings, periodic=False) -> list:
    """Term m is X on qubit m and Y on the next k-1 qubits (truncated or wrapped)."""
    n = n_cells * k
    out = []
    for m in range(n):
        ops = ["I"] * n
        ops[m] = "X"
        for step in range(1, k):
            q = m + step
            if q >= n:
                if not periodic:
                    break
                q -= n
            ops[q] = "Y"
        out.append([couplings[m % k], "".join(ops)])
    return out


def chain_graph(n_cells: int, k: int, couplings, periodic=False) -> dict:
    """Open: unit-interval graph |i-j| < k.  Periodic: circulant, distances 1..k-1."""
    n = n_cells * k
    edges = set()
    for i in range(n):
        for d in range(1, k):
            j = i + d
            if j >= n:
                if not periodic:
                    break
                j -= n
            edges.add((min(i, j), max(i, j)))
    return _graph(n, edges, [couplings[i % k] ** 2 for i in range(n)])


def junction_graph(arms, k: int, couplings) -> dict:
    """Central clique of two vertices per arm; each arm a k-chain attached
    by its first vertex to its two hub vertices."""
    hub = 2 * len(arms)
    edges = [(i, j) for i in range(hub) for j in range(i + 1, hub)]
    nv = hub
    for a, cells in enumerate(arms):
        length = cells * k
        for i in range(length):
            for j in range(i + 1, min(i + k, length)):
                edges.append((nv + i, nv + j))
        edges += [(2 * a, nv), (2 * a + 1, nv)]
        nv += length
    return _graph(nv, edges, [c * c for c in couplings])


def junction_size(arms, k: int) -> int:
    return 2 * len(arms) + k * sum(arms)


# Three-qubit models, as strings over qubits 0..2 (from their definitions).
SMALL_MODELS = {
    "h5": ["XXI", "IZI", "YYX", "YZI", "XZI"],
    "h6": ["XXI", "IZI", "YYX", "YZI", "XZI", "YYZ"],
    "back_to_back": ["IZI", "YXI", "XYI", "ZIY", "YIX", "IIZ"],
}


def _model_op(name, argv_model, couplings, expect, kind, paulis, graph, verdict,
              modes=False) -> Op:
    argv = [kind] + (["--modes"] if modes else []) + argv_model
    argv.append("--couplings=" + ",".join(repr(c) for c in couplings))
    return Op(name, argv, expect, kind, graph=graph, paulis=paulis,
              verdict=verdict, modes=modes)


def chain_op(rng, kind, n_cells, k, periodic=False, modes=False) -> Op:
    c = _couplings(rng, k)
    argv = ["--model", "chain", "--N", str(n_cells), "--k", str(k)]
    if periodic:
        argv.append("--periodic")
    # open chains are interval graphs (chordal, claw-free); periodic ones
    # with N >= 3 hold the even hole 0, 1, k, k+1, 2k, ... of length 2N
    verdict = {"claw_free": True, "even_hole_free": not periodic}
    name = f"{kind}{'-modes' if modes else ''}-chain-{n_cells}x{k}{'p' if periodic else ''}"
    return _model_op(name, argv, c, 2 if periodic else 0, kind,
                     chain_paulis(n_cells, k, c, periodic),
                     chain_graph(n_cells, k, c, periodic), verdict, modes)


def junction_op(rng, kind, arms, k=3, modes=False) -> Op:
    c = _couplings(rng, junction_size(arms, k))
    argv = ["--model", "junction", "--arms", ",".join(map(str, arms)), "--k", str(k)]
    name = f"{kind}{'-modes' if modes else ''}-junction-{'.'.join(map(str, arms))}"
    return _model_op(name, argv, c, 0, kind, None, junction_graph(arms, k, c),
                     {"claw_free": True, "even_hole_free": True}, modes)


def small_model_op(rng, kind, model) -> Op:
    strings = SMALL_MODELS[model]
    c = _couplings(rng, len(strings))
    refused = model == "back_to_back"
    verdict = ({"claw_free": False, "even_hole_free": False} if refused
               else {"claw_free": True, "even_hole_free": True})
    return _model_op(f"{kind}-{model}", ["--model", model], c, 2 if refused else 0,
                     kind, [[ci, s] for ci, s in zip(c, strings)], None, verdict)


# -- line graphs of random trees and unicyclic graphs -----------------------

def _matchings(n_nodes: int, edges) -> int:
    """Number of matchings (the empty one included) of a forest."""
    adj = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n_nodes
    total = 1
    for root in range(n_nodes):
        if seen[root]:
            continue
        order, parent, stack = [], {root: -1}, [root]
        seen[root] = True
        while stack:
            u = stack.pop()
            order.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    stack.append(v)
        free = {}   # matchings of the subtree with u unmatched
        used = {}   # ... with u matched to a child
        for u in reversed(order):
            f0, f1 = 1, 0
            for v in adj[u]:
                if parent.get(v) == u:
                    g = free[v] + used[v]
                    f1 = f1 * g + f0 * free[v]
                    f0 = f0 * g
            free[u], used[u] = f0, f1
        total *= free[root] + used[root]
    return total


def _unicyclic_matchings(n_nodes, edges, closing) -> int:
    """Matchings of a tree plus the closing edge (u, v): M(G-e) + M(G-u-v)."""
    u, v = closing
    rest = [e for e in edges if u not in e and v not in e]
    return _matchings(n_nodes, edges) + _matchings(n_nodes, rest)


def _random_base(rng, n_edges: int, cycle: int | None):
    """Edges of a random tree (cycle None) or of a graph whose only cycle
    has the given length, with the closing edge listed last."""
    if cycle is None:
        return [(rng.randrange(i), i) for i in range(1, n_edges + 1)], None
    edges = [(i, i + 1) for i in range(cycle - 1)]
    nodes = cycle
    while len(edges) < n_edges - 1:
        edges.append((rng.randrange(nodes), nodes))
        nodes += 1
    return edges + [(0, cycle - 1)], (0, cycle - 1)


def line_graph_op(rng, n_edges: int, cycle: int | None, band) -> Op:
    """solve on the line graph of a random tree or unicyclic graph.

    The base graph is redrawn until its matching count (the number of
    independent sets of its line graph, which sets the enumeration work)
    falls inside ``band``.  A line graph is claw-free, and its holes are
    the cycles of length >= 4 of the base graph, so it is even-hole-free
    exactly when the base graph has no even cycle.
    """
    while True:
        edges, closing = _random_base(rng, n_edges, cycle)
        nodes = 1 + max(max(e) for e in edges)
        if closing is None:
            count = _matchings(nodes, edges)
        else:
            count = _unicyclic_matchings(nodes, edges[:-1], closing)
        if band[0] <= count <= band[1]:
            break
    lg = [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
          if set(edges[i]) & set(edges[j])]
    weights = [c * c for c in _couplings(rng, len(edges))]
    graph = _graph(len(edges), lg, weights)
    even = cycle is not None and cycle % 2 == 0
    label = "tree" if cycle is None else f"cycle{cycle}"
    path = f"perfbench/.work/lg-{label}-{rng.getrandbits(40):010x}.graph"
    text = [f"p {graph['n']}"] + [f"v {i} {w!r}" for i, w in enumerate(weights)]
    text += [f"e {i} {j}" for i, j in graph["edges"]]
    return Op(f"solve-linegraph-{label}", ["solve", path], 2 if even else 0, "solve",
              graph=graph, verdict={"claw_free": True, "even_hole_free": not even},
              files={path: "\n".join(text) + "\n"})


# -- chain numerics -----------------------------------------------------------

def _simplex_point(rng, k: int, edge: bool) -> list[float]:
    """Squared couplings summing to 1; ``edge`` puts one of them near 0,
    where the chain dimerizes and levels become nearly degenerate."""
    raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
    small = rng.uniform(0.002, 0.02) if edge else None
    if edge:
        raw[rng.randrange(k)] = 0.0
    scale = (1.0 - (small or 0.0)) / sum(raw)
    return [r * scale if r else small for r in raw]


def dispersion_op(rng, k: int, n_cells: int, edge: bool) -> Op:
    b2 = _simplex_point(rng, k, edge)
    given = b2[:-1]
    full = given + [1.0 - sum(given)]  # the CLI fills the last one the same way
    argv = ["dispersion", "--k", str(k), "--N", str(n_cells)]
    for i, v in enumerate(given, start=1):
        argv.append(f"--b{i}sq={v!r}")
    return Op(f"dispersion-{k}x{n_cells}{'-edge' if edge else ''}", argv, 0,
              "dispersion", chain={"k": k, "N": n_cells, "b2": full})


def scan_op(rng, k: int, n_cells: int, n_values: int, edge: bool) -> Op:
    vary = rng.randrange(k)
    values = [rng.uniform(0.05, 0.9) for _ in range(n_values)]
    if edge:
        values[0] = rng.choice((rng.uniform(0.002, 0.02), rng.uniform(0.96, 0.99)))
    grid = []
    for v in values:
        rest = (1.0 - v) / (k - 1)
        b2 = [rest] * k
        b2[vary] = v
        grid.append(b2)
    argv = ["scan", "--k", str(k), "--N", str(n_cells), "--Nprime", str(2 * n_cells),
            "--vary", str(vary + 1), "--values", ",".join(repr(v) for v in values)]
    return Op(f"scan-{k}x{n_cells}{'-edge' if edge else ''}", argv, 0, "scan",
              chain={"k": k, "N": n_cells, "Nprime": 2 * n_cells, "grid": grid})


# -- rounds -----------------------------------------------------------------

TREE_BAND = (30_000, 40_000)


def spectrum_round(rng) -> list[Op]:
    ops = [chain_op(rng, "solve", n, 3) for n in (8, 9, 9, 9, 10)]
    ops += [chain_op(rng, "solve", n, k)
            for n, k in ((8, 4), (6, 5), (7, 5), (7, 5), (5, 6), (6, 6), (6, 6))]
    ops += [junction_op(rng, "solve", tuple(rng.sample(arms, 3)))
            for arms in ((2, 1, 1), (2, 2, 1), (3, 2, 1))]
    ops += [line_graph_op(rng, 26, None, TREE_BAND) for _ in range(2)]
    ops += [line_graph_op(rng, 26, rng.choice((5, 7, 9)), TREE_BAND) for _ in range(3)]
    ops += [chain_op(rng, "solve", rng.randint(3, 5), rng.choice((3, 4)), periodic=True)
            for _ in range(2)]
    ops += [line_graph_op(rng, 16, rng.choice((4, 6, 8)), (0, 10**9)) for _ in range(2)]
    ops.append(small_model_op(rng, "solve", "back_to_back"))
    return ops


def chain_scan_round(rng) -> list[Op]:
    # The cost of chains' root finder varies with the couplings; several small
    # chains, each with its own couplings, steady the median.
    # The six dispersions at N = 200 hold the tail percentile.
    sizes = ((3, 40), (4, 40), (3, 60), (3, 60), (4, 60), (4, 60), (4, 80), (3, 100),
             (4, 100), (3, 120), (4, 120), (3, 160), (4, 160), (3, 200), (3, 200), (3, 200),
             (4, 200), (4, 200), (4, 200), (3, 240), (4, 240))
    ops = [dispersion_op(rng, k, n, edge=(k, n) in ((4, 40), (3, 100))) for k, n in sizes]
    ops += [scan_op(rng, 3, 40, 1, edge=True), scan_op(rng, 4, 40, 1, edge=False)]
    return ops


def operators_round(rng) -> list[Op]:
    # solve --modes on chain 4x4 holds the median, on junction 1,1,1 the tail
    # percentile.
    ops = [chain_op(rng, "solve", n, k, modes=True)
           for n, k, copies in ((4, 3, 2), (5, 3, 2), (4, 4, 7)) for _ in range(copies)]
    ops += [junction_op(rng, "solve", (1, 1, 1), modes=True) for _ in range(4)]
    ops += [small_model_op(rng, "verify", m) for m in ("h5", "h6") for _ in range(2)]
    ops += [chain_op(rng, "verify", 2, 3), chain_op(rng, "verify", 2, 4),
            chain_op(rng, "verify", 3, 3), small_model_op(rng, "verify", "back_to_back")]
    return ops


# The class counts of each round are set so that, at this commit, the
# median and the tail percentile of a run fall inside a group of ops of
# similar cost rather than on the edge between two classes.
#
# A run replays round(seconds / NOMINAL_ROUND_S) whole rounds, so that every
# run takes the same samples whatever the program's speed.  With --seconds 25
# that is 4 rounds of spectrum (100 ops, tail p90), 2 of chain-scan (46 ops,
# tail p75) and 2 of operators (46 ops, tail p75); when the benchmark was
# defined their ops ran for 20-40 s on a 2-core x86-64 VM.
NOMINAL_ROUND_S = {"spectrum": 6.25, "chain-scan": 12.5, "operators": 12.5}

ROUNDS = {"spectrum": spectrum_round, "chain-scan": chain_scan_round,
          "operators": operators_round}


# chain-scan draws new couplings every round: the cost of its root finder
# varies with them, and its references (root counts) are cheap per op.  The
# others replay one round, whose references are computed once.
FRESH_ROUNDS = {"chain-scan"}


def make_rounds(workload: str, seed: int, count: int) -> list[list[Op]]:
    """``count`` rounds of the seed's ops, each in its own shuffled order."""
    draws = []
    for i in range(count if workload in FRESH_ROUNDS else 1):
        rng = random.Random(f"{workload}:{seed}" + (f":{i}" if i else ""))
        ops = ROUNDS[workload](rng)
        rng.shuffle(ops)
        draws.append(ops)
    return [draws[i % len(draws)] for i in range(count)]
