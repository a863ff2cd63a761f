"""Shared test helpers: naive reference checkers, graph generators, and
the paper's lemmas that the tests check but no command runs.

The ``plain_`` functions are the front end's loops as they were written
before their bitmask walks were inlined (``bits`` generators,
``closed_adj`` calls, one ``PauliTerm`` built anew for every term), and
the chain isolator and level assembly before their numpy calls were cut;
the parity tests ask the current ones for the same output, bit for bit.
The polynomial is exact, so its reference is an enumeration in integers.

The naive checkers deliberately use brute-force subset enumeration so they
stay independent of the bitset search paths they are used to validate.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import networkx as nx
import numpy as np

from ffsolve import chains, indpoly
from ffsolve.chains import ChainSpec, elementary_symmetric
from ffsolve.errors import DenseCapError, ModelError, SearchBudgetError
from ffsolve.graphs import WeightedGraph, bits, frustration_graph
from ffsolve.indpoly import IndependencePolynomial, weighted_independence_polynomial
from ffsolve.models import back_to_back_model
from ffsolve.models import Hamiltonian
from ffsolve.paulis import (
    DENSE_QUBIT_CAP,
    PRUNE_TOL,
    OperatorSum,
    PauliTerm,
    commutes,
    dense_sums,
    multiply,
    opsum_mul_batch,
)
from ffsolve.recognition import classify
from ffsolve.solver import TransferOperator, transfer
from ffsolve.verify import (
    SPECTRUM_CLUSTER_TOL,
    SPECTRUM_MATCH_TOL,
    _omega,
    _symplectic_pairs,
    brute_force_spectrum,
)

EPS = float(np.finfo(float).eps)


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 weighted: bool = False) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)] if weighted else None
    return WeightedGraph(n, edges, weights=weights)


def edge_list(g: WeightedGraph) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of ``g``, ascending."""
    return [(i, j) for i in range(g.n) for j in bits(g.adj[i]) if j > i]


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)], weights=weights)


def relabel(g: WeightedGraph, perm) -> WeightedGraph:
    """``g`` with vertex v renamed perm[v], its weight going with it."""
    weights = [0.0] * g.n
    for v, w in zip(perm, g.weights):
        weights[v] = w
    return WeightedGraph(g.n, [(perm[i], perm[j]) for i, j in edge_list(g)], weights=weights)


def without(g: WeightedGraph, vertices) -> WeightedGraph:
    """``g`` less ``vertices``, as the subgraph networkx induces on the
    rest, relabelled in order; the weights go with their vertices."""
    drop = set(vertices)
    keep = [v for v in range(g.n) if v not in drop]
    ref = nx.Graph(edge_list(g))
    ref.add_nodes_from(range(g.n))
    sub = nx.convert_node_labels_to_integers(ref.subgraph(keep), ordering="sorted")
    return WeightedGraph(len(keep), sub.edges(), weights=[g.weights[v] for v in keep])


def zero_weights(g: WeightedGraph, vertices) -> WeightedGraph:
    """``g`` with the weights of ``vertices`` set to 0: for the polynomial,
    ``g`` less those vertices."""
    drop = set(vertices)
    return WeightedGraph(g.n, edge_list(g), weights=[0.0 if v in drop else w
                                                  for v, w in enumerate(g.weights)])


def pairwise_frustration_graph(h: Hamiltonian) -> WeightedGraph:
    """The frustration graph by one ``commutes`` call per pair of terms,
    the reference for ``graphs.frustration_graph``."""
    terms = h.terms
    edges = [(i, j) for i in range(len(terms)) for j in range(i + 1, len(terms))
             if not commutes(terms[i][1], terms[j][1])]
    return WeightedGraph(len(terms), edges, weights=[c * c for c, _ in terms])


def maximal_cliques(g: WeightedGraph) -> list[list[int]]:
    """Every maximal clique of ``g``, as a sorted vertex list, from networkx."""
    ref = nx.Graph(edge_list(g))
    ref.add_nodes_from(range(g.n))
    return [sorted(clique) for clique in nx.find_cliques(ref)]


def naive_has_claw(g: WeightedGraph) -> bool:
    for quad in itertools.combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.adj[center] >> v & 1 for v in leaves) and \
                    not any(g.adj[a] >> b & 1 for a, b in itertools.combinations(leaves, 2)):
                return True
    return False


def claw_free_graph(rng: random.Random, line: bool) -> WeightedGraph:
    """A random weighted claw-free graph: with ``line``, the line graph of a
    random tree on 3-25 nodes with up to 3 more edges, which is claw-free
    and has the base's matching number as alpha; else a G(n, p) on 2-10
    vertices, drawn again while it has a claw."""
    while not line:
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8), weighted=True)
        if not naive_has_claw(g):
            return g
    nodes = rng.randint(3, 25)
    base = {(rng.randrange(v), v) for v in range(1, nodes)}
    base |= {tuple(sorted(rng.sample(range(nodes), 2))) for _ in range(rng.randint(0, 3))}
    base = sorted(base)
    edges = [(i, j) for i in range(len(base)) for j in range(i) if set(base[i]) & set(base[j])]
    return WeightedGraph(len(base), edges, weights=[rng.uniform(0.1, 2.0) for _ in base])


def is_induced_cycle(g: WeightedGraph, subset) -> bool:
    sub = set(subset)
    if len(sub) < 3:
        return False
    for v in sub:
        if sum(1 for u in sub if u != v and g.adj[u] >> v & 1) != 2:
            return False
    # degree-2 everywhere means a disjoint union of cycles; connectivity
    # makes it a single one
    seen = {next(iter(sub))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in sub:
            if u not in seen and g.adj[u] >> v & 1:
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
        if not g.adj[a] >> b & 1:
            return False
    for v in kset:
        kv = ({u for u in range(g.n) if g.adj[u] >> v & 1} | {v}) - (kset - {v})
        if any(not g.adj[a] >> b & 1 for a, b in itertools.combinations(kv, 2)):
            return False
    return True


def naive_simplicial_cliques(g: WeightedGraph):
    """Every simplicial clique by the brute-force definition, by size and
    each size in lexicographic order."""
    return (sub for size in range(1, g.n + 1)
            for sub in itertools.combinations(range(g.n), size)
            if naive_is_simplicial_clique(g, sub))


def reference_free_spectrum(energies, n: int) -> list[tuple[float, int]]:
    """Reference for ``indpoly.free_spectrum``: the 2^alpha sign sums built
    and grouped one at a time.  Sorted, a level opens at the first sum more
    than 1e-9 of the scale above the sum that opened the level before, and
    its value is the correctly rounded mean of its sums."""
    eps = energies.flat()
    base_deg = 1 << (n - len(eps))
    sums = [0.0]
    for e in eps:
        sums = [s + sign * e for s in sums for sign in (1.0, -1.0)]
    sums.sort()
    scale = max(abs(sums[0]), abs(sums[-1]), 1e-300)
    levels: list[tuple[float, int]] = []
    group: list[float] = []
    for s in sums:
        if group and abs(s - group[0]) > 1e-9 * scale:
            levels.append((math.fsum(group) / len(group), len(group) * base_deg))
            group = []
        group.append(s)
    levels.append((math.fsum(group) / len(group), len(group) * base_deg))
    return levels


def naive_independence_polynomial(g: WeightedGraph) -> tuple[list[int], int]:
    """The integers C_k = c_k 2^(D k), with c_k the sum over the independent
    k-subsets of their weight products and 2^D the largest denominator of
    the weights, by enumeration, trailing zeros dropped; and D."""
    ratios = [w.as_integer_ratio() for w in g.weights]
    shift = max(d.bit_length() for _, d in ratios) - 1
    ints = [n << shift - d.bit_length() + 1 for n, d in ratios]
    coeffs = [0] * (g.n + 1)
    for s in stable_sets(g.adj):
        coeffs[s.bit_count()] += math.prod(ints[v] for v in bits(s))
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs, shift


def plain_find_claw(graph: WeightedGraph):
    """``recognition.find_claw`` with ``bits`` and ``closed_adj``."""
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


def plain_is_chordal(graph: WeightedGraph) -> bool:
    """``recognition.is_chordal`` with ``bits`` and ``closed_adj``:
    maximum cardinality search over buckets of sets."""
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
        for u in bits(graph.adj[v] & ~visited):
            buckets[weight[u]].remove(u)
            weight[u] += 1
            buckets[weight[u]].add(u)
            last[u] = v
        top += 1
    return True


def plain_find_even_hole(graph: WeightedGraph, budget: int):
    """``recognition.find_even_hole`` with ``bits``."""
    if plain_is_chordal(graph):
        return None
    nodes_left = budget
    for v0 in range(graph.n):
        above = ~((1 << (v0 + 1)) - 1)
        anchor_adj = graph.adj[v0]
        stack = []
        for x1 in bits(anchor_adj & above):
            stack.append(((v0, x1), (1 << v0) | (1 << x1) | ~above))
        while stack:
            path, banned = stack.pop()
            nodes_left -= 1
            if nodes_left < 0:
                raise SearchBudgetError(f"even-hole search exceeded budget {budget}")
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


def plain_from_pairs(pairs, n: int | None = None) -> Hamiltonian:
    """``Hamiltonian.from_pairs`` building a new term for every label."""
    merged: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    max_q = -1
    for coupling, term in pairs:
        coupling = float(coupling)
        if not math.isfinite(coupling):
            raise ModelError(f"non-finite coupling {coupling!r}")
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
            out.append((c, PauliTerm(n, key[0], key[1])))
    if not out:
        raise ModelError("no terms remain after merging/dropping")
    return Hamiltonian(n, tuple(out))


def stable_sets(rows):
    """Every set of vertices 0..len(rows)-1 with no two members joined in
    ``rows``, as bitmasks; ``rows[v]`` is the bitmask of the vertices
    joined to v.  On adjacency rows these are the independent sets.

    The empty set comes first, and each set comes after its parent, the
    set without its highest vertex: the walk is depth first and adds
    vertices in ascending order, as ``paulis.subset_products`` walks them.
    """
    stack = [(0, (1 << len(rows)) - 1)]
    while stack:
        current, candidates = stack.pop()
        yield current
        children = []
        while candidates:
            low = candidates & -candidates
            candidates ^= low  # what is left lies above the new vertex
            children.append((current | low, candidates & ~rows[low.bit_length() - 1]))
        stack.extend(reversed(children))


def per_set_charges(h, graph: WeightedGraph) -> list[dict]:
    """Reference for ``solver.transfer``: the terms of every charge, with
    each set's coupling and Pauli products multiplied out from scratch.

    The sets are walked in the order of ``stable_sets`` and each product
    is taken in ascending vertex order, so that every coefficient is summed
    in the same order, and the charges compare equal by value (the walk of
    ``transfer`` carries X^x Z^z coefficients, so signed zeros may differ).
    """
    accs: list[dict] = []
    for mask in stable_sets(graph.adj):
        k = mask.bit_count()
        if k == len(accs):
            accs.append({})
        coeff = 1.0
        e, prod = 0, PauliTerm.identity(h.n)
        for v in bits(mask):
            c, t = h.terms[v]
            coeff *= c
            step, prod = multiply(prod, t)
            e += step
        key = (prod.x, prod.z)
        accs[k][key] = accs[k].get(key, 0.0) + coeff * (1, 1j, -1, -1j)[e % 4]
    cuts = [PRUNE_TOL * max(map(abs, acc.values())) for acc in accs]  # relative to Q^(k)
    return [{key: c for key, c in acc.items() if abs(c) > cut} for acc, cut in zip(accs, cuts)]


def verify_clique_recurrence(graph: WeightedGraph, clique) -> bool:
    """Check P_G = P_{G-K} + x * sum_{v in K} w_v P_{G-N[v]} coefficientwise,
    to 1e-10 relative.

    (In the u variable this is the recurrence P_G(-u^2) = P_{G-K}(-u^2)
    - u^2 sum_v b_v^2 P_{G-N[v]}(-u^2).)  Raises ValueError when K is not
    a clique.
    """
    kset = sorted(set(clique))
    kmask = 0
    for v in kset:
        kmask |= 1 << v
    if not graph.is_clique(kmask) or not kset:
        raise ValueError(f"{kset} is not a nonempty clique")
    lhs = weighted_independence_polynomial(graph)
    rhs = [0.0] * (lhs.alpha + 1)
    for k, c in enumerate(weighted_independence_polynomial(zero_weights(graph, kset)).coeffs):
        rhs[k] += c
    for v in kset:
        reduced = zero_weights(graph, bits(graph.closed_adj(v)))
        for k, c in enumerate(weighted_independence_polynomial(reduced).coeffs):
            if k + 1 <= lhs.alpha:
                rhs[k + 1] += graph.weights[v] * c
    scale = max(max(abs(c) for c in lhs.coeffs), 1.0)
    return all(abs(a - b) <= 1e-10 * max(abs(a), abs(b), scale * 1e-6, 1e-300)
               for a, b in zip(lhs.coeffs, rhs))


def random_forest(rng: random.Random, n_edges: int, trees: int = 1):
    """A forest of ``trees`` trees with ``n_edges`` edges: vertices
    0..trees-1 are the roots, every later vertex joins one before it, and
    each edge gets a weight b_e drawn from [0.2, 2].  Returns the vertex
    count, the edges and their weights."""
    edges = [(rng.randrange(v), v) for v in range(trees, trees + n_edges)]
    return trees + n_edges, edges, [rng.uniform(0.2, 2.0) for _ in edges]


def forest_line_graph(edges, b) -> WeightedGraph:
    """The line graph of a forest, edge e weighted b_e^2: an ECF graph
    whose P is the forest's matching polynomial."""
    touching = [(e, f) for e, f in itertools.combinations(range(len(edges)), 2)
                if set(edges[e]) & set(edges[f])]
    return WeightedGraph(len(edges), touching, weights=[w * w for w in b])


def forest_energies(n_vertices: int, edges, b) -> list[float]:
    """Jordan-Wigner reference for the line graph of a forest: one Majorana
    mode per vertex and b_e i gamma_u gamma_v per edge, whose signs a
    forest gauges away, so the energies are the positive eigenvalues of the
    weighted adjacency matrix, ascending.  They are as many as the edges
    of a maximum matching, which leaf-first greedy matching finds, since
    each edge joins a vertex to one before it."""
    a = np.zeros((n_vertices, n_vertices))
    matched = set()
    for (u, v), w in sorted(zip(edges, b), key=lambda edge: -edge[0][1]):
        a[u, v] = a[v, u] = w
        if u not in matched and v not in matched:
            matched |= {u, v}
    return np.linalg.eigvalsh(a)[n_vertices - len(matched) // 2:].tolist()


def chain_graph(spec: ChainSpec) -> WeightedGraph:
    """The chain's frustration graph with the squared couplings as they are:
    vertex i, of weight b2[i % k], is adjacent to the k - 1 before it."""
    n = spec.n_cells * spec.k
    return WeightedGraph(n, [(j, i) for i in range(n) for j in range(max(0, i - spec.k + 1), i)],
                         weights=[spec.b2[i % spec.k] for i in range(n)])


def chain_polynomial(spec: ChainSpec) -> IndependencePolynomial:
    """P for the chain graph via the symmetric k-term recursion.

    In the x variable: P_N = P_{N-1} + sum_l (-1)^(l+1) e_l x^l P_{N-l},
    with P_0 = 1 and P of negative index 0.  Coefficientwise this equals
    the enumeration-based polynomial of the same graph.
    """
    e = elementary_symmetric(spec.b2)
    polys: list[list[float]] = [[1.0]]
    for n in range(1, spec.n_cells + 1):
        # alpha of the n-cell chain is n, so the new polynomial has degree n
        new = list(polys[n - 1]) + [0.0] * (n - len(polys[n - 1]) + 1)
        for ell in range(1, spec.k + 1):
            if n - ell < 0:
                break
            sign = -1.0 if ell % 2 == 0 else 1.0
            for pos, c in enumerate(polys[n - ell]):
                new[pos + ell] += sign * e[ell] * c
        polys.append(new)
    return exact_polynomial(polys[spec.n_cells])


def exact_polynomial(coeffs) -> IndependencePolynomial:
    """The polynomial whose c_k are the floats ``coeffs``, taken exactly:
    C_k and the least shift D with 2^(D k) a multiple of each denominator."""
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    shift = max([(d.bit_length() - 2 + k) // k for k, (_, d) in enumerate(ratios) if k],
                default=0)
    return IndependencePolynomial(
        tuple(n << shift * k + 1 - d.bit_length() for k, (n, d) in enumerate(ratios)), shift)


def sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign changes down each column of ``values``, zeros skipped: the
    count that ``chains.chain_values`` takes a block at a time."""
    filled = chains.filled_signs(values)
    return np.count_nonzero(filled[1:] != filled[:-1], axis=0)


def chain_values_all_rows(b2, n_cells: int, ws: np.ndarray, every: int = chains.RESCALE_ROWS):
    """Reference for ``chains.chain_values``: the same vertex recursion over
    an array that keeps all Nk + k rows, rescaled every ``every`` cells but
    after the last.  Returns the last value row of each cell after the
    initial 1, whose ``sign_changes`` are the counts, and the Newton step,
    0 where the last row is exactly 0."""
    k, m = len(b2), len(ws)
    q = np.zeros((k + n_cells * k, 2 * m))  # Q_(-k) .. Q_(Nk-1), values then derivatives
    q[:k, :m] = 1.0
    for i in range(n_cells * k):
        row, before = q[k + i], q[k + i - 1]
        row[:] = -b2[i % k] * q[i]
        if i % k:
            row += before
        else:
            row[:m] += ws * before[:m]
            row[m:] += ws * before[m:] + before[:m]
        cells = (i + 1) // k
        if (i + 1) % k == 0 and cells % every == 0 and cells < n_cells:
            cell = q[i + 1:k + i + 1]
            shift = -np.frexp(np.max(np.abs(cell[:, :m]), axis=0))[1]
            np.ldexp(cell, np.concatenate([shift, shift]), out=cell)
    last = q[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(last[:m] == 0, 0.0, last[:m] / last[m:])
    return q[k - 1::k, :m], step


def free_spectrum_matches(h) -> bool:
    """The comparison of ``verify.verify_free`` on any frustration graph,
    ECF or not: the 2^n sorted eigenvalues of the oracle, 2^(n - alpha)
    at a time, against the sorted sign sums of the roots of P."""
    energies = indpoly.single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h)))
    sums = indpoly.sign_sums(energies)
    brute, _ = brute_force_spectrum(h)
    if len(brute) % len(sums):
        return False
    scale = max(abs(c) for c in h.couplings())
    return bool(np.abs(brute.reshape(len(sums), -1) - sums[:, None]).max() / scale
                < SPECTRUM_MATCH_TOL)


def verify_nonexample_equal_couplings() -> dict:
    """The claw-and-even-hole non-example: free at equal couplings only,
    although its frustration graph has claws and even holes."""
    equal = back_to_back_model(*([1.0] * 6))
    structure = classify(frustration_graph(equal))
    return {
        "equal_couplings_match": free_spectrum_matches(equal),
        "generic_couplings_match": free_spectrum_matches(
            back_to_back_model(1.0, 0.9, 1.1, 0.8, 1.2, 1.05)),
        "claw_found": structure.claw_witness is not None,
        "even_hole_found": structure.even_hole_witness is not None,
    }


def to_dense(a: OperatorSum | PauliTerm) -> np.ndarray:
    """Dense 2^n matrix of an OperatorSum or a single PauliTerm."""
    if isinstance(a, PauliTerm):
        a = OperatorSum.from_term(a)
    if a.n > DENSE_QUBIT_CAP:
        raise DenseCapError(
            f"dense realization of {a.n} qubits exceeds cap {DENSE_QUBIT_CAP}")
    coefs = np.array([list(a.terms.values())], dtype=complex)
    return dense_sums(a.n, list(a.terms), coefs)[0]


def oracle_levels(h) -> list[tuple[float, int]]:
    """(mean, count) of each run of the eigenvalues of
    ``verify.brute_force_spectrum`` whose gaps are at most
    SPECTRUM_CLUSTER_TOL of the largest |coupling|."""
    values, _ = brute_force_spectrum(h)
    tol = SPECTRUM_CLUSTER_TOL * max(abs(c) for c in h.couplings())
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(values) > tol) + 1, [len(values)]))
    counts = np.diff(bounds)
    means = np.add.reduceat(values, bounds[:-1]) / counts
    return list(zip(means.tolist(), counts.tolist()))


def full_matrix_spectrum(h) -> np.ndarray:
    """Reference for ``verify.brute_force_spectrum``: every eigenvalue of
    the full 2^n matrix of ``h``, ascending, for at most 10 qubits."""
    assert h.n <= 10, "the full-matrix reference is for small systems"
    return np.linalg.eigvalsh(to_dense(OperatorSum.from_terms(h.n, h.terms)))


def all_sector_spectrum(h) -> np.ndarray:
    """Reference for ``verify.brute_force_spectrum``, which diagonalizes the
    centre's sectors only and repeats their eigenvalues for the qubits that
    no term touches: here every frame pair whose a commutes with every term
    is a sector qubit, and each of the 2^s sectors is a dense block on the
    other m = n - s qubits, diagonalized on its own; no cap and no
    self-check."""
    n = h.n
    terms = [t.x | t.z << n for _, t in h.terms]
    pairs = _symplectic_pairs(n, terms + [1 << i for i in range(2 * n)])
    meets = [any(_omega(a, v, n) for v in terms) for a, _ in pairs]
    pairs = [pair for pair, met in zip(pairs, meets) if not met] + [
        pair for pair, met in zip(pairs, meets) if met]
    s, m = meets.count(False), meets.count(True)
    mask = (1 << n) - 1
    frame = [(a, b, PauliTerm(n, a & mask, a >> n), PauliTerm(n, b & mask, b >> n))
             for a, b in pairs]
    reduced: dict[tuple[int, int], int] = {}
    index, sector_bits, coefs = [], [], []
    for c, t in h.terms:
        v = t.x | t.z << n
        e, word = 0, PauliTerm.identity(n)
        xs = zs = 0
        for k, (a, b, a_term, b_term) in enumerate(frame):
            if _omega(v, b, n):
                zs |= 1 << k
                step, word = multiply(word, a_term)
                e += step
            if _omega(v, a, n):
                xs |= 1 << k
                step, word = multiply(word, b_term)
                e += step
        xr, zr = xs >> s, zs >> s
        c = c * (1, 1j, -1, -1j)[((xr & zr).bit_count() - e) % 4]
        index.append(reduced.setdefault((xr, zr), len(reduced)))
        sector_bits.append(zs & ((1 << s) - 1))
        coefs.append(c.real)
    strings = list(reduced)
    evals = []
    for sector in range(1 << s):
        block_coefs = [0.0] * len(strings)
        for i, flips, c in zip(index, sector_bits, coefs):
            block_coefs[i] += -c if (sector & flips).bit_count() & 1 else c
        evals.extend(np.linalg.eigvalsh(dense_sums(m, strings, np.array([block_coefs])))[0])
    return np.sort(evals)


# -- root isolation ----------------------------------------------------------

def midpoint_roots_by_count(evaluate, n, hi, first=None):
    """Reference for ``indpoly.roots_by_count``: the bisection it replaced.

    Every bracket is halved at its midpoint on the count alone until it is
    at most ROOT_REL_TOL of its upper end wide, and one whose midpoint
    count falls outside its ends' counts is kept as it is, as is one whose
    midpoint rounds to one of its ends, as between adjacent subnormal
    floats, where ROOT_REL_TOL of the upper end rounds to 0.  A bracket with
    several roots tries its lower third point instead: the midpoint may
    fall in the rounding noise of one of its roots, at an exact root for
    instance, where ``bisection_energies`` reports the count as unknown.
    The points of a first sweep, ``first``, are not used: it starts from
    (0, hi] whatever the caller's estimates.
    """
    lo, up = np.zeros(1), np.full(1, float(hi))
    c_lo, c_up = np.full(1, n), np.zeros(1, dtype=int)
    done = []
    while len(lo):
        mid = 0.5 * (lo + up)
        wide = (up - lo > indpoly.ROOT_REL_TOL * up) & (lo < mid) & (mid < up)
        c_mid = np.full(len(lo), -1)
        c_mid[wide] = evaluate(mid[wide])[0]
        split = wide & (c_mid <= c_lo) & (c_mid >= c_up)
        retry = wide & ~split & (c_lo - c_up > 1)
        if retry.any():
            mid[retry] = lo[retry] + (up - lo)[retry] / 3
            c_mid[retry] = evaluate(mid[retry])[0]
            split = wide & (c_mid <= c_lo) & (c_mid >= c_up)
        done.append((lo[~split], up[~split], (c_lo - c_up)[~split]))
        lo, mid, up, c_lo, c_mid, c_up = (x[split] for x in (lo, mid, up, c_lo, c_mid, c_up))
        left, right = c_lo > c_mid, c_mid > c_up
        lo, up = np.concatenate([lo[left], mid[right]]), np.concatenate([mid[left], up[right]])
        c_lo, c_up = (np.concatenate([c_lo[left], c_mid[right]]),
                      np.concatenate([c_mid[left], c_up[right]]))
    lo, up, m = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(lo)
    return lo[order], up[order], m[order]


# the rows of a cut bracket that make its three pieces, and the point, count
# and step of each cut, as ``plain_roots_by_count`` lays them out
_PLAIN_PIECES = np.array([0, 1, 2, 1, 2, 3, 4, 5, 6, 5, 6, 7, 8, 9, 10, 9, 10, 11, 12, 12, 12])
_PLAIN_CUT1, _PLAIN_CUT2 = [1, 5, 9], [2, 6, 10]


def plain_roots_by_count(evaluate, n: int, hi: float, first: np.ndarray):
    """``indpoly.roots_by_count`` as it was written before its numpy calls
    per sweep were cut: an ``errstate`` per sweep, ``np.clip``, and four
    ``np.where`` for the near and far ends."""
    hi = float(hi)
    counts, steps = evaluate(first)
    # a first cut whose count leaves the range of the counts around it is noise
    kept = ((counts <= np.minimum.accumulate(np.concatenate(([n], counts[:-1]))))
            & (counts >= np.maximum.accumulate(np.concatenate(([0], counts[:0:-1])))[::-1]))
    ends = np.concatenate(([0.0], first[kept], [hi]))
    c = np.concatenate(([n], counts[kept], [0]))
    s = np.concatenate(([np.nan], steps[kept], [np.nan]))
    state = np.array([ends[:-1], ends[1:], c[:-1], c[1:], s[:-1], s[1:], np.full(len(c) - 1, np.inf)])
    done = []
    while state.shape[1]:
        lo, up, c_lo, c_up, s_lo, s_up, parent = state
        width = up - lo
        tight = (width <= indpoly.ROOT_REL_TOL * up) | (width >= parent)
        held = c_lo > c_up
        finished = held & tight
        if finished.any():
            done.append(state[:4, finished])
        live = held & ~tight
        if not live.all():
            state, width = state[:, live], width[live]
            lo, up, c_lo, c_up, s_lo, s_up, parent = state
            if not len(lo):
                break
        newton = width <= 0.5 * parent
        m = c_lo - c_up
        g_lo, g_up = lo - m * s_lo, up - m * s_up
        near_lo = np.abs(lo - g_lo) < np.abs(up - g_up)
        g = np.where(near_lo, g_lo, g_up)
        # one root r: 1/s = 1/(x - r) + S at either end, with S the pull of
        # the other roots, read at the far end with g for r
        x_n, s_n = np.where(near_lo, lo, up), np.where(near_lo, s_lo, s_up)
        x_f, s_f = np.where(near_lo, up, lo), np.where(near_lo, s_up, s_lo)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pull = 1.0 / s_f - 1.0 / (x_f - g)
            c = x_n - 1.0 / (1.0 / s_n - pull)
        corrected = (m == 1) & (lo < c) & (c < up)
        spread = np.where(corrected, 0.25 * np.abs(c - g), 2.0 * np.abs(g_lo - g_up))
        g = np.where(corrected, c, np.clip(g, lo, up))
        h = np.maximum(spread, indpoly._NEWTON_FLOOR * up)
        a, b = np.maximum(g - h, lo), np.minimum(g + h, up)
        # a window that reaches an end keeps its other cut and halves the rest
        q1 = np.where(a > lo, a, 0.5 * (lo + b))
        q2 = np.where(b < up, b, 0.5 * (a + up))
        guided = newton & ((a > lo) | (b < up)) & (lo < q1) & (q2 < up)
        p1 = np.where(guided, q1, lo + width / 3)
        p2 = np.where(guided, q2, up - width / 3)
        counts, steps = evaluate(np.concatenate([p1, p2]))
        k = len(lo)
        c1, c2 = counts[:k], counts[k:]
        stacked = np.array([lo, p1, p2, up, c_lo, c1, c2, c_up,
                            s_lo, steps[:k], steps[k:], s_up, width])
        ordered = (c_lo >= c1) & (c1 >= c2) & (c2 >= c_up)
        if not ordered.all():
            one = m == 1
            # a noisy cut: its count is outside its ends' counts, or the cuts swapped
            out1, out2 = (c1 > c_lo) | (c1 < c_up), (c2 > c_lo) | (c2 < c_up)
            swapped = ~out1 & ~out2 & (c1 < c2)
            # a bracket with several roots and one good cut is cut there alone
            good1, good2 = ~one & ~out1 & out2, ~one & out1 & ~out2
            if good1.any() or good2.any():
                stacked[np.ix_(_PLAIN_CUT2, good1)] = stacked[np.ix_(_PLAIN_CUT1, good1)]
                stacked[np.ix_(_PLAIN_CUT1, good2)] = stacked[np.ix_(_PLAIN_CUT2, good2)]
                ordered |= good1 | good2
            n1, n2 = out1 | swapped, out2 | swapped
            f_lo = np.where(one, np.where(n1, p1, p2), lo)
            f_up = np.where(one, np.where(n2, p2, p1), up)
            noisy = ~ordered
            done.append(np.array([f_lo, f_up, c_lo, c_up])[:, noisy])
            stacked = stacked[:, ordered]
        state = stacked[_PLAIN_PIECES].reshape(7, -1)
    lo, up, c_lo, c_up = np.concatenate(done, axis=1)
    order = np.argsort(lo)
    return lo[order], up[order], (c_lo - c_up)[order].astype(int)


def plain_chain_energies(spec: ChainSpec, values=chains.chain_values):
    """``chains.chain_energies`` with ``plain_roots_by_count`` and the
    levels assembled one by one with ``math.sqrt`` and ``math.ldexp``, as
    they were; ``values`` stands for ``chains.chain_values``.  The first
    sweep cuts at the same points, ``chains._first_cuts``, the powers of
    two and the pairs around the predicted levels, so that only the
    isolators differ."""
    if not any(spec.b2):
        return indpoly.SingleParticleEnergies(((0.0, spec.n_cells),), 0.0)
    j = (math.frexp(sum(spec.b2))[1] - 1) // 2
    b2 = [math.ldexp(b, -2 * j) for b in spec.b2]
    e = elementary_symmetric(b2)
    n = spec.n_cells
    lo, up, m = plain_roots_by_count(lambda ws: values(b2, n, ws), n, sum(e),
                                     chains._first_cuts(e, n))
    energies = tuple((math.ldexp(math.sqrt(w), j), int(c))
                     for w, c in zip(0.5 * (lo + up), m))
    return indpoly.SingleParticleEnergies(energies, max((up - lo) / up))


def use_midpoint_bisection(monkeypatch):
    """Make ``chains.chain_energies`` isolate its roots with the reference bisection."""
    monkeypatch.setattr(chains, "roots_by_count", midpoint_roots_by_count)


def exact_count_above(poly: IndependencePolynomial, w: float) -> int:
    """Squared energies above w: the Budan-Fourier sign changes of P, P',
    P'', ... at x = -1/w in exact arithmetic, which for a real-rooted P
    count its roots in (x, 0) exactly.  With w = q / p, P^(j)(x) / j! times
    the positive 2^(D alpha) q^(alpha - j) is the coefficient of u^j in
    sum_k C_k 2^(D (alpha - k)) q^(alpha - k) (u - p)^k, which synthetic
    division by u + p gives in integers."""
    q, p = w.as_integer_ratio()
    alpha = poly.alpha
    h = [c << poly.shift * (alpha - k) for k, c in enumerate(poly.ints)]
    scale = 1
    for k in range(alpha, -1, -1):
        h[k] *= scale
        scale *= q
    h.reverse()  # descending powers of u
    for i in range(alpha):
        for j in range(1, alpha + 1 - i):
            h[j] -= p * h[j - 1]
    signs = [v > 0 for v in h if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def bisection_energies(poly: IndependencePolynomial) -> indpoly.SingleParticleEnergies:
    """Reference for ``indpoly.single_particle_energies``: the squared
    energies w, in s = w / 2^p with 2^p the power of two above c_1, so that
    they lie in (0, 1), bisected by ``midpoint_roots_by_count`` on
    ``exact_count_above`` down to ROOT_REL_TOL.  Each bracket gives the
    energy at its midpoint, with the number of roots it holds by count as
    the multiplicity; brackets are not merged."""
    exponent = poly.ints[1].bit_length() - poly.shift

    def evaluate(s):
        return np.array([exact_count_above(poly, math.ldexp(x, exponent)) for x in s.tolist()]), None

    lo, up, m = midpoint_roots_by_count(evaluate, poly.alpha, 1.0)
    return indpoly.SingleParticleEnergies(
        tuple((math.sqrt(math.ldexp(0.5 * (a + b), exponent)), int(k))
              for a, b, k in zip(lo, up, m)), float(np.max((up - lo) / up)))


def rational_bisection_energies(poly: IndependencePolynomial) -> indpoly.SingleParticleEnergies:
    """Reference energies at any spread of the roots: each squared energy w
    bracketed to 2^-64 of itself by bisection on ``exact_count_above`` at
    rationals, cut at a power of two while a bracket spans more than a
    factor 2, so no float range bounds it.  The roots lie in
    (c_alpha / c_1^(alpha - 1) / 2, c_1]; each bracket gives the energy at
    its midpoint, rounded once from 40 digits, with its count as the
    multiplicity, and ``width`` is the largest (hi - lo) / hi."""
    c = [Fraction(v, 1 << poly.shift * k) for k, v in enumerate(poly.ints)]
    stack, found = [(c[-1] / c[1] ** (poly.alpha - 1) / 2, c[1], poly.alpha, 0)], []
    while stack:
        lo, hi, c_lo, c_hi = stack.pop()
        if c_lo == c_hi:
            continue
        if hi - lo <= hi / 2**64:
            found.append((lo, hi, c_lo - c_hi))
            continue
        log2 = [x.numerator.bit_length() - x.denominator.bit_length() for x in (lo, hi)]
        mid = Fraction(2) ** (sum(log2) // 2) if hi > 2 * lo else (lo + hi) / 2
        if not lo < mid < hi:  # log2 is off by up to 1 at either end
            mid = (lo + hi) / 2
        c_mid = exact_count_above(poly, mid)
        stack += [(lo, mid, c_lo, c_mid), (mid, hi, c_mid, c_hi)]
    energies = []
    with mpmath.workdps(40):
        for lo, hi, m in sorted(found):
            w = (lo + hi) / 2
            energies.append((float(mpmath.sqrt(mpmath.mpf(w.numerator) / w.denominator)), m))
    return indpoly.SingleParticleEnergies(
        tuple(energies), max(float((hi - lo) / hi) for lo, hi, _ in found))


def record_sweeps(monkeypatch, module) -> list[int]:
    """A list that gets the number of points of each evaluation that
    ``module``'s calls to ``roots_by_count`` make, one entry a sweep."""
    sweeps = []
    find = module.roots_by_count

    def counted(evaluate, n, hi, first=None):
        def recorded(ws):
            sweeps.append(len(ws))
            return evaluate(ws)
        return find(recorded, n, hi, first)

    monkeypatch.setattr(module, "roots_by_count", counted)
    return sweeps


def certify_groups(count_above, total: int, energies, rel: float = 1e-9) -> None:
    """Each group of energies, widened by ``rel``, holds exactly as many
    roots as it has members; ``count_above(w)`` is the exact number of
    squared energies above w."""
    groups = []
    for e in sorted(energies.flat()):
        if groups and e * (1 - rel) <= groups[-1][1] * (1 + rel):
            groups[-1][1:] = [e, groups[-1][2] + 1]
        else:
            groups.append([e, e, 1])
    assert sum(size for _, _, size in groups) == total
    for lo, hi, size in groups:
        inside = count_above((lo * (1 - rel)) ** 2) - count_above((hi * (1 + rel)) ** 2)
        assert inside == size, (lo, hi, size, inside)


def assert_same_energies(got, want, noise) -> None:
    """The same multiplicities, and squared energies w that agree to 1e-13
    relative or to within ``noise(w)``, how far rounding blurs the count
    around the root at w: two isolators stopped by that noise stop at
    different points of it."""
    assert [m for _, m in got.energies] == [m for _, m in want.energies]
    for (a, _), (b, _) in zip(got.energies, want.energies):
        assert abs(a * a - b * b) <= 1e-13 * b * b + noise(b * b), (a, b)


# -- Pauli products one pair of sums at a time ------------------------------

def _pack_one(a: OperatorSum) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The word arrays key, x and z of the terms of ``a``, one column a term,
    and their coefficients of X^x Z^z, with Python ints word by word."""
    def words(values, bits):
        count = max(1, -(-bits // 64))
        return np.array([[v >> (64 * w) & ((1 << 64) - 1) for v in values]
                         for w in range(count)], dtype=np.uint64).reshape(count, len(values))
    strings = list(a.terms)
    coef = np.array([c * 1j ** ((x & z).bit_count() % 4) for (x, z), c in a.terms.items()],
                    dtype=complex)
    return (words([x | z << a.n for x, z in strings], 2 * a.n),
            words([x for x, _ in strings], a.n), words([z for _, z in strings], a.n), coef)


def pairwise_kernel(a, b, parity):
    """Reference for ``paulis._kernel``: the kernel before it took rows of
    coefficients, for one pair of sums, ``a`` and ``b`` as ``_pack_one``
    gives them.  Key columns and X^x Z^z coefficients of the products
    summed per string, in blocks of 2^16 pairs."""
    def odd_overlap(u, v):
        acc = np.bitwise_and.outer(u[0], v[0])
        for uw, vw in zip(u[1:], v[1:]):
            acc ^= np.bitwise_and.outer(uw, vw)
        return (np.bitwise_count(acc) & 1).view(bool)

    def reduce(key, coef):
        order = np.argsort(key[-1])
        for row in key[-2::-1]:
            order = order[np.argsort(row[order], kind="stable")]
        key = key[:, order]
        start = np.zeros(key.shape[1], dtype=bool)
        start[:1] = True
        for row in key:
            start[1:] |= row[1:] != row[:-1]
        first = np.flatnonzero(start)
        return key[:, first], np.add.reduceat(coef[order], first)

    (akey, ax, az, acoef), (bkey, bx, bz, bcoef) = a, b
    chunk = 1 << 16
    na, nb = len(acoef), len(bcoef)
    sums = (np.zeros((len(akey), 0), dtype=np.uint64), np.zeros(0, dtype=complex))
    cols = min(max(nb, 1), chunk)
    rows = chunk // cols
    for i in range(0, na, rows):
        ia = slice(i, i + rows)
        for j in range(0, nb, cols):
            jb = slice(j, j + cols)
            odd = odd_overlap(az[:, ia], bx[:, jb])
            pair_coef = np.multiply.outer(acoef[ia], bcoef[jb])
            np.negative(pair_coef, out=pair_coef, where=odd)
            pair_key = (akey[:, ia, None] ^ bkey[:, None, jb]).reshape(len(akey), -1)
            if parity is None:
                pairs = (pair_key, pair_coef.ravel())
            else:
                keep = (odd ^ odd_overlap(ax[:, ia], bz[:, jb])) == bool(parity)
                pairs = (pair_key[:, keep.ravel()], pair_coef[keep])
            if i or j:
                pairs = [np.concatenate(arrays, axis=-1) for arrays in zip(sums, pairs)]
            sums = reduce(*pairs)
    return sums


def pairwise_product(a: OperatorSum, b: OperatorSum, parity, factor: float) -> dict:
    """factor * the product of ``a`` and ``b`` through ``pairwise_kernel``,
    as a dict of its terms: over every string pair when ``parity`` is None,
    else over the pairs with that symplectic parity; pruned as the package
    prunes, at PRUNE_TOL |factor| max|a| max|b|."""
    key, coef = pairwise_kernel(_pack_one(a), _pack_one(b), parity)
    values = [sum(int(w) << (64 * i) for i, w in enumerate(col)) for col in key.T]
    mask = (1 << a.n) - 1
    cut = PRUNE_TOL * abs(factor) * a.max_abs_coeff() * b.max_abs_coeff()
    acc = {}
    for v, c in zip(values, factor * coef):
        x, z = v & mask, v >> a.n
        c *= 1j ** (-(x & z).bit_count() % 4)
        if abs(c) > cut:
            acc[(x, z)] = complex(c)
    return acc


def opsum_mul(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """The product a b, as a batch of one."""
    return opsum_mul_batch([a], [b])[0]


# -- the lemma checks one u at a time -------------------------------------------

def unit_grid(h: Hamiltonian, us) -> list[float]:
    """``us`` divided by the power of two just above the largest |coupling|
    of ``h``, as the grid checks of ``solver`` take it."""
    scale = math.ldexp(1.0, math.frexp(max(abs(c) for c, _ in h.terms))[1])
    return [u / scale for u in us]


def transfer_at(t: TransferOperator, u: float) -> OperatorSum:
    """T(u) = sum_j (-u)^j Q^(j) of ``t`` at one u, a combination of one row:
    the per-u reference for the package, which takes the T(u) it needs as
    the rows of one pass."""
    return OperatorSum.combinations([t.terms(u)])[0]


def _transfer_pair(h, u: float):
    """T(u), T(-u) and P(-u^2) of ``h``, from its frustration graph."""
    graph = frustration_graph(h)
    t = transfer(h, graph)
    return transfer_at(t, u), transfer_at(t, -u), weighted_independence_polynomial(graph).at(-u * u)


def per_u_transfer_factorization(h, u: float) -> float:
    """Reference for ``solver.transfer_factorization_residual`` at one u,
    its plain products taken as they were before the grid was batched: max
    coefficient of T(u) T(-u) - P(-u^2) I over ||T(u)||_1 ||T(-u)||_1."""
    tu, tmu, p = _transfer_pair(h, u)
    expected = p * OperatorSum.identity(h.n)
    return (opsum_mul(tu, tmu) - expected).max_abs_coeff() / (tu.abs_sum() * tmu.abs_sum())


def per_u_fundamental_identity(hext, chi, ks, u: float) -> float:
    """Reference for ``solver.check_fundamental_identity`` at one u, its
    products taken as they were before the grid was batched: T(u) (1 + u
    sum h_v) and (1 - u sum h_v) chi in one pass of two rows, then
    chi T(-u) and the left side as plain products."""
    tu, tmu, p = _transfer_pair(hext, u)
    hsum = OperatorSum.from_terms(hext.n, [hext.terms[v] for v in ks])
    ident = OperatorSum.identity(hext.n)
    chi_op = OperatorSum.from_term(chi)
    plus, minus = ident + u * hsum, ident - u * hsum
    left, right = opsum_mul_batch([tu, minus], [plus, chi_op])
    lhs = opsum_mul(left, opsum_mul(chi_op, tmu))
    rhs = p * right
    scale = tu.abs_sum() * plus.abs_sum() * tmu.abs_sum() + abs(p) * minus.abs_sum()
    return (lhs - rhs).abs_sum() / scale
