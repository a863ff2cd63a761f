"""Shared test helpers: naive reference checkers, graph generators, and
the paper's lemmas that the tests check but no command runs.

The naive checkers deliberately use brute-force subset enumeration so they
stay independent of the bitset search paths they are used to validate.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import numpy as np

from ffsolve import chains, indpoly
from ffsolve.chains import ChainSpec, elementary_symmetric
from ffsolve.errors import DenseCapError
from ffsolve.graphs import WeightedGraph, bits, frustration_graph, stable_sets
from ffsolve.indpoly import IndependencePolynomial, weighted_independence_polynomial
from ffsolve.models import back_to_back_model
from ffsolve.models import Hamiltonian
from ffsolve.paulis import (
    DENSE_QUBIT_CAP,
    PRUNE_TOL,
    OperatorSum,
    PauliTerm,
    dense_sums,
    multiply,
    opsum_mul_batch,
)
from ffsolve.recognition import classify
from ffsolve.solver import transfer
from ffsolve.verify import SPECTRUM_CLUSTER_TOL, SPECTRUM_MATCH_TOL, brute_force_spectrum

EPS = float(np.finfo(float).eps)


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 weighted: bool = False) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)] if weighted else None
    return WeightedGraph(n, edges, weights=weights)


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)], weights=weights)


def maximal_cliques(g: WeightedGraph) -> list[list[int]]:
    """Every maximal clique of ``g``, as a sorted vertex list, from networkx."""
    ref = nx.Graph(g.edges())
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


def naive_independence_polynomial(g: WeightedGraph) -> list[float]:
    """c_k = sum over the independent k-subsets of their weight products,
    with trailing zero coefficients dropped."""
    coeffs = [0.0] * (g.n + 1)
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(g.adj[a] >> b & 1 for a, b in itertools.combinations(subset, 2)):
                coeffs[size] += math.prod(g.weights[v] for v in subset)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def per_set_charges(h, graph: WeightedGraph) -> list[dict]:
    """Reference for ``solver.transfer``: the terms of every charge, with
    each set's coupling and Pauli products multiplied out from scratch.

    The sets are walked in the order of ``graphs.stable_sets`` and each
    product is taken in ascending vertex order, so that every coefficient
    is summed in the same order, and the charges compare equal bit for bit.
    """
    accs: list[dict] = []
    for mask in stable_sets(graph.adj):
        k = mask.bit_count()
        if k == len(accs):
            accs.append({})
        coeff = 1.0
        prod = PauliTerm.identity(h.n)
        for v in bits(mask):
            c, t = h.terms[v]
            coeff *= c
            prod = multiply(prod, t)
        key = (prod.x, prod.z)
        accs[k][key] = accs[k].get(key, 0.0) + coeff * prod.phase
    s = max((abs(c) for c, _ in h.terms), default=1.0)  # Q^(k) is pruned against s^k
    return [{key: c for key, c in acc.items() if abs(c) > PRUNE_TOL * s ** k}
            for k, acc in enumerate(accs)]


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
    minus_k, _ = graph.remove_set(kset)
    rhs = [0.0] * (lhs.alpha + 1)
    for k, c in enumerate(weighted_independence_polynomial(minus_k).coeffs):
        rhs[k] += c
    for v in kset:
        reduced, _ = graph.remove_set(bits(graph.closed_adj(v)))
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
    weighted adjacency matrix, ascending."""
    a = np.zeros((n_vertices, n_vertices))
    for (u, v), w in zip(edges, b):
        a[u, v] = a[v, u] = w
    ev = np.linalg.eigvalsh(a)
    return ev[ev > 1e-9 * ev[-1]].tolist()


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
    return IndependencePolynomial(tuple(polys[spec.n_cells]))


def chain_values_all_rows(e, n_cells: int, ws: np.ndarray):
    """Reference for ``chains.chain_values``: the same recursion and
    rescaling every RESCALE_ROWS rows over an array that keeps all N + k
    rows.  Returns the value rows v_1..v_{N+1}, whose ``sign_changes`` are
    the counts, the Newton step and max_s |v_s| in the scale of the last
    row."""
    k = len(e) - 1
    m = len(ws)
    coef = -np.array(e[:0:-1])
    v = np.zeros((n_cells + k, 2 * m))
    v[k - 1] = np.concatenate([ws, np.ones(m)])
    w2 = np.concatenate([ws, ws])
    rows, values, derivatives = list(v), list(v[:, :m]), list(v[:, m:])
    top = np.abs(ws)
    end = n_cells + k
    for start in range(k, end, chains.RESCALE_ROWS):
        stop = min(start + chains.RESCALE_ROWS, end)
        for s in range(start, stop):
            row = rows[s]
            np.dot(coef, v[s - k:s], row)
            row += w2 * rows[s - 1]
            derivatives[s] += values[s - 1]
        top = np.maximum(top, np.max(np.abs(v[start:stop, :m]), axis=0))
        if stop < end:
            window = v[stop - k:stop]
            shift = -np.frexp(np.max(np.abs(window[:, :m]), axis=0))[1]
            np.ldexp(window, np.concatenate([shift, shift]), out=window)
            with np.errstate(over="ignore"):
                top = np.ldexp(top, shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = v[-1, :m] / v[-1, m:]
    return v[k - 1:, :m], step, top


def chain_values_every_k(e, n_cells: int, ws: np.ndarray):
    """Reference for ``chains.chain_values``: the recursion rescaled every
    k rows, at the last row as well, which stays in float range for any
    couplings of order 1.  Returns the value rows, the Newton step and
    max_s |v_s| in the scale of the last row."""
    k = len(e) - 1
    m = len(ws)
    coef = -np.array(e[:0:-1])
    v = np.zeros((n_cells + k, 2 * m))
    v[k - 1] = np.concatenate([ws, np.ones(m)])
    w2 = np.concatenate([ws, ws])
    top = np.abs(ws)
    for s in range(k, n_cells + k):
        v[s] = w2 * v[s - 1] + coef @ v[s - k:s]
        v[s, m:] += v[s - 1, :m]
        if (s + 1) % k == 0 or s == n_cells + k - 1:
            window = v[s - k + 1:s + 1]
            peak = np.max(np.abs(window[:, :m]), axis=0)
            shift = -np.frexp(peak)[1]
            window[:] = np.ldexp(window, np.concatenate([shift, shift]))
            with np.errstate(over="ignore"):
                top = np.ldexp(np.maximum(top, peak), shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = v[-1, :m] / v[-1, m:]
    return v[k - 1:, :m], step, top


def free_spectrum_matches(h) -> bool:
    """The comparison of ``verify.verify_free`` on any frustration graph,
    ECF or not: the 2^n sorted eigenvalues of the oracle, 2^(n - alpha)
    at a time, against the sorted sign sums of the roots of P."""
    energies = indpoly.single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h)))
    sums = indpoly.sign_sums(energies)
    brute = brute_force_spectrum(h)
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
    values = brute_force_spectrum(h)
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


# -- root isolation ----------------------------------------------------------

def midpoint_roots_by_count(evaluate, n, hi, first=None):
    """Reference for ``indpoly.roots_by_count``: the bisection it replaced.

    Every bracket is halved at its midpoint on the count alone, and one
    whose midpoint count falls outside its ends' counts is kept as it is.
    A bracket with several roots tries its lower third point instead: the
    midpoint may fall in the rounding noise of one of its roots, at an
    exact root for instance, where ``single_particle_energies`` reports the
    count as unknown.  The points of a first sweep, ``first``, are not
    used: it starts from (0, hi] whatever the caller's estimates.
    """
    lo, up = np.zeros(1), np.full(1, float(hi))
    c_lo, c_up = np.full(1, n), np.zeros(1, dtype=int)
    done = []
    while len(lo):
        mid = 0.5 * (lo + up)
        wide = up - lo > indpoly.ROOT_REL_TOL * up
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


def use_midpoint_bisection(monkeypatch):
    """Make both energy paths isolate their roots with the reference bisection."""
    monkeypatch.setattr(indpoly, "roots_by_count", midpoint_roots_by_count)
    monkeypatch.setattr(chains, "roots_by_count", midpoint_roots_by_count)


def record_sweeps(monkeypatch, module) -> list[int]:
    """A list that gets the number of points of each evaluation that
    ``module``'s calls to ``roots_by_count`` make, one entry a sweep."""
    sweeps = []
    isolate = module.roots_by_count

    def counted(evaluate, n, hi, first=None):
        def recorded(ws):
            sweeps.append(len(ws))
            return evaluate(ws)
        return isolate(recorded, n, hi, first)

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


def pairwise_product(a: OperatorSum, b: OperatorSum, parity, factor: float) -> OperatorSum:
    """factor * the product of ``a`` and ``b`` through ``pairwise_kernel``:
    over every string pair when ``parity`` is None, else over the pairs
    with that symplectic parity; pruned as the package prunes."""
    key, coef = pairwise_kernel(_pack_one(a), _pack_one(b), parity)
    values = [sum(int(w) << (64 * i) for i, w in enumerate(col)) for col in key.T]
    mask = (1 << a.n) - 1
    acc = {}
    for v, c in zip(values, factor * coef):
        x, z = v & mask, v >> a.n
        c *= 1j ** (-(x & z).bit_count() % 4)
        if abs(c) > PRUNE_TOL:
            acc[(x, z)] = complex(c)
    return OperatorSum(a.n, acc)


def opsum_mul(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """The product a b, as a batch of one."""
    return opsum_mul_batch([a], [b])[0]


# -- the lemma checks one u at a time -------------------------------------------

def unit_couplings(h: Hamiltonian) -> Hamiltonian:
    """``h`` with its couplings divided by the power of two just above the
    largest |coupling|, as the grid checks of ``solver`` take it."""
    scale = math.ldexp(1.0, math.frexp(max(abs(c) for c, _ in h.terms))[1])
    return Hamiltonian(h.n, tuple((c / scale, t) for c, t in h.terms))


def _transfer_pair(h, u: float):
    """T(u), T(-u) and P(-u^2) of ``h``, from its frustration graph."""
    graph = frustration_graph(h)
    t = transfer(h, graph)
    return t.evaluate(u), t.evaluate(-u), weighted_independence_polynomial(graph)(-u * u)


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
