"""Acceptance gate: the ten top-level criteria, one test each.

Every test prints a single PASS/FAIL line (run with -s to see them all) and
asserts its stated tolerance.  Expected values come from independent
oracles: printed closed forms, dense exact diagonalization, brute-force
subset enumeration, and a from-scratch line-graph test.
"""

import itertools
import random
import time

import numpy as np

from conftest import (
    chain_polynomial,
    edge_list,
    maximal_cliques,
    naive_has_claw,
    naive_has_even_hole,
    opsum_mul,
    random_graph,
    to_dense,
    transfer_at,
    verify_clique_recurrence,
    verify_nonexample_equal_couplings,
    without,
)
from ffsolve.chains import ChainSpec, dispersion, gap_scan, unit_sum_fill
from ffsolve.graphs import WeightedGraph, frustration_graph
from ffsolve.indpoly import single_particle_energies, weighted_independence_polynomial
from ffsolve.models import (
    back_to_back_model,
    chain_model,
    h5_model,
    h6_model,
    junction_model,
)
from ffsolve.paulis import OperatorSum, opsum_comm
from ffsolve.recognition import classify, find_claw, find_even_hole, smallest_simplicial_clique
from ffsolve.solver import (
    all_modes,
    check_fundamental_identity,
    simplicial_extension,
    transfer,
)
from ffsolve.verify import verify_free

U_GRID = (0.1, -0.1, 0.37, -0.37, 0.9, -0.9, 1.5, -1.5)
SEED = 20240817


def report(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def draw(rng, count):
    return [rng.choice([-1, 1]) * rng.uniform(0.4, 1.8) for _ in range(count)]


def test_criterion_01_printed_polynomials():
    """The two three-qubit models reproduce their printed quartics."""
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        a, b, c, d, e = draw(rng, 5)
        poly = weighted_independence_polynomial(frustration_graph(h5_model(a, b, c, d, e)))
        want = (1.0,
                a * a + b * b + c * c + d * d + e * e,
                a * a * (c * c + d * d) + b * b * (d * d + e * e) + c * c * e * e)
        worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(poly.coeffs, want)))
        a, b, c, d, e, f = draw(rng, 6)
        poly = weighted_independence_polynomial(frustration_graph(h6_model(a, b, c, d, e, f)))
        want = (1.0,
                a * a + b * b + c * c + d * d + e * e + f * f,
                a * a * (c * c + d * d + f * f) + b * b * (d * d + e * e)
                + c * c * e * e + e * e * f * f)
        worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(poly.coeffs, want)))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"printed polynomials, 20 draws each: rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_free_spectra_match_oracle():
    """Brute-force spectra equal the synthesized free spectra, n <= 8."""
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    models = [("h5", lambda r: h5_model(*draw(r, 5))),
              ("h6", lambda r: h6_model(*draw(r, 6)))]
    for n_cells in (1, 2):
        for k in (2, 3, 4):
            models.append((f"chain({n_cells},{k})",
                           lambda r, N=n_cells, K=k: chain_model(N, K, draw(r, K))))
    for name, make in models:
        for _ in range(10):
            rep = verify_free(make(rng))
            assert rep.applicable, name
            ok = rep.spectrum_match and rep.degeneracy_uniform
            assert ok, f"{name}: {rep.failure}"
            worst = max(worst, rep.max_level_deviation)
            cases += 1
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-8 and elapsed < 30.0 and cases == 80,
           f"{cases} spectra matched, worst scaled deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_charges_commute_beyond_ecf():
    """Claw-freeness alone makes the independent-set charges commute."""
    rng = random.Random(SEED + 2)
    hp = chain_model(3, 3, draw(rng, 3), periodic=True)
    gp = frustration_graph(hp)
    assert find_claw(gp) is None and find_even_hole(gp) is not None
    hj = junction_model((1, 1, 1), 2, [rng.uniform(0.5, 1.5) for _ in range(12)])
    worst = 0.0
    for h in (hp, hj):
        t = transfer(h, frustration_graph(h))
        for r in range(1, t.alpha + 1):
            for s in range(r + 1, t.alpha + 1):
                worst = max(worst, opsum_comm(t.charges[r], t.charges[s]).max_abs_coeff())
    report(3, worst < 1e-10,
           f"periodic chain + junction charge commutators: max coeff {worst:.2e}")


def _ecf_test_models(rng):
    return [h5_model(*draw(rng, 5)),
            h6_model(*draw(rng, 6)),
            chain_model(1, 3, draw(rng, 3)),
            chain_model(2, 3, draw(rng, 3)),
            chain_model(2, 4, draw(rng, 4)),
            junction_model((1, 1, 1), 2, [rng.uniform(0.5, 1.5) for _ in range(12)])]


def test_criterion_04_transfer_factorization():
    """T(u) T(-u) = P(-u^2) I on the u grid for every ECF test model."""
    rng = random.Random(SEED + 3)
    worst = 0.0
    for h in _ecf_test_models(rng):
        g = frustration_graph(h)
        assert classify(g).ecf
        t = transfer(h, g)
        poly = weighted_independence_polynomial(g)
        for u in U_GRID:
            prod = opsum_mul(transfer_at(t, u), transfer_at(t, -u))
            resid = (prod - poly.at(-u * u) * OperatorSum.identity(h.n)).max_abs_coeff()
            worst = max(worst, resid)
    report(4, worst < 1e-9, f"transfer factorization residual {worst:.2e} on 8-point u grid")


def test_criterion_05_fundamental_identity():
    rng = random.Random(SEED + 4)
    worst = 0.0
    for make in (lambda: h5_model(*draw(rng, 5)),
                 lambda: h6_model(*draw(rng, 6)),
                 lambda: chain_model(2, 3, draw(rng, 3))):
        for _ in range(5):
            h = make()
            ks = smallest_simplicial_clique(frustration_graph(h))
            hext, chi = simplicial_extension(h, ks)
            worst = max(worst, *check_fundamental_identity(hext, chi, ks, U_GRID))
    report(5, worst < 1e-9, f"fundamental identity residual {worst:.2e} (15 models x 8 u)")


def test_criterion_06_modes_solve_the_model():
    """Nonlocal eigenmodes: nilpotent, canonical, ladder pair, reconstruction.

    With psi_j = T(-u_j) chi T(u_j)/N_j the Hamiltonian reconstruction
    H = sum_j e_j [psi_j, psi_j^dag] pins the ladder signs:
    [H, psi_j] = +2 e_j psi_j and [H, psi_j^dag] = -2 e_j psi_j^dag.
    """
    rng = random.Random(SEED + 5)
    worst = 0.0
    for make in (lambda: h5_model(*draw(rng, 5)), lambda: h6_model(*draw(rng, 6))):
        h = make()
        g = frustration_graph(h)
        ks = smallest_simplicial_clique(g)
        hext, chi = simplicial_extension(h, ks)
        poly = weighted_independence_polynomial(g)
        energies = single_particle_energies(poly)
        modes = all_modes(hext, chi, energies, poly)
        hmat = to_dense(OperatorSum.from_terms(hext.n, hext.terms))
        dense = [to_dense(m.op) for m in modes]
        ident = np.eye(1 << hext.n)

        def norm2(mat):
            return float(np.linalg.norm(mat, 2))

        for i, m in enumerate(modes):
            worst = max(worst, norm2(dense[i] @ dense[i]))
            worst = max(worst, norm2(hmat @ dense[i] - dense[i] @ hmat
                                     - 2.0 * m.energy * dense[i]))
            dag = dense[i].conj().T
            worst = max(worst, norm2(hmat @ dag - dag @ hmat + 2.0 * m.energy * dag))
            for j in range(len(modes)):
                target = ident if i == j else 0.0 * ident
                worst = max(worst, norm2(dense[i] @ dense[j].conj().T
                                         + dense[j].conj().T @ dense[i] - target))
                worst = max(worst, norm2(dense[i] @ dense[j] + dense[j] @ dense[i]))
        recon = sum(m.energy * (dense[i] @ dense[i].conj().T - dense[i].conj().T @ dense[i])
                    for i, m in enumerate(modes))
        worst = max(worst, norm2(recon - hmat))
    report(6, worst < 1e-8, f"mode algebra + reconstruction residual {worst:.2e}")


def test_criterion_07_nonexample_discrimination():
    out = verify_nonexample_equal_couplings()
    ok = (out["equal_couplings_match"] and not out["generic_couplings_match"]
          and out["claw_found"] and out["even_hole_found"])
    report(7, ok, "equal couplings free, generic couplings not; claw and even hole found")


def test_criterion_08_chain_criticality():
    t0 = time.perf_counter()
    values = [0.1, 0.2, 0.25, 0.5, 0.7, 0.9]
    grid = [unit_sum_fill(4, {3: v}) for v in values]
    points = gap_scan(4, grid, 60, 120)
    flags = {v: pt.gapless for v, pt in zip(values, points)}
    flags_ok = (all(flags[v] for v in (0.1, 0.2, 0.25))
                and not any(flags[v] for v in (0.5, 0.7, 0.9)))
    argmin_ok = True
    for v in (0.1, 0.2, 0.25):
        disp = dispersion(ChainSpec(120, 4, unit_sum_fill(4, {3: v})))
        argmin_ok &= min(disp, key=lambda t: t[1]) == disp[-1]
    elapsed = time.perf_counter() - t0
    report(8, flags_ok and argmin_ok and elapsed < 60.0,
           f"gapless {{0.1,0.2,0.25}}, gapped {{0.5,0.7,0.9}}, minimum at p->pi, {elapsed:.1f}s")


def test_criterion_09_recursion_equivalence():
    rng = random.Random(SEED + 8)
    worst = 0.0
    for n_cells in range(1, 7):
        for k in range(2, 6):
            b = draw(rng, k)
            via_rec = chain_polynomial(ChainSpec(n_cells, k, tuple(v * v for v in b)))
            via_enum = weighted_independence_polynomial(
                frustration_graph(chain_model(n_cells, k, b)))
            for x, y in zip(via_rec.coeffs, via_enum.coeffs):
                worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1.0))
    graphs = [frustration_graph(h) for h in _ecf_test_models(rng)]
    graphs.append(frustration_graph(back_to_back_model(*draw(rng, 6))))
    graphs += [random_graph(rng, rng.randint(2, 8), 0.5, weighted=True) for _ in range(15)]
    checked = 0
    for g in graphs:
        for clique in maximal_cliques(g):
            assert verify_clique_recurrence(g, clique)
            checked += 1
    report(9, worst < 1e-10,
           f"recursion == enumeration (rel {worst:.2e}); {checked} clique recurrences hold")


# -- criterion 10: recognition against naive search and the forbidden nine --

def _krausz_line_graph(g: WeightedGraph) -> bool:
    """Edge partition into cliques with every vertex in at most two of them."""
    edges = edge_list(g)
    edge_index = {e: i for i, e in enumerate(edges)}
    use = [0] * g.n

    def cliques_on(u, v, uncovered):
        """Cliques containing edge (u, v) whose edges are all uncovered."""
        base = [w for w in range(g.n)
                if w not in (u, v) and g.adj[w] >> u & 1 and g.adj[w] >> v & 1
                and use[w] < 2]
        out = []

        def grow(current, pool):
            out.append(tuple(current))
            for idx, w in enumerate(pool):
                if all(g.adj[w] >> x & 1 for x in current):
                    ok = all(
                        edge_index[(min(w, x), max(w, x))] in uncovered
                        for x in current)
                    if ok:
                        grow(current + [w], pool[idx + 1:])

        grow([u, v], base)
        return out

    def solve(uncovered):
        if not uncovered:
            return True
        u, v = edges[min(uncovered)]
        if use[u] >= 2 or use[v] >= 2:
            return False
        for clique in cliques_on(u, v, uncovered):
            members = list(clique)
            if any(use[w] >= 2 for w in members):
                continue
            covered = {edge_index[(min(a, b), max(a, b))]
                       for a, b in itertools.combinations(members, 2)}
            for w in members:
                use[w] += 1
            if solve(uncovered - covered):
                return True
            for w in members:
                use[w] -= 1
        return False

    return solve(set(range(len(edges))))


def _atlas_connected(n_low, n_high):
    from networkx.generators.atlas import graph_atlas_g
    import networkx as nx
    out = []
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n_low <= n <= n_high and n > 0 and nx.is_connected(ag):
            mapping = {v: i for i, v in enumerate(sorted(ag.nodes()))}
            out.append(WeightedGraph(n, [(mapping[a], mapping[b]) for a, b in ag.edges()]))
    return out


def _isomorphic_small(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    if g1.n != g2.n or len(edge_list(g1)) != len(edge_list(g2)):
        return False
    for perm in itertools.permutations(range(g1.n)):
        if all(g2.adj[perm[a]] >> perm[b] & 1 == g1.adj[a] >> b & 1
               for a in range(g1.n) for b in range(a + 1, g1.n)):
            return True
    return False


def test_criterion_10_recognition_oracle_and_forbidden_nine():
    rng = random.Random(SEED + 9)  # seed recorded here
    mismatches = 0
    for _ in range(10_000):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
        if (find_claw(g) is not None) != naive_has_claw(g):
            mismatches += 1
        if (find_even_hole(g) is not None) != naive_has_even_hole(g):
            mismatches += 1

    # derive the minimal non-line graphs on <= 6 vertices from scratch
    minimal = []
    for g in _atlas_connected(4, 6):
        if _krausz_line_graph(g):
            continue
        if all(_krausz_line_graph(without(g, [v])) for v in range(g.n)):
            minimal.append(g)
    nine_ok = len(minimal) == 9

    claw = WeightedGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert any(_isomorphic_small(g, claw) for g in minimal)
    assert any(_isomorphic_small(g, frustration_graph(h6_model())) for g in minimal)

    # each is either twin-containing (two vertices with one open
    # neighbourhood) or (even-hole, claw)-free
    caption_ok = True
    for g in minimal:
        twins = any(g.adj[i] == g.adj[j] for i, j in itertools.combinations(range(g.n), 2))
        caption_ok &= twins or bool(classify(g).ecf)

    report(10, mismatches == 0 and nine_ok and caption_ok,
           f"10^4 sampled graphs agree with naive search (seed {SEED + 9}); "
           f"{len(minimal)} minimal non-line graphs, each twin-containing or ECF")
