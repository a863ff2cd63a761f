"""Charges, transfer operators, modes, and the operator identities."""

import math
import random
import warnings

import numpy as np
import pytest

from conftest import (
    cycle_graph,
    maximal_cliques,
    naive_has_claw,
    naive_simplicial_cliques,
    opsum_mul,
    per_set_charges,
    per_u_fundamental_identity,
    per_u_transfer_factorization,
    random_graph,
    stable_sets,
    to_dense,
    transfer_at,
    unit_grid,
    zero_weights,
)
from ffsolve import paulis, solver
from ffsolve.errors import ConditioningError, DegenerateModeError, FFSolveError, NotSimplicialError
from ffsolve.graphs import frustration_graph
from ffsolve.indpoly import (
    IndependencePolynomial,
    SingleParticleEnergies,
    single_particle_energies,
    weighted_independence_polynomial,
)
from ffsolve.models import (
    Hamiltonian,
    back_to_back_model,
    chain_model,
    h5_model,
    h6_model,
    junction_model,
    parse_hamiltonian,
    realize_graph,
)
from ffsolve.paulis import OperatorSum, PauliTerm, commutes, opsum_comm
from ffsolve.recognition import smallest_simplicial_clique
from ffsolve.solver import (
    IncognitoMode,
    TransferOperator,
    all_modes,
    charges_commute_residual,
    check_fundamental_identity,
    clique_from_mode,
    ladder_residual,
    mode_car_residual,
    reconstruct,
    simplicial_extension,
    transfer,
    transfer_factorization_residual,
    zero_eigenvector_residual,
)
from ffsolve.verify import DEFAULT_U_GRID, TOLERANCES, verify_all

RNG = random.Random(2024)


def random_h5():
    return h5_model(*[RNG.choice([-1, 1]) * RNG.uniform(0.4, 1.7) for _ in range(5)])


def single_edge_model(a=3.0, b=4.0):
    """Two anticommuting single-qubit terms: an exactly solvable two-level check."""
    return Hamiltonian.from_pairs([
        (a, PauliTerm.from_ops(1, {0: "X"})),
        (b, PauliTerm.from_ops(1, {0: "Z"})),
    ], n=1)


def hamiltonian_opsum(h):
    return OperatorSum.from_terms(h.n, h.terms)


# -- paper lemmas that no command runs, checked below ------------------------

def transfer_derivative(t: TransferOperator, u: float) -> OperatorSum:
    """d/du of transfer_at(t, u): sum_j -j (-u)^(j-1) Q^(j)."""
    acc = OperatorSum(t.n, {})
    coef = 1.0  # (-u)^(j-1)
    for j, q in enumerate(t.charges):
        if j >= 1:
            acc = acc + (-j * coef) * q
            coef *= -u
    return acc


def clique_transfer_recurrence_residual(h: Hamiltonian, clique, u: float,
                                        side: str = "left",
                                        simplicial: bool = False) -> float:
    """Residual of the transfer-operator clique recurrence at one u.

    General cliques:   T_G = T_{G-K} - u sum_v h_v T_{G-N[v]}
    Simplicial cliques: T_G = T_{G-K} - u sum_v h_v T_{G-K_v}
    with K_v the closed neighborhood of v minus the rest of K.  Both hold
    with h_v on either side of the reduced transfer operator.
    """
    graph = frustration_graph(h)
    kset = sorted(set(clique))
    kmask = 0
    for v in kset:
        kmask |= 1 << v
    if not graph.is_clique(kmask):
        raise ValueError(f"{kset} is not a clique")
    full = transfer_at(transfer(h, graph), u)
    rest = [v for v in range(graph.n) if v not in kset]
    h_rest = Hamiltonian(h.n, tuple(h.terms[v] for v in rest))
    acc = transfer_at(transfer(h_rest, frustration_graph(h_rest)), u)
    ops = [c * OperatorSum.from_term(t) for c, t in h.terms]
    for v in kset:
        if simplicial:
            kv = graph.closed_adj(v) & ~(kmask & ~(1 << v))
            reduced_vs = [w for w in range(graph.n) if not (kv >> w) & 1]
        else:
            reduced_vs = [w for w in range(graph.n) if not (graph.closed_adj(v) >> w) & 1]
        h_v = Hamiltonian(h.n, tuple(h.terms[w] for w in reduced_vs))
        tv = transfer_at(transfer(h_v, frustration_graph(h_v)), u)
        if side == "left":
            acc = acc - u * opsum_mul(ops[v], tv)
        elif side == "right":
            acc = acc - u * opsum_mul(tv, ops[v])
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return (full - acc).max_abs_coeff()


def higher_hamiltonian(h: Hamiltonian, k: int,
                       energies: SingleParticleEnergies) -> OperatorSum:
    """Closed form for the k-th commuting Hamiltonian of the hierarchy.

    H^(k) = sum_j u_j^(-k) / d_u[P(-u^2)]_{u_j}
            * [T(-u_j) T'(u_j) - (-1)^k T(u_j) T'(-u_j)],
    requiring simple roots.  k=1 reproduces the Hamiltonian itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(m > 1 for _, m in energies.energies):
        raise DegenerateModeError("higher Hamiltonians need simple roots")
    graph = frustration_graph(h)
    t = transfer(h, graph)
    poly = weighted_independence_polynomial(graph)
    acc = OperatorSum(h.n, {})
    sign = (-1.0) ** k
    for eps, _ in energies.energies:
        u = 1.0 / eps
        x = -u * u
        denom = -2.0 * u * poly.at(x, slope=True)
        term = opsum_mul(transfer_at(t, -u), transfer_derivative(t, u)) \
            - sign * opsum_mul(transfer_at(t, u), transfer_derivative(t, -u))
        acc = acc + (u ** (-k) / denom) * term
    return acc


def exchange_algebra_residual(mode: IncognitoMode, t: TransferOperator,
                              u: float) -> float:
    """(u_j + u) T(u) psi_j - (u_j - u) psi_j T(u) vanishes for any u."""
    tu = transfer_at(t, u)
    lhs = (mode.u + u) * opsum_mul(tu, mode.op)
    rhs = (mode.u - u) * opsum_mul(mode.op, tu)
    return (lhs - rhs).max_abs_coeff()


def test_charge_zero_is_identity():
    h = random_h5()
    assert not (transfer(h, frustration_graph(h)).charges[0] - OperatorSum.identity(3)).terms


def test_charge_one_is_hamiltonian():
    h = random_h5()
    assert not (transfer(h, frustration_graph(h)).charges[1] - hamiltonian_opsum(h)).terms


def test_charge_two_on_h5_has_five_products():
    h = h5_model()
    q2 = transfer(h, frustration_graph(h)).charges[2]
    assert len(q2) == 5
    # coefficients of independent-pair products are real for Hermitian pairs
    assert all(abs(c.imag) < 1e-15 for _, c in q2)


def test_transfer_evaluate():
    h = random_h5()
    t = transfer(h, frustration_graph(h))
    assert t.alpha == 2
    assert not (transfer_at(t, 0.0) - OperatorSum.identity(3)).terms
    u = 0.3
    expansion = (OperatorSum.identity(3) - u * t.charges[1] + u * u * t.charges[2])
    assert not (transfer_at(t, u) - expansion).terms


def test_transfer_derivative_matches_finite_difference():
    h = random_h5()
    t = transfer(h, frustration_graph(h))
    u, du = 0.4, 1e-6
    fd = (transfer_at(t, u + du) - transfer_at(t, u - du)) * (1.0 / (2 * du))
    assert (transfer_derivative(t, u) - fd).max_abs_coeff() < 1e-8


def test_transfer_factorization_h5():
    h = random_h5()
    poly = weighted_independence_polynomial(frustration_graph(h))
    assert max(transfer_factorization_residual(h, (0.3, -0.9, 1.5))) < 1e-12
    # the product really is P(-u^2) times the identity
    t = transfer(h, frustration_graph(h))
    prod = opsum_mul(transfer_at(t, 0.3), transfer_at(t, -0.3))
    assert abs(prod.terms.get((0, 0), 0.0) - poly.at(-0.3 * 0.3)) < 1e-12


def test_charges_commute_for_claw_free_models():
    models = [random_h5(), h6_model(1.1, 0.3, 0.9, -0.7, 1.4, 0.6),
              chain_model(3, 3, [1.0, -0.8, 1.2], periodic=True),
              junction_model((1, 1, 1), 2, [RNG.uniform(0.5, 1.5) for _ in range(12)])]
    for h in models:
        assert charges_commute_residual(h, frustration_graph(h)) < 1e-10


def y_heavy_hamiltonian(rng: random.Random, n: int, count: int) -> Hamiltonian:
    """``count`` random strings on ``n`` qubits, half their factors Y, with
    couplings of either sign."""
    terms = []
    for _ in range(count):
        x = z = 0
        for q in rng.sample(range(n), rng.randint(1, min(n, 6))):
            xb, zb = rng.choice(((1, 1), (1, 1), (1, 0), (0, 1)))
            x, z = x | xb << q, z | zb << q
        terms.append((rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), PauliTerm(n, x, z)))
    return Hamiltonian(n, tuple(terms))


def test_transfer_equals_the_per_set_products():
    """Each set's product from its parent's, in one walk, gives the charges
    of the products multiplied out set by set, by value: on chains,
    junctions, h6 and realized claw-free graphs, and on random Y-heavy
    strings whose keys take one, two and three words."""
    rng = random.Random(4)
    models = [chain_model(4, 4, [1.0, 0.7, 1.3, 0.9]), chain_model(5, 3, [1.0, 0.7, 1.3]),
              junction_model((1, 1, 1), 3, [rng.uniform(0.5, 1.5) for _ in range(15)]),
              h6_model(1.1, 0.3, 0.9, -0.7, 1.4, 0.6)]
    while len(models) < 24:
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8), weighted=True)
        if not naive_has_claw(g):
            models.append(realize_graph(g))
    models += [y_heavy_hamiltonian(rng, n, rng.randint(2, 10))
               for n in (3, 33, 65) for _ in range(8)]
    for h in models:
        g = frustration_graph(h)
        assert [q.terms for q in transfer(h, g).charges] == per_set_charges(h, g)


def test_transfer_clique_recurrences_all_forms():
    h = random_h5()
    g = frustration_graph(h)
    simplicial = set(naive_simplicial_cliques(g))
    for kset in maximal_cliques(g):
        for u in (0.37, -0.8):
            for side in ("left", "right"):
                assert clique_transfer_recurrence_residual(h, kset, u, side) < 1e-12
                if tuple(kset) in simplicial:
                    assert clique_transfer_recurrence_residual(
                        h, kset, u, side, simplicial=True) < 1e-12


def test_transfer_recurrence_rejects_non_clique():
    h = h5_model()
    with pytest.raises(ValueError):
        clique_transfer_recurrence_residual(h, [0, 2], 0.3)


def test_simplicial_extension_properties():
    h = random_h5()
    g = frustration_graph(h)
    ks = (0, 1)
    hext, chi = simplicial_extension(h, ks)
    assert hext.n == 4
    assert chi == PauliTerm.from_ops(4, {3: "Z"})
    anti = [i for i, (_, t) in enumerate(hext.terms) if not commutes(t, chi)]
    assert anti == [0, 1]
    assert clique_from_mode(hext, chi) == [0, 1]
    # frustration graph unchanged (weights included)
    assert frustration_graph(hext) == g
    # chi squares to the identity
    from ffsolve.paulis import multiply
    assert multiply(chi, chi) == (0, PauliTerm.identity(4))


def test_simplicial_extension_rejects_non_simplicial():
    h = random_h5()
    with pytest.raises(NotSimplicialError):
        simplicial_extension(h, [0])  # singletons of the 5-cycle are not simplicial
    with pytest.raises(NotSimplicialError):
        simplicial_extension(h, [0, 2])


def build_solution(h):
    g = frustration_graph(h)
    ks = smallest_simplicial_clique(g)
    hext, chi = simplicial_extension(h, ks)
    poly = weighted_independence_polynomial(g)
    energies = single_particle_energies(poly)
    modes = all_modes(hext, chi, energies, poly)
    return g, ks, hext, chi, energies, modes


@pytest.mark.parametrize("model", ["h5", "h6"])
def test_mode_algebra(model):
    h = random_h5() if model == "h5" else h6_model(
        *[RNG.choice([-1, 1]) * RNG.uniform(0.4, 1.7) for _ in range(6)])
    g, ks, hext, chi, energies, modes = build_solution(h)
    t = transfer(hext, frustration_graph(hext))

    # psi^2 = 0
    for m in modes:
        assert opsum_mul(m.op, m.op).max_abs_coeff() < 1e-10

    # full CAR across pairs
    assert mode_car_residual(modes) < 1e-10

    # ladder relations, both directions
    assert ladder_residual(hext, modes) < 1e-10

    # T(u_j) annihilates its own mode
    assert zero_eigenvector_residual(modes, hext, frustration_graph(hext)) < 1e-10

    # exchange algebra at u away from any root
    for m in modes:
        for u in (0.21, -0.55):
            assert exchange_algebra_residual(m, t, u) < 1e-10

    # anticommutator with the simplicial mode: (4/N_j) P_{G-Ks}(-u_j^2) I
    p_red = weighted_independence_polynomial(zero_weights(g, ks))
    chi_op = OperatorSum.from_term(chi)
    for m in modes:
        expected = (4.0 / m.norm) * p_red.at(-m.u * m.u)
        got = paulis.opsum_anticomm_batch([m.op], [chi_op])[0]
        assert abs(got.terms.get((0, 0), 0.0) - expected) < 1e-10
        assert (got - expected * OperatorSum.identity(hext.n)).max_abs_coeff() < 1e-10

    # reconstruction, sparse and dense
    recon = reconstruct(modes, energies)
    target = hamiltonian_opsum(hext)
    assert (recon - target).max_abs_coeff() < 1e-10
    assert np.linalg.norm(to_dense(recon) - to_dense(target), 2) < 1e-8


@pytest.mark.parametrize("scale", [1.0, 1e-2])
@pytest.mark.parametrize("name", ["chain4x3", "chain4x4", "junction111", "h6"])
def test_modes_equal_the_triple_product(name, scale):
    """psi_j from the Lanczos run equals (1/N_j) T(-u_j) chi T(u_j)
    multiplied out mode by mode, at couplings of order 1 and 1e-2."""
    rng = random.Random(77)

    def couplings(count, low=0.5, high=1.5):
        return [scale * rng.uniform(low, high) for _ in range(count)]

    h = {"chain4x3": lambda: chain_model(4, 3, couplings(3)),
         "chain4x4": lambda: chain_model(4, 4, couplings(4)),
         "junction111": lambda: junction_model((1, 1, 1), 3, couplings(15)),
         "h6": lambda: h6_model(*couplings(6, 0.4, 1.7))}[name]()
    _, _, hext, chi, energies, modes = build_solution(h)
    t = transfer(hext, frustration_graph(hext))
    chi_op = OperatorSum.from_term(chi)
    assert len(modes) == energies.total
    for m in modes:
        want = (1.0 / m.norm) * opsum_mul(opsum_mul(transfer_at(t, -m.u), chi_op),
                                          transfer_at(t, m.u))
        assert (m.op - want).max_abs_coeff() <= 1e-12 * want.max_abs_coeff()


@pytest.mark.parametrize("name", ["chain5x3", "chain4x4", "junction111", "h6", "chain3x3"])
def test_modes_do_not_depend_on_the_coupling_scale(name):
    """Scaling every coupling by 1e-3 or 1e3 scales the energies and leaves
    the modes as they are.  At 1e-3 the top charge of chain 5x3 lies below
    the pruning size, and only a scale-free mode path keeps it.  Chain 3x3
    at (1, 0.5, 2) x 2^-520, whose squares are exact, has each 1 / e_j^2
    beyond the float range; its modes are those at x 1, to the bit."""
    rng = random.Random(5)
    make, couplings = {
        "chain5x3": (lambda b: chain_model(5, 3, b), [1.0, 0.7, 1.3]),
        "chain4x4": (lambda b: chain_model(4, 4, b), [1.0, 0.7, 1.3, 0.9]),
        "junction111": (lambda b: junction_model((1, 1, 1), 3, b),
                        [rng.uniform(0.5, 1.5) for _ in range(15)]),
        "h6": (lambda b: h6_model(*b), [1.1, 0.3, 0.9, -0.7, 1.4, 0.6]),
        "chain3x3": (lambda b: chain_model(3, 3, b), [1.0, 0.5, 2.0])}[name]
    scales, tol = ((2.0 ** -520,), 0.0) if name == "chain3x3" else ((1e-3, 1e3), 1e-11)
    want = build_solution(make(couplings))[-1]
    for scale in scales:
        got = build_solution(make([scale * b for b in couplings]))[-1]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.op.terms.keys() == w.op.terms.keys()
            assert (g.op - w.op).max_abs_coeff() <= tol


def test_modes_on_chain_7x3():
    """22 qubits with the ancilla, where T(-u) chi T(u) multiplied out would
    need 4,023 x 4,023 charge-term pairs.  CAR is left to the smaller
    sizes: on 7x3 it alone takes seconds."""
    h = chain_model(7, 3, [1.0, 0.7, 1.3])
    _, _, hext, _, energies, modes = build_solution(h)
    assert hext.n == 22 and len(modes) == 7
    assert ladder_residual(hext, modes) <= 1e-8
    recon = reconstruct(modes, energies)
    assert (recon - hamiltonian_opsum(hext)).max_abs_coeff() <= 1e-8


def test_mode_construction_refuses_a_wrong_energy():
    """A value that is not a root gives a normalization of the wrong sign."""
    h = chain_model(2, 3, [1.0, 0.7, 1.3])
    g = frustration_graph(h)
    hext, chi = simplicial_extension(h, smallest_simplicial_clique(g))
    with pytest.raises(ConditioningError):
        all_modes(hext, chi, SingleParticleEnergies(((0.5, 1),), 0.0),
                  weighted_independence_polynomial(g))


@pytest.mark.parametrize("h", [h5_model(1.0, 0.7, -1.3, 0.4, 2.0),
                               chain_model(3, 3, [1.0, 0.7, 1.3])], ids=["h5", "chain3x3"])
def test_mode_construction_refuses_an_energy_off_by_1e_10(h):
    """The Ritz gate: any one energy moved by 1e-7 or 1e-10 of itself, up
    or down, keeps a positive normalization but has no eigenvalue of
    [H, .] within the bound of the Lanczos run, the width of its bracket
    and the rounding of ``eigh`` of 2 e_j, and is refused."""
    g = frustration_graph(h)
    hext, chi = simplicial_extension(h, smallest_simplicial_clique(g))
    poly = weighted_independence_polynomial(g)
    energies = single_particle_energies(poly)
    for j, (e, m) in enumerate(energies.energies):
        for moved in (e * (1 + 1e-7), e * (1 - 1e-7), e * (1 + 1e-10), e * (1 - 1e-10)):
            levels = list(energies.energies)
            levels[j] = (moved, m)
            with pytest.raises(ConditioningError, match=rf"no eigenvalue of \[H, \.\] near 2 e_{j} "):
                all_modes(hext, chi, SingleParticleEnergies(tuple(levels), energies.width), poly)


@pytest.mark.parametrize("h", [
    h5_model(-439.79, 844726.24, 0.031632, 4.5292e-4, 1.4761e-6),
    h6_model(-35178.08, -1.1968e-6, -2.7708e-6, -4.2524e-5, -62252.69, 9.4550e-5),
], ids=["h5", "h6"])
def test_mode_construction_refuses_a_ritz_vector_the_run_does_not_pin(h):
    """The Ritz gate bounds the vector too.  Here e_0 lies about 1e9 below
    the top energy, and the run stops at 1e-10 of its first beta, before
    the part of chi that commutes with H: the Ritz value nearest 2 e_0 is
    within its bound, but the bound is 2.3e-3 (h5) and 1.7e-2 (h6) of
    2 e_0, and the Ritz vector is off by as much.  Both modes are refused,
    by ``all_modes`` and in the failure of ``verify_all``."""
    g = frustration_graph(h)
    hext, chi = simplicial_extension(h, smallest_simplicial_clique(g))
    poly = weighted_independence_polynomial(g)
    with pytest.raises(ConditioningError, match=r"^the Lanczos bound of mode 0 is "):
        all_modes(hext, chi, single_particle_energies(poly), poly)
    report = verify_all(h)
    assert not report.passed()
    assert report.failure.startswith("the Lanczos bound of mode 0 ")


def test_mode_construction_refuses_what_floats_cannot_form():
    """h5 with e_0 replaced by 1e-160, whose 1 / e_0^2 overflows, and h5
    with P_G replaced by 1 + x, whose normalization squared is negative at
    the true e_0: each mode is refused, naming the quantity and the mode."""
    h = h5_model(1.0, 0.7, -1.3, 0.4, 2.0)
    g = frustration_graph(h)
    hext, chi = simplicial_extension(h, smallest_simplicial_clique(g))
    poly = weighted_independence_polynomial(g)
    energies = single_particle_energies(poly)
    levels = ((1e-160, 1),) + energies.energies[1:]
    with pytest.raises(ConditioningError, match=r"^1 / e_0\^2 overflows at mode 0"):
        all_modes(hext, chi, SingleParticleEnergies(levels, energies.width), poly)
    with pytest.raises(ConditioningError,
                       match=r"^normalization squared is -1\.871e\+00 at mode 0"):
        all_modes(hext, chi, energies, IndependencePolynomial((1, 1), 0))


def test_ladder_sign_pair():
    """[H, psi] = +2 eps psi and [H, psi^dag] = -2 eps psi^dag, as a pair."""
    h = random_h5()
    _, _, hext, chi, energies, modes = build_solution(h)
    hop = hamiltonian_opsum(hext)
    m = modes[0]
    raise_resid = (opsum_comm(hop, m.op) - 2.0 * m.energy * m.op).max_abs_coeff()
    lower_resid = (opsum_comm(hop, m.dag) + 2.0 * m.energy * m.dag).max_abs_coeff()
    assert raise_resid < 1e-10 and lower_resid < 1e-10
    # and the wrong sign does NOT hold
    wrong = (opsum_comm(hop, m.op) + 2.0 * m.energy * m.op).max_abs_coeff()
    assert wrong > 1e-3


def test_single_edge_reconstruction_exact():
    h = single_edge_model(3.0, 4.0)
    g, ks, hext, chi, energies, modes = build_solution(h)
    assert energies.energies == ((5.0, 1),)
    recon = reconstruct(modes, energies)
    assert (recon - hamiltonian_opsum(hext)).max_abs_coeff() < 1e-12


def test_mode_construction_refuses_repeated_roots():
    # two disjoint identical terms: eps = 1 with multiplicity 2
    h = Hamiltonian.from_pairs([
        (1.0, PauliTerm.from_ops(2, {0: "X"})),
        (1.0, PauliTerm.from_ops(2, {1: "X"})),
    ], n=2)
    g = frustration_graph(h)
    poly = weighted_independence_polynomial(g)
    energies = single_particle_energies(poly)
    assert energies.energies == ((1.0, 2),)
    ks = smallest_simplicial_clique(g)
    hext, chi = simplicial_extension(h, ks)
    with pytest.raises(DegenerateModeError):
        all_modes(hext, chi, energies, poly)
    with pytest.raises(DegenerateModeError):
        higher_hamiltonian(h, 2, energies)


def test_mode_construction_refuses_a_disconnected_graph(monkeypatch):
    """Two decoupled pairs: chi's Krylov space holds the modes of its own
    component only, so the modes are refused, before any Lanczos step,
    with a message that names the components."""
    h = parse_hamiltonian("1.0 X0 X1\n0.7 Y1 Y2\n1.3 X3 X4\n0.4 Y4 Y5\n")
    g = frustration_graph(h)
    poly = weighted_independence_polynomial(g)
    energies = single_particle_energies(poly)
    hext, chi = simplicial_extension(h, smallest_simplicial_clique(g))

    def refuse(*args):
        raise AssertionError("Lanczos ran on a disconnected graph")

    monkeypatch.setattr(solver, "_lanczos", refuse)
    with pytest.raises(FFSolveError, match="has 2 connected components"):
        all_modes(hext, chi, energies, poly)


def test_higher_hamiltonian_k1_is_h():
    h = random_h5()
    energies = single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h)))
    h1 = higher_hamiltonian(h, 1, energies)
    assert (h1 - hamiltonian_opsum(h)).max_abs_coeff() < 1e-10


def test_higher_hamiltonians_commute_with_h():
    h = random_h5()
    energies = single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h)))
    hop = hamiltonian_opsum(h)
    for k in (2, 3):
        hk = higher_hamiltonian(h, k, energies)
        assert opsum_comm(hk, hop).max_abs_coeff() < 1e-9


def test_higher_hamiltonian_single_edge():
    # for a single anticommuting pair, H^(2) = (a^2 + b^2) I exactly
    a, b = 1.2, -0.7
    h = single_edge_model(a, b)
    energies = single_particle_energies(
        weighted_independence_polynomial(frustration_graph(h)))
    h2 = higher_hamiltonian(h, 2, energies)
    expected = (a * a + b * b) * OperatorSum.identity(1)
    assert (h2 - expected).max_abs_coeff() < 1e-12


def test_fundamental_identity():
    h = random_h5()
    ks = smallest_simplicial_clique(frustration_graph(h))
    hext, chi = simplicial_extension(h, ks)
    at_zero, at_037 = check_fundamental_identity(hext, chi, ks, (0.0, 0.37))
    assert at_zero == 0.0 and at_037 < 1e-9
    hc = chain_model(2, 3, [RNG.uniform(0.4, 1.4) for _ in range(3)])
    gksc = smallest_simplicial_clique(frustration_graph(hc))
    hcext, chic = simplicial_extension(hc, gksc)
    assert max(check_fundamental_identity(hcext, chic, gksc, (0.1, -0.37, 0.9, -1.5))) < 1e-9
    assert check_fundamental_identity(hcext, chic, gksc, ()) == []


def test_fundamental_identity_fails_on_wrong_clique():
    """The residual detects a clique that does not carry the ancilla."""
    rng = random.Random(31)
    for h in (h5_model(*[rng.uniform(0.4, 1.7) for _ in range(5)]),
              chain_model(2, 3, [rng.uniform(0.4, 1.4) for _ in range(3)])):
        g = frustration_graph(h)
        ks = smallest_simplicial_clique(g)
        hext, chi = simplicial_extension(h, ks)
        wrong = next(c for c in maximal_cliques(g) if c != sorted(ks))
        assert min(check_fundamental_identity(hext, chi, wrong, (0.1, -0.37, 0.9, -1.5))) > 1e-6


def test_a_wrong_clique_fails_at_any_scale():
    """The grid checks divide the u grid by the power of two above the
    largest |coupling|, and the worst residual of this wrong clique on h5
    reads 0.147 at every scale.  On the grid as given it read 0.20 at unit
    couplings, 2.9e-6 at x 2^-20 and 2.7e-12 at x 2^-40, below the 1e-9
    tolerance."""
    h = h5_model(*[2.0 ** -40] * 5)
    g = frustration_graph(h)
    ks = smallest_simplicial_clique(g)
    hext, chi = simplicial_extension(h, ks)
    wrong = next(c for c in maximal_cliques(g) if c != sorted(ks))
    assert max(check_fundamental_identity(hext, chi, wrong, DEFAULT_U_GRID)) > 1e-6


def _grid_inputs():
    """Inputs of the two grid checks whose residuals are far from 0.0,
    which every right answer here reads: h5, h6, chains 2x3, 2x4 and 3x3
    and junction (1,1,1), each with its simplicial clique and with a wrong
    one for the fundamental identity, and two claw-free models with an
    even hole, where T(u) T(-u) is not P(-u^2) I, for the factorization."""
    rng = random.Random(23)

    def draw(count):
        return [rng.choice([-1, 1]) * rng.uniform(0.4, 1.7) for _ in range(count)]

    models = [h5_model(*draw(5)), h6_model(*draw(6)), chain_model(2, 3, draw(3)),
              chain_model(2, 4, draw(4)), chain_model(3, 3, draw(3)),
              junction_model((1, 1, 1), 3, draw(15))]
    holes = [chain_model(3, 3, draw(3), periodic=True),
             realize_graph(cycle_graph(4, [c * c for c in draw(4)]))]
    cliques = []
    for h in models:
        g = frustration_graph(h)
        ks = smallest_simplicial_clique(g)
        cliques += [(h, ks, ks), (h, ks, next(c for c in maximal_cliques(g) if c != sorted(ks)))]
    return models + holes, cliques


def _scaled(h, factor):
    return Hamiltonian(h.n, tuple((c * factor, t) for c, t in h.terms))


def test_grid_residuals_do_not_depend_on_the_scale():
    """Dividing by a power of two is exact, so the residuals of both grid
    checks are the same floats at couplings x 2^30, x 1 and x 2^-30."""
    factors = (2.0 ** 30, 1.0, 2.0 ** -30)
    hs, cliques = _grid_inputs()
    for h in hs:
        grids = [transfer_factorization_residual(_scaled(h, f), DEFAULT_U_GRID) for f in factors]
        assert grids[0] == grids[1] == grids[2]
    for h, ks, clique in cliques:
        grids = [check_fundamental_identity(*simplicial_extension(_scaled(h, f), ks), clique,
                                            DEFAULT_U_GRID) for f in factors]
        assert grids[0] == grids[1] == grids[2]


def test_batched_grid_equals_the_per_u_reference():
    """Each product of the grid checks is one pass with a row per u, and
    every row equals the product that the per-u form takes, bit for bit."""
    hs, cliques = _grid_inputs()
    for h in hs:
        assert transfer_factorization_residual(h, DEFAULT_U_GRID) == [
            per_u_transfer_factorization(h, u) for u in unit_grid(h, DEFAULT_U_GRID)]
    for h, ks, clique in cliques:
        hext, chi = simplicial_extension(h, ks)
        assert check_fundamental_identity(hext, chi, clique, DEFAULT_U_GRID) == [
            per_u_fundamental_identity(hext, chi, clique, u)
            for u in unit_grid(hext, DEFAULT_U_GRID)]


def test_charges_commute_residual_does_not_depend_on_the_scale():
    """The charges of back_to_back do not commute, and their residual reads
    the same float at every power-of-two scale of the couplings.  With
    products pruned at an absolute 1e-14 it read 0.268 at x 1 and x 2^30,
    but 0.0 at x 2^-20 and x 2^-40."""
    h = back_to_back_model(1.0, 0.7, 1.3, 0.9, 1.2, 0.8)
    got = [charges_commute_residual(_scaled(h, f), frustration_graph(_scaled(h, f)))
           for f in (2.0 ** 30, 1.0, 2.0 ** -20, 2.0 ** -40)]
    assert got[0] > 0.1 and len(set(got)) == 1, got


def test_verify_lemma_residuals_do_not_depend_on_the_scale():
    """Every residual of ``verify_all`` reads the same float at couplings
    x 2^30, x 1 and x 2^-30, on h5 at the couplings of the CI step and on
    the inputs of the grid checks.  With products pruned at an absolute
    1e-14, ``ladder`` on h5 read 1.7e-16 at x 2^30 and 0.0 at x 1."""
    hs, _ = _grid_inputs()
    for h in [h5_model(1.0, 0.7, -1.3, 0.4, 2.0)] + hs:
        got = [verify_all(_scaled(h, f)).lemma_residuals for f in (2.0 ** 30, 1.0, 2.0 ** -30)]
        assert got[0] and got[0] == got[1] == got[2], got


def test_verify_residuals_hold_at_couplings_near_overflow():
    """h5 at couplings (1e200, 1, 1, 1, 1): products of its charges reach
    1e400 and overflowed, with two RuntimeWarnings, and
    ``fundamental_identity`` read NaN.  The charges and T(+-u) are built
    from the couplings divided by the power of two above the largest, so
    no product overflows: every lemma residual is within its tolerance
    with no warning.  The weight of the first term, 1e400, is not a
    float, and the polynomial that refuses it reports so in ``failure``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_all(h5_model(1e200, 1.0, 1.0, 1.0, 1.0))
    assert sorted(rep.lemma_residuals) == ["charges_commute", "fundamental_identity",
                                           "transfer_factorization"]
    assert all(value <= TOLERANCES[name] for name, value in rep.lemma_residuals.items())
    assert rep.failure.startswith("vertex 0 has weight inf")


def test_normalizations_of_random_chains_are_positive():
    """N_j^2 = 16 u_j^2 P_{G-K}(-u_j^2) P_G'(-u_j^2), both polynomials taken
    exactly as ``all_modes`` takes them, is positive at every energy of 400
    random chains, N 2-9 and k 2-4, each coupling 10^U(-4, 0) or U(0.5, 2).
    From float coefficients 159 of their 2,175 came out negative."""
    rng = random.Random(5)
    modes = 0
    for _ in range(400):
        n_cells, k = rng.randint(2, 9), rng.randint(2, 4)
        couplings = [10 ** rng.uniform(-4, 0) if rng.random() < 0.5 else rng.uniform(0.5, 2)
                     for _ in range(k)]
        g = frustration_graph(chain_model(n_cells, k, couplings))
        poly = weighted_independence_polynomial(g)
        p_red = weighted_independence_polynomial(zero_weights(g, smallest_simplicial_clique(g)))
        for e in single_particle_energies(poly).flat():
            u = 1.0 / e
            assert 16.0 * u * u * p_red.at(-u * u) * poly.at(-u * u, slope=True) > 0
            modes += 1
    assert modes == 2175


def test_mode_norm_formula():
    """N_j^2 = 16 u_j^2 P_{G-Ks}(-u_j^2) P'(-u_j^2), positive at every root."""
    h = random_h5()
    g, ks, hext, chi, energies, modes = build_solution(h)
    poly = weighted_independence_polynomial(g)
    p_red = weighted_independence_polynomial(zero_weights(g, ks))
    for m in modes:
        x = -m.u * m.u
        expected_sq = 16.0 * m.u * m.u * p_red.at(x) * poly.at(x, slope=True)
        assert expected_sq > 0
        assert abs(m.norm - math.sqrt(expected_sq)) < 1e-12 * m.norm
