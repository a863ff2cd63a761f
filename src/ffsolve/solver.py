"""Operator-level solution machinery: independent-set charges, transfer
operators, the simplicial mode, the nonlocal eigenmodes built from it,
and residual checks for the structural identities they satisfy.

Sign convention: with psi_j = T(-u_j) chi T(u_j) / N_j (u_j = 1/e_j > 0)
the ladder relations read [H, psi_j] = +2 e_j psi_j and
[H, psi_j^dagger] = -2 e_j psi_j^dagger, and the Hamiltonian is
reconstructed as sum_j e_j [psi_j, psi_j^dagger].  The three statements
are a package: flipping which member of the pair is called psi_j flips
the first two and negates the third.

The modes are read from one Lanczos run.  psi_j and psi_j^dagger are
eigenoperators of ad_H = [H, .] with eigenvalues +2 e_j and -2 e_j, and
chi lies in their span together with a part that commutes with H
(Fendley, "Free fermions in disguise", J. Phys. A 52, 2019).  So Lanczos
on ad_H started at chi, under the Hilbert-Schmidt inner product
sum_s conj(a_s) b_s over strings, closes after at most 2 alpha + 1 steps,
and mode j is the Ritz vector at +2 e_j, scaled to CAR and with its phase
set by chi.  Every product is one commutator of H with a Lanczos
vector, taken by ``paulis.StringBasis`` on the strings seen so far,
numbered as they appear; T(u) is not needed, and
``zero_eigenvector_residual`` ties the modes back to it.

The checks that ``verify`` repeats over strings they share are each one
pass of the product kernel: {psi_i, psi_j^dagger} and {psi_i, psi_j} of
``mode_car_residual``; [H, psi_j] and [H, psi_j^dagger] of
``ladder_residual``; [psi_j, psi_j^dagger] of ``reconstruct``; and
T(u_j) psi_j, then psi_j^dagger T(u_j), of ``zero_eigenvector_residual``.
``transfer_factorization_residual`` and ``check_fundamental_identity``
take a grid of u and form each of their products in one pass, a row per
u: T(u) T(-u); T(u) (1 + u sum h_v) and (1 - u sum h_v) chi; chi T(-u);
and T(u) (1 + u sum h_v) chi T(-u).  Both run on the couplings divided
by the power of two just above the largest |coupling|, as ``all_modes``
does, so that the absolute ``PRUNE_TOL`` of the products does not weaken
them as the couplings shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import ConditioningError, DegenerateModeError, FFSolveError, NotSimplicialError
from .graphs import WeightedGraph, component_count, frustration_graph, stable_sets
from .indpoly import SingleParticleEnergies, weighted_independence_polynomial
from .models import Hamiltonian
from .paulis import (
    PRUNE_TOL,
    OperatorSum,
    PauliTerm,
    StringBasis,
    commutes,
    opsum_anticomm_batch,
    opsum_comm,
    opsum_comm_batch,
    opsum_mul_batch,
    subset_products,
)
from .recognition import is_simplicial_clique


@dataclass(frozen=True)
class TransferOperator:
    """The charge list Q^(0)..Q^(alpha); evaluate(u) = sum_j (-u)^j Q^(j)."""

    n: int
    charges: tuple[OperatorSum, ...]

    @property
    def alpha(self) -> int:
        return len(self.charges) - 1

    def evaluate(self, u: float) -> OperatorSum:
        acc: dict[tuple[int, int], complex] = {}
        coef = 1.0
        for q in self.charges:
            for key, c in q.terms.items():
                acc[key] = acc.get(key, 0.0) + coef * c
            coef *= -u
        return OperatorSum(self.n, acc)


def transfer(h: Hamiltonian, graph: WeightedGraph) -> TransferOperator:
    """All charges Q^(0)..Q^(alpha) from one pass over the independent sets.

    ``graphs.stable_sets`` yields the empty set first and each other set
    after its parent, the set without its highest vertex, so
    ``paulis.subset_products`` builds a set's coupling and Pauli product
    from its parent's with one term.  The factors of a set commute, so
    their order is immaterial.  Q^(k) is of the size of s^k, s the largest
    |coupling|, and is pruned against that, so that no charge depends on
    the overall scale.
    """
    accs = subset_products(h.terms, stable_sets(graph.adj))
    s = max((abs(c) for c, _ in h.terms), default=1.0)
    return TransferOperator(h.n, tuple(
        OperatorSum._of_clean(h.n, {key: c for key, c in acc.items() if abs(c) > cut})
        for acc, cut in zip(accs, [PRUNE_TOL * s ** k for k in range(len(accs))])))


# -- structural identity residuals -------------------------------------------

def charges_commute_residual(h: Hamiltonian, graph: WeightedGraph) -> float:
    """max over r < s of the Pauli 1-norm of [Q^(r), Q^(s)], relative to
    2 ||Q^(r)||_1 ||Q^(s)||_1, the 1-norms of the products Q^(r) Q^(s) and
    Q^(s) Q^(r) that form it.

    Each commutator is a product of its own: the charges share few
    strings, so rows of one pass would each carry the pairs of the others.
    """
    t = transfer(h, graph)
    norms = [q.abs_sum() for q in t.charges]
    worst = 0.0
    for r in range(1, t.alpha + 1):
        for s in range(r + 1, t.alpha + 1):
            comm = opsum_comm(t.charges[r], t.charges[s]).abs_sum()
            worst = max(worst, comm / (2.0 * norms[r] * norms[s]))
    return worst


def _unit_couplings(h: Hamiltonian) -> tuple[float, Hamiltonian]:
    """``scale``, the power of two just above the largest |coupling|, and
    ``h`` with its couplings divided by it, which is exact."""
    scale = math.ldexp(1.0, math.frexp(max(abs(c) for c, _ in h.terms))[1])
    return scale, Hamiltonian(h.n, tuple((c / scale, t) for c, t in h.terms))


def _transfer_grid(h: Hamiltonian, us: Sequence[float]) -> tuple[
        list[OperatorSum], list[OperatorSum], list[float]]:
    """T(u), T(-u) and P(-u^2) of ``h`` at each u of ``us``.

    The frustration graph and the transfer operator are still built at
    each u (``perfbench/selftest.py`` pins their counts, ROADMAP item 7);
    P comes from one polynomial."""
    tus, tmus = [], []
    for u in us:
        graph = frustration_graph(h)
        t = transfer(h, graph)
        tus.append(t.evaluate(u))
        tmus.append(t.evaluate(-u))
    if not tus:
        return [], [], []
    poly = weighted_independence_polynomial(graph)
    return tus, tmus, [poly(-u * u) for u in us]


def transfer_factorization_residual(h: Hamiltonian, us: Sequence[float]) -> list[float]:
    """At each u of ``us``, the max coefficient of T(u) T(-u) - P(-u^2) I,
    relative to the Pauli 1-norm ||T(u)||_1 ||T(-u)||_1 of the products
    that form it; at unit largest coupling, and in one pass."""
    _, h = _unit_couplings(h)
    tus, tmus, ps = _transfer_grid(h, us)
    ident = OperatorSum.identity(h.n)
    return [(prod - p * ident).max_abs_coeff() / (tu.abs_sum() * tmu.abs_sum())
            for prod, tu, tmu, p in zip(opsum_mul_batch(tus, tmus), tus, tmus, ps)]


# -- simplicial extension and modes -------------------------------------------

def simplicial_extension(h: Hamiltonian, ks: Sequence[int]) -> tuple[Hamiltonian, PauliTerm]:
    """Ancilla construction of the simplicial mode.

    Every term indexed by the simplicial clique ``ks`` gains an X on a
    fresh qubit; the mode chi is Z on that qubit, so it anticommutes with
    exactly the clique terms and the frustration graph is unchanged.
    """
    graph = frustration_graph(h)
    kmask = 0
    for v in ks:
        if not 0 <= v < len(h.terms):
            raise NotSimplicialError(f"vertex {v} out of range")
        kmask |= 1 << v
    if not is_simplicial_clique(graph, kmask):
        raise NotSimplicialError(f"{sorted(set(ks))} is not a simplicial clique")
    n = h.n + 1
    new_terms = []
    for i, (c, t) in enumerate(h.terms):
        x = t.x | ((1 << h.n) if (kmask >> i) & 1 else 0)
        new_terms.append((c, PauliTerm(n, x, t.z, 0)))
    chi = PauliTerm.from_ops(n, {h.n: "Z"})
    return Hamiltonian(n, tuple(new_terms)), chi


def clique_from_mode(hext: Hamiltonian, chi: PauliTerm) -> list[int]:
    """Term indices anticommuting with chi (recovers the simplicial clique)."""
    return [i for i, (_, t) in enumerate(hext.terms) if not commutes(t, chi)]


@dataclass(frozen=True)
class IncognitoMode:
    """One nonlocal fermionic eigenmode on the ancilla-extended system;
    ``ritz`` is its eigenvalue of [H, .] from the Lanczos run, near 2 e_j."""

    index: int
    u: float
    energy: float
    norm: float
    ritz: float
    op: OperatorSum

    @property
    def dag(self) -> OperatorSum:
        return self.op.dagger()


def _opsum(n: int, strings: list[tuple[int, int]], coef: np.ndarray) -> OperatorSum:
    """sum_s coef[s] sigma(strings[s]), pruned."""
    keep = np.abs(coef) > PRUNE_TOL
    return OperatorSum._of_clean(n, dict(zip(compress(strings, keep), coef[keep].tolist())))


def all_modes(hext: Hamiltonian, chi: PauliTerm,
              energies: SingleParticleEnergies) -> list[IncognitoMode]:
    """Mode j of every energy e_j, as the Ritz vector at 2 e_j of Lanczos
    on [H, .].  Every energy must be simple: a repeated energy has a plane
    of modes, and N_j vanishes there.  The frustration graph must be
    connected: chi's Krylov space holds the modes of its own component only.

    The couplings are divided by ``scale``, the power of two just above the
    largest |coupling| (exact), so that neither ``PRUNE_TOL`` nor the
    Lanczos stop depends on the overall scale.  For the scaled couplings
    u_j is u = scale / e_j, and mode j is the Ritz vector at 2 / u.
    """
    for e, m in energies.energies:  # refused before any operator
        if m > 1:
            raise DegenerateModeError(
                f"energy {e:.12g} has multiplicity {m}; mode construction refused")
    scale, hext = _unit_couplings(hext)
    graph = frustration_graph(hext)
    parts = component_count(graph)
    if parts > 1:
        raise FFSolveError(f"the frustration graph has {parts} connected components; chi "
                           "reaches the modes of one only, so modes are refused")
    poly = weighted_independence_polynomial(graph)
    ks = clique_from_mode(hext, chi)
    if not ks:
        raise NotSimplicialError("chi commutes with every Hamiltonian term")
    poly_minus_ks = weighted_independence_polynomial(graph.remove_set(ks)[0])
    strings, basis, ritz, vectors = _lanczos(hext, chi, 2 * len(energies.flat()) + 1)
    modes = []
    for j, e in enumerate(energies.flat()):
        u = scale / e
        p_red = poly_minus_ks(-u * u)
        nsq = 16.0 * u * u * p_red * poly.deriv(-u * u)
        if not nsq > 0:
            raise ConditioningError(
                f"normalization squared is {nsq:.3e} at mode {j}; "
                "expected positive (interlacing of the reduced polynomial)")
        k = int(np.argmin(np.abs(ritz - 2.0 / u)))
        if not abs(ritz[k] * u - 2.0) <= 2e-8:
            raise ConditioningError(f"no eigenvalue of [H, .] near 2 e_{j} = {2.0 * e:.12g}"
                                    f" (nearest {ritz[k] * scale:.12g})")
        # sum |c|^2 = 1/2 for CAR, and chi's coefficient 2 P_{G-K}(-u^2) / N_j is real
        coef = vectors[:, k] @ basis
        coef *= math.copysign(math.sqrt(0.5), p_red) * abs(coef[0]) / coef[0]
        modes.append(IncognitoMode(j, 1.0 / e, e, math.sqrt(nsq), ritz[k] * scale,
                                   _opsum(hext.n, strings, coef)))
    return modes


def _lanczos(h: Hamiltonian, chi: PauliTerm, steps: int) -> tuple[
        list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """Lanczos on [H, .] from chi with full reorthogonalization, until the
    next vector is below 1e-10: the strings seen (chi first), the Lanczos
    vectors as rows over them, and the eigenpairs of the tridiagonal matrix.

    The modes and the part of chi that commutes with H span at most
    ``steps`` dimensions; a run that needs more was given the energies of
    another Hamiltonian.
    """
    hop = OperatorSum.from_terms(h.n, h.terms)
    index = StringBasis(chi)
    basis = np.ones((1, 1), dtype=complex)  # chi, whose phase is 1
    diag: list[float] = []
    off: list[float] = []
    while True:
        coef = index.comm(hop, basis[-1])
        basis = np.hstack([basis, np.zeros((len(basis), len(index) - basis.shape[1]))])
        proj = basis.conj() @ coef
        diag.append(proj[-1].real)
        coef -= proj @ basis
        coef -= (basis.conj() @ coef) @ basis  # a second pass restores orthogonality
        beta = float(np.linalg.norm(coef))
        if beta <= 1e-10:
            break
        if len(basis) == steps:
            raise ConditioningError(f"the Krylov space of chi exceeds {steps} dimensions")
        off.append(beta)
        basis = np.vstack([basis, coef / beta])
    ritz, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return index.strings(), basis, ritz, vectors


def mode_energy_gap(modes: Sequence[IncognitoMode]) -> float:
    """max_j |lambda_j - 2 e_j| / (2 e_max): the eigenvalues of [H, .] that
    the Lanczos run found against the root finder's energies, two sources
    that share no code."""
    top = 2.0 * max(m.energy for m in modes)
    return max(abs(m.ritz - 2.0 * m.energy) for m in modes) / top


def reconstruct(modes: Sequence[IncognitoMode],
                energies: SingleParticleEnergies) -> OperatorSum:
    """sum_k e_k [psi_k, psi_k^dagger]; equals the extended Hamiltonian.
    The commutators are taken in one pass."""
    flat = energies.flat()
    if len(modes) != len(flat):
        raise ValueError(f"need all {len(flat)} modes, got {len(modes)}")
    acc = OperatorSum.zero(modes[0].op.n)
    comms = opsum_comm_batch([m.op for m in modes], [m.dag for m in modes])
    for mode, comm in zip(modes, comms):
        acc = acc + mode.energy * comm
    return acc


def mode_car_residual(modes: Sequence[IncognitoMode]) -> float:
    """Worst deviation from the canonical anticommutation relations:
    {psi_i, psi_j^dag} - delta_ij and {psi_i, psi_j}, i <= j, in one pass."""
    ops = [m.op for m in modes]
    dags = [m.dag for m in modes]
    mixed = [(i, j) for i in range(len(modes)) for j in range(len(modes))]
    same = [(i, j) for i, j in mixed if j >= i]
    pairs = opsum_anticomm_batch([ops[i] for i, _ in mixed + same],
                                 [dags[j] for _, j in mixed] + [ops[j] for _, j in same])
    ident = OperatorSum.identity(modes[0].op.n)
    return max([(pair - ident if i == j else pair).max_abs_coeff()
                for (i, j), pair in zip(mixed, pairs)]
               + [pair.max_abs_coeff() for pair in pairs[len(mixed):]])


def ladder_residual(hext: Hamiltonian, modes: Sequence[IncognitoMode]) -> float:
    """max over the modes of the Pauli 1-norm of [H, psi] - 2 e psi and of
    [H, psi^dag] + 2 e psi^dag, relative to 2 ||psi||_1 (||H||_1 + e), the
    1-norms of the products H psi and psi H and of 2 e psi that form each.
    The commutators of all the modes are taken in one pass."""
    hop = OperatorSum.from_terms(hext.n, hext.terms)
    ops = [m.op for m in modes]
    dags = [m.dag for m in modes]
    comms = opsum_comm_batch([hop] * (2 * len(modes)), ops + dags)
    norm = hop.abs_sum()
    worst = 0.0
    for m, op, dag, raised, lowered in zip(modes, ops, dags, comms, comms[len(modes):]):
        raise_part = (raised - 2.0 * m.energy * op).abs_sum()
        lower_part = (lowered + 2.0 * m.energy * dag).abs_sum()
        worst = max(worst, max(raise_part, lower_part) / (2.0 * op.abs_sum() * (norm + m.energy)))
    return worst


def check_fundamental_identity(hext: Hamiltonian, chi: PauliTerm,
                               ks: Sequence[int], us: Sequence[float]) -> list[float]:
    """At each u of ``us``, the Pauli 1-norm residual, an upper bound on
    the operator norm, of the simplicial-clique identity

    T(u) (1 + u sum_{v in ks} h_v) chi T(-u)
        = P(-u^2) (1 - u sum_{v in ks} h_v) chi ,

    relative to the sum over the two sides of the Pauli 1-norms of the
    factors that form each side; at unit largest coupling.  Each product
    is one pass with a row per u, and T(u) (1 + u sum h_v) and
    (1 - u sum h_v) chi, whose left and right factors share strings, are
    one pass together.
    """
    _, hext = _unit_couplings(hext)
    tus, tmus, ps = _transfer_grid(hext, us)
    hsum = OperatorSum.from_terms(hext.n, [hext.terms[v] for v in ks])
    ident = OperatorSum.identity(hext.n)
    chi_op = OperatorSum.from_term(chi)
    pluses = [ident + u * hsum for u in us]
    minuses = [ident - u * hsum for u in us]
    pairs = opsum_mul_batch(tus + minuses, pluses + [chi_op] * len(us))
    lefts, rights = pairs[:len(us)], pairs[len(us):]
    lhss = opsum_mul_batch(lefts, opsum_mul_batch([chi_op] * len(us), tmus))
    return [(lhs - p * right).abs_sum()
            / (tu.abs_sum() * plus.abs_sum() * tmu.abs_sum() + abs(p) * minus.abs_sum())
            for lhs, right, p, tu, tmu, plus, minus
            in zip(lhss, rights, ps, tus, tmus, pluses, minuses)]


def zero_eigenvector_residual(modes: Sequence[IncognitoMode], t: TransferOperator) -> float:
    """max over the modes of the coefficients of T(u_j) psi_j and of
    psi_j^dag T(u_j), which both vanish; one pass for each side."""
    tus = [t.evaluate(m.u) for m in modes]
    right = opsum_mul_batch(tus, [m.op for m in modes])
    left = opsum_mul_batch([m.dag for m in modes], tus)
    return max(p.max_abs_coeff() for p in right + left)

