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
set by chi.  Every product is one ``opsum_comm`` of H with a Lanczos
vector; T(u) is not needed, and ``zero_eigenvector_residual`` ties the
modes back to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import ConditioningError, DegenerateModeError, NotSimplicialError
from .graphs import WeightedGraph, frustration_graph, stable_sets
from .indpoly import SingleParticleEnergies, weighted_independence_polynomial
from .models import Hamiltonian
from .paulis import (
    PRUNE_TOL,
    OperatorSum,
    PauliTerm,
    multiply,
    opsum_anticomm,
    opsum_comm,
    opsum_mul,
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
        acc = OperatorSum.zero(self.n)
        coef = 1.0
        for q in self.charges:
            acc = acc + coef * q
            coef *= -u
        return acc


def transfer(h: Hamiltonian, graph: WeightedGraph | None = None) -> TransferOperator:
    """All charges Q^(0)..Q^(alpha) from one pass over the independent sets.

    ``graphs.stable_sets`` yields each set after its parent, the set
    without its highest vertex, so a set's coupling product and Pauli
    product are its parent's times that vertex's term, one ``multiply``
    per set.  The factors of a set commute, so their order is immaterial.
    Q^(k) is of the size of s^k, s the largest |coupling|, and is pruned
    against that, so that no charge depends on the overall scale.
    """
    if graph is None:
        graph = frustration_graph(h)
    sets = stable_sets(graph.adj)
    made = {next(sets): (1.0, PauliTerm.identity(h.n))}  # the empty set comes first
    accs: list[dict[tuple[int, int], complex]] = [{(0, 0): 1.0 + 0.0j}]
    for mask in sets:
        top = mask.bit_length() - 1
        c, t = h.terms[top]
        coeff, prod = made[mask ^ (1 << top)]
        made[mask] = coeff, prod = coeff * c, multiply(prod, t)
        k = mask.bit_count()
        if k == len(accs):
            accs.append({})
        key = (prod.x, prod.z)
        accs[k][key] = accs[k].get(key, 0.0) + coeff * prod.phase
    s = max((abs(c) for c, _ in h.terms), default=1.0)
    return TransferOperator(h.n, tuple(
        OperatorSum._of_clean(h.n, {key: c for key, c in acc.items() if abs(c) > cut})
        for acc, cut in zip(accs, [PRUNE_TOL * s ** k for k in range(len(accs))])))


# -- structural identity residuals -------------------------------------------

def charges_commute_residual(h: Hamiltonian, graph: WeightedGraph | None = None) -> float:
    """max over r < s of the Pauli 1-norm of [Q^(r), Q^(s)], relative to
    2 ||Q^(r)||_1 ||Q^(s)||_1, the 1-norms of the products Q^(r) Q^(s) and
    Q^(s) Q^(r) that form it."""
    t = transfer(h, graph)
    norms = [q.abs_sum() for q in t.charges]
    worst = 0.0
    for r in range(1, t.alpha + 1):
        for s in range(r + 1, t.alpha + 1):
            comm = opsum_comm(t.charges[r], t.charges[s]).abs_sum()
            worst = max(worst, comm / (2.0 * norms[r] * norms[s]))
    return worst


def transfer_factorization_residual(h: Hamiltonian, u: float) -> float:
    """max coefficient of T(u) T(-u) - P(-u^2) I, relative to the Pauli
    1-norm ||T(u)||_1 ||T(-u)||_1 of the products that form it."""
    graph = frustration_graph(h)
    t = transfer(h, graph)
    poly = weighted_independence_polynomial(graph)
    tu, tmu = t.evaluate(u), t.evaluate(-u)
    expected = poly(-u * u) * OperatorSum.identity(h.n)
    return (opsum_mul(tu, tmu) - expected).max_abs_coeff() / (tu.abs_sum() * tmu.abs_sum())


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
    from .paulis import commutes
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
    of modes, and N_j vanishes there.

    The couplings are divided by ``scale``, the power of two just above the
    largest |coupling| (exact), so that neither ``PRUNE_TOL`` nor the
    Lanczos stop depends on the overall scale.  For the scaled couplings
    u_j is u = scale / e_j, and mode j is the Ritz vector at 2 / u.
    """
    for e, m in energies.energies:  # refused before any operator
        if m > 1:
            raise DegenerateModeError(
                f"energy {e:.12g} has multiplicity {m}; mode construction refused")
    scale = math.ldexp(1.0, math.frexp(max(abs(c) for c, _ in hext.terms))[1])
    hext = Hamiltonian(hext.n, tuple((c / scale, t) for c, t in hext.terms))
    graph = frustration_graph(hext)
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
    index = {(chi.x, chi.z): 0}
    basis = np.ones((1, 1), dtype=complex)  # chi, whose phase is 1
    diag: list[float] = []
    off: list[float] = []
    op = OperatorSum.from_term(chi)
    while True:
        w = opsum_comm(hop, op)
        coef = np.zeros(len(index) + len(w), dtype=complex)
        coef[[index.setdefault(s, len(index)) for s in w.terms]] = list(w.terms.values())
        coef = coef[:len(index)]
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
        op = _opsum(h.n, list(index), basis[-1])
    ritz, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return list(index), basis, ritz, vectors


def mode_energy_gap(modes: Sequence[IncognitoMode]) -> float:
    """max_j |lambda_j - 2 e_j| / (2 e_max): the eigenvalues of [H, .] that
    the Lanczos run found against the root finder's energies, two sources
    that share no code."""
    top = 2.0 * max(m.energy for m in modes)
    return max(abs(m.ritz - 2.0 * m.energy) for m in modes) / top


def reconstruct(modes: Sequence[IncognitoMode],
                energies: SingleParticleEnergies) -> OperatorSum:
    """sum_k e_k [psi_k, psi_k^dagger]; equals the extended Hamiltonian."""
    flat = energies.flat()
    if len(modes) != len(flat):
        raise ValueError(f"need all {len(flat)} modes, got {len(modes)}")
    n = modes[0].op.n
    acc = OperatorSum.zero(n)
    for mode in modes:
        acc = acc + mode.energy * opsum_comm(mode.op, mode.dag)
    return acc


def mode_car_residual(modes: Sequence[IncognitoMode]) -> float:
    """Worst deviation from the canonical anticommutation relations."""
    n = modes[0].op.n
    ident = OperatorSum.identity(n)
    worst = 0.0
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            pair = opsum_anticomm(mi.op, mj.dag)
            target = ident if i == j else OperatorSum.zero(n)
            worst = max(worst, (pair - target).max_abs_coeff())
            if j >= i:
                worst = max(worst, opsum_anticomm(mi.op, mj.op).max_abs_coeff())
    return worst


def ladder_residual(hext: Hamiltonian, mode: IncognitoMode) -> float:
    """Pauli 1-norm of [H, psi] - 2 e psi and of [H, psi^dag] + 2 e psi^dag,
    relative to 2 ||psi||_1 (||H||_1 + e), the 1-norms of the products
    H psi and psi H and of 2 e psi that form each."""
    hop = OperatorSum.from_terms(hext.n, hext.terms)
    raise_part = (opsum_comm(hop, mode.op) - 2.0 * mode.energy * mode.op).abs_sum()
    lower_part = (opsum_comm(hop, mode.dag) + 2.0 * mode.energy * mode.dag).abs_sum()
    scale = 2.0 * mode.op.abs_sum() * (hop.abs_sum() + mode.energy)
    return max(raise_part, lower_part) / scale


def check_fundamental_identity(hext: Hamiltonian, chi: PauliTerm,
                               ks: Sequence[int], u: float) -> float:
    """Pauli 1-norm residual, an upper bound on the operator norm, of the
    simplicial-clique identity

    T(u) (1 + u sum_{v in ks} h_v) chi T(-u)
        = P(-u^2) (1 - u sum_{v in ks} h_v) chi ,

    relative to the sum over the two sides of the Pauli 1-norms of the
    factors that form each side.
    """
    graph = frustration_graph(hext)
    t = transfer(hext, graph)
    poly = weighted_independence_polynomial(graph)
    hsum = OperatorSum.from_terms(hext.n, [hext.terms[v] for v in ks])
    ident = OperatorSum.identity(hext.n)
    chi_op = OperatorSum.from_term(chi)
    tu, tmu = t.evaluate(u), t.evaluate(-u)
    plus, minus, p = ident + u * hsum, ident - u * hsum, poly(-u * u)
    lhs = opsum_mul(opsum_mul(tu, plus), opsum_mul(chi_op, tmu))
    rhs = p * opsum_mul(minus, chi_op)
    scale = tu.abs_sum() * plus.abs_sum() * tmu.abs_sum() + abs(p) * minus.abs_sum()
    return (lhs - rhs).abs_sum() / scale


def zero_eigenvector_residual(mode: IncognitoMode, t: TransferOperator) -> float:
    """T(u_j) psi_j and psi_j^dag T(u_j) both vanish."""
    tu = t.evaluate(mode.u)
    return max(opsum_mul(tu, mode.op).max_abs_coeff(),
               opsum_mul(mode.dag, tu).max_abs_coeff())

