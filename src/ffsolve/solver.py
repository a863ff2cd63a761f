"""Operator-level solution machinery: independent-set charges, transfer
operators, the simplicial mode, the nonlocal eigenmodes built from it,
and residual checks for the structural identities they satisfy.

Sign convention: with psi_j = T(-u_j) chi T(u_j) / N_j (u_j = 1/e_j > 0)
the ladder relations read [H, psi_j] = +2 e_j psi_j and
[H, psi_j^dagger] = -2 e_j psi_j^dagger, and the Hamiltonian is
reconstructed as sum_j e_j [psi_j, psi_j^dagger].  The three statements
are a package: flipping which member of the pair is called psi_j flips
the first two and negates the third.

The charges Q^(k) come from one walk over the independent sets
(``paulis.subset_products``), each set's product taken from its
parent's, on one table.  T(u) = sum_k (-u)^k Q^(k) is only ever a row of
``OperatorSum.combinations`` over ``TransferOperator.terms(u)``, so the
T(u) of a grid or of every mode come from one pass.

The modes are read from one Lanczos run.  psi_j and psi_j^dagger are
eigenoperators of ad_H = [H, .] with eigenvalues +2 e_j and -2 e_j, and
chi lies in their span together with a part that commutes with H
(Fendley, "Free fermions in disguise", J. Phys. A 52, 2019).  So Lanczos
on ad_H started at chi, under the Hilbert-Schmidt inner product
sum_s conj(a_s) b_s over strings, closes after at most 2 alpha + 1 steps,
and mode j is the Ritz vector at +2 e_j, scaled to CAR and with its phase
set by chi.  Every product is one commutator of H with a Lanczos
vector, taken by ``paulis.StringBasis`` on the strings seen so far,
numbered as they appear.  The vectors hold the coefficients of X^x Z^z,
as every sum of ``paulis`` does: they differ from those of sigma(x, z)
by a phase of modulus 1 per string, so the inner product, the run and
its Ritz values are the same in either form.  T(u) is not needed, and
``zero_eigenvector_residual`` ties the modes back to it.

The checks that ``verify`` repeats over strings they share are each one
pass of the product kernel: {psi_i, psi_j^dagger} and {psi_i, psi_j} of
``mode_car_residual``; [H, psi_j] and [H, psi_j^dagger] of
``ladder_residual``; [psi_j, psi_j^dagger] of ``reconstruct`` (and so
of ``reconstruction_residual``); and
T(u_j) psi_j, then psi_j^dagger T(u_j), of ``zero_eigenvector_residual``.
``transfer_factorization_residual`` and ``check_fundamental_identity``
take a grid of u and form each of their products in one pass, a row per
u: T(u) T(-u); T(u) (1 + u sum h_v) and (1 - u sum h_v) chi; chi T(-u);
and T(u) (1 + u sum h_v) chi T(-u).  Both divide the grid by the power
of two just above the largest |coupling|, since u is the one input with
units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

import numpy as np

from .errors import ConditioningError, DegenerateModeError, FFSolveError, NotSimplicialError
from .graphs import WeightedGraph, component_count, frustration_graph
from .indpoly import (
    IndependencePolynomial,
    SingleParticleEnergies,
    weighted_independence_polynomial,
)
from .models import Hamiltonian
from .paulis import (
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

MODE_TOL = 1e-8  # the largest Lanczos bound of mode j, relative to 2 e_j


@dataclass(frozen=True)
class TransferOperator:
    """The charge list Q^(0)..Q^(alpha), whose sum T(u) = sum_j (-u)^j Q^(j)
    at each u is a row of ``OperatorSum.combinations`` over ``terms(u)``."""

    n: int
    charges: tuple[OperatorSum, ...]

    @property
    def alpha(self) -> int:
        return len(self.charges) - 1

    def terms(self, u: float) -> list[tuple[float, OperatorSum]]:
        """The pairs ((-u)^j, Q^(j)) whose sum is T(u)."""
        return list(zip(accumulate(repeat(-u, self.alpha), mul, initial=1.0), self.charges))


def transfer(h: Hamiltonian, graph: WeightedGraph) -> TransferOperator:
    """All charges Q^(0)..Q^(alpha) from one walk over the independent sets.

    ``paulis.subset_products`` walks them depth first on the adjacency
    rows, takes each set's coupling and Pauli product from its parent's
    with one term and one sign, and puts the charges on one table.  The
    factors of a set commute, so their order is immaterial.
    """
    return TransferOperator(h.n, tuple(subset_products(h.n, h.terms, graph.adj)))


# -- structural identity residuals -------------------------------------------

def _largest(parts, scales=1.0) -> float:
    """The largest of the IEEE ratios ``parts`` / ``scales``: 0.0 when there
    are none, and NaN when any one is, 0 / 0 included.  Every residual of
    this module is reduced by this rule, except those over a u grid, which
    return one value per u for ``verify`` to reduce alike."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.divide(parts, scales), initial=0.0))


def charges_commute_residual(h: Hamiltonian, graph: WeightedGraph) -> float:
    """max over r < s of the Pauli 1-norm of [Q^(r), Q^(s)], relative to
    2 ||Q^(r)||_1 ||Q^(s)||_1, the 1-norms of the products Q^(r) Q^(s) and
    Q^(s) Q^(r) that form it.

    Each commutator is a product of its own: the charges share few
    strings, so rows of one pass would each carry the pairs of the others.
    The charges are those of ``h`` scaled as in ``_scaled``, so that their
    products cannot overflow; the residual is the same at any scale.  A
    charge that underflows there to a 1-norm of 0 makes it NaN.
    """
    t = transfer(_scaled(h)[0], graph)
    norms = [q.abs_sum() for q in t.charges]
    pairs = [(r, s) for r in range(1, t.alpha + 1) for s in range(r + 1, t.alpha + 1)]
    return _largest([opsum_comm(t.charges[r], t.charges[s]).abs_sum() for r, s in pairs],
                    [2.0 * norms[r] * norms[s] for r, s in pairs])


def _scaled(h: Hamiltonian) -> tuple[Hamiltonian, int]:
    """``h`` divided by 2^p, the power of two just above its largest
    |coupling|, which is exact, and p: a charge Q^(j) is then divided by
    2^(p j), so T(u) of ``h`` is T(2^p u) of the result, and no product of
    charges overflows."""
    p = math.frexp(max(abs(c) for c, _ in h.terms))[1]
    return Hamiltonian(h.n, tuple((math.ldexp(c, -p), term) for c, term in h.terms)), p


def _transfer_grid(h: Hamiltonian, us: Sequence[float]) -> tuple[
        Hamiltonian, list[OperatorSum], list[OperatorSum], list[float]]:
    """``h`` scaled as in ``_scaled``, and T(u), T(-u) and P(-u^2) of it at
    each u of ``us``.

    The frustration graph and the transfer operator are still built at
    each u (``perfbench/selftest.py`` pins their counts, ROADMAP item 7);
    P comes from one polynomial, evaluated exactly."""
    h, _ = _scaled(h)
    if not us:
        return h, [], [], []
    pairs = []
    for u in us:
        graph = frustration_graph(h)
        t = transfer(h, graph)
        pairs += [t.terms(u), t.terms(-u)]
    both = OperatorSum.combinations(pairs)  # every T(+-u) in one pass
    poly = weighted_independence_polynomial(graph)
    return h, both[::2], both[1::2], [poly.at(-u * u) for u in us]


def transfer_factorization_residual(h: Hamiltonian, us: Sequence[float]) -> list[float]:
    """At each u of ``us``, the max coefficient of T(u) T(-u) - P(-u^2) I,
    relative to the Pauli 1-norm ||T(u)||_1 ||T(-u)||_1 of the products
    that form it; in one pass, on the grid of ``_transfer_grid``."""
    _, tus, tmus, ps = _transfer_grid(h, us)
    ident = OperatorSum.identity(h.n)
    diffs = OperatorSum.combinations([[(1.0, prod), (-p, ident)]
                                      for prod, p in zip(opsum_mul_batch(tus, tmus), ps)])
    return [diff.max_abs_coeff() / (tu.abs_sum() * tmu.abs_sum())
            for diff, tu, tmu in zip(diffs, tus, tmus)]


# -- simplicial extension and modes -------------------------------------------

def simplicial_extension(h: Hamiltonian, ks: Sequence[int]) -> tuple[Hamiltonian, PauliTerm]:
    """Ancilla construction of the simplicial mode.

    Every term indexed by the simplicial clique ``ks`` gains an X on a
    fresh qubit; the mode chi is Z on that qubit, so it anticommutes with
    exactly the clique terms and the frustration graph is unchanged.
    """
    if not ks:  # as when every weight is 0
        raise NotSimplicialError("no simplicial clique of terms of positive weight")
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
        new_terms.append((c, PauliTerm(n, x, t.z)))
    chi = PauliTerm(n, 0, 1 << h.n)
    return Hamiltonian(n, tuple(new_terms)), chi


def clique_from_mode(hext: Hamiltonian, chi: PauliTerm) -> list[int]:
    """Term indices anticommuting with chi (recovers the simplicial clique)."""
    return [i for i, (_, t) in enumerate(hext.terms) if not commutes(t, chi)]


@dataclass(frozen=True)
class IncognitoMode:
    """One nonlocal fermionic eigenmode on the ancilla-extended system;
    ``ritz`` is its eigenvalue of [H, .] from the Lanczos run, near 2 e_j.
    ``dag``, psi_j^dagger, is built on first use and kept."""

    u: float
    energy: float
    norm: float
    ritz: float
    op: OperatorSum

    @functools.cached_property
    def dag(self) -> OperatorSum:
        return self.op.dagger()


def all_modes(hext: Hamiltonian, chi: PauliTerm, energies: SingleParticleEnergies,
              poly: IndependencePolynomial) -> list[IncognitoMode]:
    """Mode j of every energy e_j, as the Ritz vector at 2 e_j of Lanczos
    on [H, .]; ``energies`` are the roots of ``poly``, the independence
    polynomial P_G of the frustration graph.  Every energy must be simple:
    a repeated energy has a plane of modes, and N_j vanishes there.  The
    frustration graph must be connected: chi's Krylov space holds the
    modes of its own component only.  Mode j is the Ritz pair k nearest
    2 e_j, bounded by beta |s_(m,k)| (its Lanczos residual) + m eps max |ritz|
    (the backward error of ``eigh`` on the m x m matrix) + 2 e_j ``energies.width``.
    The Ritz value must be within the bound of 2 e_j, and the bound within
    MODE_TOL of 2 e_j, the distance to the part of chi that commutes with H,
    whose share of the Ritz vector it bounds (Davis and Kahan)."""
    for e, m in energies.energies:  # refused before any operator
        if m > 1:
            raise DegenerateModeError(
                f"energy {e:.12g} has multiplicity {m}; mode construction refused")
    graph = frustration_graph(hext)
    parts = component_count(graph)
    if parts > 1:
        raise FFSolveError(f"the frustration graph has {parts} connected components; chi "
                           "reaches the modes of one only, so modes are refused")
    ks = clique_from_mode(hext, chi)
    if not ks:
        raise NotSimplicialError("chi commutes with every Hamiltonian term")
    # G - K is G with the weights of K set to 0
    minus_ks = WeightedGraph(graph.n, weights=[0.0 if v in ks else w
                                               for v, w in enumerate(graph.weights)])
    minus_ks.adj = graph.adj
    poly_minus_ks = weighted_independence_polynomial(minus_ks)
    # u_j, N_j^2 and the Ritz gate are taken at the couplings / 2^p, as in
    # ``_scaled``, which is exact: the weights are then / 4^p, and P and
    # P_{G-K} the same integers with the shift 2p more
    scaled, p = _scaled(hext)
    poly = IndependencePolynomial(poly.ints, poly.shift + 2 * p)
    poly_minus_ks = IndependencePolynomial(poly_minus_ks.ints, poly_minus_ks.shift + 2 * p)
    index, basis, ritz, vectors, beta = _lanczos(scaled, chi, 2 * len(energies.flat()) + 1)
    bounds = beta * np.abs(vectors[-1]) + len(ritz) * math.ulp(1.0) * np.abs(ritz).max()
    modes = []
    for j, e in enumerate(energies.flat()):
        u = 1.0 / math.ldexp(e, -p)
        x = -u * u
        if x == -math.inf:
            raise ConditioningError(f"1 / e_{j}^2 overflows at mode {j}, with e_{j} = {e:.3e}"
                                    f" and the couplings divided by 2^{p}")
        p_red = poly_minus_ks.at(x)
        nsq = 16.0 * u * u * p_red * poly.at(x, slope=True)
        if not nsq > 0:
            raise ConditioningError(
                f"normalization squared is {nsq:.3e} at mode {j}; "
                "expected positive (interlacing of the reduced polynomial)")
        k = int(np.argmin(np.abs(ritz - 2.0 / u)))
        if not abs(ritz[k] - 2.0 / u) <= (bound := bounds[k] + 2.0 / u * energies.width):
            raise ConditioningError(f"no eigenvalue of [H, .] near 2 e_{j} = {2.0 * e:.12g}"
                                    f" (nearest {math.ldexp(ritz[k], p):.12g})")
        if not bound <= MODE_TOL * 2.0 / u:
            raise ConditioningError(f"the Lanczos bound of mode {j} is {bound * u / 2.0:.1e} "
                                    f"of 2 e_{j} = {2.0 * e:.12g}, above {MODE_TOL:g}")
        # sum |c|^2 = 1/2 for CAR, and chi's coefficient 2 P_{G-K}(-u^2) / N_j is real
        coef = vectors[:, k] @ basis
        coef *= math.copysign(math.sqrt(0.5), p_red) * abs(coef[0]) / coef[0]
        modes.append(IncognitoMode(math.ldexp(u, -p), e, math.sqrt(nsq), math.ldexp(ritz[k], p),
                                   OperatorSum.from_vector(index, coef)))
    return modes


def _lanczos(h: Hamiltonian, chi: PauliTerm, steps: int) -> tuple[
        StringBasis, np.ndarray, np.ndarray, np.ndarray, float]:
    """Lanczos on [H, .] from chi with full reorthogonalization, until the
    next vector, of norm beta, is below 1e-10 of the first: the basis of
    the strings seen (chi first), the Lanczos vectors as rows of X^x Z^z
    coefficients over them, the eigenpairs of the tridiagonal matrix, and
    beta, so that Ritz pair k has residual beta |s_(m,k)|, s_(m,k) the
    last entry of eigenvector k.  ``eigh`` takes the matrix divided by the
    power of two above its largest entry: LAPACK rescales a matrix outside
    about [2^-407, 2^489] by a factor that is not a power of two.

    The modes and the part of chi that commutes with H span at most
    ``steps`` dimensions; a run that needs more was given the energies of
    another Hamiltonian.
    """
    hop = OperatorSum.from_terms(h.n, h.terms)
    index = StringBasis(chi)
    basis = np.ones((1, 1), dtype=complex)  # chi, a Z string: X^0 Z^z = sigma(0, z)
    diag: list[float] = []
    off: list[float] = []
    while True:
        coef = index.comm(hop, basis[-1])
        basis = np.concatenate([basis, np.zeros((len(basis), len(index) - basis.shape[1]))], axis=1)
        proj = (conj := basis.conj()) @ coef
        diag.append(proj[-1].real)
        coef -= proj @ basis
        coef -= (conj @ coef) @ basis  # a second pass restores orthogonality
        beta = math.sqrt(coef.real @ coef.real + coef.imag @ coef.imag)  # np.linalg.norm's sum
        if beta <= 1e-10 * (off[0] if off else beta):
            break
        if len(basis) == steps:
            raise ConditioningError(f"the Krylov space of chi exceeds {steps} dimensions")
        off.append(beta)
        basis = np.concatenate([basis, coef[None] / beta])
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    p = math.frexp(np.abs(tri).max())[1]
    ritz, vectors = np.linalg.eigh(np.ldexp(tri, -p))
    return index, basis, np.ldexp(ritz, p), vectors, beta


def mode_energy_gap(modes: Sequence[IncognitoMode]) -> float:
    """max_j |lambda_j - 2 e_j| / (2 e_max): the eigenvalues of [H, .] that
    the Lanczos run found against the root finder's energies, two sources
    that share no code."""
    return _largest([abs(m.ritz - 2.0 * m.energy) for m in modes],
                    2.0 * max(m.energy for m in modes))


def reconstruct(modes: Sequence[IncognitoMode],
                energies: SingleParticleEnergies) -> OperatorSum:
    """sum_k e_k [psi_k, psi_k^dagger]; equals the extended Hamiltonian.
    The commutators are taken in one pass, and summed as one row."""
    flat = energies.flat()
    if len(modes) != len(flat):
        raise ValueError(f"need all {len(flat)} modes, got {len(modes)}")
    comms = opsum_comm_batch([m.op for m in modes], [m.dag for m in modes])
    return OperatorSum.combinations([[(m.energy, comm) for m, comm in zip(modes, comms)]])[0]


def reconstruction_residual(hext: Hamiltonian, modes: Sequence[IncognitoMode],
                            energies: SingleParticleEnergies) -> float:
    """The Pauli 1-norm of ``reconstruct`` less the extended Hamiltonian,
    relative to the 1-norms of H and of the products e_j psi_j psi_j^dag
    and e_j psi_j^dag psi_j that form it."""
    recon = reconstruct(modes, energies)
    target = OperatorSum.from_terms(hext.n, hext.terms)
    scale = target.abs_sum() + sum(2.0 * m.energy * m.op.abs_sum() ** 2 for m in modes)
    return _largest([(recon - target).abs_sum()], scale)


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
    diffs = OperatorSum.combinations([[(1.0, pair), (-1.0 if i == j else 0.0, ident)]
                                      for (i, j), pair in zip(mixed, pairs)])
    return _largest([pair.max_abs_coeff() for pair in diffs + pairs[len(mixed):]])


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
    parts = OperatorSum.combinations(  # [H, psi] - 2 e psi, then [H, psi^dag] + 2 e psi^dag
        [[(1.0, raised), (-2.0 * m.energy, op)] for m, op, raised in zip(modes, ops, comms)]
        + [[(1.0, lowered), (2.0 * m.energy, dag)]
           for m, dag, lowered in zip(modes, dags, comms[len(modes):])])
    scales = [2.0 * op.abs_sum() * (norm + m.energy) for m, op in zip(modes, ops)]
    return _largest([part.abs_sum() for part in parts], scales * 2)


def check_fundamental_identity(hext: Hamiltonian, chi: PauliTerm,
                               ks: Sequence[int], us: Sequence[float]) -> list[float]:
    """At each u of ``us``, the Pauli 1-norm residual, an upper bound on
    the operator norm, of the simplicial-clique identity

    T(u) (1 + u sum_{v in ks} h_v) chi T(-u)
        = P(-u^2) (1 - u sum_{v in ks} h_v) chi ,

    relative to the sum over the two sides of the Pauli 1-norms of the
    factors that form each side, on the grid of ``_transfer_grid``.  Each
    product is one pass with a row per u, and T(u) (1 + u sum h_v) and
    (1 - u sum h_v) chi, whose left and right factors share strings, are
    one pass together.
    """
    hext, tus, tmus, ps = _transfer_grid(hext, us)
    hsum = OperatorSum.from_terms(hext.n, [hext.terms[v] for v in ks])
    ident = OperatorSum.identity(hext.n)
    chi_op = OperatorSum.from_term(chi)
    pluses = OperatorSum.combinations([[(1.0, ident), (u, hsum)] for u in us])
    minuses = OperatorSum.combinations([[(1.0, ident), (-u, hsum)] for u in us])
    pairs = opsum_mul_batch(tus + minuses, pluses + [chi_op] * len(us))
    lefts, rights = pairs[:len(us)], pairs[len(us):]
    lhss = opsum_mul_batch(lefts, opsum_mul_batch([chi_op] * len(us), tmus))
    diffs = OperatorSum.combinations([[(1.0, lhs), (-p, right)]
                                      for lhs, right, p in zip(lhss, rights, ps)])
    return [diff.abs_sum()
            / (tu.abs_sum() * plus.abs_sum() * tmu.abs_sum() + abs(p) * minus.abs_sum())
            for diff, p, tu, tmu, plus, minus in zip(diffs, ps, tus, tmus, pluses, minuses)]


def zero_eigenvector_residual(modes: Sequence[IncognitoMode], hext: Hamiltonian,
                              graph: WeightedGraph) -> float:
    """max over the modes of the coefficients of T(u_j) psi_j and of
    psi_j^dag T(u_j), which both vanish; every T(u_j) in one pass, and one
    pass for each side.  T(u_j) is T(2^p u_j) of ``hext`` scaled as in
    ``_scaled``, which is exact, and ``graph`` is its frustration graph."""
    scaled, p = _scaled(hext)
    t = transfer(scaled, graph)
    tus = OperatorSum.combinations([t.terms(math.ldexp(m.u, p)) for m in modes])
    right = opsum_mul_batch(tus, [m.op for m in modes])
    left = opsum_mul_batch([m.dag for m in modes], tus)
    return _largest([p.max_abs_coeff() for p in right + left])

