"""Exact-diagonalization oracle and the top-level checks that confront the
graph-derived solution with ground truth.

The oracle uses Pauli algebra only, never the frustration graph: it splits
the Hamiltonian into its Pauli-symmetry sectors and diagonalizes the dense
block of one sector for each sign pattern of the commutant's centre
(Bravyi, Gambetta, Mezzacapo and Temme, "Tapering off qubits to simulate
fermionic Hamiltonians", arXiv:1701.08213, with the symplectic
Gram-Schmidt of Aaronson and Gottesman, PRA 70, 2004).  Pauli strings are
symplectic vectors x | z << n here, as Python ints.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DenseCapError, FFSolveError
from .graphs import frustration_graph
from .indpoly import (
    SingleParticleEnergies,
    sign_sums,
    single_particle_energies,
    weighted_independence_polynomial,
)
from .models import Hamiltonian
from .paulis import DENSE_QUBIT_CAP, PauliTerm, dense_sums, multiply
from .recognition import HOLE_SEARCH_BUDGET, StructureReport, classify
from .solver import (
    all_modes,
    charges_commute_residual,
    check_fundamental_identity,
    ladder_residual,
    mode_car_residual,
    mode_energy_gap,
    reconstruction_residual,
    simplicial_extension,
    transfer_factorization_residual,
    zero_eigenvector_residual,
)

SPECTRUM_CLUSTER_TOL = 1e-9
SPECTRUM_MATCH_TOL = 1e-8
TOLERANCES = {  # the bound of each verdict and residual of a report, by its name
    "charges_commute": 1e-10, "transfer_factorization": 1e-9, "fundamental_identity": 1e-9,
    "car": 1e-8, "ladder": 1e-8, "reconstruction": 1e-8, "lanczos_energy": 1e-8,
    "zero_eigenvector": 1e-8,
    "spectrum_match": SPECTRUM_MATCH_TOL, "degeneracy_uniform": SPECTRUM_CLUSTER_TOL,
}
DEFAULT_U_GRID = (0.1, -0.1, 0.37, -0.37, 0.9, -0.9, 1.5, -1.5)
_PHASES = (1.0, 1.0j, -1.0, -1.0j)  # i^k at index k


def _omega(u: int, v: int, n: int) -> int:
    """1 when the strings x | z << n anticommute, else 0."""
    return ((u & v >> n) ^ (u >> n & v)).bit_count() & 1


def _symplectic_pairs(n: int, vectors: list[int]) -> list[tuple[int, int]]:
    """Symplectic Gram-Schmidt over ``vectors``, taken in order: pairs (u, w)
    with omega(u, w) = 1 and omega 0 between different pairs.  Every u and w
    is its input vector plus vectors taken before it, and w is the first
    vector after u that anticommutes with it; a vector with none is dropped,
    which leaves only zeros when ``vectors`` span everything."""
    rest, pairs = list(vectors), []
    while rest:
        u = rest.pop(0)
        w = next((w for w in rest if _omega(u, w, n)), None)
        if w is None:
            continue
        rest.remove(w)
        rest = [r ^ (u if _omega(r, w, n) else 0) ^ (w if _omega(r, u, n) else 0)
                for r in rest]
        pairs.append((u, w))
    return pairs


def brute_force_spectrum(h: Hamiltonian) -> tuple[np.ndarray, int]:
    """The 2^n eigenvalues, ascending, from exact diagonalization in the
    Pauli-symmetry sectors of the commutant's centre, and the size m of
    each sector's block in qubits.

    One symplectic Gram-Schmidt over the terms' strings, then over the 2n
    single-qubit strings, gives n pairs (a_k, b_k) that a Clifford maps to
    (Z_k, X_k).  A term sigma(v) then becomes i^-e prod_k Z_k^<v,b_k>
    X_k^<v,a_k>, where <u,v> is 1 for anticommuting strings and i^e sigma(v)
    is the product of the a_k^<v,b_k> b_k^<v,a_k> (``paulis.multiply``).
    As the terms come first, each pair is one of three kinds, told apart by
    which of its strings anticommutes with some term: both do for a block
    qubit, whose pair lies in the terms' span T (m of them, half the rank
    of the terms' symplectic form); b alone for a sector qubit, whose a
    lies in the centre of T, the part of T that commutes with every term,
    so that every term carries Z only there (c of them); and neither for a
    qubit that no term touches (p = n - m - c of them).  Sorted sector
    qubits first, then untouched ones, then block ones, the Z_k of a
    sector qubit is the sign lambda_k in the sector where a_k has
    eigenvalue lambda_k, so each of the 2^c sectors is a block on the last
    m qubits, built from the terms' reduced strings.  The sectors are
    diagonalized a batch at a time, and each block's eigenvalues are
    repeated 2^p times, once for each state of the untouched qubits.

    Caps, each checked before the work it bounds: the 2^n eigenvalues are
    no more than the 4^DENSE_QUBIT_CAP entries of one matrix at the cap,
    checked on n alone before anything else; and, before any block is
    allocated, m <= DENSE_QUBIT_CAP and the work 2^c 8^m <= 8^DENSE_QUBIT_CAP.
    Self-checks: any two of the 2n frame strings anticommute exactly when
    they form a pair; the frame rebuilds every term, which carries no X on
    a sector qubit and nothing on an untouched one; and every block checks
    the reduction: tr(H_lambda) is 2^m times its identity coefficient,
    tr(H_lambda^2) is 2^m times the sum of its squared coefficients, and
    every reduced coefficient is real.  The blocks are built at unit
    largest coupling, so the self-check tolerance is scale-free.
    """
    n = h.n
    if n > 2 * DENSE_QUBIT_CAP:
        raise DenseCapError(f"the 2^{n} eigenvalues of {n} qubits exceed the oracle's "
                            f"eigenvalue cap 2^{2 * DENSE_QUBIT_CAP}")
    terms = [t.x | t.z << n for _, t in h.terms]
    pairs = _symplectic_pairs(n, terms + [1 << i for i in range(2 * n)])
    flat = [v for pair in pairs for v in pair]
    if len(pairs) != n or any(_omega(flat[i], flat[j], n) != (i ^ 1 == j)
                              for i in range(2 * n) for j in range(i)):
        raise FFSolveError("oracle self-check failed: no symplectic basis")

    def meets(v: int) -> bool:
        return any(_omega(v, t, n) for t in terms)

    # 0 a sector qubit (b alone meets a term), 1 an untouched one, 2 a block qubit
    kinds = [2 * meets(a) + (not meets(b)) for a, b in pairs]
    pairs = [pair for _, pair in sorted(zip(kinds, pairs), key=lambda kp: kp[0])]
    c, p = kinds.count(0), kinds.count(1)
    m = n - c - p
    if m > DENSE_QUBIT_CAP:
        raise DenseCapError(f"{m}-qubit symmetry sectors exceed the oracle cap {DENSE_QUBIT_CAP}")
    if c + 3 * m > 3 * DENSE_QUBIT_CAP:
        raise DenseCapError(f"2^{c} central symmetry sectors of {m} qubits exceed the oracle's "
                            f"work cap 8^{DENSE_QUBIT_CAP}")
    mask, low = (1 << n) - 1, (1 << c + p) - 1
    frame = [(a, b, PauliTerm(n, a & mask, a >> n), PauliTerm(n, b & mask, b >> n))
             for a, b in pairs]
    scale = max(abs(c) for c in h.couplings())
    reduced: dict[tuple[int, int], int] = {}
    index, sector_bits, coefs = [], [], []
    for coef, t in h.terms:
        v = t.x | t.z << n
        e, word = 0, PauliTerm.identity(n)  # i^e word is the product of a_k^zk b_k^xk over k
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
        xr, zr = xs >> c + p, zs >> c + p
        if word != t or xs & low or (zs & low) >> c:
            raise FFSolveError("oracle self-check failed: a term left the symmetry frame")
        # sigma(v) is i^-e times that product, and Z^z X^x = i^(x z) sigma(x, z) on each
        # reduced qubit
        coef = coef * _PHASES[((xr & zr).bit_count() - e) % 4]
        if coef.imag:
            raise FFSolveError("oracle self-check failed: a reduced term is not Hermitian")
        index.append(reduced.setdefault((xr, zr), len(reduced)))
        sector_bits.append(zs & ((1 << c) - 1))
        coefs.append(coef.real / scale)
    strings, index = list(reduced), np.array(index)
    order = np.argsort(index, kind="stable")
    starts = np.flatnonzero(np.diff(index[order], prepend=-1))
    sector_bits = np.array(sector_bits, dtype=np.uint64)[order]
    coefs = np.array(coefs)[order]
    dim = 1 << m
    tol = 1e-9 * dim * np.abs(coefs).sum() ** 2
    identity = reduced.get((0, 0))
    # a batch holds 2^DENSE_QUBIT_CAP block rows: at most one matrix at the cap
    batch = max(1, (1 << DENSE_QUBIT_CAP) // dim)
    evals = []
    for first in range(0, 1 << c, batch):
        sectors = np.arange(first, min(first + batch, 1 << c), dtype=np.uint64)
        # the coefficient of each reduced string in each sector of the batch
        signs = 1.0 - 2.0 * (np.bitwise_count(sectors[:, None] & sector_bits) & 1)
        block_coefs = np.add.reduceat(signs * coefs, starts, axis=1)
        blocks = dense_sums(m, strings, block_coefs)
        trace = 0.0 if identity is None else dim * block_coefs[:, identity]
        if np.abs(np.trace(blocks, axis1=1, axis2=2) - trace).max() > tol:
            raise FFSolveError("oracle self-check failed: tr(H) of a sector block")
        square = dim * (block_coefs ** 2).sum(axis=1)
        if np.abs((np.abs(blocks) ** 2).sum(axis=(1, 2)) - square).max() > tol:
            raise FFSolveError("oracle self-check failed: tr(H^2) of a sector block")
        evals.append(np.linalg.eigvalsh(blocks).ravel())
    return np.repeat(np.sort(np.concatenate(evals)) * scale, 1 << p), m


@dataclass
class VerificationReport:
    """Measurements.  Whether the model is checked follows from the
    structure report (``skip_reason`` is its ``refusal``), and whether it
    passed from the measurements and ``TOLERANCES``."""

    structure: StructureReport | None = None
    spectrum_match: bool | None = None
    max_level_deviation: float | None = None
    degeneracy_uniform: bool | None = None
    energies: list[tuple[float, int]] | None = None
    lemma_residuals: dict = field(default_factory=dict)
    mode_term_counts: list[int] | None = None
    symmetry_generators: int | None = None
    block_qubits: int | None = None
    timings: dict = field(default_factory=dict)
    failure: str | None = None

    @property
    def skip_reason(self) -> str | None:
        return self.structure.refusal if self.structure else None

    @property
    def applicable(self) -> bool:
        return self.skip_reason is None

    def passed(self) -> bool:
        """Applicable, no failure, both spectrum verdicts True (a report
        whose oracle never ran has neither), and every residual within its
        tolerance: a NaN residual, or one that ``TOLERANCES`` does not
        name, fails."""
        return (self.applicable and not self.failure
                and self.spectrum_match is True and self.degeneracy_uniform is True
                and all(resid <= TOLERANCES.get(name, math.nan)
                        for name, resid in self.lemma_residuals.items()))

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        deviation = self.max_level_deviation
        d.update(structure=self.structure.to_dict() if self.structure else None,
                 # strict JSON has no NaN or infinity: a residual that is not finite is null
                 lemma_residuals={k: v if math.isfinite(v) else None
                                  for k, v in self.lemma_residuals.items()},
                 max_level_deviation=(deviation if deviation is None or math.isfinite(deviation)
                                      else None),
                 applicable=self.applicable, skip_reason=self.skip_reason,
                 tolerances=dict(TOLERANCES),
                 timings={k: round(v, 6) for k, v in self.timings.items()},
                 passed=self.passed())
        return d


@contextmanager
def _stage(report: VerificationReport, name: str):
    """Record the wall time of the block under ``name``, unless it raises."""
    t0 = time.perf_counter()
    yield
    report.timings[name] = time.perf_counter() - t0


def verify_free(h: Hamiltonian, energies: SingleParticleEnergies | None = None,
                hole_budget: int = HOLE_SEARCH_BUDGET) -> VerificationReport:
    """Compare the brute-force spectrum against the synthesized free one.

    Each sign pattern of the alpha energies holds 2^(n - alpha) states, so
    the 2^n sorted eigenvalues, 2^(n - alpha) at a time, face the 2^alpha
    sorted sign sums sum_k (+-e_k).  ``max_level_deviation``, the largest
    |eigenvalue - its sign sum| over the largest |coupling|, must be below
    SPECTRUM_MATCH_TOL for ``spectrum_match``, and each group of eigenvalues
    must spread over at most SPECTRUM_CLUSTER_TOL of that scale for
    ``degeneracy_uniform``.

    Refuses (reports not-applicable, with the structure report's
    ``refusal`` as its reason) unless the frustration graph is ECF, as
    ``classify`` decides it within ``hole_budget``.  The energies are
    solved for unless ``energies`` gives them.  Once the oracle has
    returned, the report records its block size m in qubits and its n - m
    symmetry generators, one for each sector qubit and each qubit that no
    term touches.  Every refusal after the classification, the root
    finder's, alpha > n, and the oracle's caps and self-checks, is named in
    ``failure`` and leaves both spectrum verdicts and the deviation None;
    energies already solved are kept.
    """
    report = VerificationReport()
    with _stage(report, "classify"):
        graph = frustration_graph(h)
        report.structure = classify(graph, hole_budget)
    if not report.applicable:
        return report

    try:
        with _stage(report, "energies"):
            if energies is None:
                energies = single_particle_energies(weighted_independence_polynomial(graph))
            report.energies = list(energies.energies)
        if energies.total > h.n:
            raise FFSolveError(f"alpha={energies.total} exceeds qubit count n={h.n}: "
                               f"{1 << energies.total} sign patterns for {1 << h.n} states")
        with _stage(report, "diagonalize"):
            brute, m = brute_force_spectrum(h)
            report.symmetry_generators, report.block_qubits = h.n - m, m
    except FFSolveError as exc:
        report.failure = str(exc)
        return report

    scale = max(abs(c) for c in h.couplings())
    sums = sign_sums(energies)
    groups = brute.reshape(len(sums), -1)  # a row of 2^(n - alpha) states per sign sum
    report.max_level_deviation = float(np.abs(groups - sums[:, None]).max() / scale)
    report.spectrum_match = report.max_level_deviation < SPECTRUM_MATCH_TOL
    spread = (groups[:, -1] - groups[:, 0]).max()
    report.degeneracy_uniform = bool(spread <= SPECTRUM_CLUSTER_TOL * scale)
    if not (report.spectrum_match and report.degeneracy_uniform):
        report.failure = "spectrum deviation or degeneracy mismatch"
    return report


def verify_all(h: Hamiltonian, hole_budget: int = HOLE_SEARCH_BUDGET) -> VerificationReport:
    """Full pipeline: classify, charges, transfer factorization, simplicial
    extension, fundamental identity, modes, CAR, reconstruction, the modes'
    Lanczos energies and T(u_j) psi_j = 0, spectrum.

    Stops at the first structural disqualification, keeping partial
    results: a claw-free model with even holes still gets its commuting
    charges checked.  Any refusal of a check, a Pauli product above the
    term cap, the energies', the modes' or the oracle's self-check, ends
    the checks and is recorded in ``failure`` with its own message, as the
    oracle's caps are.
    """
    report = VerificationReport()
    try:
        _check_all(h, report, hole_budget)
    except FFSolveError as exc:
        report.failure = str(exc)
    return report


def _check_all(h: Hamiltonian, report: VerificationReport, hole_budget: int) -> None:
    """The checks of ``verify_all``, recorded in ``report`` as they run.
    A residual over the u grid is its largest, and NaN if any is NaN, as
    every residual of ``solver`` is over its parts."""
    graph = frustration_graph(h)
    with _stage(report, "classify"):
        report.structure = classify(graph, hole_budget)

    if report.structure.claw_free:
        with _stage(report, "charges"):
            report.lemma_residuals["charges_commute"] = charges_commute_residual(h, graph)
    if not report.applicable:
        return

    with _stage(report, "transfer"):
        report.lemma_residuals["transfer_factorization"] = float(np.max(
            transfer_factorization_residual(h, DEFAULT_U_GRID)))

    ks = report.structure.simplicial_clique
    hext, chi = simplicial_extension(h, ks)
    with _stage(report, "fundamental_identity"):
        report.lemma_residuals["fundamental_identity"] = float(np.max(
            check_fundamental_identity(hext, chi, ks, DEFAULT_U_GRID)))

    poly = weighted_independence_polynomial(graph)
    energies = single_particle_energies(poly)
    report.energies = list(energies.energies)
    with _stage(report, "modes"):
        modes = all_modes(hext, chi, energies, poly)
        report.mode_term_counts = [len(m.op) for m in modes]
        report.lemma_residuals["car"] = mode_car_residual(modes)
        report.lemma_residuals["ladder"] = ladder_residual(hext, modes)
        report.lemma_residuals["reconstruction"] = reconstruction_residual(hext, modes, energies)
        report.lemma_residuals["lanczos_energy"] = mode_energy_gap(modes)
        # T(u_j) psi_j = 0 ties the Krylov modes to the transfer operator; the
        # ancilla leaves the frustration graph of h as it is
        report.lemma_residuals["zero_eigenvector"] = zero_eigenvector_residual(
            modes, hext, graph)

    free = verify_free(h, energies, hole_budget)
    for name in ("spectrum_match", "max_level_deviation", "degeneracy_uniform",
                 "symmetry_generators", "block_qubits", "failure"):
        setattr(report, name, getattr(free, name))
    report.timings.update({f"free_{k}": v for k, v in free.timings.items()})
