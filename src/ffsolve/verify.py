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

from .errors import DenseCapError, FFSolveError, TermBudgetError
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


def _commutant(n: int, vectors: list[int]) -> list[int]:
    """A basis of the strings that commute with every vector: the null
    space, over GF(2), of the rows z | x << n."""
    rows: list[tuple[int, int]] = []  # (pivot bit, row), reduced: a pivot is set in its row only
    for v in vectors:
        r = v >> n | (v & ((1 << n) - 1)) << n
        for bit, row in rows:
            if r >> bit & 1:
                r ^= row
        if r:
            bit = r.bit_length() - 1
            rows = [(b, row ^ r if row >> bit & 1 else row) for b, row in rows]
            rows.append((bit, r))
    pivots = {bit for bit, _ in rows}
    return [1 << f | sum(1 << bit for bit, row in rows if row >> f & 1)
            for f in range(2 * n) if f not in pivots]


def _symplectic_pairs(n: int, vectors: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Symplectic Gram-Schmidt over ``vectors``, taken in order: pairs (u, w)
    with omega(u, w) = 1 and omega 0 between different pairs, and the
    vectors left with no partner (zero when ``vectors`` span everything).
    Every u, paired or not, is its input vector plus vectors taken before it."""
    rest, pairs, unpaired = list(vectors), [], []
    while rest:
        u = rest.pop(0)
        w = next((w for w in rest if _omega(u, w, n)), None)
        if w is None:
            unpaired.append(u)
            continue
        rest.remove(w)
        rest = [r ^ (u if _omega(r, w, n) else 0) ^ (w if _omega(r, u, n) else 0)
                for r in rest]
        pairs.append((u, w))
    return pairs, unpaired


def symmetry_generators(h: Hamiltonian) -> list[int]:
    """Independent generators x | z << n of a largest group of commuting
    Pauli strings that commute with every term of ``h``.

    Such a group has the same size whichever one is taken: one string of
    each pair in the commutant's symplectic Gram-Schmidt, and every string
    left without a partner.
    """
    pairs, unpaired = _symplectic_pairs(
        h.n, _commutant(h.n, [t.x | t.z << h.n for _, t in h.terms]))
    return [u for u, _ in pairs] + unpaired


def brute_force_spectrum(h: Hamiltonian) -> np.ndarray:
    """The 2^n eigenvalues, ascending, from exact diagonalization in the
    Pauli-symmetry sectors of the commutant's centre.

    The commutant of the terms splits, by symplectic Gram-Schmidt, into p
    pairs (u_i, w_i) and c central strings; the u_i and the central ones
    are the s = p + c generators of ``symmetry_generators(h)``, commuting
    symmetries a_0..a_{s-1} with the u_i first.  Symplectic Gram-Schmidt
    extends them to pairs (a_k, b_k), k < n, that a Clifford maps to
    (Z_k, X_k).  A term sigma(v) then becomes i^-e prod_k Z_k^<v,b_k>
    X_k^<v,a_k>, where <u,v> is 1 for anticommuting strings and i^e sigma(v)
    is the product of the a_k^<v,b_k> b_k^<v,a_k> (``paulis.multiply``).
    On the first s qubits a term carries Z only, which is the sign lambda_k
    in the sector where a_k has eigenvalue lambda_k; so each sector is a
    block on the other m = n - s qubits, built from the terms' reduced
    strings.  Each w_i commutes with every term and anticommutes with u_i
    alone, so it maps the sector at lambda to the one at lambda with the
    sign of u_i flipped, block spectrum included.  Only the 2^c sectors
    with every u_i at +1 are diagonalized, a batch at a time, and each
    block's eigenvalues are repeated 2^p times.

    Caps, all checked before any block is allocated: m <= DENSE_QUBIT_CAP;
    the work 2^c 8^m <= 8^DENSE_QUBIT_CAP; and the 2^n eigenvalues are no
    more than the 4^DENSE_QUBIT_CAP entries of one matrix at the cap.  The
    pairs self-check their commutation, and every block the reduction:
    tr(H_lambda) is 2^m times its identity coefficient, tr(H_lambda^2) is
    2^m times the sum of its squared coefficients, and every reduced
    coefficient is real.  The blocks are built at unit largest coupling, so
    the self-check tolerance is scale-free.
    """
    n = h.n
    terms = [t.x | t.z << n for _, t in h.terms]
    paired, central = _symplectic_pairs(n, _commutant(n, terms))
    generators = [u for u, _ in paired] + central
    p, c = len(paired), len(central)
    s, m = p + c, n - p - c
    if m > DENSE_QUBIT_CAP:
        raise DenseCapError(f"{m}-qubit symmetry sectors exceed the oracle cap {DENSE_QUBIT_CAP}")
    if c + 3 * m > 3 * DENSE_QUBIT_CAP:
        raise DenseCapError(f"2^{c} central symmetry sectors of {m} qubits exceed the oracle's "
                            f"work cap 8^{DENSE_QUBIT_CAP}")
    if n > 2 * DENSE_QUBIT_CAP:
        raise DenseCapError(f"the 2^{n} eigenvalues of {n} qubits exceed the oracle's "
                            f"eigenvalue cap 2^{2 * DENSE_QUBIT_CAP}")
    for i, (_, w) in enumerate(paired):
        if any(_omega(w, v, n) for v in terms) or [
                j for j, g in enumerate(generators) if _omega(w, g, n)] != [i]:
            raise FFSolveError("oracle self-check failed: a paired symmetry does not "
                               "flip its generator alone")
    pairs, _ = _symplectic_pairs(n, generators + [1 << i for i in range(2 * n)])
    if len(pairs) != n:
        raise FFSolveError("oracle self-check failed: no symplectic basis")
    mask = (1 << n) - 1
    frame = [(a, b, PauliTerm(n, a & mask, a >> n), PauliTerm(n, b & mask, b >> n))
             for a, b in pairs]
    scale = max(abs(c) for c in h.couplings())
    reduced: dict[tuple[int, int], int] = {}
    index, sector_bits, coefs = [], [], []
    for x, z, coef in ((t.x, t.z, c * t.phase) for c, t in h.terms):
        v = x | z << n
        word = PauliTerm.identity(n)  # the product of a_k^zk b_k^xk over k
        xs = zs = 0
        for k, (a, b, a_term, b_term) in enumerate(frame):
            if _omega(v, b, n):
                zs |= 1 << k
                word = multiply(word, a_term)
            if _omega(v, a, n):
                xs |= 1 << k
                word = multiply(word, b_term)
        xr, zr = xs >> s, zs >> s
        if (word.x, word.z) != (x, z) or xs & ((1 << s) - 1):
            raise FFSolveError("oracle self-check failed: a term left the symmetry frame")
        # sigma(v) = i^-e word, and Z^z X^x = i^(x z) sigma(x, z) on each reduced qubit
        coef = coef * _PHASES[((xr & zr).bit_count() - word.phase_pow) % 4]
        if coef.imag:
            raise FFSolveError("oracle self-check failed: a reduced term is not Hermitian")
        index.append(reduced.setdefault((xr, zr), len(reduced)))
        sector_bits.append(zs & ((1 << s) - 1))
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
        # the sectors of the batch, u_i at +1: their sign bits k < p are 0
        sectors = np.arange(first, min(first + batch, 1 << c), dtype=np.uint64) << np.uint64(p)
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
    return np.repeat(np.sort(np.concatenate(evals)) * scale, 1 << p)


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
        """Applicable, no failure, no spectrum verdict False, and every
        residual within its tolerance: a NaN residual, or one that
        ``TOLERANCES`` does not name, fails."""
        return (self.applicable and not self.failure
                and self.spectrum_match is not False and self.degeneracy_uniform is not False
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


def verify_free(h: Hamiltonian,
                energies: SingleParticleEnergies | None = None) -> VerificationReport:
    """Compare the brute-force spectrum against the synthesized free one.

    Each sign pattern of the alpha energies holds 2^(n - alpha) states, so
    the 2^n sorted eigenvalues, 2^(n - alpha) at a time, face the 2^alpha
    sorted sign sums sum_k (+-e_k).  ``max_level_deviation``, the largest
    |eigenvalue - its sign sum| over the largest |coupling|, must be below
    SPECTRUM_MATCH_TOL for ``spectrum_match``, and each group of eigenvalues
    must spread over at most SPECTRUM_CLUSTER_TOL of that scale for
    ``degeneracy_uniform``.

    Refuses (reports not-applicable, with the structure report's
    ``refusal`` as its reason) unless the frustration graph is ECF.  The
    energies are solved for unless ``energies`` gives them.  The report
    records the oracle's symmetry generators s and block size n - s in
    qubits; above the oracle's caps it keeps the synthesized energies and
    names the cap in ``failure``, as it names alpha > n and the root
    finder's refusal.
    """
    report = VerificationReport()
    with _stage(report, "classify"):
        graph = frustration_graph(h)
        report.structure = classify(graph)
    if not report.applicable:
        return report

    with _stage(report, "energies"):
        if energies is None:
            try:
                energies = single_particle_energies(weighted_independence_polynomial(graph))
            except FFSolveError as exc:
                report.spectrum_match = False
                report.failure = str(exc)
                return report
        report.energies = list(energies.energies)
    if energies.total > h.n:
        report.spectrum_match = False
        report.failure = (f"alpha={energies.total} exceeds qubit count n={h.n}: "
                          f"{1 << energies.total} sign patterns for {1 << h.n} states")
        return report

    try:
        with _stage(report, "diagonalize"):
            report.symmetry_generators = len(symmetry_generators(h))
            report.block_qubits = h.n - report.symmetry_generators
            brute = brute_force_spectrum(h)
    except DenseCapError as exc:
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
    charges checked.  A Pauli product above the term cap ends the checks
    and is recorded in ``failure``, as the oracle's caps are.
    """
    report = VerificationReport()
    try:
        _check_all(h, report, hole_budget)
    except TermBudgetError as exc:
        report.failure = str(exc)
    return report


def _check_all(h: Hamiltonian, report: VerificationReport, hole_budget: int) -> None:
    """The checks of ``verify_all``, recorded in ``report`` as they run.
    A residual over the u grid is its largest, and NaN if any is NaN."""
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

    try:
        poly = weighted_independence_polynomial(graph)
        energies = single_particle_energies(poly)
        report.energies = list(energies.energies)
        with _stage(report, "modes"):
            modes = all_modes(hext, chi, energies, poly)
            report.mode_term_counts = [len(m.op) for m in modes]
            report.lemma_residuals["car"] = mode_car_residual(modes)
            report.lemma_residuals["ladder"] = ladder_residual(hext, modes)
            report.lemma_residuals["reconstruction"] = reconstruction_residual(
                hext, modes, energies)
            report.lemma_residuals["lanczos_energy"] = mode_energy_gap(modes)
            # T(u_j) psi_j = 0 ties the Krylov modes to the transfer operator; the
            # ancilla leaves the frustration graph of h as it is
            report.lemma_residuals["zero_eigenvector"] = zero_eigenvector_residual(
                modes, hext, graph)
    except FFSolveError as exc:
        report.failure = f"mode construction: {exc}"
        return

    free = verify_free(h, energies=energies)
    for name in ("spectrum_match", "max_level_deviation", "degeneracy_uniform",
                 "symmetry_generators", "block_qubits", "failure"):
        setattr(report, name, getattr(free, name))
    report.timings.update({f"free_{k}": v for k, v in free.timings.items()})
