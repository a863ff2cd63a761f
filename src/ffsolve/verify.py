"""Brute-force exact diagonalization oracle and the top-level checks that
confront the graph-derived solution with ground truth."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexRootError, DenseCapError, FFSolveError
from .graphs import frustration_graph
from .indpoly import (
    free_spectrum,
    single_particle_energies,
    weighted_independence_polynomial,
)
from .models import Hamiltonian, back_to_back_model
from .paulis import DENSE_QUBIT_CAP, OperatorSum, to_dense
from .recognition import StructureReport, classify
from .solver import (
    all_modes,
    charges_commute_residual,
    check_fundamental_identity,
    ladder_residual,
    mode_car_residual,
    reconstruct,
    simplicial_extension,
    transfer_factorization_residual,
)

SPECTRUM_CLUSTER_TOL = 1e-9
SPECTRUM_MATCH_TOL = 1e-8
DEFAULT_U_GRID = (0.1, -0.1, 0.37, -0.37, 0.9, -0.9, 1.5, -1.5)


def _cluster(values, tol):
    levels = []
    group = [values[0]]
    for v in values[1:]:
        if v - group[-1] > tol:
            levels.append((sum(group) / len(group), len(group)))
            group = []
        group.append(v)
    levels.append((sum(group) / len(group), len(group)))
    return levels


def brute_force_spectrum(h: Hamiltonian) -> list[tuple[float, int]]:
    """Sorted eigenvalues with multiplicities from dense diagonalization.

    Clustering happens after scaling to unit largest coupling so the
    tolerance is scale-free.  Every run self-checks the oracle: the dense
    matrix must be traceless and satisfy tr(H^2) = 2^n sum_j b_j^2.
    """
    if h.n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"{h.n} qubits exceeds the oracle cap {DENSE_QUBIT_CAP}")
    scale = max(abs(c) for c in h.couplings())
    mat = to_dense(OperatorSum.from_terms(h.n, h.terms))
    dim = 1 << h.n
    sum_b2 = sum(c * c for c in h.couplings())
    norm = max(sum_b2 * dim, 1.0)
    if abs(np.trace(mat)) > 1e-9 * norm:
        raise FFSolveError("oracle self-check failed: dense matrix is not traceless")
    if abs(np.linalg.norm(mat, "fro") ** 2 - dim * sum_b2) > 1e-9 * norm:
        raise FFSolveError("oracle self-check failed: tr(H^2) != 2^n sum b^2")
    evals = np.linalg.eigvalsh(mat / scale)
    return [(v * scale, m) for v, m in _cluster(list(evals), SPECTRUM_CLUSTER_TOL)]


@dataclass
class VerificationReport:
    """Verdicts and residuals; every boolean is tied to a recorded tolerance."""

    structure: StructureReport | None = None
    applicable: bool = True
    skip_reason: str | None = None
    spectrum_match: bool | None = None
    max_level_deviation: float | None = None
    degeneracy_uniform: bool | None = None
    energies: list[tuple[float, int]] | None = None
    lemma_residuals: dict = field(default_factory=dict)
    mode_term_counts: list[int] | None = None
    tolerances: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    failure: str | None = None

    def passed(self) -> bool:
        if not self.applicable:
            return False
        if self.failure:
            return False
        checks = [self.spectrum_match, self.degeneracy_uniform]
        if any(v is False for v in checks):
            return False
        for name, resid in self.lemma_residuals.items():
            if resid > self.tolerances.get(name, float("inf")):
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "structure": self.structure.to_dict() if self.structure else None,
            "applicable": self.applicable,
            "skip_reason": self.skip_reason,
            "spectrum_match": self.spectrum_match,
            "max_level_deviation": self.max_level_deviation,
            "degeneracy_uniform": self.degeneracy_uniform,
            "energies": [[e, m] for e, m in self.energies] if self.energies else None,
            "lemma_residuals": dict(self.lemma_residuals),
            "mode_term_counts": self.mode_term_counts,
            "tolerances": dict(self.tolerances),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "failure": self.failure,
            "passed": self.passed(),
        }


def verify_free(h: Hamiltonian, force: bool = False,
                match_tol: float = SPECTRUM_MATCH_TOL) -> VerificationReport:
    """Compare the brute-force spectrum against the synthesized free one.

    Refuses (reports not-applicable) when the frustration graph is not
    ECF, unless ``force`` is set; the non-example of the discussion needs
    the forced path, since its free spectrum at equal couplings exists
    despite claws and even holes.  Above the dense cap the report keeps the
    synthesized energies and names the cap in ``failure``.
    """
    report = VerificationReport()
    report.tolerances["spectrum_match"] = match_tol
    t0 = time.perf_counter()
    graph = frustration_graph(h)
    report.structure = classify(graph)
    report.timings["classify"] = time.perf_counter() - t0
    if not report.structure.ecf and not force:
        report.applicable = False
        report.skip_reason = "frustration graph is not (even-hole, claw)-free"
        return report

    t0 = time.perf_counter()
    poly = weighted_independence_polynomial(graph)
    try:
        energies = single_particle_energies(poly)
    except ComplexRootError as exc:
        report.spectrum_match = False
        report.failure = str(exc)
        report.timings["energies"] = time.perf_counter() - t0
        return report
    report.energies = list(energies.energies)
    synth = free_spectrum(energies, h.n)
    report.timings["energies"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        brute = brute_force_spectrum(h)
    except DenseCapError as exc:
        report.failure = str(exc)
        return report
    report.timings["diagonalize"] = time.perf_counter() - t0

    scale = max(abs(c) for c in h.couplings())
    if len(brute) != len(synth):
        report.spectrum_match = False
        report.degeneracy_uniform = False
        report.failure = (f"level count mismatch: oracle {len(brute)}, "
                          f"synthesized {len(synth)}")
        return report
    max_dev = max(abs(b[0] - s[0]) / scale for b, s in zip(brute, synth))
    degs_ok = all(b[1] == s[1] for b, s in zip(brute, synth))
    alpha = energies.total
    uniform = len(set(m for _, m in brute)) == 1 and brute[0][1] == (1 << (h.n - alpha))
    report.max_level_deviation = max_dev
    report.spectrum_match = bool(max_dev < match_tol and degs_ok)
    report.degeneracy_uniform = bool(uniform and degs_ok)
    if not report.spectrum_match:
        report.failure = "spectrum deviation or degeneracy mismatch"
    return report


def verify_nonexample_equal_couplings() -> dict:
    """The claw-and-even-hole non-example: free at equal couplings only."""
    equal = verify_free(back_to_back_model(*([1.0] * 6)), force=True)
    generic = verify_free(back_to_back_model(1.0, 0.9, 1.1, 0.8, 1.2, 1.05), force=True)
    structure = equal.structure
    return {
        "equal_couplings_match": bool(equal.spectrum_match),
        "generic_couplings_match": bool(generic.spectrum_match),
        "claw_found": structure.claw_witness is not None,
        "even_hole_found": structure.even_hole_witness is not None,
        "equal": equal.to_dict(),
        "generic": generic.to_dict(),
    }


def verify_all(h: Hamiltonian, hole_budget: int | None = None,
               spectrum_tol: float = SPECTRUM_MATCH_TOL) -> VerificationReport:
    """Full pipeline: classify, charges, transfer factorization, simplicial
    extension, fundamental identity, modes, CAR, reconstruction, spectrum.

    Stops at the first structural disqualification, keeping partial
    results: a claw-free model with even holes still gets its commuting
    charges checked.
    """
    report = VerificationReport()
    tol = report.tolerances
    tol.update({
        "charges_commute": 1e-10,
        "transfer_factorization": 1e-9,
        "fundamental_identity": 1e-9,
        "car": 1e-8,
        "ladder": 1e-8,
        "reconstruction": 1e-8,
        "spectrum_match": spectrum_tol,
    })
    graph = frustration_graph(h)
    t0 = time.perf_counter()
    kwargs = {} if hole_budget is None else {"hole_budget": hole_budget}
    report.structure = classify(graph, **kwargs)
    report.timings["classify"] = time.perf_counter() - t0

    if report.structure.claw_free:
        t0 = time.perf_counter()
        report.lemma_residuals["charges_commute"] = charges_commute_residual(h, graph)
        report.timings["charges"] = time.perf_counter() - t0

    if report.structure.ecf is None:
        report.applicable = False
        report.skip_reason = "even-hole search undecided (budget exhausted)"
        return report
    if not report.structure.ecf:
        report.applicable = False
        report.skip_reason = "frustration graph is not (even-hole, claw)-free"
        return report

    t0 = time.perf_counter()
    worst = 0.0
    for u in DEFAULT_U_GRID:
        worst = max(worst, transfer_factorization_residual(h, u))
    report.lemma_residuals["transfer_factorization"] = worst
    report.timings["transfer"] = time.perf_counter() - t0

    ks = min(report.structure.simplicial_cliques, key=len)
    hext, chi = simplicial_extension(h, ks)
    t0 = time.perf_counter()
    worst = 0.0
    for u in DEFAULT_U_GRID:
        worst = max(worst, check_fundamental_identity(hext, chi, ks, u))
    report.lemma_residuals["fundamental_identity"] = worst
    report.timings["fundamental_identity"] = time.perf_counter() - t0

    poly = weighted_independence_polynomial(graph)
    try:
        energies = single_particle_energies(poly)
        report.energies = list(energies.energies)
        t0 = time.perf_counter()
        modes = all_modes(hext, chi, energies)
        report.mode_term_counts = [len(m.op) for m in modes]
        report.lemma_residuals["car"] = mode_car_residual(modes)
        report.lemma_residuals["ladder"] = max(
            ladder_residual(hext, m) for m in modes)
        recon = reconstruct(modes, energies)
        target = OperatorSum.from_terms(hext.n, hext.terms)
        report.lemma_residuals["reconstruction"] = (recon - target).max_abs_coeff()
        report.timings["modes"] = time.perf_counter() - t0
    except FFSolveError as exc:
        report.failure = f"mode construction: {exc}"
        return report

    free = verify_free(h, match_tol=spectrum_tol)
    report.spectrum_match = free.spectrum_match
    report.max_level_deviation = free.max_level_deviation
    report.degeneracy_uniform = free.degeneracy_uniform
    report.timings.update({f"free_{k}": v for k, v in free.timings.items()})
    if free.failure:
        report.failure = free.failure
    return report


__all__ = [
    "brute_force_spectrum",
    "verify_free",
    "verify_all",
    "verify_nonexample_equal_couplings",
    "VerificationReport",
    "DEFAULT_U_GRID",
]
