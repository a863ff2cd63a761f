"""Exact-diagonalization oracle and the top-level verification flows."""

import dataclasses
import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    all_sector_spectrum,
    full_matrix_spectrum,
    oracle_levels,
    verify_nonexample_equal_couplings,
)

from ffsolve import graphs, paulis, recognition, solver, verify
from ffsolve.errors import ConditioningError, DenseCapError, FFSolveError
from ffsolve.indpoly import SingleParticleEnergies, sign_sums
from ffsolve.models import (
    Hamiltonian,
    back_to_back_model,
    chain_model,
    h5_model,
    h6_model,
    junction_model,
    parse_hamiltonian,
)
from ffsolve.paulis import OperatorSum, PauliTerm
from ffsolve.recognition import smallest_simplicial_clique
from ffsolve.solver import (
    TransferOperator,
    charges_commute_residual,
    check_fundamental_identity,
    simplicial_extension,
    transfer_factorization_residual,
)
from ffsolve.verify import (
    VerificationReport,
    brute_force_spectrum,
    symmetry_generators,
    verify_all,
    verify_free,
)


def x_and_z_everywhere(n: int) -> Hamiltonian:
    """X and Z on every qubit: the terms span every string, so no Pauli
    string but the identity commutes with all of them (s = 0)."""
    return Hamiltonian.from_pairs([(1.0 + q / n, PauliTerm.from_ops(n, {q: axis}))
                                   for q in range(n) for axis in "XZ"])


def z_everywhere(n: int) -> Hamiltonian:
    """Z on every qubit: all terms commute (s = n), so every block is 1 x 1."""
    return Hamiltonian.from_pairs([(1.0 + q / n, PauliTerm.from_ops(n, {q: "Z"}))
                                   for q in range(n)])


def test_brute_force_single_z():
    h = Hamiltonian.from_pairs([(1.0, PauliTerm.from_ops(1, {0: "Z"}))])
    assert brute_force_spectrum(h).tolist() == [-1.0, 1.0]


def test_brute_force_two_level():
    a, b = 1.2, -0.9
    h = Hamiltonian.from_pairs([
        (a, PauliTerm.from_ops(1, {0: "X"})),
        (b, PauliTerm.from_ops(1, {0: "Z"})),
    ])
    spec = brute_force_spectrum(h)
    expect = np.sqrt(a * a + b * b)
    assert np.abs(spec - [-expect, expect]).max() < 1e-12


def test_brute_force_h6_pairing():
    rng = random.Random(55)
    h = h6_model(*[rng.choice([-1, 1]) * rng.uniform(0.5, 1.5) for _ in range(6)])
    spec = oracle_levels(h)
    # 8 eigenvalues in 4 levels of the form +-e1 +-e2, each doubled
    assert len(spec) == 4
    assert all(m == 2 for _, m in spec)
    vals = [v for v, _ in spec]
    assert abs(vals[0] + vals[3]) < 1e-9 and abs(vals[1] + vals[2]) < 1e-9


def test_brute_force_cap():
    # 2^1 central sectors of 13 qubits exceed the work cap; 14-qubit blocks the block cap
    for h in (x_and_z_and_one_z(13), x_and_z_everywhere(14)):
        with pytest.raises(DenseCapError):
            brute_force_spectrum(h)


def test_verify_free_above_dense_cap_keeps_energies():
    # 27 qubits, ECF: over the eigenvalue cap, and the work cap (2^1 sectors of 13 qubits)
    rep = verify_free(chain_model(9, 3))
    assert rep.energies
    assert "eigenvalue cap" in rep.failure
    assert rep.symmetry_generators is None and rep.block_qubits is None
    assert rep.passed() is False
    # a stage that raises is not timed
    assert list(rep.timings) == ["classify", "energies"]


def test_verify_free_reports_a_refused_root_finder():
    """Two commuting terms of couplings 1e150 and 1e-150: the lower root
    lies 1e-600 below the upper one, under every float of the root finder,
    which isolates one root of two.  The report fails with its reason, not
    a traceback."""
    rep = verify_free(parse_hamiltonian("1e150 X0\n1e-150 X1\n"))
    assert rep.applicable and rep.spectrum_match is False
    assert rep.failure.startswith("isolated 1 real roots, expected 2")
    assert rep.energies is None and list(rep.timings) == ["classify", "energies"]
    assert not rep.passed()


def test_passed_needs_every_residual_within_its_tolerance():
    """Each residual faces its entry of TOLERANCES: NaN, or a name the
    table lacks, fails; so does a report without both spectrum verdicts."""
    def report(residuals, verdict=True):
        return VerificationReport(spectrum_match=verdict, degeneracy_uniform=verdict,
                                  lemma_residuals=residuals)

    assert report({"car": 1e-15, "ladder": 0.0}).passed()
    assert not report({"car": 1e-15, "ladder": math.nan}).passed()
    assert not report({"no_such_check": 0.0}).passed()
    assert not report({"car": 2e-8}).passed()
    assert not report({"car": 1e-15, "ladder": 0.0}, verdict=None).passed()


def test_verify_all_does_not_pass_without_its_oracle(monkeypatch):
    """``verify_free`` classifies at the default hole budget.  Where that
    search runs out but the caller's larger budget decides ECF, the oracle
    never runs and the report holds no spectrum verdict: it fails."""
    decide = verify.classify

    def classify(graph, hole_budget=recognition.HOLE_SEARCH_BUDGET):
        if hole_budget == recognition.HOLE_SEARCH_BUDGET:
            return recognition.StructureReport(None, None, True, None)
        return decide(graph, hole_budget)

    monkeypatch.setattr(verify, "classify", classify)
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0), hole_budget=10**9)
    assert rep.applicable and rep.spectrum_match is None and rep.failure is None
    assert not rep.passed()


def test_a_nan_residual_at_one_u_fails_verify_all(monkeypatch):
    """The largest residual over the u grid is NaN when any one is."""
    def nan_at_037(h, us):
        return [math.nan if u == 0.37 else 0.0 for u in us]

    monkeypatch.setattr(verify, "transfer_factorization_residual", nan_at_037)
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert math.isnan(rep.lemma_residuals["transfer_factorization"])
    assert rep.spectrum_match and not rep.passed()


def test_a_nan_part_of_a_mode_residual_fails_verify_all(monkeypatch):
    """A mode residual is the largest of its parts, and NaN if any one is,
    not only the first: a NaN Ritz value of the second mode makes
    ``lanczos_energy`` NaN, and the report fails."""
    modes = verify.all_modes

    def nan_ritz_at_mode_1(*args):
        out = modes(*args)
        return [out[0], dataclasses.replace(out[1], ritz=math.nan), *out[2:]]

    monkeypatch.setattr(verify, "all_modes", nan_ritz_at_mode_1)
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert math.isnan(rep.lemma_residuals["lanczos_energy"])
    assert all(value <= verify.TOLERANCES[name]
               for name, value in rep.lemma_residuals.items() if name != "lanczos_energy")
    assert rep.spectrum_match and not rep.passed()


def test_charges_commute_is_nan_where_a_charge_norm_underflows():
    """1e-100 X0, 1e100 Z0 X1, 1e-100 Z1: at the couplings / 2^333 the
    charge Q^(2) = c_0 c_2 X0 Z1 is 0, and so is its 1-norm.  The residual
    is 0 / 0, NaN, not a ZeroDivisionError, and not a 0 that passes."""
    h = parse_hamiltonian("1e-100 X0\n1e100 Z0 X1\n1e-100 Z1\n")
    assert math.isnan(charges_commute_residual(h, graphs.frustration_graph(h)))


def test_verify_free_h5_fixed_couplings():
    rep = verify_free(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert rep.spectrum_match and rep.degeneracy_uniform
    assert rep.max_level_deviation < 1e-8


def test_verify_free_chain_2_4():
    rng = random.Random(91)
    h = chain_model(2, 4, [rng.choice([-1, 1]) * rng.uniform(0.5, 1.8) for _ in range(4)])
    rep = verify_free(h)
    assert rep.spectrum_match and rep.degeneracy_uniform


# The path P5 with weights (1, sqrt(2) - 1/2, 1, 1/2, 1): its energies
# satisfy e1 + e2 = e3, so two sign patterns share the level at 0.
P5_COINCIDING_SUMS = """\
1.0 X0
0.9561451575849219 Z0 X1
1.0 Z1 X2
0.7071067811865476 Z2 X3
1.0 Z3 X4
"""


def test_verify_accepts_coinciding_sign_sums():
    """2^(n - alpha) states belong to each sign pattern, not to each level:
    a level holding two patterns holds twice as many."""
    h = parse_hamiltonian(P5_COINCIDING_SUMS)
    rep = verify_all(h)
    e1, e2, e3 = (e for e, _ in rep.energies)
    assert abs(e1 + e2 - e3) < 1e-14
    # -e1 - e2 + e3 = e1 + e2 - e3 = 0: the middle level holds 2 x 4 states
    assert [m for _, m in oracle_levels(h)] == [4, 4, 4, 8, 4, 4, 4]
    assert rep.spectrum_match and rep.degeneracy_uniform
    assert rep.passed()


def test_verify_passes_on_sign_sums_3e_9_apart():
    """On chain 5x2 at (1, 0.6346352959744468) four pairs of sign sums lie
    3.0e-9 apart: more than 1e-9 of the largest coupling, the oracle's
    resolution, and less than 1e-9 of the largest sum (5.6e-9).  Levels
    grouped by those two rules numbered 32 and 28; eigenvalues matched to
    sign sums agree to 1e-14."""
    h = chain_model(5, 2, [1.0, 0.6346352959744468])
    rep = verify_all(h)
    gaps = np.diff(sign_sums(SingleParticleEnergies(tuple(rep.energies), 0.0)))
    assert np.count_nonzero((gaps > 2.9e-9) & (gaps < 3.1e-9)) == 4
    assert rep.passed(), rep.failure
    assert rep.max_level_deviation < 1e-13 and rep.degeneracy_uniform


def _with_oracle(monkeypatch, h, change):
    """``verify_free(h)`` on the oracle's eigenvalues after ``change``
    (in place, in units of the largest |coupling|)."""
    scale = max(abs(c) for c in h.couplings())
    eigs = brute_force_spectrum(h) / scale
    change(eigs)
    monkeypatch.setattr(verify, "brute_force_spectrum", lambda _: eigs * scale)
    return verify_free(h)


@pytest.mark.parametrize("one_sided", [False, True])
def test_degeneracy_uniform_fails_on_a_wrong_multiplicity(monkeypatch, one_sided):
    """The 2^(n - alpha) = 4 states of the lowest sign pattern of P5, split
    in two pairs, fail degeneracy_uniform: split by 1e-8 of the scale about
    their sign sum, where each lies within SPECTRUM_MATCH_TOL of it, or by
    2e-8 above it, where two do not."""
    h = parse_hamiltonian(P5_COINCIDING_SUMS)

    def split(eigs):
        if one_sided:
            eigs[2:4] += 2e-8
        else:
            eigs[:2] -= 5e-9
            eigs[2:4] += 5e-9

    rep = _with_oracle(monkeypatch, h, split)
    assert rep.spectrum_match is not one_sided
    assert rep.degeneracy_uniform is False
    assert not rep.passed() and rep.failure


def test_spectrum_match_fails_on_one_eigenvalue_off_by_1e_7(monkeypatch):
    h = parse_hamiltonian(P5_COINCIDING_SUMS)

    def move_top(eigs):
        eigs[-1] += 1e-7

    rep = _with_oracle(monkeypatch, h, move_top)
    assert rep.spectrum_match is False
    assert 0.99e-7 < rep.max_level_deviation < 1.01e-7
    assert not rep.passed()


def test_verify_free_records_alpha_above_the_qubit_count():
    """Three commuting terms on two qubits have alpha = 3: 2^3 sign
    patterns cannot share 2^2 states, and the report says so."""
    rep = verify_free(parse_hamiltonian("1.0 Z0\n0.7 Z1\n0.5 Z0 Z1\n"))
    assert rep.applicable and rep.spectrum_match is False
    assert [e for e, _ in rep.energies] == pytest.approx([0.5, 0.7, 1.0])
    assert rep.failure.startswith("alpha=3 exceeds qubit count n=2")
    assert not rep.passed()


def test_verify_free_skips_non_ecf():
    rep = verify_free(back_to_back_model(1, 2, 3, 4, 5, 6))
    assert not rep.applicable
    assert rep.structure.claw_witness is not None
    assert rep.spectrum_match is None


def test_nonexample_discrimination():
    out = verify_nonexample_equal_couplings()
    assert out["equal_couplings_match"] is True
    assert out["generic_couplings_match"] is False
    assert out["claw_found"] and out["even_hole_found"]


def test_verify_all_h5_all_green():
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert rep.passed()
    for name in ("charges_commute", "transfer_factorization",
                 "fundamental_identity", "car", "ladder", "reconstruction"):
        assert rep.lemma_residuals[name] <= verify.TOLERANCES[name]
    assert rep.spectrum_match and rep.degeneracy_uniform
    d = rep.to_dict()
    assert d["passed"] is True
    assert set(d["tolerances"]) >= set(d["lemma_residuals"])


def test_verify_all_h6_all_green():
    rng = random.Random(17)
    rep = verify_all(h6_model(*[rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)
                                for _ in range(6)]))
    assert rep.passed()


def test_verify_all_periodic_chain_partial():
    """Claw-free with even holes: charges commute, the rest is skipped."""
    rep = verify_all(chain_model(3, 3, [1.0, 0.8, 1.2], periodic=True))
    assert not rep.applicable
    assert rep.structure.claw_free
    assert rep.structure.even_hole_witness is not None
    assert rep.lemma_residuals["charges_commute"] < 1e-10
    assert "transfer_factorization" not in rep.lemma_residuals


def test_verify_all_undecided_budget():
    rep = verify_all(chain_model(3, 3, periodic=True), hole_budget=2)
    assert rep.structure.undecided
    assert rep.skip_reason and "undecided" in rep.skip_reason


def test_verify_free_names_an_undecided_graph_undecided(monkeypatch):
    """verify_free reads its reason from the structure report: an even-hole
    search out of budget is undecided, not a graph that is not ECF."""
    monkeypatch.setattr(verify, "classify",
                        functools.partial(recognition.classify, hole_budget=10))
    rep = verify_free(chain_model(3, 3, periodic=True))
    assert rep.structure.undecided and not rep.applicable
    assert rep.skip_reason == "even-hole search undecided (budget exhausted)"


def test_verify_free_level_count():
    """Distinct brute-force levels never exceed 2^alpha for ECF models."""
    rng = random.Random(23)
    for _ in range(5):
        h = h5_model(*[rng.choice([-1, 1]) * rng.uniform(0.4, 1.6) for _ in range(5)])
        assert len(oracle_levels(h)) <= 4


# -- the oracle per symmetry sector ------------------------------------------

def _random_string(rng, n):
    return rng.getrandbits(n), rng.getrandbits(n)


def _anticommute(p, q):
    return ((p[0] & q[1]).bit_count() + (p[1] & q[0]).bit_count()) & 1


def _random_hamiltonian(rng, n, kind):
    """A random Hamiltonian of one of five kinds, each a case the sector
    reduction has to get right."""
    count = rng.randint(1, 2 * n + 2)
    strings = [_random_string(rng, n) for _ in range(count)]
    if kind in ("symmetric term", "merging terms"):
        # a term that commutes with all others is a constant in each sector
        sym = _random_string(rng, n)
        strings = [sym] + [p for p in strings if not _anticommute(p, sym)]
        if kind == "merging terms" and len(strings) > 1:
            # p and p * sym differ by a symmetry: one reduced string per sector
            p = strings[1]
            strings.append((p[0] ^ sym[0], p[1] ^ sym[1]))
    elif kind == "commuting":
        # Z strings under one random layer of Hadamards and phase gates: s = n
        hadamard, phase = rng.getrandbits(n), rng.getrandbits(n)
        strings = []
        for _ in range(count):
            z = rng.getrandbits(n)
            x, z = z & hadamard, z & ~hadamard  # H turns Z into X
            strings.append((x, z ^ x & phase))  # S turns X into Y
    strings = [(x, z) for x, z in strings if x or z] or [(0, 1)]
    terms = [(rng.choice([-1, 1]) * rng.uniform(0.1, 2.0), PauliTerm(n, x, z))
             for x, z in strings]
    if kind == "duplicates":
        # repeated strings reach the oracle when the terms are not merged first
        terms += [(rng.uniform(-1.0, 1.0), t) for _, t in rng.sample(terms, rng.randint(1, len(terms)))]
        return Hamiltonian(n, tuple(terms))
    return Hamiltonian.from_pairs(terms, n=n)


def _assert_matches_full_matrix(h):
    scale = max(abs(c) for c in h.couplings())
    want = full_matrix_spectrum(h)
    got = brute_force_spectrum(h)
    assert got.shape == (1 << h.n,)
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_oracle_matches_full_matrix_on_random_hamiltonians():
    rng = random.Random(20240917)
    kinds = ("generic", "symmetric term", "merging terms", "commuting", "duplicates")
    for trial in range(210):
        n = 10 if trial in (7, 131) else 1 + trial % 9
        kind = kinds[trial % len(kinds)]
        h = _random_hamiltonian(rng, n, kind)
        if kind == "commuting":
            assert len(symmetry_generators(h)) == n
        _assert_matches_full_matrix(h)


def test_oracle_matches_full_matrix_without_symmetries():
    rng = random.Random(5)
    for model in (h6_model, back_to_back_model):
        for _ in range(5):
            h = model(*[rng.choice([-1, 1]) * rng.uniform(0.5, 1.5) for _ in range(6)])
            assert symmetry_generators(h) == []
            _assert_matches_full_matrix(h)


@pytest.mark.parametrize("h, s", [
    (chain_model(3, 3), 5), (chain_model(2, 4), 5), (chain_model(2, 3), 3),
    (h5_model(), 1), (h6_model(), 0), (back_to_back_model(), 0),
    (chain_model(4, 3), 6), (chain_model(7, 2), 7), (chain_model(4, 4), 8),
    (junction_model((1, 1, 1), 3), 9), (chain_model(7, 3), 11),
])
def test_symmetry_generators_commute_with_the_terms_and_each_other(h, s):
    gens = symmetry_generators(h)
    assert len(gens) == s
    n = h.n
    strings = [(g & (1 << n) - 1, g >> n) for g in gens]
    for g in strings:
        assert not any(_anticommute(g, (t.x, t.z)) for _, t in h.terms)
        assert not any(_anticommute(g, other) for other in strings)


def test_oracle_does_not_use_the_frustration_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle built a frustration graph")

    monkeypatch.setattr(graphs, "frustration_graph", refuse)
    monkeypatch.setattr(verify, "frustration_graph", refuse)
    _assert_matches_full_matrix(chain_model(3, 3, [1.0, 0.7, 1.3]))


def x_and_z_and_one_z(n: int) -> Hamiltonian:
    """``x_and_z_everywhere(n)`` and a Z on qubit n: one central string
    (c = 1) beside an n-qubit block (m = n)."""
    return Hamiltonian.from_pairs(list(x_and_z_everywhere(n).terms)
                                  + [(0.5, PauliTerm.from_ops(n + 1, {n: "Z"}))], n=n + 1)


@pytest.mark.parametrize("h, bound", [
    (x_and_z_and_one_z(13), "work cap"),  # 2^1 central sectors of 13 qubits
    (x_and_z_everywhere(14), "oracle cap"),  # one 14-qubit block
    (z_everywhere(27), "eigenvalue cap"),  # 2^27 sectors of 0 qubits
])
def test_oracle_caps_are_checked_before_allocating(monkeypatch, h, bound):
    def refuse(*args):
        raise AssertionError("the oracle allocated a block above its cap")

    monkeypatch.setattr(verify, "dense_sums", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(DenseCapError, match=bound):
        brute_force_spectrum(h)


def test_oracle_diagonalizes_only_the_central_sectors(monkeypatch):
    """Chain 4x4 has p = 8 pairs and no central string: one block of 8
    qubits, its eigenvalues repeated 2^8 times, equal to every sector's."""
    h = chain_model(4, 4, [1.0, 0.7, 1.3, 0.9])
    calls = []
    monkeypatch.setattr(verify, "dense_sums", lambda m, strings, coefs: (
        calls.append(coefs.shape), paulis.dense_sums(m, strings, coefs))[1])
    got = brute_force_spectrum(h)
    assert [rows for rows, _ in calls] == [1]
    want = all_sector_spectrum(h)
    assert np.abs(got - want).max() <= 1e-12 * 1.3


def skew_the_pairs(monkeypatch):
    """Give the first partner of the oracle's symplectic Gram-Schmidt the
    second one's string too."""
    pairs = verify._symplectic_pairs

    def skewed(n, vectors):
        paired, central = pairs(n, vectors)
        if len(paired) < 2:
            return paired, central
        (u0, w0), (u1, w1) = paired[:2]
        return [(u0, w0 ^ w1)] + paired[1:], central

    monkeypatch.setattr(verify, "_symplectic_pairs", skewed)


def test_oracle_self_checks_the_pairs(monkeypatch):
    """A partner w that anticommutes with a second generator would map a
    sector onto one of another spectrum: the oracle refuses it."""
    skew_the_pairs(monkeypatch)
    with pytest.raises(FFSolveError, match="paired symmetry"):
        brute_force_spectrum(chain_model(2, 3))


def test_verify_free_records_an_oracle_self_check(monkeypatch):
    """The standalone entry point records every refusal of its oracle,
    as ``verify_all`` does, instead of raising it."""
    skew_the_pairs(monkeypatch)
    rep = verify_free(chain_model(2, 3))
    assert rep.energies and rep.spectrum_match is None
    assert "paired symmetry" in rep.failure
    assert not rep.passed()


def test_oracle_checks_the_eigenvalue_cap_before_any_work(monkeypatch):
    """The eigenvalue cap depends on n alone: 27 qubits are refused before
    the commutant is formed."""
    def refuse(*args):
        raise AssertionError("the oracle formed the commutant above its eigenvalue cap")

    monkeypatch.setattr(verify, "_commutant", refuse)
    with pytest.raises(DenseCapError, match="eigenvalue cap"):
        brute_force_spectrum(chain_model(9, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from(("generic", "symmetric term", "merging terms", "commuting", "duplicates")))
def test_oracle_matches_every_sector_on_random_hamiltonians(seed, n, kind):
    h = _random_hamiltonian(random.Random(seed), n, kind)
    scale = max(abs(c) for c in h.couplings())
    assert np.abs(brute_force_spectrum(h) - all_sector_spectrum(h)).max() <= 1e-12 * scale


def test_oracle_returns_on_chain_7x3_within_the_caps():
    """21 qubits: p = 10 pairs and c = 1 central string leave 2 blocks of
    10 qubits, where all 2^11 sectors were over the work cap."""
    rep = verify_free(chain_model(7, 3, [1.0, 0.7, 1.3]))
    assert (rep.symmetry_generators, rep.block_qubits) == (11, 10)
    assert rep.passed()


def test_verify_free_chain_7x2_under_the_sector_cap():
    rep = verify_free(chain_model(7, 2, [1.0, 0.7]))  # 14 qubits, 128 blocks of 7 qubits
    assert rep.passed()
    assert (rep.symmetry_generators, rep.block_qubits) == (7, 7)


def test_verify_all_junction_records_the_oracle():
    rng = random.Random(3)
    h = junction_model((1, 1, 1), 3, [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                                      for _ in range(15)])
    rep = verify_all(h)  # 15 qubits
    assert rep.passed()
    d = rep.to_dict()
    assert (d["symmetry_generators"], d["block_qubits"]) == (9, 6)
    assert "free_diagonalize" in d["timings"]


def test_verify_all_chain_5x3_spread_couplings():
    """At (1, .01, .02) the coefficients of a mode span ten orders of
    magnitude; the Krylov modes keep all 150 of them and CAR within 1e-8."""
    rep = verify_all(chain_model(5, 3, [1.0, 0.01, 0.02]))
    assert rep.passed()
    assert rep.mode_term_counts == [150] * 5


@pytest.mark.parametrize("scale", [1.0, 1e-8])
def test_verify_all_ties_the_modes_to_the_transfer_operator(scale):
    """The Lanczos energies against the root finder, and T(u_j) psi_j = 0.
    At couplings of order 1e-8 the top charge of h6 is of order 1e-16,
    and T(u_j) needs it, since u_j is of order 1e8."""
    rep = verify_all(h6_model(*[scale * c for c in (1.1, 0.3, 0.9, -0.7, 1.4, 0.6)]))
    assert rep.passed()
    for name in ("lanczos_energy", "zero_eigenvector"):
        assert rep.lemma_residuals[name] <= 1e-12
        assert verify.TOLERANCES[name] == 1e-8


def test_residuals_of_chain_3x3_are_the_same_at_any_power_of_two_scale():
    """Chain 3x3 at (1, 0.7, 1.3) x 2^+-200 and x 2^+-400 passes with every
    residual the float it reads at x 1.  N_j^2 came out negative or -inf
    from float coefficients at these scales, and T(u_j) of the unscaled
    couplings put zero_eigenvector at 1.36 once the modes were built."""
    want = verify_all(chain_model(3, 3, [1.0, 0.7, 1.3]))
    assert want.passed()
    for power in (200, -200, 400, -400):
        rep = verify_all(chain_model(3, 3, [math.ldexp(c, power) for c in (1.0, 0.7, 1.3)]))
        assert rep.passed(), (power, rep.failure)
        assert rep.lemma_residuals == want.lemma_residuals, power


@pytest.mark.parametrize("power", [490, -440])
def test_ritz_pairs_are_the_same_at_the_ends_of_the_lapack_range(power):
    """Chain 3x3 at (1, 0.7, 1.3) x 2^490 and x 2^-440 passes with every
    residual the float it reads at x 1.  LAPACK rescales a matrix outside
    about [2^-407, 2^489] by a factor that is not a power of two, so the
    Ritz pairs of the tridiagonal matrix taken at the couplings' scale
    moved car, ladder and reconstruction in their last bits (car
    8.88e-16 against 1.11e-15 at x 1)."""
    want = verify_all(chain_model(3, 3, [1.0, 0.7, 1.3]))
    rep = verify_all(chain_model(3, 3, [math.ldexp(c, power) for c in (1.0, 0.7, 1.3)]))
    assert rep.passed(), rep.failure
    assert rep.lemma_residuals == want.lemma_residuals


def test_lemma_residuals_are_relative_to_their_products():
    """T(u) T(-u) = P(-u^2) I and the fundamental identity are measured
    against the Pauli 1-norms of the products that form them.  Absolute
    residuals read 4.9e-4 and 1.5 on h5 at couplings of order 1e3, and the
    fundamental identity 2.3e-8 on junction (1,2,1), where |P(-u^2)| is
    2.7e5 at u = 1.5."""
    rep = verify_all(h5_model(1000, 700, 1300, 900, 1200))
    assert rep.passed(), rep.lemma_residuals
    rng = random.Random(2)  # the couplings of ``ffsolve verify --seed 2``
    h = junction_model((1, 2, 1), 3, [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                                      for _ in range(18)])
    ks = smallest_simplicial_clique(graphs.frustration_graph(h))
    hext, chi = simplicial_extension(h, ks)
    assert max(transfer_factorization_residual(h, verify.DEFAULT_U_GRID)) <= 1e-9
    assert max(check_fundamental_identity(hext, chi, ks, verify.DEFAULT_U_GRID)) <= 1e-9


def test_charge_and_mode_residuals_are_relative_to_their_products():
    """The commutators of the charges, the ladder relations and the
    reconstruction are measured against the Pauli 1-norms of the products
    that form them.  On chain 3x3 at couplings of order 1e5 the absolute
    commutator read 1.1e9, and the ladder and reconstruction residuals
    1e-10 and 1.5e-10 on their way to the bound of 1e-8."""
    rep = verify_all(chain_model(3, 3, [1e5, 7e4, 1.3e5]))
    assert rep.passed(), rep.lemma_residuals
    for name in ("charges_commute", "ladder", "reconstruction"):
        assert rep.lemma_residuals[name] <= 1e-14, name


def _perturbed_transfer(monkeypatch, perturb):
    """Make every transfer operator carry ``perturb(Q^(2))`` as Q^(2)."""
    build = solver.transfer

    def perturbed(h, graph=None):
        t = build(h, graph)
        charges = list(t.charges)
        charges[2] = perturb(charges[2])
        return TransferOperator(t.n, tuple(charges))

    monkeypatch.setattr(solver, "transfer", perturbed)


def test_relative_residuals_still_fail_one_part_in_a_million(monkeypatch):
    """At couplings of order 1 a charge scaled by 1 + 1e-6 still fails
    verify, a charge with one term moved by 1e-6 fails the commutators, and
    energies off by 1e-6 fail the ladder and the reconstruction."""
    h = chain_model(3, 3, [1.0, 0.7, 1.3])
    assert verify_all(h).passed()
    with monkeypatch.context() as m:
        _perturbed_transfer(m, lambda q: (1 + 1e-6) * q)
        rep = verify_all(h)
        assert not rep.passed()
        assert rep.lemma_residuals["transfer_factorization"] > 1e-9
        assert rep.lemma_residuals["fundamental_identity"] > 1e-9

    def move_one_term(q):
        (key, c), *_ = q
        return q + OperatorSum(q.n, {key: 1e-6 * c})

    with monkeypatch.context() as m:
        _perturbed_transfer(m, move_one_term)
        assert charges_commute_residual(h, graphs.frustration_graph(h)) > 1e-10
    _energies_off_by_one_ppm(monkeypatch)
    rep = verify_all(h)
    assert rep.lemma_residuals["ladder"] > 1e-8
    assert rep.lemma_residuals["reconstruction"] > 1e-8


def _energies_off_by_one_ppm(monkeypatch):
    """Make ``verify_all`` build its modes with every energy x (1 + 1e-6)."""
    build_modes = verify.all_modes

    def off_by_one_ppm(hext, chi, energies, poly):
        return [dataclasses.replace(mode, energy=mode.energy * (1 + 1e-6))
                for mode in build_modes(hext, chi, energies, poly)]

    monkeypatch.setattr(verify, "all_modes", off_by_one_ppm)


def test_wrong_energies_fail_the_mode_checks_at_any_scale(monkeypatch):
    """Energies off by one part in a million fail the ladder and the
    reconstruction of h5 at every power-of-two scale of the couplings.
    With products pruned at an absolute 1e-14 both read 0.0 at x 2^-40,
    where the 2e-6 e psi part of [H, psi] - 2 e psi fell under the cut."""
    _energies_off_by_one_ppm(monkeypatch)
    for scale in (2.0 ** 30, 1.0, 2.0 ** -20, 2.0 ** -40):
        rep = verify_all(h5_model(*[scale * c for c in (1.0, 0.7, -1.3, 0.4, 2.0)]))
        assert rep.lemma_residuals["ladder"] > 1e-7, scale
        assert rep.lemma_residuals["reconstruction"] > 1e-7, scale


@pytest.mark.parametrize("cap, checked", [(10, []), (30, ["charges_commute"])])
def test_verify_all_records_the_term_cap(monkeypatch, cap, checked):
    """A Pauli product above the term cap ends the checks with a report
    that names the cap and keeps the residuals found before it."""
    monkeypatch.setattr(paulis, "TERM_CAP", cap)
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert rep.failure.endswith(f"exceeds cap {cap}")
    assert sorted(rep.lemma_residuals) == checked and not rep.passed()


def test_verify_all_solves_the_energies_once(monkeypatch):
    """The spectrum check reuses the energies the modes were built from."""
    calls = []
    solve = verify.single_particle_energies
    monkeypatch.setattr(verify, "single_particle_energies",
                        lambda poly: calls.append(1) or solve(poly))
    rep = verify_all(chain_model(3, 3, [1.0, 0.7, 1.3]))
    assert rep.passed() and rep.spectrum_match
    assert len(calls) == 1


def test_verify_all_records_a_refused_mode_construction(monkeypatch):
    """A root finder that isolates fewer roots than alpha ends the checks
    at the modes with a report that keeps the three lemma residuals found
    before them, names the root finder's failure as it gave it, and does
    not pass."""
    refusal = ConditioningError("isolated 1 real roots, expected 2: below every float")

    def refuse(poly):
        raise refusal

    monkeypatch.setattr(verify, "single_particle_energies", refuse)
    rep = verify_all(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert sorted(rep.lemma_residuals) == ["charges_commute", "fundamental_identity",
                                           "transfer_factorization"]
    assert all(v <= verify.TOLERANCES[k] for k, v in rep.lemma_residuals.items())
    assert rep.failure == str(refusal)
    assert not rep.passed()
