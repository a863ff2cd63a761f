"""Exact-diagonalization oracle and the top-level verification flows."""

import random

import numpy as np
import pytest

from ffsolve.errors import DenseCapError
from ffsolve.models import (
    Hamiltonian,
    back_to_back_model,
    chain_model,
    h5_model,
    h6_model,
)
from ffsolve.paulis import PauliTerm
from ffsolve.verify import (
    brute_force_spectrum,
    verify_all,
    verify_free,
    verify_nonexample_equal_couplings,
)


def test_brute_force_single_z():
    h = Hamiltonian.from_pairs([(1.0, PauliTerm.from_ops(1, {0: "Z"}))])
    assert brute_force_spectrum(h) == [(-1.0, 1), (1.0, 1)]


def test_brute_force_two_level():
    a, b = 1.2, -0.9
    h = Hamiltonian.from_pairs([
        (a, PauliTerm.from_ops(1, {0: "X"})),
        (b, PauliTerm.from_ops(1, {0: "Z"})),
    ])
    spec = brute_force_spectrum(h)
    expect = np.sqrt(a * a + b * b)
    assert len(spec) == 2
    assert abs(spec[0][0] + expect) < 1e-12 and abs(spec[1][0] - expect) < 1e-12


def test_brute_force_h6_pairing():
    rng = random.Random(55)
    h = h6_model(*[rng.choice([-1, 1]) * rng.uniform(0.5, 1.5) for _ in range(6)])
    spec = brute_force_spectrum(h)
    # 8 eigenvalues in 4 levels of the form +-e1 +-e2, each doubled
    assert len(spec) == 4
    assert all(m == 2 for _, m in spec)
    vals = [v for v, _ in spec]
    assert abs(vals[0] + vals[3]) < 1e-9 and abs(vals[1] + vals[2]) < 1e-9


def test_brute_force_cap():
    for h in (chain_model(7, 2), chain_model(8, 2)):  # 14 and 16 qubits
        with pytest.raises(DenseCapError):
            brute_force_spectrum(h)


def test_verify_free_above_dense_cap_keeps_energies():
    rep = verify_free(chain_model(7, 2))  # 14 qubits, ECF
    assert rep.energies
    assert "cap" in rep.failure
    assert rep.passed() is False


def test_verify_free_h5_fixed_couplings():
    rep = verify_free(h5_model(1.0, 0.7, -1.3, 0.4, 2.0))
    assert rep.spectrum_match and rep.degeneracy_uniform
    assert rep.max_level_deviation < 1e-8


def test_verify_free_chain_2_4():
    rng = random.Random(91)
    h = chain_model(2, 4, [rng.choice([-1, 1]) * rng.uniform(0.5, 1.8) for _ in range(4)])
    rep = verify_free(h)
    assert rep.spectrum_match and rep.degeneracy_uniform


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
        assert rep.lemma_residuals[name] <= rep.tolerances[name]
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


def test_verify_free_level_count():
    """Distinct brute-force levels never exceed 2^alpha for ECF models."""
    rng = random.Random(23)
    for _ in range(5):
        h = h5_model(*[rng.choice([-1, 1]) * rng.uniform(0.4, 1.6) for _ in range(5)])
        spec = brute_force_spectrum(h)
        assert len(spec) <= 4
