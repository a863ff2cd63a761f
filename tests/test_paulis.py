"""Pauli algebra: multiplication table, phases, and the dense backend."""

import random
from functools import reduce

import numpy as np
import pytest

from conftest import opsum_mul, pairwise_product, to_dense
from ffsolve import paulis
from ffsolve.errors import DenseCapError, TermBudgetError
from ffsolve.paulis import (
    OperatorSum,
    PauliTerm,
    StringBasis,
    commutes,
    multiply,
    opsum_anticomm_batch,
    opsum_comm,
    opsum_comm_batch,
    opsum_mul_batch,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {(0, 0): I2, (1, 0): X, (1, 1): Y, (0, 1): Z}


def kron_oracle(term: PauliTerm) -> np.ndarray:
    """Independent dense realization: explicit Kronecker product, qubit 0
    least significant."""
    mats = [SINGLE[((term.x >> q) & 1, (term.z >> q) & 1)] for q in range(term.n)]
    return term.phase * reduce(np.kron, reversed(mats), np.eye(1, dtype=complex))


def P(n, ops):
    return PauliTerm.from_ops(n, ops)


def test_single_qubit_table():
    x, y, z = P(1, {0: "X"}), P(1, {0: "Y"}), P(1, {0: "Z"})
    assert multiply(x, y) == PauliTerm(1, 0, 1, 1)      # XY = iZ
    assert multiply(x, z) == PauliTerm(1, 1, 1, 3)      # XZ = -iY
    assert multiply(z, x) == PauliTerm(1, 1, 1, 1)      # ZX = iY
    assert multiply(y, z) == PauliTerm(1, 1, 0, 1)      # YZ = iX
    assert multiply(x, x) == PauliTerm.identity(1)


def test_two_qubit_product_example():
    # (X0 Y1)(Z0 Z1) = (-iY0)(iX1) = +Y0 X1
    a = P(2, {0: "X", 1: "Y"})
    b = P(2, {0: "Z", 1: "Z"})
    assert multiply(a, b) == P(2, {0: "Y", 1: "X"})


def test_commutes_examples():
    assert not commutes(P(1, {0: "X"}), P(1, {0: "Z"}))
    assert commutes(P(1, {0: "X"}), P(1, {0: "X"}))
    # two anticommuting positions cancel
    assert commutes(P(2, {0: "X", 1: "Y"}), P(2, {0: "Z", 1: "Z"}))


def test_length_mismatch_errors():
    with pytest.raises(ValueError):
        multiply(P(1, {0: "X"}), P(2, {0: "X"}))
    with pytest.raises(ValueError):
        commutes(P(1, {0: "X"}), P(2, {0: "X"}))


def test_multiply_associative_bit_for_bit():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 6)
        terms = [PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
                 for _ in range(3)]
        p, q, r = terms
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


def test_commutes_matches_product_sign():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        p = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n))
        pq, qp = multiply(p, q), multiply(q, p)
        assert (pq.x, pq.z) == (qp.x, qp.z)
        sign = (pq.phase_pow - qp.phase_pow) % 4
        assert sign in (0, 2)
        assert commutes(p, q) == (sign == 0)


def test_dense_single_qubit():
    assert np.array_equal(to_dense(P(1, {0: "Z"})), np.diag([1, -1]).astype(complex))
    assert np.array_equal(to_dense(PauliTerm.identity(1)), np.eye(2, dtype=complex))
    assert np.array_equal(to_dense(P(1, {0: "X"})), X)


def test_dense_matches_kron_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
        assert np.allclose(to_dense(t), kron_oracle(t), atol=1e-15)


def random_opsum(rng, n, nterms):
    terms = {}
    for _ in range(nterms):
        key = (rng.getrandbits(n), rng.getrandbits(n))
        terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return OperatorSum(n, terms)


def test_dense_is_multiplicative_homomorphism():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_opsum(rng, n, rng.randint(1, 5))
        b = random_opsum(rng, n, rng.randint(1, 5))
        lhs = to_dense(opsum_mul(a, b))
        rhs = to_dense(a) @ to_dense(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def opsum_anticomm(a, b):
    """{a, b}, as a batch of one."""
    return opsum_anticomm_batch([a], [b])[0]


def test_comm_anticomm_against_dense():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_opsum(rng, n, 3)
        b = random_opsum(rng, n, 3)
        da, db = to_dense(a), to_dense(b)
        assert np.max(np.abs(to_dense(opsum_comm(a, b)) - (da @ db - db @ da))) < 1e-12
        assert np.max(np.abs(to_dense(opsum_anticomm(a, b)) - (da @ db + db @ da))) < 1e-12


def test_comm_anticomm_examples():
    z = OperatorSum.from_term(P(1, {0: "Z"}))
    x = OperatorSum.from_term(P(1, {0: "X"}))
    c = opsum_comm(z, x)
    assert not (c - 2j * OperatorSum.from_term(P(1, {0: "Y"}))).terms
    assert not opsum_anticomm(x, z).terms
    ident = OperatorSum.identity(1)
    assert not (opsum_mul(ident, x) - x).terms


def test_hermitian_sum_has_hermitian_dense():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 4)
        terms = [(rng.uniform(-2, 2), PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n), 0))
                 for _ in range(4)]
        mat = to_dense(OperatorSum.from_terms(n, terms))
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-14


def test_pruning_threshold():
    a = OperatorSum(2, {(1, 0): 1.0, (2, 1): 1e-16})
    assert len(a) == 1


def test_term_cap_is_reported_error(monkeypatch):
    big = OperatorSum(6, {(i, 0): 1.0 for i in range(1, 40)})
    monkeypatch.setattr(paulis, "TERM_CAP", 100)
    for product in (opsum_mul, opsum_comm, opsum_anticomm):
        with pytest.raises(TermBudgetError):
            product(big, big)


# The kernel against a pair-by-pair reference built from ``multiply``

PRODUCTS = ((opsum_mul, None, 1.0), (opsum_comm, 1, 2.0), (opsum_anticomm, 0, 2.0))


def pairwise_reference(a, b, parity, factor):
    """factor * sum over term pairs of multiply(p, q); with ``parity`` 1 only
    anticommuting pairs, with 0 only commuting ones."""
    acc = {}
    for (x1, z1), c1 in a:
        p = PauliTerm(a.n, x1, z1)
        for (x2, z2), c2 in b:
            q = PauliTerm(b.n, x2, z2)
            if parity is not None and commutes(p, q) == (parity == 1):
                continue
            r = multiply(p, q)
            acc[(r.x, r.z)] = acc.get((r.x, r.z), 0.0) + factor * c1 * c2 * r.phase
    return OperatorSum(a.n, acc)


def assert_matches_reference(got, a, b, parity, factor):
    want = pairwise_reference(a, b, parity, factor)
    assert set(k for k, _ in got) == set(k for k, _ in want)
    scale = max(factor * a.abs_sum() * b.abs_sum(), 1e-300)
    assert (got - want).max_abs_coeff() <= 1e-13 * scale


def edge_opsum(rng, n, nterms):
    """Random sum over strings on the two lowest and three highest qubits
    only, so that many products share their low words and differ in the
    high ones."""
    spots = sorted({q for q in (0, 1, n - 3, n - 2, n - 1) if 0 <= q < n})
    terms = {}
    for _ in range(nterms):
        x = sum(rng.getrandbits(1) << q for q in spots)
        z = sum(rng.getrandbits(1) << q for q in spots)
        terms[(x, z)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return OperatorSum(n, terms)


@pytest.mark.parametrize("n", [0, 1, 17, 32, 33, 64, 65, 130])
def test_kernel_matches_pairwise_reference(n):
    rng = random.Random(1000 + n)
    for draw in (random_opsum, edge_opsum) * 3:
        a = draw(rng, n, rng.randint(1, 25))
        b = draw(rng, n, rng.randint(1, 25))
        for product, parity, factor in PRODUCTS:
            assert_matches_reference(product(a, b), a, b, parity, factor)
            assert_matches_reference(product(a, a), a, a, parity, factor)


def test_kernel_on_empty_sums():
    rng = random.Random(3)
    a = random_opsum(rng, 5, 7)
    empty = OperatorSum.zero(5)
    for product, _, _ in PRODUCTS:
        for x, y in ((a, empty), (empty, a), (empty, empty)):
            assert len(product(x, y)) == 0


def test_kernel_across_chunks(monkeypatch):
    """Sums carried from block to block: 300 x 300 terms on 5 qubits fill
    two blocks of the real size, and a block of 7 pairs slices ``b`` too."""
    rng = random.Random(8)
    a = random_opsum(rng, 5, 300)
    b = random_opsum(rng, 5, 300)
    assert len(a) * len(b) > 1 << 16
    assert_matches_reference(opsum_mul(a, b), a, b, None, 1.0)
    monkeypatch.setattr(paulis, "_CHUNK_PAIRS", 7)
    for _ in range(10):
        a = random_opsum(rng, 33, rng.randint(1, 20))
        b = random_opsum(rng, 33, rng.randint(1, 20))
        for product, parity, factor in PRODUCTS:
            assert_matches_reference(product(a, b), a, b, parity, factor)


# Batched passes against the products taken one pair at a time

BATCHED = ((opsum_mul_batch, None, 1.0), (opsum_comm_batch, 1, 2.0),
           (opsum_anticomm_batch, 0, 2.0))


def assert_equals_pairwise(got, a, b, parity, factor):
    """The strings of ``pairwise_product`` after pruning, and its
    coefficients to 1e-15 of the 1-norm factor |a|_1 |b|_1 that bounds
    each of them."""
    want = pairwise_product(a, b, parity, factor)
    assert got.terms.keys() == want.terms.keys()
    scale = factor * a.abs_sum() * b.abs_sum()
    assert all(abs(got.terms[k] - c) <= 1e-15 * scale for k, c in want)


def batch_operands(rng, draw, n):
    """Left and right factors of a batch: distinct sums, one sum twice on
    each side, a sum over the strings of another (as the modes share
    theirs), and an empty sum."""
    shared = draw(rng, n, 12)
    lefts = [draw(rng, n, rng.randint(1, 12)) for _ in range(3)] + [shared, shared]
    lefts[1] = OperatorSum(n, {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for key in lefts[0].terms})
    rights = [draw(rng, n, rng.randint(1, 12)) for _ in range(2)]
    rights += [shared, OperatorSum.zero(n), shared]
    return lefts, rights


@pytest.mark.parametrize("n", [0, 3, 31, 33, 40, 65])
def test_batched_pass_equals_the_pairs_one_at_a_time(n):
    rng = random.Random(2000 + n)
    for draw in (random_opsum, edge_opsum):
        lefts, rights = batch_operands(rng, draw, n)
        for batch, parity, factor in BATCHED:
            got = batch(lefts, rights)
            assert len(got) == len(lefts)
            for row, a, b in zip(got, lefts, rights):
                assert_equals_pairwise(row, a, b, parity, factor)
            # one sum on a side serves every row
            for row, b in zip(batch([lefts[0]] * len(rights), rights), rights):
                assert_equals_pairwise(row, lefts[0], b, parity, factor)
            assert batch([], []) == []


def test_batched_pass_across_blocks(monkeypatch):
    """Three rows over more than 2^16 pairs of strings, each side's sums
    on the same strings of 5 qubits, run a row at a time over blocks of
    2^16 pairs and equal the pairs one at a time."""
    rng = random.Random(8)

    def rows(strings):
        return [OperatorSum(5, {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for key in strings.terms}) for _ in range(3)]

    lefts, rights = rows(random_opsum(rng, 5, 320)), rows(random_opsum(rng, 5, 320))
    assert len(lefts[0]) * len(rights[0]) > 1 << 16
    blocks = []
    reduce = paulis._reduce
    monkeypatch.setattr(paulis, "_reduce", lambda *a: blocks.append(1) or reduce(*a))
    for batch, parity, factor in BATCHED:
        blocks.clear()
        got = batch(lefts, rights)
        assert len(blocks) == 3 * -(-len(lefts[0]) * len(rights[0]) // (1 << 16))
        for row, a, b in zip(got, lefts, rights):
            assert_equals_pairwise(row, a, b, parity, factor)


def test_batched_pass_at_the_term_cap(monkeypatch):
    """The cap bounds the pairs of each row, those of the union of each
    side's strings, as it bounds a plain product: a batch of many rows at
    the cap runs, and one pair more is refused before any block."""
    rng = random.Random(9)
    lefts = [random_opsum(rng, 6, 10) for _ in range(3)]
    rights = [random_opsum(rng, 6, 10) for _ in range(3)]
    na = len({key for s in lefts for key in s.terms})
    nb = len({key for s in rights for key in s.terms})
    monkeypatch.setattr(paulis, "TERM_CAP", na * nb)
    for batch, _, _ in BATCHED:
        assert len(batch(lefts, rights)) == 3
    monkeypatch.setattr(paulis, "TERM_CAP", na * nb - 1)
    monkeypatch.setattr(paulis, "_reduce", None)  # no block may run
    for batch, _, _ in BATCHED:
        with pytest.raises(TermBudgetError, match=f"product of {na} x {nb} term pairs"):
            batch(lefts, rights)


@pytest.mark.parametrize("n", [3, 33, 65])
def test_string_basis_commutators_equal_opsum_comm(n):
    """Commutators of vectors over a growing list of strings, numbered by
    their keys of one, two or three words, equal ``opsum_comm`` of the
    sums the vectors stand for, bit for bit."""
    rng = random.Random(300 + n)
    h = edge_opsum(rng, n, 10)
    start = PauliTerm(n, 1, 1 << (n - 1))
    basis = StringBasis(start)
    vector = np.ones(1, dtype=complex)
    seen = [(start.x, start.z)]
    for _ in range(5):
        want = opsum_comm(h, OperatorSum(n, dict(zip(seen, vector.tolist()))))
        got = basis.comm(h, vector)
        strings = basis.strings()
        assert len(got) == len(basis) == len(strings) and strings[:len(seen)] == seen
        assert {s: c for s, c in zip(strings, got.tolist()) if c} == want.terms
        seen = strings
        vector = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in seen])
        vector[rng.randrange(len(seen))] = 1e-15  # at most PRUNE_TOL: left out


def test_dense_cap():
    for n in (14, 15):
        with pytest.raises(DenseCapError):
            to_dense(OperatorSum.identity(n))


def test_abs_sum_bounds_operator_norm():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 6)
        a = random_opsum(rng, n, rng.randint(1, 12))
        assert a.abs_sum() >= np.linalg.norm(to_dense(a), 2) - 1e-12


def test_dagger_and_hermiticity_flags():
    t = P(2, {0: "X", 1: "Y"})
    assert t.phase_pow in (0, 2)
    it = PauliTerm(2, t.x, t.z, 1)
    assert it.phase_pow not in (0, 2)
    a = (1.0 + 2.0j) * OperatorSum.from_term(t)
    assert np.allclose(to_dense(a.dagger()), to_dense(a).conj().T)
