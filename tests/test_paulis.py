"""Pauli algebra: multiplication table, phases, and the dense backend."""

import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import opsum_mul, pairwise_product, to_dense, transfer_at
from ffsolve import paulis
from ffsolve.errors import DenseCapError, TermBudgetError
from ffsolve.paulis import (
    PRUNE_TOL,
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
from ffsolve.solver import TransferOperator

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {(0, 0): I2, (1, 0): X, (1, 1): Y, (0, 1): Z}


def kron_oracle(term: PauliTerm) -> np.ndarray:
    """Independent dense realization: explicit Kronecker product, qubit 0
    least significant."""
    mats = [SINGLE[((term.x >> q) & 1, (term.z >> q) & 1)] for q in range(term.n)]
    return reduce(np.kron, reversed(mats), np.eye(1, dtype=complex))


def P(n, ops):
    return PauliTerm.from_ops(n, ops)


def test_single_qubit_table():
    x, y, z = P(1, {0: "X"}), P(1, {0: "Y"}), P(1, {0: "Z"})
    assert multiply(x, y) == (1, z)      # XY = iZ
    assert multiply(x, z) == (3, y)      # XZ = -iY
    assert multiply(z, x) == (1, y)      # ZX = iY
    assert multiply(y, z) == (1, x)      # YZ = iX
    assert multiply(x, x) == (0, PauliTerm.identity(1))


def test_two_qubit_product_example():
    # (X0 Y1)(Z0 Z1) = (-iY0)(iX1) = +Y0 X1
    a = P(2, {0: "X", 1: "Y"})
    b = P(2, {0: "Z", 1: "Z"})
    assert multiply(a, b) == (0, P(2, {0: "Y", 1: "X"}))


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


def times(a, b):
    """The product of i^ea p and i^eb q, given as (ea, p) and (eb, q), in the
    same form."""
    e, r = multiply(a[1], b[1])
    return (a[0] + b[0] + e) & 3, r


def test_multiply_associative_bit_for_bit():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 6)
        terms = [(rng.randrange(4), PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n)))
                 for _ in range(3)]
        p, q, r = terms
        assert times(times(p, q), r) == times(p, times(q, r))


def test_commutes_matches_product_sign():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        p = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n))
        (epq, pq), (eqp, qp) = multiply(p, q), multiply(q, p)
        assert pq == qp
        sign = (epq - eqp) % 4
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
        t = PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n))
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
        terms = [(rng.uniform(-2, 2), PauliTerm(n, rng.getrandbits(n), rng.getrandbits(n)))
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
    anticommuting pairs, with 0 only commuting ones.  A dict of the terms,
    with the coefficients of at most PRUNE_TOL |factor| max|a| max|b|
    dropped, as the kernel drops them."""
    acc = {}
    for (x1, z1), c1 in a:
        p = PauliTerm(a.n, x1, z1)
        for (x2, z2), c2 in b:
            q = PauliTerm(b.n, x2, z2)
            if parity is not None and commutes(p, q) == (parity == 1):
                continue
            e, r = multiply(p, q)
            acc[(r.x, r.z)] = acc.get((r.x, r.z), 0.0) + factor * c1 * c2 * (1, 1j, -1, -1j)[e]
    cut = PRUNE_TOL * abs(factor) * a.max_abs_coeff() * b.max_abs_coeff()
    return {key: c for key, c in acc.items() if abs(c) > cut}


def assert_matches_reference(got, a, b, parity, factor):
    want = pairwise_reference(a, b, parity, factor)
    assert got.terms.keys() == want.keys()
    scale = max(factor * a.abs_sum() * b.abs_sum(), 1e-300)
    assert all(abs(got.terms[k] - c) <= 1e-13 * scale for k, c in want.items())


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
    empty = OperatorSum(5, {})
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
    assert got.terms.keys() == want.keys()
    scale = factor * a.abs_sum() * b.abs_sum()
    assert all(abs(got.terms[k] - c) <= 1e-15 * scale for k, c in want.items())


def batch_operands(rng, draw, n):
    """Left and right factors of a batch: distinct sums, one sum twice on
    each side, a sum over the strings of another (as the modes share
    theirs), and an empty sum."""
    shared = draw(rng, n, 12)
    lefts = [draw(rng, n, rng.randint(1, 12)) for _ in range(3)] + [shared, shared]
    lefts[1] = OperatorSum(n, {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for key in lefts[0].terms})
    rights = [draw(rng, n, rng.randint(1, 12)) for _ in range(2)]
    rights += [shared, OperatorSum(n, {}), shared]
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


def sigma_terms(strings, vector):
    """{(x, z): coefficient of sigma(x, z)} of the X^x Z^z coefficients
    ``vector`` over ``strings``, turned by the exact phases i^-|x & z|."""
    return {(x, z): c * (1, -1j, -1, 1j)[(x & z).bit_count() % 4]
            for (x, z), c in zip(strings, vector.tolist())}


@pytest.mark.parametrize("n", [3, 33, 65])
def test_string_basis_commutators_equal_opsum_comm(n):
    """Commutators of vectors of X^x Z^z coefficients over a growing list
    of strings, numbered by their keys of one, two or three words, equal
    ``opsum_comm`` of the sums the vectors stand for, bit for bit: the
    sigma coefficients of both sides are turned from the vectors' by exact
    phases."""
    rng = random.Random(300 + n)
    h = edge_opsum(rng, n, 10)
    start = PauliTerm(n, 1, 1 << (n - 1))
    basis = StringBasis(start)
    vector = np.ones(1, dtype=complex)
    seen = [(start.x, start.z)]
    for _ in range(5):
        want = opsum_comm(h, OperatorSum(n, sigma_terms(seen, vector)))
        got = basis.comm(h, vector)
        strings = basis.table.strings()
        assert len(got) == len(basis) == len(strings) and strings[:len(seen)] == seen
        assert {s: c for s, c in sigma_terms(strings, got).items() if c} == want.terms
        seen = strings
        vector = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in seen])
        vector[rng.randrange(len(seen))] = 1e-15  # at most PRUNE_TOL max|vector|: left out


@pytest.mark.parametrize("n", [3, 33, 65])
def test_merged_tables_and_a_string_basis_number_new_strings_alike(n):
    """A ``StringBasis`` grown by a commutator and its earlier table merged
    with the table of the same commutator, on keys of one, two or three
    words, hold the same strings in the same order, and the product's
    coefficients land in the same columns."""
    rng = random.Random(400 + n)
    basis = StringBasis(PauliTerm(n, rng.getrandbits(n) | 1, rng.getrandbits(n)))
    h = random_opsum(rng, n, 12)
    for _ in range(4):
        before = basis.table
        vector = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(len(basis))])
        got = basis.comm(h, vector)
        product = opsum_comm(h, OperatorSum._on(before, vector))
        table, cols = before.merged(product.table)
        assert table.strings() == basis.table.strings()
        assert len(table) > len(before)
        assert got[cols].tolist() == product.row.tolist()


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
    a = (1.0 + 2.0j) * OperatorSum.from_term(t)
    assert np.allclose(to_dense(a.dagger()), to_dense(a).conj().T)


# Sums on shared and on separate tables against the dict arithmetic they replace

def dict_sum(a, b, sign):
    """a + sign b as the dicts of the terms add, pruned as the constructor prunes."""
    acc = dict(a.terms)
    for key, c in b.terms.items():
        acc[key] = acc.get(key, 0.0) + sign * c
    cut = PRUNE_TOL * max(map(abs, acc.values()), default=0.0)
    return {key: c for key, c in acc.items() if abs(c) > cut}


def dict_evaluate(charges, u):
    """sum_j (-u)^j Q^(j), its terms added charge by charge as a dict,
    pruned as the constructor prunes."""
    acc, coef = {}, 1.0
    for q in charges:
        for key, c in q.terms.items():
            acc[key] = acc.get(key, 0.0) + coef * c
        coef *= -u
    cut = PRUNE_TOL * max(map(abs, acc.values()), default=0.0)
    return {key: c for key, c in acc.items() if abs(c) > cut}


def overlapping_dicts(rng, n, count):
    """``count`` dicts of at most 8 terms drawn from one pool of 10 strings,
    so that they share some strings; some may be empty."""
    pool = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(10)]
    return [{key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for key in rng.sample(pool, rng.randint(0, 8))} for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 33, 65]), st.booleans(), st.integers(0, 2**32))
def test_linear_algebra_equals_the_dict_arithmetic(n, shared, seed):
    """Sums, differences, real multiples, ``dagger`` and T(u) of sums on one
    table (``combinations`` of one sum a row) and on tables of their own,
    with keys of one, two and three words, equal the dict arithmetic bit
    for bit; complex multiples equal it to rounding."""
    rng = random.Random(seed)
    dicts = overlapping_dicts(rng, n, 3)
    sums = [OperatorSum(n, d) for d in dicts]
    if shared:
        sums = OperatorSum.combinations([[(1.0, s)] for s in sums])
        assert len({id(s.table) for s in sums}) == 1
    a, b, c = sums
    assert [s.terms for s in sums] == [OperatorSum(n, d).terms for d in dicts]
    for x, y in ((a, b), (b, c), (c, a), (a, a)):
        assert (x + y).terms == dict_sum(x, y, 1.0)
        assert (x - y).terms == dict_sum(x, y, -1.0)
    real = rng.uniform(-2, 2)
    assert (real * a).terms == {key: v * real for key, v in a.terms.items()}
    assert (-b).terms == {key: -v for key, v in b.terms.items()}
    scalar = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))  # a fused multiply-add may round once
    got, want = (scalar * c).terms, {key: v * scalar for key, v in c.terms.items()}
    assert got.keys() == want.keys()
    assert all(abs(got[key] - v) <= 1e-15 * abs(v) for key, v in want.items())
    assert a.dagger().terms == {key: v.conjugate() for key, v in a.terms.items()}
    t = TransferOperator(n, (a, b, c))
    for u in (0.37, -1.1):
        assert transfer_at(t, u).terms == dict_evaluate(t.charges, u)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 33, 65]), st.booleans(), st.integers(0, 2**32))
def test_batched_products_on_shared_and_separate_tables(n, shared, seed):
    """Batched products of sums on one table, on separate tables, and on the
    table of an earlier product pass equal the pairs one at a time and the
    pair-by-pair reference, at the tolerances of the tests above."""
    rng = random.Random(seed)
    dicts = overlapping_dicts(rng, n, 3)
    sums = [OperatorSum(n, d) for d in dicts]
    if shared:
        sums = OperatorSum.combinations([[(1.0, s)] for s in sums])
    lefts, rights = sums + sums[:1], sums[1:] + sums[:2]
    passed = opsum_mul_batch(lefts, rights)  # these share the table of one pass
    for batch, parity, factor in BATCHED:
        for x_side, y_side in ((lefts, rights), (passed, lefts), (passed, passed[::-1])):
            for row, x, y in zip(batch(x_side, y_side), x_side, y_side):
                assert_equals_pairwise(row, x, y, parity, factor)
                assert_matches_reference(row, x, y, parity, factor)


def test_combinations_hold_a_row_per_row():
    """Weighted row sums, as T(+-u) on a grid takes them, add each row's
    sums in turn: the peak allocation is the sums stacked on their table and
    a few rows, never rows x sums x strings (41 MB here)."""
    import tracemalloc

    rng = random.Random(5)
    keys = list({(rng.getrandbits(12), rng.getrandbits(12)) for _ in range(5000)})[:4000]
    dicts = [{key: complex(rng.uniform(-1, 1), 0.5) for key in keys} for _ in range(40)]
    sums = OperatorSum.combinations([[(1.0, OperatorSum(12, d))] for d in dicts])
    rows = [[(rng.uniform(-1, 1), s) for s in sums[i:i + 5]] for i in range(0, 40, 5)] * 2
    tracemalloc.start()
    got = OperatorSum.combinations(rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * (len(sums) + len(rows)) * len(keys) * 16
    want = reduce(lambda acc, pair: acc + pair[0] * pair[1], rows[3][1:], rows[3][0][0] * rows[3][0][1])
    assert got[3].terms.keys() == want.terms.keys()
    assert all(abs(got[3].terms[k] - c) <= 1e-15 * 6 for k, c in want.terms.items())
