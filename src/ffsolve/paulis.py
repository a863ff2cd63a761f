"""Exact algebra of n-qubit Pauli strings and sparse complex sums of them.

Representation
--------------
A Pauli string is encoded symplectically by two n-bit integers ``x`` and
``z`` (bit q set means an X / Z factor on qubit q) together with a phase
from {1, i, -1, -i} stored as an exponent of i.  The phase is defined
relative to the canonical Hermitian string

    sigma(x, z) = i^{|x & z|} X^x Z^z ,

which is the tensor product of single-qubit I, X, Y, Z with Y wherever
both bits are set.  The fixed multiplication convention is XZ = -iY
(equivalently XY = iZ); it is tested against the dense backend.

``OperatorSum`` stores a sparse map from canonical strings (x, z) to
complex coefficients, with phases folded into the coefficients.  All
values are immutable after construction and every operation is pure.

Products
--------
Every product of sums runs through one numpy kernel, and every pass of
the kernel is a batch: each operand carries rows of coefficients over one
packed set of strings, and row r of the result is the product of row r
of the left operand with row r of the right one (an operand of one row
serves every row).  A plain product is a batch of one row.  A sum is
packed once, on first use, into uint64 word arrays with one column per
term: x and z in ceil(n/64) words each, and the sort key x | z << n in
ceil(2n/64) words (so up to 32 qubits sort on one word); every word
count has at least one word, and any n is supported.  Several distinct
sums in one operand share the union of their strings, a sum holding
zeros where it has no term.  Coefficients are stored for X^x Z^z, that
is c i^|x & z|, because

    X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1 ^ x2) Z^(z1 ^ z2) ,

so a pair needs one XOR per key word and the parity of one popcount
(``np.bitwise_count``); the factor i^-|x3 & z3| back to sigma(x3, z3)
is applied once per distinct output string.  Together these give the
phase (|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|) mod 4 of ``multiply``.
Commutators and anticommutators keep only the pairs whose symplectic
product |x1&z2| + |z1&x2| is odd or even.  The pair keys, signs and
parity mask, and the sort that sums equal strings, are formed once per
block for all the rows it holds; ``opsum_mul_batch`` and its siblings
expose the batch, and ``StringBasis`` takes commutators of vectors over
a growing list of strings without building a dict of either sum.

Pairs are formed in blocks of about 2^16 (rows of ``a`` against all of
``b``, or slices of ``b`` when it alone is longer).  The rows of a batch
share a block while it holds all their pairs; a product of more pairs
runs a row at a time, as a plain product does, so memory stays flat
whatever the sizes.  The pair count of a row is checked against
``TERM_CAP`` before anything is allocated.  Each block is reduced by one
sort on the key, and the running sums enter the next block's reduction
as entries of their own.

Basis-state convention for the dense backend: qubit q corresponds to bit
q of the computational-basis index (little-endian), so Z on qubit 0 of a
one-qubit system is diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import TermBudgetError

PRUNE_TOL = 1e-14
TERM_CAP = 10**7
DENSE_QUBIT_CAP = 13
_CHUNK_PAIRS = 1 << 16

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_AXIS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_AXIS_NAME = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliTerm:
    """A single n-qubit Pauli string with an exact phase.

    ``phase_pow`` is the exponent e in i^e, e in {0,1,2,3}.  Terms with
    e in {0,2} are Hermitian, e in {1,3} anti-Hermitian.
    """

    n: int
    x: int
    z: int
    phase_pow: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the declared qubit range")
        if not 0 <= self.phase_pow < 4:
            object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_pow]

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @classmethod
    def identity(cls, n: int) -> "PauliTerm":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_ops(cls, n: int, ops: Mapping[int, str]) -> "PauliTerm":
        """Build from a map {qubit index: 'X'|'Y'|'Z'}."""
        x = z = 0
        for q, axis in ops.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit index {q} out of range for n={n}")
            xb, zb = _AXIS[axis.upper()]
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    def label(self) -> str:
        """Human-readable form like 'X0 Y2'; 'I' for the identity."""
        parts = []
        for q in range(self.n):
            xb = (self.x >> q) & 1
            zb = (self.z >> q) & 1
            if xb or zb:
                parts.append(f"{_AXIS_NAME[(xb, zb)]}{q}")
        return " ".join(parts) if parts else "I"

    def __repr__(self):
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase_pow]
        return f"{pre}{self.label()}"


def _product_phase_pow(x1: int, z1: int, x2: int, z2: int) -> int:
    """Phase exponent of sigma(x1,z1)·sigma(x2,z2) relative to sigma(x1^x2, z1^z2)."""
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    e = (x1 & z1).bit_count() + (x2 & z2).bit_count()
    e += 2 * (z1 & x2).bit_count()
    e -= (x3 & z3).bit_count()
    return e & 3


def multiply(p: PauliTerm, q: PauliTerm) -> PauliTerm:
    """Exact product pq in the Pauli group (XZ = -iY convention)."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    e = (p.phase_pow + q.phase_pow + _product_phase_pow(p.x, p.z, q.x, q.z)) & 3
    return PauliTerm(p.n, p.x ^ q.x, p.z ^ q.z, e)


def commutes(p: PauliTerm, q: PauliTerm) -> bool:
    """True iff the symplectic inner product of the labels is even."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    return (((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1) == 0


class OperatorSum:
    """Sparse complex-weighted sum of canonical Pauli strings.

    Terms map (x, z) -> coefficient; coefficients of at most ``PRUNE_TOL``
    are dropped at construction.  Instances are treated as immutable.
    """

    __slots__ = ("n", "terms", "_packed")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex] | None = None):
        self.n = n
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            for key, c in terms.items():
                if abs(c) > PRUNE_TOL:
                    clean[key] = complex(c)
        self.terms = clean
        self._packed: _Packed | None = None

    @classmethod
    def _of_clean(cls, n: int, terms: dict[tuple[int, int], complex]) -> "OperatorSum":
        """Wrap a dict of complex coefficients that are already pruned."""
        out = cls.__new__(cls)
        out.n, out.terms, out._packed = n, terms, None
        return out

    def _pack(self) -> "_Packed":
        """The terms as word arrays with one coefficient row, built on first
        use and kept: the sum does not change."""
        if self._packed is None:
            self._packed = _pack_strings(self.n, list(self.terms), np.array(
                [[c * _PHASES[(x & z).bit_count() & 3] for (x, z), c in self.terms.items()]],
                dtype=complex))
        return self._packed

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "OperatorSum":
        return cls(n, {(0, 0): 1.0 + 0.0j})

    @classmethod
    def zero(cls, n: int) -> "OperatorSum":
        return cls(n, {})

    @classmethod
    def from_term(cls, term: PauliTerm) -> "OperatorSum":
        return cls(term.n, {(term.x, term.z): term.phase})

    @classmethod
    def from_terms(cls, n: int, pairs: Iterable[tuple[complex, PauliTerm]]) -> "OperatorSum":
        acc: dict[tuple[int, int], complex] = {}
        for coeff, term in pairs:
            key = (term.x, term.z)
            acc[key] = acc.get(key, 0.0) + coeff * term.phase
        return cls(n, acc)

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self.terms.items())

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def abs_sum(self) -> float:
        """Pauli 1-norm sum |c|.  Every string has operator norm 1, so this
        bounds the operator norm from above."""
        return sum(abs(c) for c in self.terms.values())

    # -- linear structure ----------------------------------------------

    def _check(self, other: "OperatorSum"):
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0.0) + c
        return OperatorSum(self.n, acc)

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0.0) - c
        return OperatorSum(self.n, acc)

    def __mul__(self, scalar: complex) -> "OperatorSum":
        return OperatorSum(self.n, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorSum":
        return self * (-1.0)

    def dagger(self) -> "OperatorSum":
        """Hermitian conjugate (canonical strings are Hermitian)."""
        return OperatorSum(self.n, {k: c.conjugate() for k, c in self.terms.items()})


class _Packed(NamedTuple):
    """Strings as uint64 word arrays, one column per string, and rows of
    coefficients over them, one row per sum of a batch.

    ``key`` holds the 2n bits of x | z << n, the key the reduction sorts on;
    ``x`` and ``z`` hold x and z, which the sign and the parity read.  Row r
    of ``coef`` holds the coefficients of X^x Z^z, that is c i^|x & z|, of
    the r-th sum.
    """

    key: np.ndarray
    x: np.ndarray
    z: np.ndarray
    coef: np.ndarray


_WORD = (1 << 64) - 1
_PHASE_TABLE = np.array(_PHASES)


def _word_count(bits: int) -> int:
    return max(1, -(-bits // 64))


def _words(values: list[int], bits: int) -> np.ndarray:
    """Ints below 2^bits as an array of shape (words, len(values)), word w
    holding bits 64w..64w+63."""
    count = _word_count(bits)
    if count == 1:
        return np.array([values], dtype=np.uint64)
    return np.array([[v >> s & _WORD for v in values] for s in range(0, 64 * count, 64)],
                    dtype=np.uint64)


def _pack_strings(n: int, strings: list[tuple[int, int]], coef: np.ndarray) -> _Packed:
    """``strings`` as word arrays, with the rows ``coef`` of X^x Z^z
    coefficients over them."""
    t, w = len(strings), _word_count(n)
    words = _words([x | z << n for x, z in strings] + [x for x, _ in strings]
                   + [z for _, z in strings], 2 * n)
    return _Packed(words[:, :t], words[:w, t:2 * t], words[:w, 2 * t:], coef)


def _split(n: int, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and z words of key columns: the low n bits, and the bits from n up."""
    w = _word_count(n)
    q, r = divmod(n, 64)
    x = key[:w].copy()
    if r:
        x[-1] &= np.uint64((1 << r) - 1)
    z = key[q:q + w] >> np.uint64(r)
    if r:
        high = key[q + 1:q + 1 + w] << np.uint64(64 - r)
        z[:len(high)] |= high
    return x, z


def _and_pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i & v_j for every pair of columns, its words folded by XOR, which
    keeps the parity of the popcount."""
    acc = u[0][:, None] & v[0]
    for w in range(1, len(u)):
        acc ^= u[w][:, None] & v[w]
    return acc


def _reduce(key: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficient columns of entries with equal key, in the order
    of the keys, word 0 first."""
    words = len(key)
    order = np.argsort(key[-1])
    for w in range(words - 2, -1, -1):  # only the passes after the first need to be stable
        order = order[np.argsort(key[w, order], kind="stable")]
    key = np.take(key, order, axis=1)  # faster than key[:, order] on a row of many columns
    start = np.empty(key.shape[1], dtype=bool)
    start[:1] = True
    np.not_equal(key[0, 1:], key[0, :-1], out=start[1:])
    for w in range(1, words):
        start[1:] |= key[w, 1:] != key[w, :-1]
    first = np.flatnonzero(start)
    return np.take(key, first, axis=1), np.add.reduceat(np.take(coef, order, axis=1), first, axis=1)


def _kernel(a: _Packed, b: _Packed, parity: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Key columns, and rows of X^x Z^z coefficients, of the products of the
    terms of ``a`` and ``b`` summed per string: row r sums the products of
    row r of ``a`` with row r of ``b`` (an operand of one row serves every
    row) over every pair when ``parity`` is None, else over the pairs whose
    symplectic product has that parity (1: anticommuting, 0: commuting).

    The pair keys, signs and parity mask, and the sort, are formed once a
    block for all the rows; a block holds the coefficients of every row,
    so callers batch rows only while their pairs fit one block."""
    batch = max(len(a.coef), len(b.coef))
    na, nb = a.key.shape[1], b.key.shape[1]
    if na * nb > TERM_CAP:  # the work of each row, as for a plain product
        raise TermBudgetError(f"product of {na} x {nb} term pairs exceeds cap {TERM_CAP}")
    cols = min(max(nb, 1), _CHUNK_PAIRS)
    rows = _CHUNK_PAIRS // cols
    sums = None
    for i in range(0, na, rows):
        ia = slice(i, i + rows)
        for j in range(0, nb, cols):
            jb = slice(j, j + cols)
            # X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2)
            zx = _and_pairs(a.z[:, ia], b.x[:, jb])
            coef = a.coef[:, ia, None] * b.coef[:, None, jb]
            np.negative(coef, out=coef, where=(np.bitwise_count(zx) & 1).view(bool))
            coef = coef.reshape(batch, -1)
            key = (a.key[:, ia, None] ^ b.key[:, None, jb]).reshape(len(a.key), -1)
            if parity is not None:
                zx ^= _and_pairs(a.x[:, ia], b.z[:, jb])  # |x1 & z2| + |z1 & x2|
                keep = np.flatnonzero((np.bitwise_count(zx) & 1).ravel() == parity)
                key, coef = np.take(key, keep, axis=1), np.take(coef, keep, axis=1)
            if sums:  # the running sums join the reduction as entries of their own
                key = np.concatenate([sums[0], key], axis=1)
                coef = np.concatenate([sums[1], coef], axis=1)
            sums = _reduce(key, coef)
    if sums is None:  # the product of no pairs
        sums = (np.zeros((len(a.key), 0), dtype=np.uint64), np.zeros((batch, 0), dtype=complex))
    return sums


def _strings(n: int, key: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """(x, z) of each key column, and the factor i^-|x & z| that turns a
    coefficient of X^x Z^z into one of sigma(x, z)."""
    mask = (1 << n) - 1
    strings = [(v & mask, v >> n) for v in _ints(key)]
    return strings, np.array([_PHASES[-(x & z).bit_count() & 3] for x, z in strings],
                             dtype=complex)


def _ints(words: np.ndarray) -> list[int]:
    """The ints whose words are the columns of ``words``; inverse of ``_words``."""
    values = words[-1].tolist()
    for row in words[-2::-1]:
        values = [v << 64 | c for v, c in zip(values, row.tolist())]
    return values


def _pack_rows(sums: Sequence[OperatorSum]) -> _Packed:
    """The strings of ``sums`` packed once, with a coefficient row per sum.

    A sum met alone keeps its packing for later products; several distinct
    sums share the union of their strings."""
    distinct = list({id(s): s for s in sums}.values())
    if len(distinct) == 1:
        packed = distinct[0]._pack()
    else:
        index: dict[tuple[int, int], int] = {}
        cols = [[index.setdefault(k, len(index)) for k in s.terms] for s in distinct]
        strings = list(index)
        coef = np.zeros((len(distinct), len(strings)), dtype=complex)
        for row, s, c in zip(coef, distinct, cols):
            row[c] = list(s.terms.values())
        coef *= _PHASE_TABLE[[(x & z).bit_count() & 3 for x, z in strings]]
        packed = _pack_strings(distinct[0].n, strings, coef)
    if len(distinct) == len(sums):
        return packed
    row = {id(s): r for r, s in enumerate(distinct)}
    return packed._replace(coef=packed.coef[[row[id(s)] for s in sums]])


def _products(lefts: Sequence[OperatorSum], rights: Sequence[OperatorSum],
              parity: int | None, factor: float) -> list[OperatorSum]:
    """factor * sum of the string products of lefts[r] and rights[r] for
    every r, in one pass: over every pair when ``parity`` is None, else
    over the pairs with that symplectic parity.

    Rows share the kernel's blocks while a block holds all their pairs; a
    product of more pairs than a block runs a row at a time, as a plain
    product would, so that no block re-sums the running sums of many rows."""
    if len(lefts) != len(rights):
        raise ValueError(f"{len(lefts)} left factors against {len(rights)} right ones")
    if not lefts:
        return []
    n = lefts[0].n
    for s in (*lefts, *rights):
        lefts[0]._check(s)
    a, b = _pack_rows(lefts), _pack_rows(rights)
    group = max(1, _CHUNK_PAIRS // max(1, a.key.shape[1] * b.key.shape[1]))
    out = []
    for r in range(0, len(lefts), group):
        key, coef = _kernel(_row_group(a, r, group), _row_group(b, r, group), parity)
        coef = factor * coef
        keep = np.abs(coef) > PRUNE_TOL
        used = np.flatnonzero(keep.any(axis=0))
        strings, phase = _strings(n, np.take(key, used, axis=1))
        coef = (np.take(coef, used, axis=1) * phase).tolist()
        out += [OperatorSum._of_clean(n, dict(compress(zip(strings, c), k)))
                for c, k in zip(coef, np.take(keep, used, axis=1).tolist())]
    return out


def _row_group(packed: _Packed, start: int, count: int) -> _Packed:
    """Rows start..start+count-1 of ``packed``; an operand of one row serves them all."""
    if len(packed.coef) == 1:
        return packed
    return packed._replace(coef=packed.coef[start:start + count])


def opsum_comm(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Commutator [a, b]; only anticommuting string pairs contribute."""
    return _products([a], [b], 1, 2.0)[0]


def opsum_mul_batch(lefts: Sequence[OperatorSum],
                    rights: Sequence[OperatorSum]) -> list[OperatorSum]:
    """The products lefts[r] rights[r], as one batch."""
    return _products(lefts, rights, None, 1.0)


def opsum_comm_batch(lefts: Sequence[OperatorSum],
                     rights: Sequence[OperatorSum]) -> list[OperatorSum]:
    """The commutators [lefts[r], rights[r]], as one batch."""
    return _products(lefts, rights, 1, 2.0)


def opsum_anticomm_batch(lefts: Sequence[OperatorSum],
                         rights: Sequence[OperatorSum]) -> list[OperatorSum]:
    """The anticommutators {lefts[r], rights[r]}, as one batch."""
    return _products(lefts, rights, 0, 2.0)


class StringBasis:
    """Pauli strings numbered in order of first appearance, kept as the
    kernel's key words, and sums over them as coefficient vectors.

    ``comm`` packs its vector from these arrays and numbers the strings of
    the product by their keys, so no dict of either sum is built."""

    def __init__(self, term: PauliTerm):
        self.n = term.n
        self._key = _words([term.x | term.z << term.n], 2 * term.n)
        self._phase = _PHASE_TABLE[[(term.x & term.z).bit_count() & 3]]  # i^|x & z|
        self._index = {term.x | term.z << term.n: 0}

    def __len__(self) -> int:
        return len(self._index)

    def comm(self, h: OperatorSum, vector: np.ndarray) -> np.ndarray:
        """The coefficients over the strings, the new ones of the product
        appended, of [h, sum_s vector[s] sigma(s)], with the entries of
        ``vector`` and of the product at most PRUNE_TOL left out."""
        used = np.flatnonzero(np.abs(vector) > PRUNE_TOL)
        key = np.take(self._key, used, axis=1)
        op = _Packed(key, *_split(self.n, key), (vector[used] * self._phase[used])[None])
        key, coef = _kernel(h._pack(), op, 1)
        coef = 2.0 * coef[0]
        keep = np.flatnonzero(np.abs(coef) > PRUNE_TOL)
        key, coef = np.take(key, keep, axis=1), coef[keep]
        old = len(self._index)
        cols = [self._index.setdefault(k, len(self._index)) for k in _ints(key)]
        if len(self._index) > old:
            new = key[:, np.greater_equal(cols, old)]
            x, z = _split(self.n, new)
            count = np.bitwise_count(x[0] & z[0])  # |x & z| mod 256
            for w in range(1, len(x)):
                count += np.bitwise_count(x[w] & z[w])
            self._key = np.concatenate([self._key, new], axis=1)
            self._phase = np.concatenate([self._phase, _PHASE_TABLE[count & 3]])
        out = np.zeros(len(self._index), dtype=complex)
        out[cols] = coef * self._phase[cols].conj()
        return out

    def strings(self) -> list[tuple[int, int]]:
        """(x, z) of every string, in order."""
        return _strings(self.n, self._key)[0]


def subset_products(terms: Sequence[tuple[float, PauliTerm]],
                    masks: Iterable[int]) -> list[dict[tuple[int, int], complex]]:
    """For each k, the sum over the masks of k bits of the product of the
    terms they select, coupling and string, taken in ascending index order.

    ``masks`` starts with the empty set and lists every other set after its
    parent, the set without its highest index, so that each product is its
    parent's times one term: one phase rule per set, on integers.  A
    product's coefficient is its coupling product with the phase folded in,
    which multiplies exactly, so every sum is that of the products
    multiplied out set by set, bit for bit.
    """
    masks = iter(masks)
    made = {next(masks): (1.0 + 0.0j, 0, 0)}
    accs: list[dict[tuple[int, int], complex]] = [{(0, 0): 1.0 + 0.0j}]
    factors = [(c * t.phase, t.x, t.z) for c, t in terms]
    for mask in masks:
        top = mask.bit_length() - 1
        c, tx, tz = factors[top]
        pc, px, pz = made[mask ^ (1 << top)]
        key = (px ^ tx, pz ^ tz)
        coef = pc * c * _PHASES[_product_phase_pow(px, pz, tx, tz)]
        made[mask] = (coef, *key)
        k = mask.bit_count()
        if k == len(accs):
            accs.append({})
        accs[k][key] = accs[k].get(key, 0.0) + coef
    return accs


# -- dense backend -----------------------------------------------------

def dense_sums(n: int, strings: Sequence[tuple[int, int]], coefs: np.ndarray) -> np.ndarray:
    """The dense 2^n matrices sum_d coefs[b, d] sigma(strings[d]), one for
    each row b of ``coefs``, stacked along the first axis.

    Column j of sigma(x, z) holds i^|x & z| (-1)^|z & j| in row j ^ x, so
    strings with the same x fill the same entries: they are summed first
    and written once.
    """
    dim = 1 << n
    cols = np.arange(dim)
    xs = np.array([x for x, _ in strings], dtype=np.int64)
    zs = np.array([z for _, z in strings], dtype=np.int64)
    phase = np.array(_PHASES)[np.bitwise_count(xs & zs) & 3]
    out = np.zeros((len(coefs), dim, dim), dtype=complex)
    for x in sorted({x for x, _ in strings}):  # np.unique would import numpy.ma, 1 MB
        group = np.flatnonzero(xs == x)
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[group, None] & cols) & 1)
        out[:, cols ^ x, cols] = coefs[:, group] @ (phase[group, None] * signs)
    return out

