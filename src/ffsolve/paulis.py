"""Exact algebra of n-qubit Pauli strings and sparse complex sums of them.

Representation
--------------
A Pauli string is encoded symplectically by two n-bit integers ``x`` and
``z`` (bit q set means an X / Z factor on qubit q).  It stands for the
canonical Hermitian string

    sigma(x, z) = i^{|x & z|} X^x Z^z ,

which is the tensor product of single-qubit I, X, Y, Z with Y wherever
both bits are set, so a string holds no phase of its own.  A product of
two strings is i^e times a third, and ``multiply`` reports e with it; the
fixed multiplication convention is XZ = -iY (equivalently XY = iZ), and
it is tested against the dense backend.

Every piece of Pauli data has one shape and one convention: a table of
strings and rows of coefficients of X^x Z^z over it, c i^|x & z| for a
term c sigma(x, z), with zeros where a row has no term.  A table holds
its strings as one uint64 word array, one column each: the key x | z << n
in ceil(2n/64) words (up to 32 qubits take one).  An ``OperatorSum`` is a
table and one row, a kernel operand a table and a row per product, and a
``StringBasis`` a growing table whose vectors are rows.  Tables do not
change, and sums built from one source share one: the charges of one
walk over the independent sets (``subset_products``), the vectors over a
``StringBasis``, the rows of one product pass, and a sum's multiples and
conjugate.  Sums on one table stack into a kernel operand, row by row;
another table costs one merge, and every table grows through
``_Table.grown``.  Every weighted sum of sums, ``+`` and ``-`` too, is a
row of ``OperatorSum.combinations``.

sigma coefficients appear only at the edges: the dict {(x, z):
coefficient of sigma(x, z)} that ``OperatorSum`` takes, the same dict
``terms`` builds on first use, for tests and printing, the factors of
``subset_products``, and ``dense_sums``.  The phases i^|x & z| they need
are read off a table's keys on first use.

Products
--------
Every product of sums runs through one numpy kernel, and every pass of
the kernel is a batch: row r of the result is the product of row r of
the left operand with row r of the right one, each operand holding its
sums' rows over the strings some row has.  Because

    X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1 ^ x2) Z^(z1 ^ z2) ,

a pair needs one XOR per key word and the parity of one popcount
(``np.bitwise_count``), and the rows of a pass come back as they are,
over the table of its output keys; the view's factor i^-|x3 & z3| makes
the phase (|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|) mod 4 of ``multiply``.
The sign and the symplectic product |x1&z2| + |z1&x2| are read off the
right operand's key words: the left one's key shifted down by n puts z1
on the x bits, and shifted up by n puts x1 on the z bits.  Commutators
and anticommutators keep only the pairs whose symplectic product is odd
or even.  Pairs are formed in blocks of about 2^16, whose keys, signs,
parity mask and sort serve every row they hold; a batch of more pairs
runs a row at a time, so memory stays flat.  The pair count of a row is
checked against ``TERM_CAP`` first, and the running sums enter the next
block's reduction as entries of their own.

Pruning is relative, so that no result depends on the overall scale of
the couplings: row r of a product drops a coefficient of at most
``PRUNE_TOL`` |factor| max|a_r| max|b_r|, and a sum from a dict or a
walk, a vector or sums one of at most ``PRUNE_TOL`` times its own
largest |coefficient|.

Basis-state convention for the dense backend: qubit q corresponds to bit
q of the computational-basis index (little-endian), so Z on qubit 0 of a
one-qubit system is diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import TermBudgetError

PRUNE_TOL = 1e-14
TERM_CAP = 10**7
DENSE_QUBIT_CAP = 13
_CHUNK_PAIRS = 1 << 16

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_TABLE = np.array(_PHASES)
_WORD = (1 << 64) - 1
_AXIS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_AXIS_NAME = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliTerm:
    """The Hermitian n-qubit Pauli string sigma(x, z) = i^|x & z| X^x Z^z."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the declared qubit range")

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @classmethod
    def identity(cls, n: int) -> "PauliTerm":
        return cls(n, 0, 0)

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

    __repr__ = label


def multiply(p: PauliTerm, q: PauliTerm) -> tuple[int, PauliTerm]:
    """The product pq = i^e r of two strings, as (e, r) with e in 0..3, in
    the XZ = -iY convention: ``multiply(X, Z) == (3, Y)``.  With
    x3 = x1 ^ x2 and z3 = z1 ^ z2, sigma(x1, z1) sigma(x2, z2) is
    i^(|x1 & z1| + |x2 & z2| + 2|z1 & x2| - |x3 & z3|) sigma(x3, z3)."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    x, z = p.x ^ q.x, p.z ^ q.z
    e = ((p.x & p.z).bit_count() + (q.x & q.z).bit_count() + 2 * (p.z & q.x).bit_count()
         - (x & z).bit_count())
    return e & 3, PauliTerm(p.n, x, z)


def commutes(p: PauliTerm, q: PauliTerm) -> bool:
    """True iff the symplectic inner product of the labels is even."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    return (((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1) == 0


class _Table:
    """Strings as word arrays, one column each: the key x | z << n, and the
    phases i^|x & z|, read off the key on first use by the edges that take
    sigma coefficients."""

    __slots__ = ("n", "key", "_phase")

    def __init__(self, n: int, key: np.ndarray):
        self.n, self.key, self._phase = n, key, None

    def __len__(self) -> int:
        return self.key.shape[1]

    @property
    def phase(self) -> np.ndarray:
        if self._phase is None:
            both = self.key & _shifted(self.key, -self.n)  # x & z in the low n bits, nothing above
            count = np.bitwise_count(both[0])  # |x & z| mod 256
            for w in range(1, len(both)):
                count += np.bitwise_count(both[w])
            self._phase = _PHASE_TABLE[count & 3]
        return self._phase

    def merged(self, other: "_Table") -> tuple["_Table", np.ndarray | slice]:
        """The union of both tables' strings, this one's first, and the columns
        of ``other``'s in it."""
        if other is self or not len(other) or np.array_equal(self.key, other.key):
            return self, slice(len(other))
        return self.grown(other.key, dict(zip(_records(self.key), range(len(self)))))

    def grown(self, key: np.ndarray, index: dict) -> tuple["_Table", np.ndarray]:
        """This table with the strings of ``key``, distinct columns, that it
        lacks appended in order of first appearance, and the column of each
        of them in it.  ``index`` maps the records of this table's keys to
        their columns, and gains those of the new ones."""
        cols = np.array([index.setdefault(r, len(index)) for r in _records(key)], dtype=np.intp)
        if len(index) == len(self):
            return self, cols
        return _Table(self.n, np.concatenate([self.key, key[:, cols >= len(self)]], axis=1)), cols

    def strings(self) -> list[tuple[int, int]]:
        """(x, z) of every string, as ints."""
        values = self.key[-1].tolist()
        for row in self.key[-2::-1]:
            values = [v << 64 | c for v, c in zip(values, row.tolist())]
        return [(v & (1 << self.n) - 1, v >> self.n) for v in values]


class OperatorSum:
    """Sparse complex-weighted sum of canonical Pauli strings: a ``_Table``
    and a row of X^x Z^z coefficients over it, treated as immutable.  A sum
    built from a dict drops the coefficients of at most ``PRUNE_TOL`` times
    its largest |coefficient|."""

    __slots__ = ("n", "table", "row", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex]):
        (one,) = _on_one_table(n, [{x | z << n: c * _PHASES[(x & z).bit_count() & 3]
                                    for (x, z), c in terms.items()}])
        self.n, self.table, self.row, self._terms = n, one.table, one.row, None

    @classmethod
    def _on(cls, table: _Table, row: np.ndarray) -> "OperatorSum":
        out = cls.__new__(cls)
        out.n, out.table, out.row, out._terms = table.n, table, row, None
        return out

    @classmethod
    def from_vector(cls, basis: "StringBasis", coef: np.ndarray) -> "OperatorSum":
        """The sum of the X^x Z^z coefficients ``coef`` on the table of
        ``basis``, pruned as from a dict."""
        return cls._on(basis.table, _pruned(coef))

    @classmethod
    def combinations(cls, rows: Sequence[Sequence[tuple[complex, "OperatorSum"]]]
                     ) -> list["OperatorSum"]:
        """The weighted sum of each row of (weight, sum) pairs, every row as
        long, pruned as from a dict: the rows' sums stacked on one table, and
        pair j of every row added in turn, so memory is a row per row."""
        if not rows:
            return []
        sums = list({id(s): s for row in rows for _, s in row}.values())
        place = {id(s): j for j, s in enumerate(sums)}
        pick = np.array([[place[id(s)] for _, s in row] for row in rows])
        weight = np.array([[w for w, _ in row] for row in rows], dtype=complex)
        table, coef = _rows(sums)
        acc = weight[:, 0, None] * coef[pick[:, 0]]
        for j in range(1, pick.shape[1]):
            acc += weight[:, j, None] * coef[pick[:, j]]
        return [cls._on(table, row) for row in _pruned(acc)]

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        if self._terms is None:
            sigma = (self.row * self.table.phase.conj()).tolist()
            self._terms = {k: c for k, c in zip(self.table.strings(), sigma) if c}
        return self._terms

    @classmethod
    def identity(cls, n: int) -> "OperatorSum":
        return cls(n, {(0, 0): 1.0 + 0.0j})

    @classmethod
    def from_term(cls, term: PauliTerm) -> "OperatorSum":
        return cls(term.n, {(term.x, term.z): 1.0 + 0.0j})

    @classmethod
    def from_terms(cls, n: int, pairs: Iterable[tuple[complex, PauliTerm]]) -> "OperatorSum":
        acc: dict[tuple[int, int], complex] = {}
        for coeff, term in pairs:
            acc[term.x, term.z] = acc.get((term.x, term.z), 0.0) + coeff
        return cls(n, acc)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.row))

    def __iter__(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self.terms.items())

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.row).max(initial=0.0))

    def abs_sum(self) -> float:
        """Pauli 1-norm sum |c|, in column order.  Every string has operator
        norm 1, so this bounds the operator norm from above."""
        return sum(np.abs(self.row).tolist())

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        """The sum on the union of both tables, pruned as from a dict."""
        return OperatorSum.combinations([[(1.0, self), (1.0, other)]])[0]

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return OperatorSum.combinations([[(1.0, self), (-1.0, other)]])[0]

    def __mul__(self, scalar: complex) -> "OperatorSum":
        return OperatorSum._on(self.table, self.row * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorSum":
        return self * (-1.0)

    def dagger(self) -> "OperatorSum":
        """Hermitian conjugate, exactly: (X^x Z^z)^dagger = (-1)^|x & z| X^x Z^z."""
        phase = self.table.phase
        return OperatorSum._on(self.table, self.row.conj() * (phase * phase))


def _words(values: list[int], bits: int) -> np.ndarray:
    """Ints below 2^bits as an array of shape (words, len(values)), word w
    holding bits 64w..64w+63."""
    count = max(1, -(-bits // 64))
    if count == 1:
        return np.array([values], dtype=np.uint64)
    return np.array([[v >> s & _WORD for v in values] for s in range(0, 64 * count, 64)],
                    dtype=np.uint64).reshape(count, len(values))


def _shifted(key: np.ndarray, bits: int) -> np.ndarray:
    """Key columns times 2^bits (divided by 2^-bits when negative), the bits
    moved past the last word or below the first dropped."""
    q, r = divmod(abs(bits), 64)
    if len(key) == 1 and not q:
        return key << r if bits > 0 else key >> r
    words, out = len(key), np.zeros_like(key)
    if q < words:
        if bits > 0:
            out[q:] = key[:words - q] << r
            if r and q + 1 < words:  # the bits that cross into the next word
                out[q + 1:] |= key[:words - q - 1] >> (64 - r)
        else:
            out[:words - q] = key[q:] >> r
            if r and q + 1 < words:
                out[:words - q - 1] |= key[q + 1:] << (64 - r)
    return out


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
    order = key[-1].argsort()
    for w in range(words - 2, -1, -1):  # only the passes after the first need to be stable
        order = order[key[w, order].argsort(kind="stable")]
    key = key.take(order, axis=1)  # faster than key[:, order] on a row of many columns
    start = np.empty(key.shape[1], dtype=bool)
    start[:1] = True
    np.not_equal(key[0, 1:], key[0, :-1], out=start[1:])
    for w in range(1, words):
        start[1:] |= key[w, 1:] != key[w, :-1]
    first = start.nonzero()[0]
    return key.take(first, axis=1), np.add.reduceat(coef.take(order, axis=1), first, axis=1)


def _kernel(ta: _Table, a: np.ndarray, tb: _Table, b: np.ndarray,
            parity: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Key columns, and rows of X^x Z^z coefficients, of the products of the
    terms of the rows ``a`` over table ``ta`` and ``b`` over ``tb`` summed
    per string: row r sums the products of row r of ``a`` with row r of
    ``b`` (an operand of one row serves every row) over every pair when
    ``parity`` is None, else over the pairs whose symplectic product has
    that parity (1: anticommuting, 0: commuting).

    The pair keys, signs and parity mask, and the sort, are formed once a
    block for all the rows; a block holds the coefficients of every row,
    so callers batch rows only while their pairs fit one block.  The sign
    and the parity are read off the key words of ``b``, against the key
    words of ``a`` shifted down and up by n."""
    batch, na, nb = max(len(a), len(b)), len(ta), len(tb)
    if na * nb > TERM_CAP:  # the work of each row, as for a plain product
        raise TermBudgetError(f"product of {na} x {nb} term pairs exceeds cap {TERM_CAP}")
    sign = _shifted(ta.key, -ta.n)  # z1 on the x bits of a key x2 | z2 << n
    odd = sign | _shifted(ta.key, ta.n)  # and x1 on its z bits
    cols = min(max(nb, 1), _CHUNK_PAIRS)
    rows = _CHUNK_PAIRS // cols
    sums = None
    for i in range(0, na, rows):
        ia = slice(i, i + rows)
        for j in range(0, nb, cols):
            jb = slice(j, j + cols)
            # X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2)
            zx = _and_pairs(sign[:, ia], tb.key[:, jb])
            coef = a[:, ia, None] * b[:, None, jb]
            coef *= 1.0 - 2.0 * (np.bitwise_count(zx) & 1)
            coef = coef.reshape(batch, -1)
            key = (ta.key[:, ia, None] ^ tb.key[:, None, jb]).reshape(len(ta.key), -1)
            if parity is not None:
                zx = _and_pairs(odd[:, ia], tb.key[:, jb])  # |z1 & x2| + |x1 & z2|
                keep = ((np.bitwise_count(zx) & 1).ravel() == parity).nonzero()[0]
                key, coef = key.take(keep, axis=1), coef.take(keep, axis=1)
            if sums:  # the running sums join the reduction as entries of their own
                key = np.concatenate([sums[0], key], axis=1)
                coef = np.concatenate([sums[1], coef], axis=1)
            sums = _reduce(key, coef)
    if sums is None:  # the product of no pairs
        sums = (np.zeros((len(ta.key), 0), dtype=np.uint64), np.zeros((batch, 0), dtype=complex))
    return sums


def _rows(sums: Sequence[OperatorSum]) -> tuple[_Table, np.ndarray]:
    """One table of the strings of ``sums`` and a row each; another table merges."""
    if len({s.n for s in sums}) > 1:
        raise ValueError(f"qubit count mismatch: {sorted({s.n for s in sums})}")
    table = sums[0].table
    place: dict[int, np.ndarray | slice] = {id(table): slice(len(table))}
    for s in sums:
        if id(s.table) not in place:
            table, place[id(s.table)] = table.merged(s.table)
    if all(type(p) is slice and p.stop == len(table) for p in place.values()):  # equal tables
        return table, np.array([s.row for s in sums])
    coef = np.zeros((len(sums), len(table)), dtype=complex)
    for row, s in zip(coef, sums):
        row[place[id(s.table)]] = s.row
    return table, coef


def _pack_rows(sums: Sequence[OperatorSum]) -> tuple[_Table, np.ndarray]:
    """``sums`` as a kernel operand: the table of the strings some row
    holds, and a row each over it."""
    table, coef = _rows(sums)
    if np.count_nonzero(coef) < coef.size:
        used = coef.any(axis=0).nonzero()[0]
        table, coef = _Table(table.n, table.key.take(used, axis=1)), coef.take(used, axis=1)
    return table, coef


def _products(lefts: Sequence[OperatorSum], rights: Sequence[OperatorSum],
              parity: int | None, factor: float) -> list[OperatorSum]:
    """factor * sum of the string products of lefts[r] and rights[r] for
    every r, in one pass: over every pair when ``parity`` is None, else
    over the pairs with that symplectic parity.

    Rows share the kernel's blocks, and the table of the pass's output
    strings, while a block holds all their pairs; a product of more pairs
    than a block runs a row at a time, as a plain product would, so that
    no block re-sums the running sums of many rows."""
    if len(lefts) != len(rights):
        raise ValueError(f"{len(lefts)} left factors against {len(rights)} right ones")
    if not lefts:
        return []
    if lefts[0].n != rights[0].n:  # and ``_rows`` checks each side
        raise ValueError(f"qubit count mismatch: {lefts[0].n} != {rights[0].n}")
    (ta, a), (tb, b) = _pack_rows(lefts), _pack_rows(rights)
    group = max(1, _CHUNK_PAIRS // max(1, len(ta) * len(tb)))
    cut = (PRUNE_TOL * abs(factor) * np.abs(a).max(axis=1, initial=0.0)
           * np.abs(b).max(axis=1, initial=0.0))  # max|a_r| max|b_r|, row by row
    out = []
    for r in range(0, len(lefts), group):
        rows = slice(r, r + group)  # both operands hold a row per product
        key, coef = _kernel(ta, a[rows], tb, b[rows], parity)
        coef = factor * coef
        keep = np.abs(coef) > cut[rows, None]
        used = keep.any(axis=0).nonzero()[0]
        table = _Table(lefts[0].n, key.take(used, axis=1))
        coef = np.where(keep.take(used, axis=1), coef.take(used, axis=1), 0.0)
        out += [OperatorSum._on(table, row) for row in coef]
    return out


def _pruned(coef: np.ndarray) -> np.ndarray:
    """``coef`` less the entries of at most PRUNE_TOL times their row's largest."""
    size = np.abs(coef)
    return np.where(size > PRUNE_TOL * size.max(axis=-1, keepdims=True, initial=0.0), coef, 0.0)


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
    """Pauli strings numbered in order of first appearance, kept as a
    growing table, and sums over them as vectors of X^x Z^z coefficients.

    ``comm`` takes its operand off the table and numbers the strings of
    the product by their keys, so no dict of either sum is built."""

    def __init__(self, term: PauliTerm):
        self.table = _Table(term.n, _words([term.x | term.z << term.n], 2 * term.n))
        self._index = {rec: 0 for rec in _records(self.table.key)}
        self._h: tuple[OperatorSum, _Table, np.ndarray, float] | None = None  # h as last packed

    def __len__(self) -> int:
        return len(self.table)

    def comm(self, h: OperatorSum, vector: np.ndarray) -> np.ndarray:
        """The X^x Z^z coefficients over the strings, the new ones of the
        product appended, of [h, the sum of ``vector``], with the entries of
        ``vector`` and of the product pruned as ``from_vector`` and
        ``opsum_comm`` prune them."""
        top = (size := np.abs(vector)).max(initial=0.0)
        used, t = (size > PRUNE_TOL * top).nonzero()[0], self.table
        if self._h is None or self._h[0] is not h:
            self._h = h, *_pack_rows([h]), h.max_abs_coeff()
        _, th, rh, hmax = self._h
        key, coef = _kernel(th, rh, _Table(t.n, t.key.take(used, axis=1)), vector[used][None], 1)
        coef = 2.0 * coef[0]
        keep = (np.abs(coef) > PRUNE_TOL * 2.0 * hmax * top).nonzero()[0]
        self.table, cols = t.grown(key.take(keep, axis=1), self._index)
        out = np.zeros(len(self.table), dtype=complex)
        out[cols] = coef[keep]
        return out


def _records(key: np.ndarray) -> list:
    """Hashable records of key columns: ints of one word, bytes of several."""
    if len(key) == 1:
        return key[0].tolist()
    return np.ascontiguousarray(key.T).view(np.dtype((np.void, 8 * len(key))))[:, 0].tolist()


def _on_one_table(n: int, dicts: Sequence[Mapping[int, complex]]) -> list[OperatorSum]:
    """The sums of ``dicts`` {x | z << n: coefficient of X^x Z^z}, each less
    the coefficients of at most ``PRUNE_TOL`` times its largest, on one
    table of the union of their keys in order."""
    index = dict(zip(dict.fromkeys(chain.from_iterable(dicts)), count()))
    coef = np.zeros((len(dicts), len(index)), dtype=complex)
    for row, d in zip(coef, dicts):
        row[[index[key] for key in d]] = list(d.values())
    table = _Table(n, _words(list(index), 2 * n))
    return [OperatorSum._on(table, row) for row in _pruned(coef)]


def subset_products(n: int, terms: Sequence[tuple[float, PauliTerm]],
                    rows: Sequence[int]) -> list[OperatorSum]:
    """For each k, the sum over the sets of k terms with no two joined in
    ``rows`` (``rows[v]`` is the bitmask of the terms joined to v; on the
    frustration graph, the independent sets) of the product of the terms
    they select, coupling and string, taken in ascending index order, on
    one table.

    One depth-first walk adds the terms in ascending order, the empty set
    first and each other set after its parent, the set without its highest
    term.  A set carries its X^x Z^z coefficient and key x | z << n down
    the stack from its parent: X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2|
    X^(x1^x2) Z^(z1^z2) costs one sign a set.  A coefficient is its
    coupling product times a power of i, which multiplies exactly, so every
    sum is that of the products multiplied out set by set, up to signed
    zeros.
    """
    factors = [(c * _PHASES[(t.x & t.z).bit_count() & 3], t.x | t.z << n, t.x) for c, t in terms]
    accs: list[dict[int, complex]] = []
    stack = [(1.0 + 0.0j, 0, 0, (1 << len(rows)) - 1)]
    while stack:
        coef, key, size, candidates = stack.pop()
        if size == len(accs):
            accs.append({})
        accs[size][key] = accs[size].get(key, 0.0) + coef
        z, above = key >> n, 0
        while candidates:  # the children, highest term first, so the lowest pops first
            v = candidates.bit_length() - 1
            candidates ^= 1 << v
            c, k, x = factors[v]
            stack.append((-c * coef if (z & x).bit_count() & 1 else c * coef, key ^ k,
                          size + 1, above & ~rows[v]))
            above |= 1 << v
    return _on_one_table(n, accs)


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
    phase = _PHASE_TABLE[np.bitwise_count(xs & zs) & 3]
    out = np.zeros((len(coefs), dim, dim), dtype=complex)
    for x in sorted({x for x, _ in strings}):  # np.unique would import numpy.ma, 1 MB
        group = (xs == x).nonzero()[0]
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[group, None] & cols) & 1)
        out[:, cols ^ x, cols] = coefs[:, group] @ (phase[group, None] * signs)
    return out

