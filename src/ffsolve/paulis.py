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
Every product of sums runs through one numpy kernel.  A sum is packed
once, on first use, into uint64 word arrays with one column per term:
x and z in ceil(n/64) words each, and the sort key x | z << n in
ceil(2n/64) words (so up to 32 qubits sort on one word); every word
count has at least one word, and any n is supported.  Coefficients are
stored for X^x Z^z, that is c i^|x & z|, because

    X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1 ^ x2) Z^(z1 ^ z2) ,

so a pair needs one XOR per key word and the parity of one popcount
(``np.bitwise_count``); the factor i^-|x3 & z3| back to sigma(x3, z3)
is applied once per distinct output string.  Together these give the
phase (|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|) mod 4 of ``multiply``.
Commutators and anticommutators keep only the pairs whose symplectic
product |x1&z2| + |z1&x2| is odd or even.

Pairs are formed in blocks of about 2^16 (rows of ``a`` against all of
``b``, or slices of ``b`` when it alone is longer), so memory stays flat
whatever the sizes; the pair count is checked against ``TERM_CAP``
before anything is allocated.  Each block is reduced by one sort on the
key, and the running sums enter the next block's reduction as entries
of their own.

Basis-state convention for the dense backend: qubit q corresponds to bit
q of the computational-basis index (little-endian), so Z on qubit 0 of a
one-qubit system is diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DenseCapError, TermBudgetError

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
        """The terms as word arrays, built on first use and kept: the sum
        does not change."""
        if self._packed is None:
            strings = list(self.terms)
            t, n = len(strings), self.n
            xs = [x for x, _ in strings]
            zs = [z for _, z in strings]
            words = _words([x | z << n for x, z in strings] + xs + zs, 2 * n)
            w = _word_count(n)
            self._packed = _Packed(
                words[:, :t], words[:w, t:2 * t], words[:w, 2 * t:],
                np.array([c * _PHASES[(x & z).bit_count() & 3]
                          for (x, z), c in self.terms.items()], dtype=complex))
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

    def coeff(self, term: PauliTerm) -> complex:
        """Coefficient of the canonical string underlying ``term`` (phase included)."""
        c = self.terms.get((term.x, term.z), 0.0)
        return c * np.conj(term.phase) if c else 0.0

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
    """The terms of a sum as uint64 word arrays, one column per term.

    ``key`` holds the 2n bits of x | z << n, the key the reduction sorts on;
    ``x`` and ``z`` hold x and z, which the sign and the parity read.
    ``coef`` is the coefficient of X^x Z^z, that is c i^|x & z|.
    """

    key: np.ndarray
    x: np.ndarray
    z: np.ndarray
    coef: np.ndarray


def _word_count(bits: int) -> int:
    return max(1, -(-bits // 64))


def _words(values: list[int], bits: int) -> np.ndarray:
    """Ints below 2^bits as an array of shape (words, len(values)), word w
    holding bits 64w..64w+63."""
    count = _word_count(bits)
    data = b"".join(v.to_bytes(8 * count, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(-1, count).T.copy()


def _odd_overlap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parity of |u_i & v_j| for every pair of columns, as a bool matrix."""
    acc = np.bitwise_and.outer(u[0], v[0])
    for uw, vw in zip(u[1:], v[1:]):
        acc ^= np.bitwise_and.outer(uw, vw)
    return (np.bitwise_count(acc) & 1).view(bool)


def _order(*rows: np.ndarray) -> np.ndarray:
    """Permutation that sorts entries by rows[0], then rows[1], and so on.

    Least significant row first; only the passes after the first need to
    be stable, so one row is one plain argsort.
    """
    order = np.argsort(rows[-1])
    for row in rows[-2::-1]:
        order = order[np.argsort(row[order], kind="stable")]
    return order


def _starts(*rows: np.ndarray) -> np.ndarray:
    """Mask of the sorted entries where some row differs from the entry before."""
    start = np.zeros(len(rows[0]), dtype=bool)
    start[:1] = True
    for row in rows:
        start[1:] |= row[1:] != row[:-1]
    return start


def _reduce(key: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of entries with equal key."""
    order = _order(*key)
    key = key[:, order]
    first = np.flatnonzero(_starts(*key))
    return key[:, first], np.add.reduceat(coef[order], first)


def _kernel(a: _Packed, b: _Packed, parity: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Key columns and X^x Z^z coefficients of the products of the terms of
    ``a`` and ``b``, summed per string: over every pair when ``parity`` is
    None, else over the pairs whose symplectic product has that parity (1:
    anticommuting, 0: commuting)."""
    na, nb = len(a.coef), len(b.coef)
    if na * nb > TERM_CAP:
        raise TermBudgetError(f"product of {na} x {nb} term pairs exceeds cap {TERM_CAP}")
    sums = (np.zeros((len(a.key), 0), dtype=np.uint64),  # the product of no pairs
            np.zeros(0, dtype=complex))
    cols = min(max(nb, 1), _CHUNK_PAIRS)
    rows = _CHUNK_PAIRS // cols
    for i in range(0, na, rows):
        ia = slice(i, i + rows)
        for j in range(0, nb, cols):
            jb = slice(j, j + cols)
            # X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2)
            odd = _odd_overlap(a.z[:, ia], b.x[:, jb])
            pair_coef = np.multiply.outer(a.coef[ia], b.coef[jb])
            np.negative(pair_coef, out=pair_coef, where=odd)
            pair_key = (a.key[:, ia, None] ^ b.key[:, None, jb]).reshape(len(a.key), -1)
            if parity is None:
                pairs = (pair_key, pair_coef.ravel())
            else:
                keep = (odd ^ _odd_overlap(a.x[:, ia], b.z[:, jb])) == bool(parity)
                pairs = (pair_key[:, keep.ravel()], pair_coef[keep])
            if i or j:  # the running sums join the reduction as entries of their own
                pairs = [np.concatenate(arrays, axis=-1) for arrays in zip(sums, pairs)]
            sums = _reduce(*pairs)
    return sums


def _strings(n: int, key: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """(x, z) of each key column, and the factor i^-|x & z| that turns a
    coefficient of X^x Z^z into one of sigma(x, z)."""
    values = key[0].tolist()
    for w, col in enumerate(key[1:], 1):
        values = [v | c << (64 * w) for v, c in zip(values, col.tolist())]
    mask = (1 << n) - 1
    strings = [(v & mask, v >> n) for v in values]
    phase = np.array([_PHASES[-(x & z).bit_count() & 3] for x, z in strings], dtype=complex)
    return strings, phase


def _product(a: OperatorSum, b: OperatorSum, parity: int | None,
             factor: float) -> OperatorSum:
    """factor * sum of the string products a_i b_j, over every pair when
    ``parity`` is None, else over the pairs with that symplectic parity."""
    a._check(b)
    key, coef = _kernel(a._pack(), b._pack(), parity)
    coef = factor * coef
    keep = np.abs(coef) > PRUNE_TOL
    strings, phase = _strings(a.n, key[:, keep])
    return OperatorSum._of_clean(a.n, dict(zip(strings, (coef[keep] * phase).tolist())))


def opsum_mul(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Distributive product with exact phase folding; result pruned."""
    return _product(a, b, None, 1.0)


def opsum_comm(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Commutator [a, b]; only anticommuting string pairs contribute."""
    return _product(a, b, 1, 2.0)


def opsum_anticomm(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Anticommutator {a, b}; only commuting string pairs contribute."""
    return _product(a, b, 0, 2.0)


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
    for x in np.unique(xs):
        group = np.flatnonzero(xs == x)
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[group, None] & cols) & 1)
        out[:, cols ^ x, cols] = coefs[:, group] @ (phase[group, None] * signs)
    return out


def to_dense(a: OperatorSum | PauliTerm) -> np.ndarray:
    """Dense 2^n matrix of an OperatorSum or a single PauliTerm."""
    if isinstance(a, PauliTerm):
        a = OperatorSum.from_term(a)
    if a.n > DENSE_QUBIT_CAP:
        raise DenseCapError(
            f"dense realization of {a.n} qubits exceeds cap {DENSE_QUBIT_CAP}")
    coefs = np.array([list(a.terms.values())], dtype=complex)
    return dense_sums(a.n, list(a.terms), coefs)[0]
