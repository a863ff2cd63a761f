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

Basis-state convention for the dense backend: qubit q corresponds to bit
q of the computational-basis index (little-endian), so Z on qubit 0 of a
one-qubit system is diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DenseCapError, TermBudgetError

PRUNE_TOL = 1e-14
TERM_CAP = 10**7
DENSE_QUBIT_CAP = 13

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

    @property
    def is_hermitian(self) -> bool:
        return self.phase_pow in (0, 2)

    @classmethod
    def identity(cls, n: int) -> "PauliTerm":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_ops(cls, n: int, ops: Mapping[int, str], phase_pow: int = 0) -> "PauliTerm":
        """Build from a map {qubit index: 'X'|'Y'|'Z'}."""
        x = z = 0
        for q, axis in ops.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit index {q} out of range for n={n}")
            xb, zb = _AXIS[axis.upper()]
            x |= xb << q
            z |= zb << q
        return cls(n, x, z, phase_pow)

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

    Terms map (x, z) -> coefficient; coefficients below ``prune_tol`` are
    dropped at construction.  Instances are treated as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex] | None = None,
                 prune_tol: float = PRUNE_TOL):
        self.n = n
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            for key, c in terms.items():
                if abs(c) > prune_tol:
                    clean[key] = complex(c)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "OperatorSum":
        return cls(n, {(0, 0): 1.0 + 0.0j})

    @classmethod
    def zero(cls, n: int) -> "OperatorSum":
        return cls(n, {})

    @classmethod
    def from_term(cls, term: PauliTerm, coeff: complex = 1.0) -> "OperatorSum":
        return cls(term.n, {(term.x, term.z): coeff * term.phase})

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

    def is_zero(self, tol: float = PRUNE_TOL) -> bool:
        return self.max_abs_coeff() <= tol

    def identity_part(self) -> complex:
        return self.terms.get((0, 0), 0.0)

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


def _product(a: OperatorSum, b: OperatorSum, parity: int | None, factor: float,
             term_cap: int, prune_tol: float) -> OperatorSum:
    """factor * sum of the string products a_i b_j, over every pair when
    ``parity`` is None, else over the pairs whose symplectic product has
    that parity (1: anticommuting, 0: commuting)."""
    a._check(b)
    if len(a.terms) * len(b.terms) > term_cap:
        raise TermBudgetError(
            f"product of {len(a.terms)} x {len(b.terms)} term pairs exceeds cap {term_cap}"
        )
    acc: dict[tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        fc1 = factor * c1  # same order as factor * c1 * c2 * phase
        for (x2, z2), c2 in b.terms.items():
            if parity is not None and (
                    ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1) != parity:
                continue
            key = (x1 ^ x2, z1 ^ z2)
            c = fc1 * c2 * _PHASES[_product_phase_pow(x1, z1, x2, z2)]
            acc[key] = acc.get(key, 0.0) + c
            if len(acc) > term_cap:
                raise TermBudgetError(f"accumulated term count exceeds cap {term_cap}")
    return OperatorSum(a.n, acc, prune_tol=prune_tol)


def opsum_mul(a: OperatorSum, b: OperatorSum,
              term_cap: int = TERM_CAP, prune_tol: float = PRUNE_TOL) -> OperatorSum:
    """Distributive product with exact phase folding; result pruned."""
    return _product(a, b, None, 1.0, term_cap, prune_tol)


def opsum_comm(a: OperatorSum, b: OperatorSum,
               term_cap: int = TERM_CAP, prune_tol: float = PRUNE_TOL) -> OperatorSum:
    """Commutator [a, b]; only anticommuting string pairs contribute."""
    return _product(a, b, 1, 2.0, term_cap, prune_tol)


def opsum_anticomm(a: OperatorSum, b: OperatorSum,
                   term_cap: int = TERM_CAP, prune_tol: float = PRUNE_TOL) -> OperatorSum:
    """Anticommutator {a, b}; only commuting string pairs contribute."""
    return _product(a, b, 0, 2.0, term_cap, prune_tol)


# -- dense backend -----------------------------------------------------

def _parity_vector(n: int, z: int) -> np.ndarray:
    """parity[(z & j).bit_count()] for all basis indices j."""
    par = np.zeros(1 << n, dtype=np.int8)
    idx = np.arange(1 << n)
    q = 0
    zz = z
    while zz:
        if zz & 1:
            par ^= ((idx >> q) & 1).astype(np.int8)
        zz >>= 1
        q += 1
    return par


def to_dense(a: OperatorSum | PauliTerm, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense 2^n matrix of an OperatorSum or a single PauliTerm."""
    if isinstance(a, PauliTerm):
        a = OperatorSum.from_term(a)
    if a.n > cap:
        raise DenseCapError(f"dense realization of {a.n} qubits exceeds cap {cap}")
    dim = 1 << a.n
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for (x, z), c in a.terms.items():
        rows = cols ^ x
        signs = 1.0 - 2.0 * _parity_vector(a.n, z)
        mat[rows, cols] += c * _PHASES[(x & z).bit_count() & 3] * signs
    return mat
