"""Independent sets, the vertex-weighted independence polynomial, its roots,
and the synthesized free spectrum.

The polynomial is P(x) = sum_k c_k x^k with c_k the sum over k-vertex
independent sets of the product of vertex weights, so c_0 = 1 and all
coefficients are nonnegative.  For claw-free graphs all roots are real
(and then negative, since the coefficients are positive), and the
single-particle energies e_j are defined by P(-1/e_j^2) = 0.

Root isolation works on the reversed polynomial in w = e^2, which is
monic with the same information:

    R(w) = w^alpha P(-1/w) = sum_m (-1)^(alpha-m) c_(alpha-m) w^m .

Roots of R are exactly the squared energies.  R is resolved with
bracketed bisection guided by the derivative chain: the real roots of
each derivative interlace those of the next polynomial up, so every
root sits in an interval where the polynomial is monotone, and roots of
even multiplicity (which produce no sign change, e.g. for disjoint
unions of identical components) show up as zeros at derivative roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ComplexRootError
from .graphs import WeightedGraph, bits

ROOT_REL_TOL = 1e-12
MULT_MERGE_REL_TOL = 1e-9
_ZERO_DETECT_REL = 1e-10


# -- independent sets ------------------------------------------------------

def iter_independent_set_masks(graph: WeightedGraph,
                               max_size: int | None = None) -> Iterator[int]:
    """All independent sets as bitmasks, including the empty set.

    Exponential in the graph size, so kept for small graphs only: as a
    reference in tests (through ``independent_sets``), and for the operator
    sums of ``solver.charge`` and ``solver.transfer``, which need each set
    itself rather than the weighted counts that
    ``weighted_independence_polynomial`` computes.
    """
    limit = graph.n if max_size is None else max_size

    def rec(candidates: int, current: int, size: int):
        yield current
        if size == limit:
            return
        for v in bits(candidates):
            above = ~((1 << (v + 1)) - 1)
            yield from rec(candidates & above & ~graph.adj[v],
                           current | (1 << v), size + 1)

    yield from rec(graph.full_mask, 0, 0)


def independent_sets(graph: WeightedGraph,
                     max_size: int | None = None) -> dict[int, list[tuple[int, ...]]]:
    """Independent sets grouped by size, each as a sorted vertex tuple."""
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for mask in iter_independent_set_masks(graph, max_size):
        vs = tuple(bits(mask))
        grouped.setdefault(len(vs), []).append(vs)
    return grouped


def independence_number(graph: WeightedGraph) -> int:
    best = 0

    def rec(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        best = max(best, size)
        for v in bits(candidates):
            above = ~((1 << (v + 1)) - 1)
            rec(candidates & above & ~graph.adj[v], size + 1)

    rec(graph.full_mask, 0)
    return best


# -- polynomial -------------------------------------------------------------

@dataclass(frozen=True)
class IndependencePolynomial:
    """Coefficients c_0..c_alpha of the vertex-weighted independence polynomial."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1.0:
            raise ValueError("independence polynomial must have constant term 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("independence polynomial coefficients are nonnegative")

    @property
    def alpha(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self, x: float) -> float:
        acc = 0.0
        for k in range(self.alpha, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc

    def at_minus_u2(self, u: float) -> float:
        return self(-u * u)


def weighted_independence_polynomial(graph: WeightedGraph) -> IndependencePolynomial:
    """c_k by memoized vertex elimination over remaining-vertex bitmasks.

    With v the lowest vertex of the remaining set S,

        P(S) = P(S - v) + x w_v P(S - N[v]),

    and P of a disconnected S is the product over its components.  Each
    distinct S is evaluated once, so a chain takes n + 1 states, and a
    graph whose vertex order leaves at most p earlier vertices adjacent to
    later ones takes at most about n 2^p.  The recursion runs on an
    explicit stack, so its depth is not bounded by Python's recursion
    limit.  All terms are nonnegative, so no cancellation occurs.
    """
    adj = graph.adj
    weights = graph.weights
    # vertices within distance two of v: the boundary left by removing N[v]
    reach2 = []
    for v in range(graph.n):
        m = graph.closed_adj(v)
        for u in graph.neighbors[v]:
            m |= adj[u]
        reach2.append(m)

    memo: dict[int, list[float]] = {0: [1.0]}
    # entries (S, hint, plan): every component of S meets ``hint``; plan is
    # None on the first visit, then (v or None for a split, child, child)
    full = graph.full_mask
    stack: list[tuple[int, int, tuple | None]] = [(full, full, None)]
    while stack:
        s, hint, plan = stack.pop()
        if plan is None:
            if s in memo:
                continue
            comp = _split_component(adj, s, hint)
            if comp:
                v = None
                children = ((comp, comp & -comp), (s & ~comp, hint & ~comp))
            else:
                low = s & -s
                v = low.bit_length() - 1
                minus_v, minus_nv = s ^ low, s & ~graph.closed_adj(v)
                children = ((minus_v, adj[v] & minus_v), (minus_nv, reach2[v] & minus_nv))
            stack.append((s, hint, (v, children[0][0], children[1][0])))
            stack.extend((c, c_hint, None) for c, c_hint in children if c not in memo)
            continue
        v, a_mask, b_mask = plan
        a, b = memo[a_mask], memo[b_mask]
        if v is None:
            out = [0.0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        else:
            w = weights[v]
            out = a + [0.0] * (len(b) + 1 - len(a))
            for i, cb in enumerate(b):
                out[i + 1] += w * cb
        memo[s] = out

    coeffs = memo[full]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return IndependencePolynomial(tuple(coeffs))


def _split_component(adj: tuple[int, ...], s: int, hint: int) -> int:
    """0 when S is connected, else one connected component of S.

    ``hint`` is a nonempty subset of S that meets every component of S, so
    S is connected as soon as one component is seen to hold all of it; the
    search stops there instead of visiting the whole of S.
    """
    if not hint & (hint - 1):
        return 0
    comp = frontier = hint & -hint
    while frontier and hint & ~comp:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & s & ~comp
        comp |= new
        frontier |= new
    return comp if hint & ~comp else 0


def verify_clique_recurrence(graph: WeightedGraph, clique: Iterable[int],
                             rel_tol: float = 1e-10) -> bool:
    """Check P_G = P_{G-K} + x * sum_{v in K} w_v P_{G-N[v]} coefficientwise.

    (In the u variable this is the recurrence P_G(-u^2) = P_{G-K}(-u^2)
    - u^2 sum_v b_v^2 P_{G-N[v]}(-u^2).)  Raises ValueError when K is not
    a clique.
    """
    kset = sorted(set(clique))
    kmask = 0
    for v in kset:
        kmask |= 1 << v
    if not graph.is_clique(kmask) or not kset:
        raise ValueError(f"{kset} is not a nonempty clique")
    lhs = weighted_independence_polynomial(graph)
    minus_k, _ = graph.remove_set(kset)
    rhs = [0.0] * (lhs.alpha + 1)
    for k, c in enumerate(weighted_independence_polynomial(minus_k).coeffs):
        rhs[k] += c
    for v in kset:
        reduced, _ = graph.remove_closed_neighborhood(v)
        for k, c in enumerate(weighted_independence_polynomial(reduced).coeffs):
            if k + 1 <= lhs.alpha:
                rhs[k + 1] += graph.weights[v] * c
    scale = max(max(abs(c) for c in lhs.coeffs), 1.0)
    return all(abs(a - b) <= rel_tol * max(abs(a), abs(b), scale * 1e-6, 1e-300)
               for a, b in zip(lhs.coeffs, rhs))


# -- real-rooted root isolation ---------------------------------------------

def _fujiwara_bound(monic_desc: np.ndarray) -> float:
    deg = len(monic_desc) - 1
    best = 0.0
    for m in range(1, deg + 1):
        c = abs(monic_desc[m])
        if c:
            best = max(best, c ** (1.0 / m))
    return 2.0 * best + 1e-30


def _polyval(coeffs_desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.polyval(coeffs_desc, x)


def _bisect_many(coeffs_desc, lo, hi, flo_sign, iters=90):
    """Vectorized bisection on intervals with a sign change."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sl = np.array(flo_sign, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sm = np.sign(_polyval(coeffs_desc, mid))
        go_right = (sm == sl) | (sm == 0)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        if np.all((hi - lo) <= ROOT_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))):
            break
    return 0.5 * (lo + hi)


def _level_roots(coeffs_desc: np.ndarray, droots: list[float], bound: float) -> list[float]:
    """Roots of one polynomial given the roots of its derivative.

    The polynomial is strictly monotone between consecutive derivative
    roots, so a sign change there brackets exactly one root.  A root AT a
    derivative root is a multiple root (multiplicity = derivative
    multiplicity + 1); it is recognized by comparing the value against the
    local Taylor scale |p(r +- h) - p(r)| at a spacing-sized h, since the
    linear term vanishes there.  Monotonicity means a multiple root
    excludes any further crossing in the two touching intervals.
    """
    deg = len(coeffs_desc) - 1
    uniq: list[float] = []
    mult: list[int] = []
    for r in sorted(droots):
        if uniq and abs(r - uniq[-1]) <= 1e-13 * max(abs(r), 1.0):
            mult[-1] += 1
        else:
            uniq.append(r)
            mult.append(1)
    if not uniq:
        return []

    pts = [-bound] + uniq + [bound]
    vals = _polyval(coeffs_desc, np.array(pts))
    # outer endpoint signs come from the monic leading term (values there
    # may overflow for high degree, their signs are still what matters)
    signs = [math.copysign(1.0, v) if math.isfinite(v) and v != 0 else 0.0 for v in vals]
    signs[0] = (-1.0) ** deg
    signs[-1] = 1.0

    # local spacing per derivative root, ignoring the artificial +-bound gaps
    gaps = [uniq[i + 1] - uniq[i] for i in range(len(uniq) - 1)]
    fallback = max(max(abs(r) for r in uniq), 1.0)
    spacing = []
    for i in range(len(uniq)):
        near = [g for g in (gaps[i - 1] if i > 0 else None,
                            gaps[i] if i < len(gaps) else None) if g]
        spacing.append(0.5 * min(near) if near else fallback)

    uniq_arr = np.array(uniq)
    h_arr = np.array(spacing)
    side_vals = _polyval(coeffs_desc, np.concatenate([uniq_arr - h_arr, uniq_arr + h_arr]))
    zero_flags: list[tuple[int, float]] = []  # (index into pts, |p(r)|)
    for i in range(1, len(pts) - 1):
        ref = max(abs(side_vals[i - 1] - vals[i]),
                  abs(side_vals[len(uniq) + i - 1] - vals[i]))
        if not math.isfinite(ref):
            continue
        if abs(vals[i]) <= _ZERO_DETECT_REL * max(ref, 1e-300):
            zero_flags.append((i, abs(vals[i])))
            signs[i] = 0.0

    los, his, sls = [], [], []
    for i in range(len(pts) - 1):
        sa, sb = signs[i], signs[i + 1]
        if sa != 0 and sb != 0 and sa != sb:
            los.append(pts[i])
            his.append(pts[i + 1])
            sls.append(sa)

    roots: list[float] = []
    budget = deg - len(los)
    for i, _ in sorted(zero_flags, key=lambda t: t[1]):
        copies = min(mult[i - 1] + 1, budget)
        roots.extend([pts[i]] * copies)
        budget -= copies
    if los:
        roots.extend(_bisect_many(coeffs_desc, los, his, sls).tolist())
    return sorted(roots)[:deg]


def real_roots_of_real_rooted(coeffs_ascending) -> list[float]:
    """All real roots (with multiplicity) of a polynomial expected to be
    real-rooted, by bisection along the derivative interlacing chain.

    If the polynomial is in fact not real-rooted, fewer roots than the
    degree are returned; the caller decides whether that is an error.
    """
    c = np.array(coeffs_ascending, dtype=float)[::-1]
    c = np.trim_zeros(c, "f")
    if len(c) <= 1:
        return []
    c = c / c[0]
    chain = [c]
    while len(chain[-1]) > 2:
        der = np.polyder(chain[-1])
        chain.append(der / der[0])
    chain.reverse()
    roots = [-chain[0][1]]
    for poly in chain[1:]:
        roots = _level_roots(poly, roots, _fujiwara_bound(poly))

    # Newton polish against the full polynomial, clamped to stay local
    dc = np.polyder(c)
    polished = []
    for r in roots:
        x = r
        for _ in range(3):
            d = np.polyval(dc, x)
            if d == 0 or not math.isfinite(d):
                break
            step = np.polyval(c, x) / d
            if not math.isfinite(step) or abs(step) > 0.1 * max(abs(x), 1e-12):
                break
            x -= step
        polished.append(x)
    return sorted(polished)


# -- single-particle energies ------------------------------------------------

@dataclass(frozen=True)
class SingleParticleEnergies:
    """Positive energies with multiplicities, ascending, plus the root residual."""

    energies: tuple[tuple[float, int], ...]
    residual: float

    @property
    def total(self) -> int:
        return sum(m for _, m in self.energies)

    def flat(self) -> list[float]:
        return [e for e, m in self.energies for _ in range(m)]


def single_particle_energies(poly: IndependencePolynomial) -> SingleParticleEnergies:
    """Energies e_j > 0 with P(-1/e_j^2) = 0, multiplicity-merged.

    Raises ComplexRootError when fewer than alpha real roots are isolated,
    which for a claw-free graph signals a conditioning failure and
    otherwise means the polynomial has complex roots.
    """
    alpha = poly.alpha
    if alpha < 1:
        raise ValueError("polynomial must have degree >= 1")
    # reversed polynomial in w = e^2: coefficient of w^m is (-1)^(alpha-m) c_(alpha-m)
    rev = [(-1.0) ** (alpha - m) * poly.coeffs[alpha - m] for m in range(alpha + 1)]
    roots = [w for w in real_roots_of_real_rooted(rev) if w > 0]
    if len(roots) < alpha:
        raise ComplexRootError(len(roots), alpha)
    roots = sorted(roots)[:alpha]

    merged: list[tuple[float, int]] = []
    for w in roots:
        if merged and abs(w - merged[-1][0]) < MULT_MERGE_REL_TOL * abs(w):
            prev, m = merged[-1]
            merged[-1] = (prev, m + 1)
        else:
            merged.append((w, 1))
    energies = tuple((math.sqrt(w), m) for w, m in merged)
    residual = max(abs(poly(-1.0 / (e * e))) for e, _ in energies)
    return SingleParticleEnergies(energies, residual)


def free_spectrum(energies: SingleParticleEnergies, n: int,
                  merge_tol: float = 1e-9) -> list[tuple[float, int]]:
    """All levels sum_k (+-e_k) with uniform extra degeneracy 2^(n - alpha).

    Sign patterns whose sums agree within ``merge_tol`` (relative to the
    energy scale) are merged.  Requires alpha <= n.
    """
    eps = energies.flat()
    alpha = len(eps)
    if alpha > n:
        raise ValueError(f"alpha={alpha} exceeds qubit count n={n}")
    base_deg = 1 << (n - alpha)
    sums = [0.0]
    for e in eps:
        sums = [s + sign * e for s in sums for sign in (1.0, -1.0)]
    sums.sort()
    scale = max(abs(sums[0]), abs(sums[-1]), 1e-300)
    levels: list[tuple[float, int]] = []
    group: list[float] = []
    for s in sums:
        if group and abs(s - group[0]) > merge_tol * scale:
            levels.append((math.fsum(group) / len(group), len(group) * base_deg))
            group = []
        group.append(s)
    if group:
        levels.append((math.fsum(group) / len(group), len(group) * base_deg))
    return levels
