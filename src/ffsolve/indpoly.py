"""The vertex-weighted independence polynomial, its roots, and the
synthesized free spectrum.

P(x) = sum_k c_k x^k, with c_k the sum over the independent k-sets of
the products of their vertex weights, so c_0 = 1 and every c_k >= 0.
On claw-free graphs every root is real (Chudnovsky and Seymour, JCTB
97, 2007), so negative, and the single-particle energies e_j are given
by P(-1/e_j^2) = 0.  The weights are floats, so dyadic: with 2^D their
largest denominator, W_v = w_v 2^D are integers, and the elimination in
Python ints gives C_k = c_k 2^(D k) exactly.  ``IndependencePolynomial``
is these integers and D; its values and slopes are taken by one integer
Horner pass, the one that serves Q below, and rounded once.

``single_particle_energies`` seeks the roots y = 2^D e^2 of the integer
polynomial Q(y) = sum_k (-1)^k C_k y^(alpha-k) in s = y / 2^b, 2^b the
power of two above C_1, so each lies in (0, 1).  Floats propose and
integers certify: the companion eigenvalues of the float view seed
Newton steps evaluated exactly, and alpha disjoint brackets across which
Q changes sign hold all alpha roots.  Otherwise Descartes' rule of signs
after an integer Taylor shift counts the roots above a point, exactly
for a real-rooted Q, repeated roots included.

``roots_by_count`` isolates roots by such counts, for these and for
``chains.chain_energies``, which counts with the sign changes of the
chain recursion.  A count is exact on a real-rooted function, so every
bracket it returns holds a known number of roots, repeated roots
included, wherever its cuts came from; the Newton step f/f' that the
caller returns with each count only guides the cuts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ComplexRootError, ConditioningError, ModelError
from .graphs import WeightedGraph

ROOT_REL_TOL = 1e-15
# least half-width of a Newton window, relative: a window 0.8 ROOT_REL_TOL
# wide that holds its root finishes its bracket in one sweep
_NEWTON_FLOOR = 0.4 * ROOT_REL_TOL


def _ratio(n: int, d: int) -> float:
    """n / d correctly rounded, +-inf beyond the float range, NaN at 0 / 0."""
    try:
        return n / d
    except OverflowError:
        return math.inf if (n < 0) == (d < 0) else -math.inf
    except ZeroDivisionError:
        return math.copysign(math.inf, n) if n else math.nan


# -- polynomial -------------------------------------------------------------

@dataclass(frozen=True)
class IndependencePolynomial:
    """P exactly, as c_k = ints[k] / 2^(shift k)."""

    ints: tuple[int, ...]
    shift: int

    def __post_init__(self):
        if not self.ints or self.ints[0] != 1:
            raise ValueError("independence polynomial must have constant term 1")
        if any(c < 0 for c in self.ints):
            raise ValueError("independence polynomial coefficients are nonnegative")

    @property
    def alpha(self) -> int:
        return len(self.ints) - 1

    @property
    def coeffs(self) -> tuple[float, ...]:
        """The c_k correctly rounded to floats, inf beyond the float range."""
        return tuple(_ratio(c, 1 << self.shift * k) for k, c in enumerate(self.ints))

    def at(self, x: float, slope: bool = False) -> float:
        """P(x), or P'(x) with ``slope``, exactly and then rounded once."""
        a, t = _point(x, -self.shift)  # x / 2^shift = a / 2^t
        f, g = _horner(self.ints[::-1], a, t)
        scale = t * self.alpha
        return _ratio(g << t, 1 << scale + self.shift) if slope else _ratio(f, 1 << scale)


def weighted_independence_polynomial(graph: WeightedGraph) -> IndependencePolynomial:
    """C_0..C_alpha by memoized vertex elimination over remaining-vertex bitmasks.

    With v the lowest vertex of the remaining set S,

        P(S) = P(S - v) + x w_v P(S - N[v]),

    and P of a disconnected S is the product over its components.  Each
    distinct S is evaluated once, so a chain takes n + 1 states, and a
    graph whose vertex order leaves at most p earlier vertices adjacent to
    later ones takes at most about n 2^p.  The recursion runs on an
    explicit stack, so its depth is not bounded by Python's recursion
    limit; the loop walks the bitmask rows inline, and combines a state
    on its first visit when its children are known.  It runs on the
    integer weights W_v, so every coefficient is exact in any order.

    A vertex of weight 0 is not in the graph: the elimination starts from
    the vertices of positive weight, and alpha is theirs.  A weight that
    is not finite, a squared coupling that overflowed, raises ModelError.
    """
    adj = graph.adj
    weights = graph.weights
    try:
        ratios = [w.as_integer_ratio() for w in weights]
    except (OverflowError, ValueError):
        v, w = next((v, w) for v, w in enumerate(weights) if not math.isfinite(w))
        raise ModelError(f"vertex {v} has weight {w}, which is not finite: "
                         "a squared coupling above 1.34e154 overflows") from None
    top = max([d.bit_length() for _, d in ratios], default=1)  # D + 1
    weights = [n << top - d.bit_length() for n, d in ratios]
    closed = [row | 1 << v for v, row in enumerate(adj)]
    # vertices within distance two of v: the boundary left by removing N[v]
    reach2 = []
    for v, row in enumerate(adj):
        m, rest = closed[v], row
        while rest:
            low = rest & -rest
            m |= adj[low.bit_length() - 1]
            rest ^= low
        reach2.append(m)

    memo: dict[int, list[int]] = {0: [1]}
    # entries (S, hint, v, a, b): every component of S meets ``hint``;
    # a < 0 on the first visit, then S = a + b split into components
    # (v None), or a = S - v and b = S - N[v]
    full = graph.full_mask  # the vertices of positive weight
    if not all(weights):
        full = sum(1 << v for v, w in enumerate(weights) if w)
    stack: list[tuple] = [(full, full, None, -1, None)]
    pop, push = stack.pop, stack.append
    while stack:
        s, hint, v, a, b = pop()
        if a < 0:
            if s in memo:
                continue
            # one component of S, or 0 when S is connected: the search
            # stops once one component holds all of ``hint``
            comp = 0
            if hint & (hint - 1):
                frontier = hint & -hint
                left = s ^ frontier  # the vertices of S not yet reached
                while frontier and hint & left:
                    low = frontier & -frontier
                    frontier ^= low
                    new = adj[low.bit_length() - 1] & left
                    left ^= new
                    frontier |= new
                if hint & left:
                    comp = s ^ left
            if comp:
                a, b = comp, s & ~comp
                a_hint, b_hint = comp & -comp, hint & ~comp
            else:
                low = s & -s
                v = low.bit_length() - 1
                a = s ^ low
                a_hint, b = adj[v] & a, s & ~closed[v]
                b_hint = reach2[v] & b
            pa, pb = memo.get(a), memo.get(b)
            if pa is None or pb is None:
                push((s, hint, v, a, b))
                if pa is None:
                    push((a, a_hint, None, -1, None))
                if pb is None:
                    push((b, b_hint, None, -1, None))
                continue
        else:
            pa, pb = memo[a], memo[b]
        if v is None:
            out = [0] * (len(pa) + len(pb) - 1)
            for i, ca in enumerate(pa):
                for j, cb in enumerate(pb, i):
                    out[j] += ca * cb
        else:
            # len(pb) <= len(pa), as S - N[v] lies in S - v
            w = weights[v]
            out = pa + [0] if len(pb) == len(pa) else pa[:]
            for i, cb in enumerate(pb, 1):
                out[i] += w * cb
        memo[s] = out
    return IndependencePolynomial(tuple(memo[full]), top - 1)


# -- root isolation by counting ---------------------------------------------

# A sweep keeps its brackets as the columns of one array with the rows lo,
# up, c_lo, c_up (the counts at the ends), s_lo, s_up (the Newton steps
# there) and parent (the width of the bracket it was cut from).  Its three
# pieces are taken at once from the rows lo, p1, p2, up, c_lo, c1, c2, c_up,
# s_lo, s1, s2, s_up and width of the bracket cut at p1 and p2.
_PIECES = np.array([0, 1, 2, 1, 2, 3, 4, 5, 6, 5, 6, 7, 8, 9, 10, 9, 10, 11, 12, 12, 12])
_CUT1, _CUT2 = [1, 5, 9], [2, 6, 10]  # the point, count and step of each cut


def roots_by_count(evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                   n: int, hi: float, first: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (lo, hi] holding the n roots in (0, hi] of a real-rooted function f.

    ``evaluate`` maps an array of points w to the number of roots above
    each and the Newton step f(w) / f'(w) there; the count is taken to be
    n at 0 and 0 at hi without being called.  Each call is a sweep.  The
    first cuts (0, hi] at the ascending points ``first``; a first cut whose
    count lies outside the counts on either side of it is noise, and is
    dropped.  Every later sweep cuts every bracket at two points.  Every
    cut keeps its exact count, so every bracket holds a known number of
    roots, repeated roots included, however its cuts were chosen.  Brackets
    are cut until they are at most ROOT_REL_TOL of their upper end wide.

    A bracket is cut at the two ends of a window around an estimate of its
    roots.  With one root r, the step s at either end x of the bracket
    obeys 1/s = 1/(x - r) + S, where S, the pull of the other roots, varies
    little across a narrow bracket.  The near end x_n, the one whose step
    s_n is shorter, gives the plain Newton estimate g = x_n - s_n; the far
    end reads S = 1/s_f - 1/(x_f - g) off its step s_f, and the corrected
    estimate is c = x_n - 1/(1/s_n - S).  The window is c -+ h, with h a
    quarter of |c - g|.  Where c does not apply, because an end is 0 or hi
    (never evaluated), the bracket holds m > 1 roots, or c falls outside
    the bracket, as it does when a step is wrong, the window is g -+ h.
    Here g is the Newton estimate of an m-fold root, x - m f(x) / f'(x),
    from the end x with the shorter step, and h is twice the spread of the
    estimates from the two ends.  Each h is at least 0.4 ROOT_REL_TOL of
    the upper end, so that a window that holds the root finishes the
    bracket.  A window that reaches an end keeps its other cut and halves
    the rest.  The bracket is cut into thirds instead when an end has no
    estimate, when the window holds the whole bracket or cannot put both
    cuts strictly inside it, and on the sweep after a Newton sweep that
    left it more than half as wide.

    Counts that come back out of order are rounding noise, and the
    bracket is as tight as the evaluator allows.  A one-root bracket ends as
    the span of its noisy cuts: a cut whose count falls outside its ends'
    counts, or both cuts when they come back swapped, since the root lies
    in the noise around them.  A bracket with several roots is cut at its
    other cut alone when only one is noisy, and kept as it is when both
    are; so is a bracket that no cut shrinks.  Returns ascending arrays
    lo, hi and m, the number of roots in each.
    """
    hi = float(hi)
    counts, steps = evaluate(first)
    # a first cut whose count leaves the range of the counts around it is noise
    kept = ((counts <= np.minimum.accumulate(np.concatenate(([n], counts[:-1]))))
            & (counts >= np.maximum.accumulate(np.concatenate(([0], counts[:0:-1])))[::-1]))
    ends = np.concatenate(([0.0], first[kept], [hi]))
    c = np.concatenate(([n], counts[kept], [0]))
    s = np.concatenate(([np.nan], steps[kept], [np.nan]))
    state = np.array([ends[:-1], ends[1:], c[:-1], c[1:], s[:-1], s[1:], np.full(len(c) - 1, np.inf)])
    done = []
    # the corrected estimate divides by steps and distances that may be 0 or
    # subnormal; one errstate serves every sweep, ``evaluate`` included
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while state.shape[1]:
            lo, up, c_lo, c_up, s_lo, s_up, parent = state
            width = up - lo
            tight = (width <= ROOT_REL_TOL * up) | (width >= parent)
            held = c_lo > c_up
            live = held & ~tight
            if not live.all():
                finished = held & tight
                if finished.any():
                    done.append(state[:4, finished])
                state, width = state[:, live], width[live]
                lo, up, c_lo, c_up, s_lo, s_up, parent = state
                if not len(lo):
                    break
            newton = width <= 0.5 * parent
            m = c_lo - c_up
            g_lo, g_up = lo - m * s_lo, up - m * s_up
            near_lo = np.abs(lo - g_lo) < np.abs(up - g_up)
            g = np.where(near_lo, g_lo, g_up)
            # one root r: 1/s = 1/(x - r) + S at either end, with S the pull of
            # the other roots, read at the far end with g for r
            x_n, x_f = np.where(near_lo, state[:2], state[1::-1])
            s_n, s_f = np.where(near_lo, state[4:6], state[5:3:-1])
            pull = 1.0 / s_f - 1.0 / (x_f - g)
            c = x_n - 1.0 / (1.0 / s_n - pull)
            corrected = (m == 1) & (lo < c) & (c < up)
            spread = np.where(corrected, 0.25 * np.abs(c - g), 2.0 * np.abs(g_lo - g_up))
            # g within [lo, up], as np.clip would put it; g is never -0.0
            g = np.where(corrected, c, np.minimum(np.maximum(g, lo), up))
            h = np.maximum(spread, _NEWTON_FLOOR * up)
            a, b = np.maximum(g - h, lo), np.minimum(g + h, up)
            # a window that reaches an end keeps its other cut and halves the rest
            a_in, b_in = a > lo, b < up
            q1 = np.where(a_in, a, 0.5 * (lo + b))
            q2 = np.where(b_in, b, 0.5 * (a + up))
            guided = newton & (a_in | b_in) & (lo < q1) & (q2 < up)
            third = width / 3
            p1 = np.where(guided, q1, lo + third)
            p2 = np.where(guided, q2, up - third)
            counts, steps = evaluate(np.concatenate([p1, p2]))
            k = len(lo)
            c1, c2 = counts[:k], counts[k:]
            stacked = np.array([lo, p1, p2, up, c_lo, c1, c2, c_up,
                                s_lo, steps[:k], steps[k:], s_up, width])
            # each count at most the one before it, along lo, p1, p2, up
            descending = stacked[4:7] >= stacked[5:8]
            if not descending.all():
                ordered = descending.all(axis=0)
                one = m == 1
                # a noisy cut: its count is outside its ends' counts, or the cuts swapped
                out1, out2 = (c1 > c_lo) | (c1 < c_up), (c2 > c_lo) | (c2 < c_up)
                swapped = ~out1 & ~out2 & (c1 < c2)
                # a bracket with several roots and one good cut is cut there alone
                good1, good2 = ~one & ~out1 & out2, ~one & out1 & ~out2
                if good1.any() or good2.any():
                    stacked[np.ix_(_CUT2, good1)] = stacked[np.ix_(_CUT1, good1)]
                    stacked[np.ix_(_CUT1, good2)] = stacked[np.ix_(_CUT2, good2)]
                    ordered |= good1 | good2
                n1, n2 = out1 | swapped, out2 | swapped
                f_lo = np.where(one, np.where(n1, p1, p2), lo)
                f_up = np.where(one, np.where(n2, p2, p1), up)
                noisy = ~ordered
                done.append(np.array([f_lo, f_up, c_lo, c_up])[:, noisy])
                stacked = stacked[:, ordered]
            state = stacked[_PIECES].reshape(7, -1)
    lo, up, c_lo, c_up = np.concatenate(done, axis=1)
    order = np.argsort(lo)
    return lo[order], up[order], (c_lo - c_up)[order].astype(int)


# -- single-particle energies ------------------------------------------------

@dataclass(frozen=True)
class SingleParticleEnergies:
    """Positive energies with multiplicities, ascending, and ``width``, the
    largest relative width of the certified brackets of their squares."""

    energies: tuple[tuple[float, int], ...]
    width: float

    @property
    def total(self) -> int:
        return sum(m for _, m in self.energies)

    def flat(self) -> list[float]:
        return [e for e, m in self.energies for _ in range(m)]


def _point(x: float, b: int) -> tuple[int, int]:
    """y = 2^b x as a / 2^t, with integers a and t >= 0."""
    a, d = x.as_integer_ratio()
    t = d.bit_length() - 1 - b
    return (a, t) if t >= 0 else (a << -t, 0)


def _horner(coeffs: Sequence[int], a: int, t: int) -> tuple[int, int]:
    """p(y) 2^(t n) and p'(y) 2^(t (n - 1)) at y = a / 2^t, for p of degree
    n with the integer ``coeffs``, highest first: one pass in integers."""
    f, g = coeffs[0], 0
    for j in range(1, len(coeffs)):
        g = g * a + f
        f = f * a + (coeffs[j] << t * j)
    return f, g


def _value(q: list[int], b: int, x: float) -> int:
    """Q(y) at y = 2^b x times a positive power of two: the pass of
    ``_horner`` without Q'."""
    a, t = _point(x, b)
    f = q[0]
    for j in range(1, len(q)):
        f = f * a + (q[j] << t * j)
    return f


def _value_and_step(q: list[int], b: int, x: float) -> tuple[int, float]:
    """Q(y) at y = 2^b x times a positive power of two, and the Newton step
    Q / Q' there in s."""
    a, t = _point(x, b)
    f, g = _horner(q, a, t)
    return f, _ratio(f, g << t + b)


def _count_and_step(q: list[int], b: int, x: float) -> tuple[int, float]:
    """The roots of Q above y = 2^b x by Descartes' rule of signs, exact for
    a real-rooted Q, and the Newton step Q / Q' there in s: both from the
    coefficients of 2^(t alpha) Q(y + z / 2^t), in integers."""
    a, t = _point(x, b)
    h = [c << t * j for j, c in enumerate(q)]
    n = len(h) - 1
    for i in range(n):  # the Taylor shift by a, one synthetic division at a time
        for j in range(1, n + 1 - i):
            h[j] += a * h[j - 1]
    signs = [c > 0 for c in h if c]
    return sum(u != v for u, v in zip(signs, signs[1:])), _ratio(h[-1], h[-2] << t + b)


def _newton(q: list[int], b: int, x: float) -> float:
    """At most 8 Newton steps on Q from s = x, while they move s and keep it
    in (0, 1)."""
    for _ in range(8):
        f, step = _value_and_step(q, b, x)
        if not f or not abs(step) < 1:  # at a root, or a step out of (0, 1)
            break
        nxt = x - step
        if nxt == x or not 0 < nxt < 1:
            break
        x = nxt
    return x


def single_particle_energies(poly: IndependencePolynomial) -> SingleParticleEnergies:
    """Energies e_j > 0 with P(-1/e_j^2) = 0, with multiplicities.

    The real parts of the companion eigenvalues of Q(2^b s) / 2^(b alpha),
    whose coefficients (-1)^k C_k / 2^(b k) are at most C(alpha, k), seed
    at most 8 Newton steps each.  When the brackets s -+ 2 ulp(s) around
    the results, at most 8.9e-16 of s wide, are disjoint and Q changes
    sign across each, the alpha roots are simple and certified, and each
    energy is its Newton result.  Otherwise ``roots_by_count`` isolates
    them by exact counts, cutting first at those brackets' ends; each
    bracket gives one energy, at its midpoint, with the roots it holds as
    its multiplicity.  The counts are exact on a real-rooted Q, as on
    every claw-free graph; elsewhere a complex pair near the axis passes
    for a double root, unless it breaks Newton's inequalities C_k^2 k
    (alpha - k) >= C_(k-1) C_(k+1) (k + 1) (alpha - k + 1), checked first.
    ``width`` is the largest (hi - lo) / hi of the brackets.

    Raises ComplexRootError when Newton's inequalities fail, or when
    c_alpha is 0, as a float that underflowed gives; and ConditioningError,
    with the number of roots isolated, when the lowest roots lie below
    every float of s, more than about 2^1074 below C_1.  At alpha = 0 there
    are no energies, and the width is 0.
    """
    alpha = poly.alpha
    if alpha == 0:  # P = 1: every weight is 0, and Q has no root
        return SingleParticleEnergies((), 0.0)
    ints = poly.ints
    q = [-c if k & 1 else c for k, c in enumerate(ints)]
    if not q[-1]:  # Q has a root at 0, which no energy has
        raise ComplexRootError(alpha)
    b = q[1].bit_length()
    companion = np.eye(alpha, k=-1)
    companion[0] = [-_ratio(c, 1 << b * k) for k, c in enumerate(q[1:], 1)]
    points = sorted(_newton(q, b, x) for x in np.linalg.eigvals(companion).real.tolist())
    mult = [1] * alpha
    lo = [x - 2 * math.ulp(x) for x in points]
    hi = [x + 2 * math.ulp(x) for x in points]
    ends = [x for pair in zip(lo, hi) for x in pair]
    if not (ends[0] > 0 and all(u < v for u, v in zip(ends, ends[1:]))
            and all(_value(q, b, u) * _value(q, b, v) < 0 for u, v in zip(lo, hi))):
        if any(c * c * k * (alpha - k) < a * d * (k + 1) * (alpha - k + 1)
               for k, (a, c, d) in enumerate(zip(ints, ints[1:], ints[2:]), 1)):
            raise ComplexRootError(alpha)

        def evaluate(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            pairs = [_count_and_step(q, b, x) for x in ws.tolist()]
            return (np.array([c for c, _ in pairs], dtype=int),
                    np.array([step for _, step in pairs], dtype=float))

        lo, hi, mult = roots_by_count(evaluate, alpha, 1.0,
                                      np.array(sorted({x for x in ends if 0 < x < 1})))
        if not lo[0] > 0:  # the lowest roots lie below the least float in s
            raise ConditioningError(
                f"isolated {alpha - int(mult[0])} real roots, expected {alpha}: the other "
                "squared energies lie more than about 2^1074 below the weight sum c_1, "
                "under every float of the scaled variable")
        lo, hi, mult = lo.tolist(), hi.tolist(), mult.tolist()
        points = [0.5 * (u + v) for u, v in zip(lo, hi)]
    power = b - poly.shift  # e^2 = s 2^power, applied after the root, so it cannot overflow
    energies = tuple((math.ldexp(math.sqrt(math.ldexp(x, power & 1)), power >> 1), m)
                     for x, m in zip(points, mult))
    return SingleParticleEnergies(energies, max((v - u) / v for u, v in zip(lo, hi)))


def sign_sums(energies: SingleParticleEnergies) -> np.ndarray:
    """The 2^alpha sums sum_k (+-e_k) over every sign pattern, ascending."""
    sums = np.zeros(1)
    for e in energies.flat():
        sums = (sums[:, None] + np.array([e, -e])).ravel()
    return np.sort(sums)


def free_spectrum(energies: SingleParticleEnergies, n: int) -> list[tuple[float, int]]:
    """All levels sum_k (+-e_k) with uniform extra degeneracy 2^(n - alpha).

    Sign patterns whose sums agree within 1e-9 (relative to the energy
    scale) are merged: sorted, a level opens at the first sum more than
    that above the sum that opened the level before.  Requires alpha <= n.
    """
    alpha = energies.total
    if alpha > n:
        raise ValueError(f"alpha={alpha} exceeds qubit count n={n}")
    base_deg = 1 << (n - alpha)
    sums = sign_sums(energies)
    tol = 1e-9 * max(abs(sums[0]), abs(sums[-1]), 1e-300)
    # a gap above tol always opens a level; only a run of smaller gaps that
    # spans more than tol needs the sequential rule
    gaps = np.diff(sums) > tol
    if gaps.all():  # every sum is a level of its own, and its own mean
        return list(zip(sums.tolist(), itertools.repeat(base_deg)))
    bounds = np.concatenate(([0], np.flatnonzero(gaps) + 1, [len(sums)]))
    extra = []
    for run in np.flatnonzero(sums[bounds[1:] - 1] - sums[bounds[:-1]] > tol).tolist():
        opener = sums[bounds[run]]
        for i in range(bounds[run] + 1, bounds[run + 1]):
            if sums[i] - opener > tol:
                extra.append(i)
                opener = sums[i]
    if extra:
        bounds = np.sort(np.concatenate((bounds, extra)))
    starts, counts = bounds[:-1], np.diff(bounds)
    # each level is its opener plus the mean offset from it: exact when the
    # sums agree
    openers = sums[starts]
    means = openers + np.add.reduceat(sums - np.repeat(openers, counts), starts) / counts
    return list(zip(means.tolist(), map(base_deg.__mul__, counts.tolist())))
