"""The vertex-weighted independence polynomial, its roots, and the
synthesized free spectrum.

The polynomial is P(x) = sum_k c_k x^k with c_k the sum over k-vertex
independent sets of the product of vertex weights, so c_0 = 1 and all
coefficients are nonnegative.  For claw-free graphs all roots are real
(and then negative, since the coefficients are positive), and the
single-particle energies e_j are defined by P(-1/e_j^2) = 0.

``single_particle_energies`` finds them as the roots w = e^2 of the
reversed polynomial

    R(w) = w^alpha P(-1/w) = sum_m (-1)^(alpha-m) c_(alpha-m) w^m ,

in one path.  The eigenvalues of R's companion matrix, clustered where
they are complex or equal, seed Newton steps in extended precision: on R
for a simple root, on R^(m-1) for a cluster of m.  One pass of counts
then certifies them all: the Budan-Fourier sign changes of R and its
derivatives, exact for real-rooted R, count the roots above each cut
halfway between two roots, and each root is checked against the rounding
noise of R.  A root that the noise could move by more than
ROOT_CERT_REL_TOL, or one the counts do not place, raises
ComplexRootError instead, as do complex roots.

``roots_by_count`` isolates roots by counting, for
``chains.chain_energies``.  It cuts (0, hi] on a function that counts the
roots above a point; for a real-rooted function that count is exact, so
every bracket it returns holds a known number of roots, repeated roots
included, wherever its cuts came from.  Its first sweep cuts at points
the caller gives.  Later sweeps place the two cuts of a bracket with one
root around its Newton estimate, corrected for the pull of the other
roots, which the step f/f' at the bracket's far end measures.  A bracket
with m roots, or one at 0 or hi, or whose corrected estimate falls
outside it, is cut around the plain Newton estimate m f/f', exact for an
m-fold root, or into thirds.  So the caller returns the Newton step f/f'
with each count: ``chains.chain_energies`` counts with the sign changes
of the chain recursion, carries its w-derivative for the step, and starts
from points spread like the levels of a gapless band.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ComplexRootError
from .graphs import WeightedGraph

ROOT_REL_TOL = 1e-15
# least half-width of a Newton window, relative: a window 0.8 ROOT_REL_TOL
# wide that holds its root finishes its bracket in one sweep
_NEWTON_FLOOR = 0.4 * ROOT_REL_TOL
# a root is returned only if the rounding bound moves it by at most this
# much, relative; the bound is a worst case, and on chain polynomials of up
# to 20 cells the roots it admits were within 1e-9 of 60-digit ones
ROOT_CERT_REL_TOL = 1e-6
_NOISE_ULPS = 4       # c in the rounding bound c (alpha + 1) eps sum_m |r_m| s^m
_CLUSTER_DISC = 4     # eigenvalues whose discs of this many |Im| meet form one cluster
_POLISH_STEPS = 80    # enough to halve (0, 1] down to neighbouring long doubles
_EPS = float(np.finfo(float).eps)


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



def weighted_independence_polynomial(graph: WeightedGraph) -> IndependencePolynomial:
    """c_0..c_alpha by memoized vertex elimination over remaining-vertex bitmasks.

    With v the lowest vertex of the remaining set S,

        P(S) = P(S - v) + x w_v P(S - N[v]),

    and P of a disconnected S is the product over its components.  Each
    distinct S is evaluated once, so a chain takes n + 1 states, and a
    graph whose vertex order leaves at most p earlier vertices adjacent to
    later ones takes at most about n 2^p.  The recursion runs on an
    explicit stack, so its depth is not bounded by Python's recursion
    limit; the loop walks the bitmask rows inline, and combines a state
    on its first visit when its children are known.  All terms are
    nonnegative, so no cancellation occurs.

    A vertex of weight 0 is not in the graph: the elimination starts from
    the vertices of positive weight, so its states and bits are those of
    the subgraph they induce, and alpha is theirs.  A coefficient that
    underflows stays at its degree as 0.0.
    """
    adj = graph.adj
    weights = graph.weights
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

    memo: dict[int, list[float]] = {0: [1.0]}
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
            out = [0.0] * (len(pa) + len(pb) - 1)
            for i, ca in enumerate(pa):
                for j, cb in enumerate(pb, i):
                    out[j] += ca * cb
        else:
            # len(pb) <= len(pa), as S - N[v] lies in S - v
            w = weights[v]
            out = pa + [0.0] if len(pb) == len(pa) else pa[:]
            for i, cb in enumerate(pb, 1):
                out[i] += w * cb
        memo[s] = out
    return IndependencePolynomial(tuple(memo[full]))


# -- root isolation by counting ---------------------------------------------

def filled_signs(values: np.ndarray) -> np.ndarray:
    """The signs of ``values`` down each column, where a zero takes the
    last sign above it that is not zero, and a zero in the first row keeps
    0.  The sign of NaN is NaN, which equals no sign, itself included."""
    signs = np.sign(values)
    rows = np.arange(len(signs))[:, None]
    last = np.maximum.accumulate(np.where(signs != 0, rows, 0), axis=0)
    return np.take_along_axis(signs, last, axis=0)


def sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign changes down each column of ``values``, zeros skipped."""
    negative = values < 0
    if (negative | (values > 0)).all():
        return np.count_nonzero(negative[1:] != negative[:-1], axis=0)
    filled = filled_signs(values)
    return np.count_nonzero(filled[1:] != filled[:-1], axis=0)


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
    bracket is as tight as the evaluator allows; an evaluator reports a
    count that rounding hides from it as -1.  A one-root bracket ends as
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
    """Positive energies with multiplicities, ascending, plus the root
    residual; None where the root counts alone certify the levels, as on
    ``chains.chain_energies``."""

    energies: tuple[tuple[float, int], ...]
    residual: float | None

    @property
    def total(self) -> int:
        return sum(m for _, m in self.energies)

    def flat(self) -> list[float]:
        return [e for e, m in self.energies for _ in range(m)]


def single_particle_energies(poly: IndependencePolynomial) -> SingleParticleEnergies:
    """Energies e_j > 0 with P(-1/e_j^2) = 0, with multiplicities.

    The roots w = e^2 of R(w) = w^alpha P(-1/w) are positive and sum to
    c_1.  They are sought in s = w / 2^p, with 2^p the power of two above
    c_1, so that the rescaling is exact and the roots lie in (0, 1).  Row
    j of ``taylor`` holds the coefficients of R^(j)(s) / j!, and the sign
    changes down the rows count the roots above s (Budan-Fourier, exact
    for real-rooted R).  The rounding noise of R^(j)(s) / j! is
    c (alpha + 1) eps times the same row with |coefficients|.

    The eigenvalues of R's companion matrix, sorted by real part, form
    clusters: neighbours whose discs of radius _CLUSTER_DISC |Im| meet.
    A cluster of m eigenvalues is placed at the simple root of R^(m-1),
    by Newton steps from its mean (see ``_polish``).  One pass of
    ``taylor`` then evaluates the cuts halfway between consecutive roots,
    the roots, and the floats next to them.  Where |R| at a cut is within
    noise the two clusters around it are joined and placed again.  The
    roots are certified when the count at every cut, outside the noise,
    is alpha less the roots below it; and at each root s of multiplicity
    m, R, ..., R^(m-2) vanish within noise, R^(m-1) changes sign between
    the floats next to s or vanishes within noise, and the noise over the
    slope of R^(m-1) is at most ROOT_CERT_REL_TOL s.  The residual is the
    largest |R(s)| / sum_m |r_m| s^m at the roots.

    Raises ComplexRootError, with the number of roots certified, unless
    every root is: then the roots are complex, or rounding hides where
    they are; and, before any root is sought, when a coefficient is not
    finite, as one that overflowed, or when R's constant term
    c_alpha / 2^(p alpha) is 0, as one that underflowed.  At alpha = 0
    there are no energies, and the residual is 0.
    """
    alpha = poly.alpha
    if alpha == 0:  # P = 1: every weight is 0, and R has no root
        return SingleParticleEnergies((), 0.0)
    coeffs = np.array(poly.coeffs)
    if not np.isfinite(coeffs).all():  # a coefficient overflowed: no root can be placed
        raise ComplexRootError(0, alpha)
    exponent = math.frexp(poly.coeffs[1])[1]
    unit = math.ldexp(1.0, exponent)
    degree = np.arange(alpha + 1)
    # R(unit s) / unit^alpha, where s^m has the coefficient
    # (-1)^(alpha-m) c_(alpha-m) / unit^(alpha-m): by ldexp, which is exact
    # and underflows only where that coefficient does, not where unit^-m does
    r = np.ldexp(coeffs * (-1.0) ** degree, -exponent * degree)[::-1]
    if not r[0]:  # c_alpha underflowed: R would have a root at 0, which no energy has
        raise ComplexRootError(0, alpha)
    binomials = _binomials(alpha)
    hankel = np.concatenate([r, np.zeros(alpha)])[degree[:, None] + degree]  # r_(j+d)
    taylor = binomials * hankel
    rounding = _NOISE_ULPS * (alpha + 1) * np.finfo(float).eps

    companion = np.eye(alpha, k=-1)
    companion[0] = -r[-2::-1]  # the leading coefficient, c_0, is 1
    eigenvalues = np.sort(np.linalg.eigvals(companion))
    total, mult = eigenvalues.real, np.ones(alpha, dtype=int)
    # neighbours whose discs of radius _CLUSTER_DISC |Im| meet form one
    # cluster, so real ones only where they are equal
    if np.iscomplexobj(eigenvalues) or not (total[1:] > total[:-1]).all():
        radius = _CLUSTER_DISC * np.abs(eigenvalues.imag)
        starts = np.flatnonzero(np.append(True, np.abs(np.diff(eigenvalues))
                                          > radius[:-1] + radius[1:]))
        total, mult = np.add.reduceat(total, starts), np.diff(np.append(starts, alpha))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            s = _polish(total / mult, mult, binomials, hankel)
            order = np.argsort(s)
            s, total, mult = s[order], total[order], mult[order]
            k, top = len(s), int(mult.max())
            # the cuts, the roots and the floats next to them, in one pass
            table = np.ones((alpha + 1, 4 * k - 1))
            table[1:] = np.concatenate([0.5 * (s[:-1] + s[1:]), s,
                                        np.nextafter(s, 0), np.nextafter(s, 1)])
            x = np.cumprod(table, axis=0)
            t = taylor @ x
            scale = np.abs(taylor[:top]) @ x
            small = np.abs(t[:top]) <= rounding * scale  # within noise
            if not small[0, :k - 1].any():
                break
            # R within noise between two clusters: join them, and place them again
            starts = np.flatnonzero(np.append(True, ~small[0, :k - 1]))
            total, mult = np.add.reduceat(total, starts), np.add.reduceat(mult, starts)
        fits = sign_changes(t[:, :k - 1]) == alpha - np.cumsum(mult)[:-1]
        # the row m - 1 of each root, and its columns at s and at the floats
        # below and above s
        if top == 1:  # every root simple: row 0, read by slices
            rows, (at, down, up) = 0, (slice(j * k - 1, j * k + k - 1) for j in (1, 2, 3))
        else:
            rows, (at, down, up) = mult - 1, np.arange(k - 1, 4 * k - 1).reshape(3, k)
        vanish = np.all(small[:, at] | (degree[:top, None] >= rows), axis=0)
        # R^(m-1) changes sign between the floats next to s, or vanishes within noise
        located = (t[rows, down] * t[rows, up] <= 0) | small[rows, at]
        # noise over slope, where the slope of R^(m-1)(s) / (m-1)! is m R^(m)(s) / m!
        pinned = (rounding * scale[rows, at]
                  <= ROOT_CERT_REL_TOL * s * mult * np.abs(t[rows + 1, at]))
    certified = vanish & located & pinned
    if not (fits.all() and certified.all()):
        certified &= np.append(True, fits) & np.append(fits, True)
        raise ComplexRootError(int(mult[certified].sum()), alpha)
    energies = tuple((math.sqrt(unit * x), m) for x, m in zip(s.tolist(), mult.tolist()))
    return SingleParticleEnergies(energies, float(np.max(np.abs(t[0, at]) / scale[0, at])))


def _polish(seeds: np.ndarray, mult: np.ndarray, binomials: np.ndarray,
            hankel: np.ndarray) -> np.ndarray:
    """The simple root of R^(m-1) nearest each seed, m its multiplicity.

    Newton steps run from every seed at once in extended precision where
    the platform has it, with R^(m-1) / (m-1)!, its slope m R^(m) / m!
    and the rounding bound of the value evaluated by one matrix product
    over a table of powers, until every step is below the float
    resolution or the noise over the slope.
    """
    alpha = len(hankel) - 1
    top = int(mult.max())
    wide = binomials[:top + 1].astype(np.longdouble) * hankel[:top + 1].astype(np.longdouble)
    coeffs = np.concatenate([wide, _NOISE_ULPS * (alpha + 1) * np.finfo(np.longdouble).eps
                             * np.abs(wide[:top])])
    s = seeds.astype(np.longdouble)
    table = np.ones((alpha + 1, len(s)), dtype=np.longdouble)
    for _ in range(_POLISH_STEPS):
        table[1:] = s
        out = coeffs @ np.cumprod(table, axis=0)
        if top == 1:
            f, slope, bound = out
        else:  # the rows of R^(m-1) / (m-1)!, its slope and its bound, column by column
            f, slope, bound = out[[mult - 1, mult, top + mult], np.arange(len(s))]
            slope = mult * slope
        step = f / slope
        s = s - step
        # steps end below the float resolution, or within the rounding
        # noise of the extended precision
        if (np.abs(step) <= np.maximum(_EPS * s, bound / np.abs(slope))).all():
            break
    return s.astype(float)


@functools.lru_cache(maxsize=16)
def _binomials(alpha: int) -> np.ndarray:
    """The read-only table of C(j + d, j) at row j and column d, for j and
    d up to alpha: row j is the running sum of row j - 1, in integers."""
    row = [1] * (alpha + 1)
    rows = [row]
    for _ in range(alpha):
        row = list(itertools.accumulate(row))
        rows.append(row)
    table = np.array(rows, dtype=float)
    table.flags.writeable = False
    return table


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
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(sums) > tol) + 1, [len(sums)]))
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
    return [(v, c * base_deg) for v, c in zip(means.tolist(), counts.tolist())]
