"""Numerics for the staggered distance-k chain family.

The energies come from the isolator by counting,
``indpoly.roots_by_count``, fed with the sign changes of the chain's
independence polynomial built vertex by vertex on the squared couplings
(``chain_values``) rather than with the monomial coefficients, which lose
the roots to rounding beyond a dozen or so cells, and with the Newton
step of its last row.  The elementary symmetric polynomials e_l of the
squared couplings serve only the bound on the roots and the dispersion.
The first sweep cuts at two kinds of points: powers of two toward 0,
and a pair 1e-13 either side of each level that the chain's dispersion
predicts, Fendley's free-fermion dispersion sampled at quantized momenta
(``_dispersion_levels``).  The prediction only places cuts: every
bracket is still cut and closed by counts, so a missing or wrong
prediction costs sweeps, never a level.  Dispersion relations and gap
scans are finite-N: the spectrum is computed at two sizes and the trend
decides gapless vs gapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelError
from .indpoly import SingleParticleEnergies, roots_by_count

GAPLESS_RATIO_MARGIN = 0.1
RESCALE_ROWS = 16  # cells between two rescalings in ``chain_values``
PREDICTED_HALF_WIDTH = 1e-13  # the first sweep cuts at w (1 -+ this) around a predicted level
NEWTON_STEPS = 9  # the steps of ``_dispersion_levels``


@dataclass(frozen=True)
class ChainSpec:
    """N unit cells of block size k with squared couplings b2[0..k-1]."""

    n_cells: int
    k: int
    b2: tuple[float, ...]

    def __post_init__(self):
        if self.n_cells < 1:
            raise ModelError(f"N must be >= 1, got {self.n_cells}")
        if self.k < 2:
            raise ModelError(f"k must be >= 2, got {self.k}")
        if len(self.b2) != self.k:
            raise ModelError(f"expected {self.k} squared couplings, got {len(self.b2)}")
        if not math.isfinite(sum(self.b2)):
            raise ModelError("squared couplings and their sum must be finite")
        if any(b < 0 for b in self.b2):
            raise ModelError("squared couplings must be nonnegative")


def elementary_symmetric(b2: Sequence[float]) -> tuple[float, ...]:
    """e_0..e_k of the squared couplings, one-pass recurrence, e_0 = 1."""
    e = [1.0] + [0.0] * len(b2)
    for count, w in enumerate(b2, start=1):
        for j in range(count, 0, -1):
            e[j] += e[j - 1] * w
    return tuple(e)


def filled_signs(values: np.ndarray) -> np.ndarray:
    """The signs of ``values`` down each column, where a zero takes the
    last sign above it that is not zero, and a zero in the first row keeps
    0.  The sign of NaN is NaN, which equals no sign, itself included."""
    signs = np.sign(values)
    rows = np.arange(len(signs))[:, None]
    last = np.maximum.accumulate(np.where(signs != 0, rows, 0), axis=0)
    return np.take_along_axis(signs, last, axis=0)


def chain_values(b2: Sequence[float], n_cells: int, ws: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The sign changes along the cells of the chain's vertex recursion at
    each w in ``ws``, and the Newton step Q / Q' in w of its last row, 0
    where that row is exactly 0.

    With G_i the chain graph on vertices 0..i and x = -1/w, vertex i = ck + r
    of cell c has Q_i = w^(c+1) P(G_i)(x) = w^[r = 0] Q_(i-1) - b2_r Q_(i-k),
    with Q_(-k) .. Q_(-1) = 1, the empty graph: the recursion that the
    tests count in integers, here in floats on the squared couplings
    themselves, so that no input is rounded before it.  Removing the last
    cell, a simplicial clique, interlaces, so the sign changes along 1,
    Q_(k-1), Q_(2k-1), .., Q_(Nk-1), the last row of each cell, count the
    roots above w.  The last row, w^N P(-1/w), is the polynomial of degree
    N in w whose roots are the levels; its derivative, Q'_i = [r = 0]
    Q_(i-1) + w^[r = 0] Q'_(i-1) - b2_r Q'_(i-k), runs alongside it.

    Two cells of k rows alternate, values in columns :m and derivatives in
    m:, the one the recursion reads and the one it writes, so the views of
    each row are built once per call.  A cell is one multiply of the cell
    before by -b2, repeated across the columns (a (k, 1) column broadcast
    took 5.8 us against 2.5 us at k = 4 and 1,000 points, 2-core x86-64 VM),
    the head w Q_(i-1) with its derivative Q_(i-1) + w Q'_(i-1), and k - 1
    in-place row adds; its last value row is kept.  After RESCALE_ROWS cells
    those rows give their sign changes, counted from the last row of the
    block before, and a zero takes the last sign above it, in the block
    before too, so that the counts are the sign changes over all the cells,
    zeros skipped.  Then the cell is rescaled by a power of two, the same for
    a value and its derivative, that puts the largest of its values in
    [1/2, 1).  That changes neither signs, nor rounding, nor the step while
    every row is a normal float.  With sum(b2) < 4 and 0 < w < 2^6, as
    ``chain_energies`` arranges, a row is at most w + sum(b2) < 2^7 times
    the largest of the cell before, so no row exceeds 2^112 before the next
    rescaling.  A cell at most 2^53 times smaller than the one before, as one
    ulp from the root of a decoupled chain, where each cell is w - 1 times
    the last, stays above 2^-849, in the normal range.

    The least |Q| of a block's last rows, NaN or 0 where one is, alone
    sends the block to the filled signs.  The sign changes are a uint8 sum
    of the XORs of ``np.signbit``.  The exponents stay ``np.intc``, as
    ``np.frexp`` returns them, because ``np.ldexp`` has a loop of its own
    for them: with int64 exponents a rescaling took 22 us at k = 4 and 450
    points, against 4 us (2-core x86-64 VM).  Every call is elementwise, so
    a point's count and step depend on its own w alone.
    """
    k, m = len(b2), len(ws)
    minus_b2 = np.repeat(-np.array(b2, dtype=float)[:, None], 2 * m, axis=1)
    cells = np.zeros((2, k, 2 * m))
    cells[1, :, :m] = 1.0  # Q_(-k) .. Q_(-1), read by the first cell
    # the last value row of the block before (1 at first), then one per cell of a block
    lasts = np.ones((min(RESCALE_ROWS, n_cells) + 1, m))
    w2 = np.concatenate([ws, ws])
    head = np.empty(2 * m)
    head_derivative = head[m:]
    multiply, add, copyto = np.multiply, np.add, np.copyto
    # cell c of a block is cells[c % 2] and reads the other: the cell, the
    # cell before, the last row of that and its value half, the first row,
    # the (row, row before) of the adds, and the last value row
    steps = [(cells[c], cells[1 - c], cells[1 - c, -1], cells[1 - c, -1, :m], cells[c, 0],
              list(zip(cells[c, 1:], cells[c, :-1])), cells[c, -1, :m]) for c in (0, 1)]
    kept = list(lasts[1:])
    counts = np.zeros(m, dtype=np.intp)
    # the signs of lasts[0] with each zero filled from above, or None while
    # no last row has held a 0 or NaN and its own signs serve
    carried = None
    # the rows stay in float range (see above): what divides by 0 is the
    # step at a multiple root
    with np.errstate(divide="ignore", invalid="ignore"):
        for done in range(0, n_cells, RESCALE_ROWS):
            rows = min(RESCALE_ROWS, n_cells - done)
            for c in range(rows):
                cell, before, before_last, before_value, first, adds, value = steps[c % 2]
                multiply(before, minus_b2, cell)
                multiply(w2, before_last, head)
                add(head_derivative, before_value, head_derivative)
                add(first, head, first)
                for row, prev in adds:
                    add(row, prev, row)
                copyto(kept[c], value)
            block = lasts[:rows + 1]
            # NaN if the block holds a NaN, 0 if it holds a 0
            if carried is None and np.minimum.reduce(np.abs(block[1:]), None, initial=np.inf) > 0:
                negative = np.signbit(block)
                # at most RESCALE_ROWS changes a block: a uint8 holds them
                counts += add.reduce(np.bitwise_xor(negative[1:], negative[:-1]), 0, np.uint8)
            else:
                signs = block.copy()
                if carried is not None:
                    signs[0] = carried
                filled = filled_signs(signs)
                counts += (filled[1:] != filled[:-1]).sum(axis=0)
                carried = filled[-1]
            if done + rows < n_cells:
                lasts[0] = lasts[rows]
                _, shift = np.frexp(np.maximum.reduce(np.abs(cell[:, :m])))
                pairs = cell.reshape(k, 2, m)  # one exponent per point scales both halves
                np.ldexp(pairs, np.negative(shift, shift), pairs)
        last = cell[-1]
        # at a multiple root that is a float the step is 0 / 0; it is 0
        step = np.where(last[:m] == 0, 0.0, last[:m] / last[m:])
    return counts, step


def _dispersion_levels(e: Sequence[float], n_cells: int) -> np.ndarray:
    """The levels w in (0, sum(e)) that the dominant pair of characteristic
    roots of the cell recursion predicts, at most one per j = 0..N-1,
    unordered.

    With P_s the polynomial of the first s cells, v_{s+1} = w^(s+1)
    P_s(-1/w) obeys v_{s+1} = w v_s - sum_l e_l v_{s-l+1}, whose
    characteristic polynomial is chi_w(lam) = lam^k - (w - e_1) lam^(k-1)
    + e_2 lam^(k-2) + ... + e_k, and v_{N+1} = w sum_i lam_i^(N+k-1) /
    chi_w'(lam_i).  The roots of chi_w are the lam
    with w(lam) = w, where w(lam) = lam + e_1 + sum_{l>=2} e_l lam^(1-l).
    A conjugate pair lam = r e^(i theta) of a real w lies on the curve
    Im w(lam) = 0, that is r^k = sum_{l>=2} e_l U_(l-2)(cos theta) r^(k-l)
    with U the Chebyshev polynomials of the second kind; the pair is taken
    at its largest r.  Kept alone, it puts the zeros of v_{N+1} where
    (N+k-1) theta - arg chi_w'(lam) = (j + 1/2) pi.  As chi_w'(lam) =
    lam^(k-1) w'(lam), and dw = a (r'/r + i) d theta is real along the
    curve, with a = lam w'(lam) = dw / d ln(lam), that is
    (N+1) theta_j - arctan(r'/r) = (j + 1) pi, with r'/r = -Re a / Im a.
    For k = 2, r = sqrt(e_2) and r' = 0: w_j = e_1 + 2 sqrt(e_2)
    cos((j+1) pi / (N+1)), the exact levels.

    From theta_j = (j+1) pi / (N+1) and r at a bound on every root,
    NEWTON_STEPS Newton steps solve both equations at once in (ln r,
    theta), as the imaginary parts of the analytic w and (N+1) ln(lam) -
    ln(a).  Where no pair exists, or the steps leave the curve, the level
    is not finite or leaves (0, sum(e)), and is dropped.
    """
    # e_l = 0 beyond the number of nonzero couplings: those roots of chi_w
    # are 0, and with one coupling every level is e_1
    k, n = max(l for l, x in enumerate(e) if x), n_cells
    if k == 1:
        return np.array(e[1:2])
    ls = np.arange(1.0, k)  # l - 1 for l = 2..k
    el = np.array(e[2:k + 1])
    # w - e_1, a and da / d ln(lam) are lam plus these rows times lam^(1-l)
    weights = np.array([el, -ls * el, ls * ls * el], dtype=complex)
    quantized = np.pi * np.arange(1, n + 1)
    theta = quantized / (n + 1)
    # Fujiwara's bound on the roots r, as |U_(l-2)| <= l - 1
    r = np.full(n, 2 * max((m * x) ** (1 / (m + 1)) for m, x in enumerate(el, start=1)))
    lam = np.empty(n, dtype=complex)
    powers = np.empty((k - 1, n), dtype=complex)  # lam^(1-l) for l = 2..k
    # a lam of 0 or beyond float range makes NaN or infinity, which is dropped
    with np.errstate(all="ignore"):
        for step in range(NEWTON_STEPS + 1):
            np.multiply(r, np.cos(theta), lam.real)
            np.multiply(r, np.sin(theta), lam.imag)
            np.divide(1.0, lam, powers[0])
            for row in range(1, k - 1):
                np.multiply(powers[row - 1], powers[0], powers[row])
            w, a, da = lam + weights @ powers
            if step == NEWTON_STEPS:
                break
            # Im(a dz) = -Im w and Im(b dz) = -f for dz = d ln(r) + i d theta
            b = (n + 1) - da / a
            f = (n + 1) * theta - np.arctan(-a.real / a.imag) - quantized
            det = a.imag * b.real - a.real * b.imag
            r = r * np.exp((f * a.real - w.imag * b.real) / det)
            theta = theta + (w.imag * b.imag - f * a.imag) / det
        w = e[1] + w.real
        return w[(w > 0) & (w < sum(e))]


def _first_cuts(e: Sequence[float], n_cells: int) -> np.ndarray:
    """The points of the first sweep of ``chain_energies``, ascending: the
    powers of two sum(e) 2^-2 .. 2^-59 and w (1 -+ PREDICTED_HALF_WIDTH)
    around each level w of ``_dispersion_levels``."""
    levels = _dispersion_levels(e, n_cells)
    return np.sort(np.concatenate([sum(e) * np.exp2(-np.arange(2.0, 60.0)),
                                   levels * (1 - PREDICTED_HALF_WIDTH),
                                   levels * (1 + PREDICTED_HALF_WIDTH)]))


def chain_energies(spec: ChainSpec) -> SingleParticleEnergies:
    """All N single-particle energies of the chain, with multiplicities.

    ``chain_values`` counts the roots w = eps^2 above w, and
    ``roots_by_count`` isolates them with that count; levels that rounding
    cannot split, as in dimerized chains, share one bracket and come back
    as one energy with multiplicity.  Each bracket gives one energy at its
    midpoint; the width, that of the widest bracket, relative, bounds a
    level only where its counts are exact.

    The chain solved is the one with b2 / 4^j, where the power of four
    puts sum(b2) / 4^j in [1, 4), which keeps ``chain_values`` in float
    range; its energies are 2^-j times these, exactly.  The first sweep,
    ``_first_cuts``, cuts at w (1 -+ PREDICTED_HALF_WIDTH) around each
    level w of ``_dispersion_levels`` and at 2^-2 .. 2^-59 of the largest
    possible root, toward the lowest levels of a gapless chain.  Where a
    prediction holds, as it does for most levels to about 1e-15, its pair
    closes a bracket around the level at once, and the Newton steps at
    both ends finish it in a sweep or two.  The predictions are points
    like any other: the counts decide what each bracket holds, and a
    bracket that a missed prediction leaves with several levels is split
    by Newton windows and thirds in the sweeps after, so a miss costs
    sweeps, never a level.  With every coupling 0 the one level is 0, of
    multiplicity N, at once.
    """
    if not any(spec.b2):
        return SingleParticleEnergies(((0.0, spec.n_cells),), 0.0)
    j = (math.frexp(sum(spec.b2))[1] - 1) // 2
    b2 = [math.ldexp(b, -2 * j) for b in spec.b2]
    e = elementary_symmetric(b2)
    n = spec.n_cells

    # no root exceeds the largest row sum of the chain's recursion matrix
    # (``test_chains.recursion_matrix``), sum(e) = prod(1 + b2_i)
    hi = sum(e)
    lo, up, m = roots_by_count(lambda ws: chain_values(b2, n, ws), n, hi, _first_cuts(e, n))
    # np.sqrt and np.ldexp round as math.sqrt and math.ldexp do
    levels = np.ldexp(np.sqrt(0.5 * (lo + up)), j).tolist()
    width = float(np.max((up - lo) / up))
    return SingleParticleEnergies(tuple(zip(levels, m.tolist())), width)


def dispersion(spec: ChainSpec) -> list[tuple[float, float]]:
    """Finite-size dispersion points (p_j, eps_j).

    Momenta p_j = pi j / (N+1) follow open-boundary standing-wave
    counting; energies are attached in descending order so the monotone
    branch decreases toward p = pi (a labeling convention).
    """
    eng = chain_energies(spec)
    eps_desc = sorted(eng.flat(), reverse=True)
    n = spec.n_cells
    return [(math.pi * (j + 1) / (n + 1), eps_desc[j]) for j in range(n)]


def _min_energy(spec: ChainSpec) -> float:
    """Smallest single-particle energy of the chain."""
    return chain_energies(spec).energies[0][0]


@dataclass(frozen=True)
class ScanPoint:
    b2: tuple[float, ...]
    gap_small: float
    gap_large: float
    gapless: bool


def gap_scan(k: int, coupling_grid: Sequence[Sequence[float]], n_small: int,
             n_large: int) -> list[ScanPoint]:
    """Two-size gap trend per grid point.

    A point is flagged gapless when the minimum energy shrinks at least
    as fast as the system grows: gap(N') / gap(N) < N/N' +
    GAPLESS_RATIO_MARGIN.
    """
    if not n_small < n_large:
        raise ModelError("need two sizes N < N'")
    out = []
    threshold = n_small / n_large + GAPLESS_RATIO_MARGIN
    for b2 in coupling_grid:
        b2 = tuple(float(v) for v in b2)
        gap_s = _min_energy(ChainSpec(n_small, k, b2))
        gap_l = _min_energy(ChainSpec(n_large, k, b2))
        gapless = gap_l < threshold * gap_s
        out.append(ScanPoint(b2, gap_s, gap_l, gapless))
    return out


def unit_sum_fill(k: int, given: Mapping[int, float]) -> tuple[float, ...]:
    """The k squared couplings with b2[i] = given[i] where it is given: the
    others share what is left of a unit sum equally, so with none given each
    is 1/k.  Every given value must lie in [0, 1], and with every entry given
    they must sum to 1."""
    if given and max(given) >= k:
        raise ModelError(f"squared coupling b{max(given) + 1}^2 is beyond k = {k}")
    for v in given.values():
        if not 0 <= v <= 1.0:  # written so that a NaN fails it
            raise ModelError(f"squared coupling {v} outside [0, 1.0]")
    fixed = sum(given.values())
    free = k - len(given)
    if given and not (fixed <= 1.0 + 1e-12 and (free or abs(fixed - 1.0) <= 1e-9)):
        raise ModelError("squared couplings must sum to 1 under the fill convention")
    rest = (1.0 - fixed) / free if free else 0.0
    return tuple(given.get(i, rest) for i in range(k))
