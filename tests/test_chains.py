"""Chain-family numerics: recursion, recursion matrix, dispersion, gaps."""

import math
import random
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EPS,
    assert_same_energies,
    certify_groups,
    chain_polynomial,
    chain_values_all_rows,
    plain_chain_energies,
    record_sweeps,
    sign_changes,
    use_midpoint_bisection,
)
from ffsolve import chains
from ffsolve.chains import (
    ChainSpec,
    chain_energies,
    chain_values,
    dispersion,
    elementary_symmetric,
    gap_scan,
    unit_sum_fill,
)
from ffsolve.errors import ModelError
from ffsolve.graphs import frustration_graph
from ffsolve.indpoly import (
    ROOT_REL_TOL,
    SingleParticleEnergies,
    single_particle_energies,
    weighted_independence_polynomial,
)
from ffsolve.models import chain_model


@dataclass(frozen=True)
class RecursionMatrix:
    """Banded Toeplitz matrix of the chain recursion, bandwidth k+1.

    Its eigenvalues with the standing-wave boundary conditions are the
    squared single-particle energies.
    """

    size: int
    entries: tuple[float, ...]  # e_0..e_k

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        for s in range(self.size):
            for ell, el in enumerate(self.entries):
                sp = s - ell + 1
                if 0 <= sp < self.size:
                    m[s, sp] = el
        return m


def recursion_matrix(spec: ChainSpec) -> RecursionMatrix:
    return RecursionMatrix(spec.n_cells, elementary_symmetric(spec.b2))


def boundary_vector(spec: ChainSpec, eps_sq: float) -> np.ndarray:
    """v_1..v_{N+1} with v_s = eps^(2s) P_{chain(s-1)}(-eps^(-2)).

    Built by the recursion v_{s+1} = eps^2 v_s - sum_l e_l v_{s-l+1} with
    v_0 = ... = v_{2-k} = 0 and v_1 = eps^2.  Uniformly rescaled when the
    entries grow past float range (scaling preserves the identities).
    """
    e = elementary_symmetric(spec.b2)
    vs = [0.0] * (spec.k - 1) + [eps_sq]  # indices 2-k .. 0 are zeros, then v_1
    top = abs(eps_sq)
    for s in range(1, spec.n_cells + 1):
        acc = eps_sq * vs[-1]
        for ell in range(1, spec.k + 1):
            acc -= e[ell] * vs[-ell]
        vs.append(acc)
        top = max(top, abs(acc))
        if top > 1e250:
            vs = [v / top for v in vs]
            top = 1.0
    return np.array(vs[spec.k - 1:])  # v_1 .. v_{N+1}


def verify_boundary(spec: ChainSpec, eps: float) -> bool:
    """Both boundary conditions, v_{N+1} = 0 and R v = eps^2 v componentwise,
    to 1e-8 of max_s |v_s|."""
    v = boundary_vector(spec, eps * eps)
    scale = max(np.max(np.abs(v)), 1e-300)
    if abs(v[-1]) > 1e-8 * scale:
        return False
    interior = v[:-1]
    resid = recursion_matrix(spec).matrix @ interior - (eps * eps) * interior
    # row N of the matrix product assumes v_{N+1} = 0, which we just checked
    return bool(np.max(np.abs(resid)) <= 1e-8 * scale)


def test_elementary_symmetric_examples():
    assert elementary_symmetric((1.0, 1.0, 1.0)) == (1.0, 3.0, 3.0, 1.0)
    assert elementary_symmetric((2.5,)) == (1.0, 2.5)
    e = elementary_symmetric((0.25, 0.25, 0.25, 0.25))
    assert e[0] == 1.0 and abs(e[1] - 1.0) < 1e-15


def test_chain_polynomial_n1_single_clique():
    spec = ChainSpec(1, 3, (0.5, 1.0, 1.5))
    assert chain_polynomial(spec).coeffs == (1.0, 3.0)


def test_chain_polynomial_k4_printed_expansion():
    """The k=4 recursion written out term by term."""
    rng = random.Random(9)
    b2 = tuple(rng.uniform(0.2, 1.4) for _ in range(4))
    e = elementary_symmetric(b2)
    polys = {0: np.array([1.0])}
    for n in range(1, 7):
        acc = np.zeros(n + 1)

        def add(scale, poly, shift):
            acc[shift:shift + len(poly)] += scale * poly

        add(1.0, polys[n - 1], 0)
        add(e[1], polys[n - 1], 1)          # -u^2 e1 -> +x e1
        if n >= 2:
            add(-e[2], polys[n - 2], 2)     # -u^4 e2 -> -x^2 e2
        if n >= 3:
            add(e[3], polys[n - 3], 3)
        if n >= 4:
            add(-e[4], polys[n - 4], 4)
        polys[n] = acc
    spec = ChainSpec(6, 4, b2)
    got = chain_polynomial(spec).coeffs
    assert np.allclose(got, polys[6], rtol=1e-12)


@pytest.mark.parametrize("n_cells,k", [(3, 3), (2, 2), (4, 3), (6, 5), (5, 4)])
def test_chain_polynomial_equals_enumeration(n_cells, k):
    rng = random.Random(n_cells * 10 + k)
    b = [rng.choice([-1, 1]) * rng.uniform(0.4, 1.5) for _ in range(k)]
    spec = ChainSpec(n_cells, k, tuple(v * v for v in b))
    via_recursion = chain_polynomial(spec)
    via_enum = weighted_independence_polynomial(
        frustration_graph(chain_model(n_cells, k, b)))
    assert via_recursion.alpha == via_enum.alpha == n_cells
    for a, c in zip(via_recursion.coeffs, via_enum.coeffs):
        assert abs(a - c) <= 1e-10 * max(abs(a), abs(c), 1.0)


def test_recursion_matrix_shape():
    spec = ChainSpec(5, 3, (1.0, 0.5, 0.25))
    m = recursion_matrix(spec).matrix
    e = elementary_symmetric(spec.b2)
    assert m.shape == (5, 5)
    assert m[1, 2] == 1.0 and m[1, 1] == e[1] and m[1, 0] == e[2]
    assert m[3, 0] == 0.0  # bandwidth k+1
    # Toeplitz: constant along diagonals
    for d in range(-3, 2):
        vals = [m[i, i + d] for i in range(max(0, -d), min(5, 5 - d))]
        assert len(set(vals)) == 1


def test_recursion_matrix_eigenvalues_are_squared_energies():
    spec = ChainSpec(6, 3, (1.0, 0.64, 1.44))
    ev = np.sort(np.linalg.eigvals(recursion_matrix(spec).matrix).real)
    eps = np.array(chain_energies(spec).flat())
    assert np.allclose(np.sort(eps ** 2), ev, rtol=1e-8)


def test_boundary_conditions_at_roots():
    spec = ChainSpec(5, 3, (0.9, 1.1, 0.5))
    for chain in (spec, ChainSpec(240, 4, (0.8, 1.2, 0.5, 1.0))):
        for e, _ in chain_energies(chain).energies:
            assert verify_boundary(chain, e)
    # a non-root fails
    assert not verify_boundary(spec, 123.456)


def test_boundary_vector_n1_case():
    # v_2(eps^2) = 0 iff eps^2 = e_1
    spec = ChainSpec(1, 3, (0.5, 1.0, 1.5))
    e1 = 3.0
    v = boundary_vector(spec, e1)
    assert abs(v[-1]) < 1e-12
    assert verify_boundary(spec, math.sqrt(e1))
    assert not verify_boundary(spec, math.sqrt(e1) + 0.1)


def exact_root_count(spec: ChainSpec, w: float) -> int:
    """Number of squared energies >= w, in exact integer arithmetic.

    With G_i the chain graph on its first i vertices, vertex i is
    simplicial in G_i, so P(G_(i-1)) interlaces P(G_i) and the sign changes
    along P(G_0)(x), ..., P(G_n)(x) at x = -1/w count the roots of P(G_n)
    in [x, 0).  With a_j / d = b2_j / w over a common denominator d, the
    integers Q_i = d^ceil(i/k) P(G_i)(x) obey
    Q_i = d^[i = 1 mod k] Q_(i-1) - a_((i-1) mod k) Q_(i-k).
    """
    k = spec.k
    ratios = [Fraction(b) / Fraction(w) for b in spec.b2]
    d = math.lcm(*(r.denominator for r in ratios))
    a = [int(r * d) for r in ratios]
    window = [1] * k  # Q_(i-k) .. Q_(i-1); G_j is empty for j <= 0
    changes, sign = 0, 1
    for i in range(spec.n_cells * k):
        q = window[-1] * (d if i % k == 0 else 1) - a[i % k] * window[0]
        window = window[1:] + [q]
        if q:
            changes += (q > 0) != (sign > 0)
            sign = q
    return changes


def certify_by_count(spec: ChainSpec, energies, rel: float = 1e-9) -> None:
    """Each group of energies, widened by ``rel``, holds exactly as many
    roots as it has members."""
    certify_groups(lambda w: exact_root_count(spec, w), spec.n_cells, energies, rel)


@pytest.mark.parametrize("spec", [
    ChainSpec(40, 3, (0.62, 1.31, 0.45)),
    ChainSpec(100, 4, (0.98, 1.01, 0.29, 0.22)),
    ChainSpec(240, 4, (1.29, 0.54, 0.50, 1.49)),
    ChainSpec(120, 2, (0.9999, 0.0001)),           # dimerized
    ChainSpec(200, 3, (0.4995, 0.4995, 0.001)),
    ChainSpec(50, 3, (0.0, 0.0, 1.0)),             # decoupled cliques
])
def test_chain_energies_certified_by_exact_count(spec):
    certify_by_count(spec, chain_energies(spec))


def random_chains(seed: int, count: int) -> list[ChainSpec]:
    """Chains with k = 2..4 and N <= 240, squared couplings drawn on the
    unit simplex; every third has one coupling at an edge, 0 or 1e-4."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        k = rng.randint(2, 4)
        b2 = [rng.random() for _ in range(k)]
        if i % 3 == 0:
            b2[rng.randrange(k)] = rng.choice((0.0, 1e-4))
        total = sum(b2)
        specs.append(ChainSpec(rng.randint(1, 240), k, tuple(b / total for b in b2)))
    return specs


def levels_outside(spec: ChainSpec, got: SingleParticleEnergies, which) -> list[tuple]:
    """(level, multiplicity, margin) of each level ``got.energies[i]``, i in
    ``which``, that exact counts do not place inside w (1 -+ r), with r =
    max(2 width, 1e-15): at w (1 - r) the roots above it are those of the
    levels above it and its own, at w (1 + r) those of the levels above it
    alone.  The margin is the least power of ten from 1e-14 to 1e-8 at
    which the counts hold, inf beyond."""
    above = np.cumsum([0] + [m for _, m in reversed(got.energies)])[::-1]
    r = max(2 * got.width, 1e-15)
    out = []
    for i in which:
        w = got.energies[i][0] ** 2

        def inside(r):
            return (exact_root_count(spec, w * (1 - r)) == above[i]
                    and exact_root_count(spec, w * (1 + r)) == above[i + 1])

        if not inside(r):
            margin = next((10.0 ** -p for p in range(14, 7, -1) if inside(10.0 ** -p)), math.inf)
            out.append((got.energies[i][0], got.energies[i][1], margin))
    return out


def test_lowest_and_top_levels_of_the_corpus_lie_in_their_brackets():
    """The lowest three and the top two levels of every chain of the
    corpus, 562 levels, lie inside their widths by exact counts at both
    ends.  The per-cell recursion on the rounded e_l left 157 of them
    outside, 5 even at w (1 -+ 1e-12); the lowest levels are the hardest.
    Every level of the corpus is checked so in CI."""
    levels = 0
    for spec in random_chains(23, 120):
        got = chain_energies(spec)
        n = len(got.energies)
        which = sorted({*range(min(3, n)), *range(max(0, n - 2), n)})
        levels += len(which)
        assert levels_outside(spec, got, which) == [], spec
    assert levels == 562


@pytest.mark.parametrize("off", [None, 1.01])
def test_a_missed_prediction_costs_sweeps_never_a_level(off, monkeypatch):
    """With no predicted level, or every one 1% off, no pair of the first
    sweep closes a bracket around a level, and the counts still close
    every bracket: the lowest three and top two levels of each solve, 202
    in all, lie inside their widths by exact counts, in at most 19 and 16
    sweeps a solve, where the predictions take 13 and 12 at most."""
    predict = chains._dispersion_levels
    monkeypatch.setattr(chains, "_dispersion_levels",
                        lambda e, n: np.empty(0) if off is None else off * predict(e, n))
    sweeps = record_sweeps(monkeypatch, chains)
    levels = 0
    for spec in random_chains(23, 40) + [ChainSpec(240, 4, (0.25,) * 4),
                                         ChainSpec(240, 3, (1.0, 0.7, 1.3))]:
        sweeps.clear()
        got = chain_energies(spec)
        n = len(got.energies)
        which = sorted({*range(min(3, n)), *range(max(0, n - 2), n)})
        levels += len(which)
        assert levels_outside(spec, got, which) == [], spec
        assert len(sweeps) <= 20, spec
    assert levels == 202


@pytest.mark.parametrize("spec", [
    ChainSpec(200, 3, (0.5, 0.49, 0.01)),
    ChainSpec(120, 2, (0.9999, 0.0001)),          # dimerized
    ChainSpec(50, 3, (0.0, 0.0, 1.0)),            # one root of multiplicity N
    ChainSpec(240, 4, (0.25, 0.25, 0.25, 0.25)),  # gapless
] + random_chains(23, 8))
def test_chain_energies_match_midpoint_bisection(spec, monkeypatch):
    """Newton-guided cuts give the bisection's levels.  The recursion's
    counts are exact only up to N roundings at the scale of the largest
    root, so the lowest levels of a gapless chain agree to N eps w_max."""
    got = chain_energies(spec)
    certify_by_count(spec, got)
    use_midpoint_bisection(monkeypatch)
    want = chain_energies(spec)
    w_max = want.energies[-1][0] ** 2
    assert_same_energies(got, want, lambda w: spec.n_cells * EPS * w_max)


@pytest.mark.parametrize("spec", [ChainSpec(240, 3, (1.0, 0.7, 1.3)),
                                  ChainSpec(240, 4, (1.29, 0.54, 0.50, 1.49)),
                                  ChainSpec(240, 4, (0.25, 0.25, 0.25, 0.25))])
def test_chain_root_sweep_budget(spec, monkeypatch):
    """At most 6 evaluations of the recursion per solve: 2, 3 and 6 with
    the vertex recursion and a first sweep of predicted levels and powers
    of two, and 15, 16 and 15 without the predicted levels.  The per-cell
    recursion on the rounded e_l took 6, 8 and 11; Newton windows without
    the pull of the other roots took 13 and 14, thirds for a first sweep
    20-21, bisection about 60.  At uniform couplings the dominant pair
    alone does not place the lowest levels, and their brackets close by
    Newton steps."""
    sweeps = record_sweeps(monkeypatch, chains)
    chain_energies(spec)
    assert len(sweeps) <= 6


@pytest.mark.parametrize("spec, before", [
    (ChainSpec(240, 3, (1.0, 0.7, 1.3)), 13),
    (ChainSpec(240, 4, (1.29, 0.54, 0.50, 1.49)), 14),
    (ChainSpec(200, 3, (0.4995, 0.4995, 0.001)), 13),
    (ChainSpec(120, 2, (0.9999, 0.0001)), 15),     # dimerized
])
def test_chain_sweeps_no_more_than_plain_newton(spec, before, monkeypatch):
    """No more evaluations than plain Newton windows and an N-point first
    sweep took.  With an N-point first sweep the corrected estimate took
    14 and 16 on the first and third chains."""
    sweeps = record_sweeps(monkeypatch, chains)
    chain_energies(spec)
    assert len(sweeps) <= before


def test_chain_corpus_sweep_total(monkeypatch):
    """268 evaluations over the corpus, 2.2 a solve, with 63,000 points in
    all, and 1,491 evaluations when the powers of two are the first
    sweep's only points.  With 2N more points in the first sweep, spread
    like the levels of a gapless band, it took 272 evaluations and 93,146
    points, and 1,008 evaluations without the predicted levels; the
    per-cell recursion on the rounded e_l took 488 and 1,118, and plain
    Newton windows and an N-point first sweep 1,440."""
    sweeps = record_sweeps(monkeypatch, chains)
    for spec in random_chains(23, 120):
        chain_energies(spec)
    assert len(sweeps) <= 268


def scaled_e(spec: ChainSpec) -> tuple[tuple[float, ...], int]:
    """The e_l of the chain that ``chain_energies`` solves, with b2 / 4^j
    summing to [1, 4), and j."""
    j = (math.frexp(sum(spec.b2))[1] - 1) // 2
    return elementary_symmetric([math.ldexp(b, -2 * j) for b in spec.b2]), j


@pytest.mark.parametrize("n_cells", [1, 2, 40, 240, 2000])
@pytest.mark.parametrize("b2", [(0.5, 0.5), (0.9999, 0.0001), (0.3, 1.7), (2e-9, 3e-9)])
def test_predicted_levels_are_exact_at_k2(b2, n_cells):
    """At k = 2 the dominant pair is the whole spectrum: the predicted
    levels are e_1 + 2 sqrt(e_2) cos((j+1) pi / (N+1)), j = 0..N-1."""
    e, _ = scaled_e(ChainSpec(n_cells, 2, b2))
    got = np.sort(chains._dispersion_levels(e, n_cells))
    theta = np.arange(1, n_cells + 1) * np.pi / (n_cells + 1)
    want = np.sort(e[1] + 2 * math.sqrt(e[2]) * np.cos(theta))
    assert len(got) == n_cells
    assert np.max(np.abs(got - want)) <= 1e-14 * want[-1]


def test_predicted_levels_are_the_levels():
    """Over the corpus, 99.6% of the predicted levels lie within 1e-12 of
    a level of ``chain_energies``, relative; the misses are levels that
    the subdominant roots move, as near a gapless point."""
    hits = predicted = 0
    for spec in random_chains(23, 120):
        e, j = scaled_e(spec)
        w = chains._dispersion_levels(e, spec.n_cells)
        levels = np.array([math.ldexp(x, -j) ** 2 for x, _ in chain_energies(spec).energies])
        hits += int(np.sum(np.min(np.abs(w[:, None] - levels) / levels, axis=1) <= 1e-12))
        predicted += len(w)
    assert predicted >= 10_000 and hits >= 0.9 * predicted


@pytest.mark.parametrize("spec", [
    ChainSpec(40, 3, (0.5, 0.0, 0.5)),            # a zero coupling
    ChainSpec(40, 3, (1.0, 0.0, 0.0)),            # one coupling: every level is e_1
    ChainSpec(40, 3, (1e-300, 0.5, 0.5)),
    ChainSpec(40, 3, (1.0, 1e-300, 1e-300)),
    ChainSpec(40, 2, (1e-300, 1.0)),
    ChainSpec(1, 2, (0.5, 0.5)),
    ChainSpec(1, 4, (0.1, 0.2, 0.3, 0.4)),
] + [ChainSpec(30, k, tuple(1.0 + 0.1 * i for i in range(k))) for k in range(2, 10)]
  + [ChainSpec(30, 9, (1e-300,) * 4 + (1.0,) * 5)])
def test_predicted_levels_of_degenerate_chains(spec):
    """No warning and no crash where the pair degenerates: each predicted
    level is finite and in (0, sum(e)), at most N of them, and the solve
    gives N levels, certified by an exact count."""
    e, _ = scaled_e(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = chains._dispersion_levels(e, spec.n_cells)
        got = chain_energies(spec)
    assert len(w) <= spec.n_cells and np.all((0 < w) & (w < sum(e)))
    assert got.total == spec.n_cells
    certify_by_count(spec, got)


@pytest.mark.parametrize("spec", [
    ChainSpec(240, 3, (1.0, 0.7, 1.3)),
    ChainSpec(120, 2, (0.9999, 0.0001)),      # dimerized
    ChainSpec(50, 3, (0.0, 0.0, 1.0)),        # one root of multiplicity N
])
def test_chain_residual_is_read_from_the_sweeps(spec, monkeypatch):
    """No pass of the recursion runs beyond the sweeps: the counts alone
    certify the levels, and the width is read off the brackets they leave,
    each at most ROOT_REL_TOL of its upper end wide here."""
    sweeps = record_sweeps(monkeypatch, chains)
    passes = []
    values = chains.chain_values

    def counted(b2, n_cells, ws):
        passes.append(len(ws))
        return values(b2, n_cells, ws)

    monkeypatch.setattr(chains, "chain_values", counted)
    got = chain_energies(spec)
    assert passes == sweeps
    assert 0.0 < got.width <= ROOT_REL_TOL


EDGE_CHAINS = [
    ChainSpec(50, 3, (0.0, 0.0, 1.0)),     # each row w - 1 times the last
    ChainSpec(120, 2, (0.9999, 0.0001)),   # dimerized
    ChainSpec(240, 4, (0.25, 0.25, 0.25, 0.25)),
]


def grid_and_roots(spec: ChainSpec) -> np.ndarray:
    """Points across (0, hi], at each root and one ulp either side of it,
    where the rows shrink fastest."""
    e = elementary_symmetric(spec.b2)
    roots = np.array([w * w for w in chain_energies(spec).flat()])
    return np.concatenate([np.linspace(0.0, sum(e), 50)[1:], roots,
                           np.nextafter(roots, 0.0), np.nextafter(roots, np.inf)])


@pytest.mark.parametrize("spec", EDGE_CHAINS + random_chains(41, 12))
def test_chain_values_match_rescaling_every_k_rows(spec):
    """Rescaling every RESCALE_ROWS cells instead of every cell of k rows
    changes no count and no Newton step, bit for bit."""
    ws = grid_and_roots(spec)
    counts, step = chain_values(spec.b2, spec.n_cells, ws)
    v_ref, step_ref = chain_values_all_rows(spec.b2, spec.n_cells, ws, every=1)
    assert np.array_equal(counts, sign_changes(v_ref))
    assert np.array_equal(step, step_ref, equal_nan=True)


@pytest.mark.parametrize("spec", EDGE_CHAINS + random_chains(41, 12))
def test_chain_values_match_all_rows(spec):
    """The two alternating cells give the counts and step of the recursion
    that keeps every row, bit for bit."""
    ws = grid_and_roots(spec)
    counts, step = chain_values(spec.b2, spec.n_cells, ws)
    v_ref, step_ref = chain_values_all_rows(spec.b2, spec.n_cells, ws)
    assert np.array_equal(counts, sign_changes(v_ref))
    assert np.array_equal(step, step_ref, equal_nan=True)


@pytest.mark.parametrize("w", [0.5, -0.5])
@pytest.mark.parametrize("n_cells", range(15, 41))
def test_chain_values_carry_a_sign_across_zero_rows(w, n_cells):
    """At w = 1 the last row of every cell of the (0, 0, 1) chain is an
    exact 0: no row changes sign, and the zero rows that end a block take
    the sign of the initial 1, carried across the blocks.  Those zeros send
    every block to the filled signs, where the point w beside them, whose
    rows alternate in sign, shrinking at 0.5 and growing at -0.5, is
    counted as it is alone."""
    b2 = (0.0, 0.0, 1.0)
    ws = np.array([1.0, w])
    counts, step = chain_values(b2, n_cells, ws)
    v_ref, step_ref = chain_values_all_rows(b2, n_cells, ws)
    assert np.count_nonzero(v_ref[:, 0] == 0) == n_cells
    assert np.array_equal(counts, sign_changes(v_ref)) and counts[0] == 0
    assert counts[1] == n_cells and counts[1] == chain_values(b2, n_cells, ws[1:])[0][0]
    assert np.array_equal(step, step_ref, equal_nan=True)


def test_chain_values_of_a_point_do_not_depend_on_the_others():
    """A point's count and step are the same bits alone as among the 37
    points of one sweep, on 30 chains of the corpus: every call of
    ``chain_values`` is elementwise.  With the BLAS dot of the per-cell
    recursion 899 of these 1,110 points changed."""
    for spec in random_chains(23, 30):
        ws = np.concatenate([np.linspace(0.0, 1.0, 31)[1:], grid_and_roots(spec)[49:56]])
        counts, step = chain_values(spec.b2, spec.n_cells, ws)
        for i, w in enumerate(ws):
            alone = chain_values(spec.b2, spec.n_cells, ws[i:i + 1])
            assert (alone[0][0], alone[1][0].hex()) == (counts[i], step[i].hex()), (spec, w)


# NaN, both zeros, the least subnormal, a negative w, and w so large that
# the rows overflow, beside two ordinary points
OFF_FAST_PATH = [0.5, math.nan, 0.0, -0.0, 5e-324, -0.7, 1e150, 1e300, 1.3]


@pytest.mark.parametrize("b2", [(0.3, 0.5, 0.2), (0.9999, 0.0001), (0.05,) * 20])
@pytest.mark.parametrize("n_cells", [1, 5, 16, 17, 40])
def test_chain_values_match_all_rows_off_the_fast_path(b2, n_cells):
    """Points whose blocks hold a 0, a NaN or an infinity, all in one array
    and each alone, give the counts and steps of the recursion that keeps
    every row, also at k = 20.  A NaN in a column persists to the last row
    of its block."""
    for ws in [np.array(OFF_FAST_PATH)] + [np.array([w]) for w in OFF_FAST_PATH]:
        with np.errstate(over="ignore", invalid="ignore"):
            counts, step = chain_values(b2, n_cells, ws)
            v_ref, step_ref = chain_values_all_rows(b2, n_cells, ws)
        assert np.array_equal(counts, sign_changes(v_ref))
        assert np.array_equal(step, step_ref, equal_nan=True)


@st.composite
def simplex_chains(draw):
    """k = 2..5 and N = 1..240, squared couplings summing to 1: some with
    one of them at 0, 1e-4 or 1e-300, some dimerized in pairs."""
    k = draw(st.integers(2, 5))
    n_cells = draw(st.integers(1, 240))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["inside", "edge", "dimerized"]))
    if kind == "edge":
        raw[draw(st.integers(0, k - 1))] = draw(st.sampled_from([0.0, 1e-4, 1e-300]))
    elif kind == "dimerized":
        small = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        raw = [1.0 if i % 2 == 0 else small for i in range(k)]
    total = sum(raw)
    return ChainSpec(n_cells, k, tuple(b / total for b in raw))


@settings(max_examples=200, deadline=None)
@given(simplex_chains())
def test_chain_sweeps_and_levels_match_the_plain_isolator(spec):
    """Every sweep hands ``chain_values`` the points of the isolator and
    level assembly as they were before their numpy calls were cut, in the
    same order, and the levels are the same, bit for bit.  The arrays are
    compared whole, not only through the levels they lead to, so that a
    change in where or in what order a sweep cuts shows even where the
    levels come out the same."""
    def recorded(log):
        def values(b2, n_cells, ws):
            log.append(ws.copy())
            return chain_values(b2, n_cells, ws)
        return values

    plain, current = [], []
    want = plain_chain_energies(spec, recorded(plain))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "chain_values", recorded(current))
        got = chain_energies(spec)
    assert len(current) == len(plain)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(current, plain))
    assert [(w.hex(), m) for w, m in got.energies] == [(w.hex(), m) for w, m in want.energies]
    assert got.width == want.width


def test_chain_energies_memory():
    """A solve holds two cells of k rows and the last row of each cell of
    a block per sweep, not all Nk + k rows: 0.65 MB at its peak on 480
    cells, in the first sweep, which cuts at 2N + 58 points, and 1.0 MB
    when that sweep also cut at 2N band points.  The per-cell recursion
    peaked at 1.3 MB with a window of k + RESCALE_ROWS rows, and at
    8.6 MB with every row kept."""
    spec = ChainSpec(480, 4, (0.25,) * 4)
    chain_energies(spec)  # imports and first-call allocations
    tracemalloc.start()
    try:
        chain_energies(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("spec", [ChainSpec(50, 3, (0.0, 0.0, 1.0)), ChainSpec(50, 2, (0.0, 1.0)),
                                  ChainSpec(121, 2, (1.0, 0.0)), ChainSpec(67, 2, (0.0, 1.0)),
                                  ChainSpec(205, 2, (1.0, 0.0))])
def test_coincident_roots_sweep_budget(spec, monkeypatch):
    """All N roots at w = 1: the first sweep cuts at 1 -+ 1e-13 around the
    one predicted level, e_1, and the bracket between is cut around the
    estimate m f/f' of an m-fold root, 2, 2, 2, 2 and 3 evaluations; with
    the powers of two alone 3 each.  Cut into thirds it took 33.  With a
    first sweep of 2N points spread like the levels of a gapless band and
    no predicted level, the last two took 9 and 8, ending their brackets
    by thirds, and on 121 cells a band point landed on 1 itself, where the
    step 0 / 0 leaves that end without an estimate, and the bracket went
    to thirds for 22 evaluations."""
    sweeps = record_sweeps(monkeypatch, chains)
    ((energy, mult),) = chain_energies(spec).energies
    assert len(sweeps) <= 3
    assert mult == spec.n_cells and math.isclose(energy, 1.0, rel_tol=1e-15)


def test_exact_root_count_is_a_count():
    spec = ChainSpec(6, 3, (0.9, 1.1, 0.5))
    ws = sorted(np.linalg.eigvals(recursion_matrix(spec).matrix).real)
    assert exact_root_count(spec, ws[0] / 2) == 6
    assert exact_root_count(spec, ws[-1] * 2) == 0
    for j in range(5):
        assert exact_root_count(spec, math.sqrt(ws[j] * ws[j + 1])) == 5 - j


def test_chain_energies_match_generic_path():
    rng = random.Random(77)
    for n_cells, k in [(3, 2), (5, 3), (4, 4)]:
        b2 = tuple(rng.uniform(0.2, 1.5) for _ in range(k))
        spec = ChainSpec(n_cells, k, b2)
        a = chain_energies(spec).flat()
        b = single_particle_energies(chain_polynomial(spec)).flat()
        assert max(abs(x - y) / y for x, y in zip(a, b)) < 1e-9


def test_dispersion_labeling():
    spec = ChainSpec(30, 4, unit_sum_fill(4, {3: 0.1}))
    points = dispersion(spec)
    assert len(points) == 30
    momenta = [p for p, _ in points]
    assert momenta == sorted(momenta)
    assert abs(momenta[-1] - math.pi * 30 / 31) < 1e-12
    # monotone-branch convention: the minimum sits at the largest momentum
    assert min(points, key=lambda t: t[1]) == points[-1]


def test_dispersion_cyclic_relabeling_invariance():
    b2 = (0.3, 0.7, 1.1)
    e1 = [e for _, e in dispersion(ChainSpec(8, 3, b2))]
    e2 = [e for _, e in dispersion(ChainSpec(8, 3, (0.7, 1.1, 0.3)))]
    assert np.allclose(e1, e2, rtol=1e-12)


def test_energy_scaling_homogeneity():
    """Couplings scaled by lambda^2 scale every energy by lambda: exactly
    when lambda^2 is a power of four, to rounding otherwise, from 1e-200
    to 1e100."""
    for spec in (ChainSpec(6, 3, (0.4, 0.9, 1.3)), ChainSpec(50, 3, (0.3, 0.3, 0.4))):
        base = chain_energies(spec).flat()
        for lam2 in (1.7 ** 2, 1e-200, 1e-100, 1e-30, 1e10, 1e30, 1e100):
            scaled = chain_energies(ChainSpec(spec.n_cells, spec.k,
                                              tuple(lam2 * v for v in spec.b2))).flat()
            want = [math.sqrt(lam2) * e for e in base]
            assert np.allclose(want, scaled, rtol=1e-12, atol=0.0), (spec, lam2)
        for power in (-300, 100):
            scaled = chain_energies(ChainSpec(spec.n_cells, spec.k,
                                              tuple(4.0 ** power * v for v in spec.b2))).flat()
            assert scaled == [2.0 ** power * e for e in base], (spec, power)


def test_k2_equal_couplings_gapless():
    grid = [(0.5, 0.5)]
    pt = gap_scan(2, grid, 30, 60)[0]
    assert pt.gapless


def test_single_nonzero_coupling_gapped():
    # decoupled cliques: every energy equals |b|, one level of multiplicity N
    for n_cells, b2, level in ((6, (0.0, 0.0, 2.25), 1.5), (50, (0.0, 0.0, 1.0), 1.0)):
        en = chain_energies(ChainSpec(n_cells, 3, b2))
        assert all(abs(e - level) < 1e-9 for e in en.flat())
        assert len(en.energies) == 1 and en.energies[0][1] == n_cells
    pt = gap_scan(3, [(0.0, 0.0, 2.25)], 10, 20)[0]
    assert not pt.gapless


@pytest.mark.parametrize("spec", [ChainSpec(240, 3, (0.0, 0.0, 0.0)), ChainSpec(8, 2, (0.0, 0.0))])
def test_all_zero_couplings_at_once(monkeypatch, spec):
    """Every coupling 0: the one level 0 of multiplicity N, which bisection
    reached after 643 sweeps (1.3 s) on 240 cells, with no sweep at all."""
    sweeps = record_sweeps(monkeypatch, chains)
    start = time.perf_counter()
    en = chain_energies(spec)
    assert time.perf_counter() - start < 0.05
    assert en == SingleParticleEnergies(((0.0, spec.n_cells),), 0.0)
    assert sweeps == []


def test_gap_scan_k3_boundary_matches_k2():
    """A vanishing third coupling reduces the k=3 chain to the k=2 one."""
    b2 = (0.5, 0.5, 0.0)
    e3 = chain_energies(ChainSpec(8, 3, b2)).flat()
    e2 = chain_energies(ChainSpec(8, 2, (0.5, 0.5))).flat()
    assert np.allclose(e3, e2, rtol=1e-9)


def test_gap_scan_requires_two_sizes():
    with pytest.raises(ModelError):
        gap_scan(2, [(0.5, 0.5)], 20, 20)


def test_unit_sum_fill():
    """The one fill of ``dispersion --bXsq`` and ``scan --values``: the unset
    squared couplings share what is left of a unit sum equally."""
    assert unit_sum_fill(4, {3: 0.1}) == (0.3, 0.3, 0.3, 0.1)
    assert abs(sum(unit_sum_fill(4, {3: 0.9})) - 1.0) < 1e-12
    assert unit_sum_fill(4, {}) == (0.25,) * 4
    assert unit_sum_fill(3, {0: 0.5, 2: 0.2}) == pytest.approx((0.5, 0.3, 0.2))
    assert unit_sum_fill(2, {0: 0.4, 1: 0.6}) == (0.4, 0.6)
    for given in ({3: 1.5}, {3: -0.1}, {3: float("nan")}, {0: 0.6, 1: 0.6},
                  {0: 0.4, 1: 0.4, 2: 0.1, 3: 0.05}, {4: 0.2}):
        with pytest.raises(ModelError):
            unit_sum_fill(4, given)


def test_spec_validation():
    with pytest.raises(ModelError):
        ChainSpec(0, 3, (1.0, 1.0, 1.0))
    with pytest.raises(ModelError):
        ChainSpec(2, 1, (1.0,))
    with pytest.raises(ModelError):
        ChainSpec(2, 3, (1.0, 1.0))
    with pytest.raises(ModelError):
        ChainSpec(2, 3, (1.0, -1.0, 1.0))


@pytest.mark.parametrize("b2", [(math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
                                (1e308, 1e308, 0.5)])
def test_spec_rejects_non_finite_couplings(b2):
    """A NaN or infinite coupling, or a sum beyond float range, is refused:
    ``chain_energies`` would never return on a NaN or an infinity."""
    with pytest.raises(ModelError):
        ChainSpec(8, 3, b2)


def test_lowest_level_of_a_chain_200x4_lies_in_its_bracket():
    """A ``dispersion --k 4 --N 200`` point of the benchmark's chain scans.
    Exact counts put its lowest root at 0.00092502199058860: 200 roots lie
    above e0^2 (1 - 1e-10) and only 199 above e0^2 (1 - 1e-11).  The
    per-cell recursion on the rounded e_l returned 0.0009250219906070058,
    2.0e-11 off, with a width of 1.57e-13."""
    spec = ChainSpec(200, 4, (0.26361112413460563, 0.2630936532328349,
                              0.23419347640540283, 0.23910174622715674))
    got = chain_energies(spec)
    (e0, m), width = got.energies[0], got.width
    assert m == 1
    w = e0 * e0
    assert exact_root_count(spec, w * (1 - width)) == 200
    assert exact_root_count(spec, w * (1 + width)) == 199
