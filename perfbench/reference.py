"""Reference answers computed without ffsolve.

Two routes, both independent of the code under test:

* Graphs of at most a few dozen vertices: the exact vertex-weighted
  independence polynomial by memoized vertex elimination in 50-digit
  mpmath, and its roots by ``mpmath.polyroots``.  For models of at most
  ``DENSE_QUBITS`` qubits the energies are confirmed a second way, by
  dense diagonalization of the Hamiltonian built here from its Pauli
  strings: every level must be a sum of +-e_j.
* Chains of hundreds of cells: a root count.  With G_i the chain graph on
  its first i vertices, vertex i is simplicial in G_i, P(G_{i-1})
  interlaces P(G_i), and P(G_i)(0) = 1.  So the number of sign changes in
  P(G_0)(x), ..., P(G_n)(x) at x < 0 is the number of roots of P(G_n) in
  [x, 0), which is the number of energies >= 1/sqrt(-x).  The sequence
  is evaluated by P(G_i) = P(G_{i-1}) + x w_i P(G_{i-k}) in integer
  arithmetic with 110-bit coefficients (three times faster than mpf).  ``selftest.py`` re-checks the count against polyroots.

Run as a script, it reads a JSON object {key: instance} and writes
{key: reference}; ``run.py`` calls it in a child process so that its
memory does not count in the benchmark's peak RSS.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpf

DENSE_QUBITS = 10
POLY_DPS = 50
COUNT_BITS = 110
WINDOW_BITS = 200


# -- graphs -------------------------------------------------------------------

def _adjacency(graph: dict) -> list[int]:
    adj = [0] * graph["n"]
    for i, j in graph["edges"]:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def pauli_graph(paulis: list) -> dict:
    """Frustration graph of Pauli strings: edge iff they anticommute, that is,
    iff they differ on an odd number of qubits where both act."""
    strings = [s for _, s in paulis]
    edges = []
    for i, a in enumerate(strings):
        for j in range(i + 1, len(strings)):
            clash = sum(1 for p, q in zip(a, strings[j]) if p != "I" and q != "I" and p != q)
            if clash % 2:
                edges.append((i, j))
    return {"n": len(strings), "edges": edges, "weights": [c * c for c, _ in paulis]}


def independence_polynomial(graph: dict) -> list:
    """Coefficients c_0..c_alpha in mpmath, by P(S) = P(S-v) + x w_v P(S-N[v])
    over vertex sets S, splitting S into connected components first."""
    adj = _adjacency(graph)
    with mp.workdps(POLY_DPS):
        w = [mpf(x) for x in graph["weights"]]
        memo = {0: [mpf(1)]}

        def component(s: int) -> int:
            comp = frontier = s & -s
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = adj[v] & s & ~comp
                comp |= new
                frontier |= new
            return comp

        def poly(s: int) -> list:
            if s in memo:
                return memo[s]
            comp = component(s)
            if comp != s:
                a, b = poly(comp), poly(s & ~comp)
                out = [mpf(0)] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            else:
                v = (s & -s).bit_length() - 1
                a, b = poly(s & ~(1 << v)), poly(s & ~(adj[v] | (1 << v)))
                out = list(a) + [mpf(0)] * max(0, len(b) + 1 - len(a))
                for i, y in enumerate(b):
                    out[i + 1] += w[v] * y
            memo[s] = out
            return out

        coeffs = poly((1 << graph["n"]) - 1)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs


def energies_from_polynomial(coeffs: list) -> list[float] | None:
    """Ascending e_j with P(-1/e_j^2) = 0, or None if a root is not real
    and negative (the graph is then not claw-free)."""
    with mp.workdps(POLY_DPS):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=500, extraprec=400)
        out = []
        for r in roots:
            r = mpmath.mpc(r)
            if abs(r.imag) > mpf(10) ** -25 * abs(r) or r.real >= 0:
                return None
            out.append(float(1 / mpmath.sqrt(-r.real)))
    return sorted(out)


# -- dense oracle ---------------------------------------------------------------

_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}


def dense_levels(paulis: list) -> np.ndarray:
    n = len(paulis[0][1])
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for c, s in paulis:
        m = np.ones((1, 1))
        for p in s:
            m = np.kron(m, _PAULI[p])
        h += c * m
    return np.linalg.eigvalsh(h)


def free_levels(energies: list[float], n_qubits: int) -> np.ndarray:
    """All sums of +-e_j, each 2^(n - alpha) times."""
    sums = np.zeros(1)
    for e in energies:
        sums = np.concatenate([sums + e, sums - e])
    return np.sort(np.repeat(sums, 1 << (n_qubits - len(energies))))


def graph_reference(inst: dict) -> dict:
    """Polynomial, energies and, for small models, the dense confirmation."""
    graph = inst["graph"]
    if inst.get("paulis"):
        from_strings = pauli_graph(inst["paulis"])
        if graph is None:
            graph = from_strings
        elif sorted(map(tuple, graph["edges"])) != sorted(map(tuple, from_strings["edges"])):
            raise ValueError("graph by construction differs from the Pauli strings' graph")
    coeffs = independence_polynomial(graph)
    energies = energies_from_polynomial(coeffs) if inst["ecf"] else None
    dense = False
    paulis = inst.get("paulis")
    if energies and paulis and len(paulis[0][1]) <= DENSE_QUBITS:
        n = len(paulis[0][1])
        levels = dense_levels(paulis)
        scale = sum(abs(c) for c, _ in paulis)
        dev = np.max(np.abs(levels - free_levels(energies, n)))
        if dev > 1e-9 * scale:
            raise ValueError(f"reference energies miss the dense spectrum by {dev:.3e}")
        dense = True
    return {"graph": {"n": graph["n"], "edges": [list(e) for e in graph["edges"]]},
            "coeffs": [float(c) for c in coeffs], "energies": energies, "dense": dense}


# -- chains ---------------------------------------------------------------------

def _fixed(c: Fraction) -> tuple[int, int]:
    """c as m * 2**s with a COUNT_BITS-bit integer m."""
    s = c.numerator.bit_length() - c.denominator.bit_length() - COUNT_BITS
    num, den = (c.numerator, c.denominator << s) if s >= 0 else (c.numerator << -s, c.denominator)
    return round(Fraction(num, den)), s


def chain_count(k: int, b2, n_cells: int, eps) -> int:
    """Number of energies >= eps of the open k-chain with squared couplings b2.

    The coefficients x w_j = -b2_j / eps^2 are rounded to COUNT_BITS-bit
    mantissas from their exact values; the window of P(G_i) values is kept
    as integers near 2**WINDOW_BITS, rescaled together, which keeps signs.
    """
    e2 = Fraction(eps) ** 2
    coef = [_fixed(-Fraction(b) / e2) for b in b2]
    window = [1 << WINDOW_BITS] * k        # P(G_{i-k}) .. P(G_{i-1})
    changes, sign = 0, 1
    for i in range(n_cells * k):
        m, s = coef[i % k]
        prod = m * window[0]
        value = window[-1] + (prod << s if s >= 0 else prod >> -s)
        window.append(value)
        del window[0]
        if value:
            now = 1 if value > 0 else -1
            changes += now != sign
            sign = now
        if i % 4 == 3:
            top = max(abs(v) for v in window).bit_length()
            if top > WINDOW_BITS + 64:
                window = [v >> (top - WINDOW_BITS) for v in window]
            elif top < WINDOW_BITS - 64:
                window = [v << (WINDOW_BITS - top) for v in window]
    return changes


def certify_levels(k: int, b2, n_cells: int, energies: list[float], rel: float) -> str | None:
    """None when each group of nearly equal energies, widened by ``rel``,
    holds exactly as many roots as it has members, and they are all N;
    otherwise a reason."""
    values = sorted(energies)
    if len(values) != n_cells:
        return f"{len(values)} energies, expected {n_cells}"
    groups = []
    for e in values:
        if groups and e * (1 - rel) <= groups[-1][1] * (1 + rel):
            groups[-1][1] = e
            groups[-1][2] += 1
        else:
            groups.append([e, e, 1])
    for lo, hi, size in groups:
        inside = chain_count(k, b2, n_cells, lo * (1 - rel)) - chain_count(k, b2, n_cells, hi * (1 + rel))
        if inside != size:
            return f"{inside} roots near {lo:.12g}..{hi:.12g}, expected {size}"
    return None


def certify_lowest(k: int, b2, n_cells: int, eps: float, rel: float) -> bool:
    """eps is the lowest energy to within ``rel``."""
    return (chain_count(k, b2, n_cells, eps * (1 - rel)) == n_cells
            and chain_count(k, b2, n_cells, eps * (1 + rel)) < n_cells)


def lowest_rel_error(k: int, b2, n_cells: int, eps: float) -> float:
    """Smallest rel in 1e-15, 1e-14, ... for which eps is certified lowest."""
    for p in range(15, 2, -1):
        if certify_lowest(k, b2, n_cells, eps, 10.0 ** -p):
            return 10.0 ** -p
    return 1.0


def main(argv) -> int:
    with open(argv[1]) as fh:
        todo = json.load(fh)
    out = {key: graph_reference(inst) for key, inst in todo.items()}
    with open(argv[2], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
