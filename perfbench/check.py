"""Judge one op's output against its reference.

``check`` returns None when the output is right and a reason when it is
not.  Energies must match the reference to ``ENERGY_REL_TOL`` of the
largest energy, so scaling every energy by 1 + 1e-6 is caught; chain
energies must each be certified by a root count within ``CHAIN_REL_TOL``.
"""

from __future__ import annotations

import hashlib
import json
import math

from reference import certify_levels, certify_lowest

ENERGY_REL_TOL = 1e-8
COEFF_REL_TOL = 1e-10
CHAIN_REL_TOL = 1e-9   # above the 12 significant digits the CSV output keeps
GAPLESS_MARGIN = 0.1   # documented rule of ffsolve scan: gap(N')/gap(N) < N/N' + 0.1


def _adj(graph: dict) -> list[set]:
    adj = [set() for _ in range(graph["n"])]
    for i, j in graph["edges"]:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _bad_claw(adj, witness) -> bool:
    center, leaves = witness["center"], witness["leaves"]
    return (len(set(leaves)) != 3 or any(v not in adj[center] for v in leaves)
            or any(b in adj[a] for a in leaves for b in leaves if a != b))


def _bad_hole(adj, cycle) -> bool:
    m = len(cycle)
    if m < 4 or m % 2 or len(set(cycle)) != m:
        return True
    for i, a in enumerate(cycle):
        for j in range(i + 1, m):
            consecutive = j == i + 1 or (i == 0 and j == m - 1)
            if (cycle[j] in adj[a]) != consecutive:
                return True
    return False


def _bad_simplicial(adj, clique) -> bool:
    k = set(clique)
    if not k or any(b not in adj[a] for a in k for b in k if a != b):
        return True
    for v in k:
        rest = (adj[v] - k) | {v}
        if any(b not in adj[a] for a in rest for b in rest if a != b):
            return True
    return False


def _structure(op, ref, s: dict) -> str | None:
    want = op.verdict
    ecf = want["claw_free"] and want["even_hole_free"]
    if (s["claw_free"], s["even_hole_free"], s["ecf"]) != (want["claw_free"],
                                                          want["even_hole_free"], ecf):
        return f"verdict {s['claw_free']}/{s['even_hole_free']}/{s['ecf']}, expected {want}"
    adj = _adj(ref["graph"])
    if s["claw_witness"] and _bad_claw(adj, s["claw_witness"]):
        return f"claw witness {s['claw_witness']} is not a claw"
    if s["even_hole_witness"] and _bad_hole(adj, s["even_hole_witness"]):
        return f"even-hole witness {s['even_hole_witness']} is not an even hole"
    if not want["claw_free"] and not s["claw_witness"]:
        return "no claw witness"
    if not want["even_hole_free"] and not s["even_hole_witness"]:
        return "no even-hole witness"
    return None


def _energies(got, ref_energies) -> str | None:
    flat = sorted(e for e, m in got for _ in range(m))
    if len(flat) != len(ref_energies):
        return f"{len(flat)} energies, expected {len(ref_energies)}"
    scale = max(ref_energies)
    dev = max(abs(a - b) for a, b in zip(flat, ref_energies))
    if not dev <= ENERGY_REL_TOL * scale:
        return f"energies off by {dev / scale:.3e} of the largest"
    return None


def _coeffs(got, ref) -> str | None:
    if len(got) != len(ref):
        return f"polynomial degree {len(got) - 1}, expected {len(ref) - 1}"
    for a, b in zip(got, ref):
        if not abs(a - b) <= COEFF_REL_TOL * abs(b):
            return f"polynomial coefficient {a!r}, expected {b!r}"
    return None


def _check_solve(op, ref, r: dict) -> str | None:
    why = _structure(op, ref, r["structure"]) or _coeffs(r["independence_polynomial"], ref["coeffs"])
    if why or op.expect != 0:
        return why or (None if "refusal" in r else "no refusal reason")
    why = _energies(r["energies"], ref["energies"])
    if why:
        return why
    if "free_spectrum" in r:
        levels = r["free_spectrum"]
        top = sum(ref["energies"])
        if not (math.isclose(levels[0][0], -top, rel_tol=1e-8)
                and math.isclose(levels[-1][0], top, rel_tol=1e-8)):
            return "free spectrum does not span -sum(e)..sum(e)"
    if op.modes:
        counts = r["mode_term_counts"]
        if len(counts) != len(ref["energies"]) or min(counts) < 1:
            return f"mode term counts {counts}"
        if _bad_simplicial(_adj(ref["graph"]), r["simplicial_clique"]):
            return f"{r['simplicial_clique']} is not a simplicial clique"
    return None


def _check_verify(op, ref, r: dict) -> str | None:
    why = _structure(op, ref, r["structure"])
    if why or op.expect != 0:
        return why or (None if not r["applicable"] else "applied to a non-ECF model")
    if not (r["applicable"] and r["passed"] and r["spectrum_match"]):
        return f"verification did not pass: {r['failure']}"
    why = _energies(r["energies"], ref["energies"])
    if why:
        return why
    if len(r["mode_term_counts"]) != len(ref["energies"]):
        return "mode count differs from alpha"
    return None


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _check_dispersion(op, text: str) -> str | None:
    c = op.chain
    rows = _rows(text)
    n = c["N"]
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    eps = [float(e) for _, e in rows]
    for j, (p, _) in enumerate(rows):
        if not math.isclose(float(p), math.pi * (j + 1) / (n + 1), rel_tol=1e-11):
            return f"momentum {p} in row {j}"
    if any(a < b for a, b in zip(eps, eps[1:])):
        return "energies not descending"
    return certify_levels(c["k"], c["b2"], n, eps, CHAIN_REL_TOL)


def _check_scan(op, text: str) -> str | None:
    c = op.chain
    rows = _rows(text)
    if len(rows) != len(c["grid"]):
        return f"{len(rows)} rows, expected {len(c['grid'])}"
    for row, b2 in zip(rows, c["grid"]):
        k = c["k"]
        if any(not math.isclose(float(a), b, rel_tol=1e-11, abs_tol=1e-15)
               for a, b in zip(row[:k], b2)):
            return f"couplings {row[:k]}, expected {b2}"
        gap_n, gap_np, flag = float(row[k]), float(row[k + 1]), row[k + 2]
        for size, gap in ((c["N"], gap_n), (c["Nprime"], gap_np)):
            if not certify_lowest(k, b2, size, gap, CHAIN_REL_TOL):
                return f"gap {gap!r} at N={size} is not the lowest energy"
        gapless = gap_np < (c["N"] / c["Nprime"] + GAPLESS_MARGIN) * gap_n
        if flag != ("gapless" if gapless else "gapped"):
            return f"flag {flag} disagrees with the gaps"
    return None


def check(op, rc, text: str | None, ref: dict | None) -> str | None:
    if rc != op.expect:
        return f"exit code {rc}, expected {op.expect}"
    if text is None:
        return "no output"
    try:
        if op.kind == "dispersion":
            return _check_dispersion(op, text)
        if op.kind == "scan":
            return _check_scan(op, text)
        result = json.loads(text)["result"]
        return (_check_solve if op.kind == "solve" else _check_verify)(op, ref, result)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def digest(op, text: str | None) -> str:
    """Hash of the answer: energies (9 significant digits) or the verdict."""
    if text is None:
        return "none"
    if op.kind in ("dispersion", "scan"):
        rows = _rows(text)
        blob = ";".join(",".join(f"{float(v):.9e}" if v[0] not in "gG" else v
                                 for v in row) for row in rows)
    else:
        r = json.loads(text)["result"]
        energies = r.get("energies")
        if energies:
            blob = ",".join(f"{e:.9e}x{m}" for e, m in energies)
        else:
            s = r["structure"]
            blob = f"claw_free={s['claw_free']},even_hole_free={s['even_hole_free']}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def perturb(op, text: str) -> str:
    """A wrong answer: energies scaled by 1 + 1e-6, or the verdict flipped."""
    scale = 1 + 1e-6
    if op.kind == "dispersion":
        head, *rows = text.strip().splitlines()
        rows = [f"{p},{float(e) * scale!r}" for p, e in (r.split(",") for r in rows)]
        return "\n".join([head] + rows) + "\n"
    if op.kind == "scan":
        head, *rows = text.strip().splitlines()
        k = op.chain["k"]
        out = []
        for row in rows:
            f = row.split(",")
            f[k] = repr(float(f[k]) * scale)
            out.append(",".join(f))
        return "\n".join([head] + out) + "\n"
    doc = json.loads(text)
    r = doc["result"]
    if r.get("energies"):
        r["energies"] = [[e * scale, m] for e, m in r["energies"]]
    else:
        s = r["structure"]
        s["even_hole_free"] = not s["even_hole_free"]
        s["ecf"] = not s["ecf"]
    return json.dumps(doc)
