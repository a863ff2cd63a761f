"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. The chain root count of reference.py agrees with mpmath.polyroots on
   small random chains, dimerized ones included.
2. On ops of every kind, the right answer passes the check and a
   perturbed one (energies x (1 + 1e-6), or a flipped verdict) fails.
3. A traced run sees calls in all nine layers, its module self times add
   up to the traced op time, and it shows the recomputation present when
   the benchmark was defined: ``verify`` on chain 3x3 builds the
   frustration graph 21 times and the transfer operator 18 times, and
   ``solve`` builds the independence polynomial twice.  A change that
   computes these once is expected to change those counts; update
   RECOMPUTATION with it.
"""

from __future__ import annotations

import os
import random
import sys

import run  # first: fixes the BLAS thread count before numpy loads
from reference import (chain_count, energies_from_polynomial, independence_polynomial)
from spans import LAYERS, Tracer
from workloads import (chain_graph, chain_op, dispersion_op, junction_op, line_graph_op,
                       scan_op, small_model_op)

RECOMPUTATION = {  # (op name or "solve" for ECF solves without --modes, function): calls
    ("verify-chain-3x3", "graphs.frustration_graph"): 21,
    ("verify-chain-3x3", "solver.transfer"): 18,
    ("solve", "indpoly.weighted_independence_polynomial"): 2,
}


def _matches(op, who: str) -> bool:
    if who == "solve":
        return op.kind == "solve" and op.expect == 0 and not op.modes
    return op.name == who


def check_root_count() -> list[str]:
    rng = random.Random(7)
    bad = []
    for trial in range(40):
        k, n = rng.choice((2, 3, 4)), rng.randint(2, 7)
        b2 = [rng.uniform(0.01, 1.0) for _ in range(k)]
        if trial % 3 == 0:
            b2[rng.randrange(k)] = 1e-4
        energies = energies_from_polynomial(independence_polynomial(chain_graph(n, k, [b ** 0.5 for b in b2])))
        probes = [e * f for e in energies for f in (1 - 1e-9, 1 + 1e-9)]
        probes += [10 ** rng.uniform(-3, 1) for _ in range(10)]
        for eps in probes:
            want = sum(1 for e in energies if e >= eps)
            if chain_count(k, b2, n, eps) != want:
                bad.append(f"k={k} N={n} b2={b2} eps={eps}: count differs from polyroots")
    return bad


def selftest_ops():
    """One op of every kind and expected exit code, on small inputs."""
    rng = random.Random(11)
    return [
        chain_op(rng, "solve", 8, 3), junction_op(rng, "solve", (2, 1, 1)),
        line_graph_op(rng, 20, None, (0, 10**9)), line_graph_op(rng, 20, 7, (0, 10**9)),
        line_graph_op(rng, 16, 6, (0, 10**9)), chain_op(rng, "solve", 4, 3, periodic=True),
        small_model_op(rng, "solve", "back_to_back"),
        dispersion_op(rng, 3, 40, edge=True), dispersion_op(rng, 4, 60, edge=False),
        scan_op(rng, 4, 40, 2, edge=True),
        chain_op(rng, "solve", 4, 3, modes=True), junction_op(rng, "solve", (1, 1, 1), modes=True),
        small_model_op(rng, "verify", "h5"), chain_op(rng, "verify", 3, 3),
        small_model_op(rng, "verify", "back_to_back"),
    ]


def main() -> int:
    failures = check_root_count()
    print(("FAIL" if failures else "PASS") + " root count agrees with polyroots")

    ops = selftest_ops()
    os.makedirs(run.WORK, exist_ok=True)
    for op in ops:
        for rel, text in op.files.items():
            with open(os.path.join(run.ROOT, rel), "w") as fh:
                fh.write(text)
    refs = run.load_references(ops)
    sys.path.insert(0, run.SRC)
    loop = run.Loop(refs)
    tracer = Tracer()
    tracer.install()
    try:
        walls = [loop.run_op(op, tracer) for op in ops]
    finally:
        tracer.uninstall()

    wrong = sorted(set(loop.failures))
    failures += wrong
    print(("FAIL" if wrong else "PASS") + f" {len(ops)} ops of {len({o.kind for o in ops})} kinds answer right")
    perturbed = run.self_check(loop)
    failures += perturbed
    kinds = sorted({(o.kind, o.expect) for o in ops})
    print(("FAIL" if perturbed else "PASS") + f" perturbed answers fail for {kinds}")

    seen = {span[0].split(".", 1)[0] for span in tracer.spans}
    missing = [layer for layer in LAYERS if layer not in seen]
    failures += [f"no call traced in layer {m}" for m in missing]
    print(("FAIL" if missing else "PASS") + f" calls traced in layers {sorted(seen)}")

    coverage = tracer.layer_metrics(len(ops), sum(walls))["trace.self_coverage"]
    ok = 0.97 <= coverage <= 1.0
    failures += [] if ok else [f"self times cover {coverage:.3f} of op time"]
    print(("PASS" if ok else "FAIL") + f" module self times cover {coverage:.4f} of op time")

    for (who, fn), want in RECOMPUTATION.items():
        counts = tracer.calls_by_op(fn)
        got = {counts.get(i, 0) for i, op in enumerate(ops) if _matches(op, who)}
        ok = got == {want}
        failures += [] if ok else [f"{who}: {fn} called {sorted(got)} times per op, expected {want}"]
        print(("PASS" if ok else "FAIL") + f" {who}: {fn} called {sorted(got)} times per op")
    for line in failures:
        print(f"FAILED {line}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
