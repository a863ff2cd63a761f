"""Benchmark ffsolve through its command-line entry point.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` as the test suite does.  One client calls ``ffsolve.cli.main(argv)``
in this process in a closed loop, with no threads.  A run runs
round(seconds / NOMINAL_ROUND_S) whole rounds of the seed's ops (see
workloads.py), so every run takes the same samples; when the benchmark
was defined that took about ``--seconds``.  Each op writes its output to
a file, which is checked against an independent reference outside the
timed region (check.py, reference.py).  Every latency and set-up time is
scaled to a fixed machine speed by a probe timed next to it (``probe``);
the wall figures are printed and recorded beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs half as many
rounds untraced, then the same rounds traced (spans.py), and prints the
per-layer metrics.
Lines before the last print every metric with its unit and sample count;
the last line is one JSON object.  A detailed record (environment,
per-class latencies, answer hashes) goes to perfbench/results/.  The exit
code is 1 when any op missed its reference, 2 when the source tree is
missing.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CACHE = os.path.join(HERE, ".refcache")
RESULTS = os.path.join(HERE, "results")
REF_VERSION = "1"
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_REPEATS = 11
# Latencies and set-up times are given at the machine speed at which
# probe() takes this long (about the fastest a 2-core x86-64 VM ran it).
PROBE_REF_S = 0.009
WARMUP = {
    "solve": ["solve", "--model", "chain", "--N", "2", "--k", "3"],
    "verify": ["verify", "--model", "h5"],
    "dispersion": ["dispersion", "--k", "3", "--N", "8"],
    "scan": ["scan", "--k", "3", "--N", "4", "--Nprime", "8", "--values", "0.5"],
}


def metric_units() -> dict[str, str]:
    """Units of every metric, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if round(n * (100 - p) / 100, 6) >= 10:
            return p
    return 50.0


# -- references -----------------------------------------------------------------

def _ref_instance(op) -> dict:
    v = op.verdict
    return {"graph": op.graph, "paulis": op.paulis,
            "ecf": v["claw_free"] and v["even_hole_free"]}


def load_references(ops) -> dict:
    """Graph references by op key, from the cache or a child process."""
    os.makedirs(CACHE, exist_ok=True)
    refs, todo, paths = {}, {}, {}
    for op in ops:
        if op.kind not in ("solve", "verify"):
            continue
        inst = _ref_instance(op)
        blob = json.dumps([REF_VERSION, inst], sort_keys=True)
        path = os.path.join(CACHE, hashlib.sha256(blob.encode()).hexdigest()[:24] + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                refs[op.key] = json.load(fh)
        else:
            todo[op.key] = inst
            paths[op.key] = path
    if todo:
        src, dst = os.path.join(WORK, "ref-in.json"), os.path.join(WORK, "ref-out.json")
        with open(src, "w") as fh:
            json.dump(todo, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "reference.py"), src, dst],
                       check=True, timeout=150)
        with open(dst) as fh:
            fresh = json.load(fh)
        for key, ref in fresh.items():
            with open(paths[key], "w") as fh:
                json.dump(ref, fh)
            refs[key] = ref
    return refs


# -- the closed loop ---------------------------------------------------------------

class Loop:
    """Runs rounds of ops, times each op, checks each answer untimed."""

    def __init__(self, refs):
        self.refs = refs
        self.ops = {}               # op key -> Op, every op run
        self.verdicts = {}          # (op key, output hash) -> reason or None
        self.outputs = {}           # op key -> first output text
        self.digests = {}           # op key -> answer hash
        self.failures = []
        self.attempted = 0
        self.op_log = []            # op index -> Op, for traced runs
        self.out_path = os.path.join(WORK, "out.json")
        self.probes = []            # probe() after each op
        self.setup = []             # (scaled, wall) set-up times

    def run_op(self, op, tracer=None):
        import check
        from ffsolve import cli

        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        if tracer is not None:
            tracer.op = len(self.op_log)
        self.op_log.append(op)
        self.ops[op.key] = op
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv + ["-o", self.out_path])
        except (Exception, SystemExit) as exc:
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        text = None
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                text = fh.read()
        key = (op.key, hashlib.sha256((text or "").encode() + str(rc).encode()).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = check.check(op, rc, text, self.refs.get(op.key))
            self.outputs.setdefault(op.key, text)
            self.digests[op.key] = check.digest(op, text) if self.verdicts[key] is None else "wrong"
        self.attempted += 1
        if self.verdicts[key] is not None:
            self.failures.append(f"{op.name} [{op.key}]: {self.verdicts[key]}")
        return elapsed

    def run(self, rounds, time_cap: float, tracer=None,
            setups: int = 0) -> list[tuple[str, float, float]]:
        """Whole rounds, fewer if the ops run past ``time_cap`` seconds.

        Returns (op class, scaled latency, wall latency) per op; the scaled
        latency is the wall latency at the speed the probes around the op
        measured (see ``probe``).  ``setups`` set-up times are taken between
        ops spread evenly over the run, so that they see the machine in the
        states the ops saw; they go to ``self.setup`` as (scaled, wall)."""
        total = sum(len(ops) for ops in rounds)
        slots = {(j + 1) * total // (setups + 1) for j in range(setups)}
        samples, busy = [], 0.0
        before = probe()
        for ops in rounds:
            for op in ops:
                dt = self.run_op(op, tracer)
                after = probe()
                self.probes.append(after)
                samples.append((op.name, dt * PROBE_REF_S / ((before + after) / 2), dt))
                before = after
                busy += dt
                if len(samples) in slots:
                    wall = setup_once()
                    after = probe()
                    self.setup.append((wall * PROBE_REF_S / ((before + after) / 2), wall))
                    before = after
            if busy > time_cap:
                break
        return samples


# Data for probe(), built once: a dict too large for the core's private
# caches, read in a fixed random order, a fixed random graph on 32
# vertices as neighbour bitmasks, and a fixed dense matrix.
_PROBE_TABLE = {(i * 2654435761) % (1 << 40): i for i in range(64_000)}
_PROBE_KEYS = random.Random(1).sample(sorted(_PROBE_TABLE), 10_000)
_PROBE_RNG = random.Random(2)
_PROBE_ADJ = [0] * 32
for _i in range(32):
    for _j in range(_i + 1, 32):
        if _PROBE_RNG.random() < 0.18:
            _PROBE_ADJ[_i] |= 1 << _j
            _PROBE_ADJ[_j] |= 1 << _i
_PROBE_MATRIX = numpy.random.default_rng(3).standard_normal((160, 160))


def _count_independent(mask: int, memo: dict) -> int:
    if not mask:
        return 1
    if mask not in memo:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        memo[mask] = (_count_independent(rest, memo)
                      + _count_independent(rest & ~_PROBE_ADJ[v], memo))
    return memo[mask]


def probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch ffsolve:
    integer arithmetic, random reads of a large dict, a memoized count of
    the independent sets of a 32-vertex graph, and the singular values of
    a 160 x 160 matrix, the kinds of work ffsolve's own hot loops do.

    A shared VM runs the same code up to 2x slower for tens of seconds while
    a neighbour is busy, and neither process time nor the fastest of
    repeated runs hides that.  The probe runs between every two ops; an op's
    latency is scaled by PROBE_REF_S over the mean of the probes before and
    after it.  A change to ffsolve changes the op times, never the probe."""
    enabled = gc.isenabled()
    gc.disable()
    _probe_work()   # untimed: brings the probe's code and data into cache,
                    # whatever the op before it left there
    start = time.perf_counter()
    _probe_work()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def _probe_work() -> int:
    acc = 0
    for i in range(30_000):
        acc += i * i
    for key in _PROBE_KEYS:
        acc += _PROBE_TABLE[key]
    acc += _count_independent((1 << 32) - 1, {})
    return acc + int(numpy.linalg.svd(_PROBE_MATRIX, compute_uv=False)[0])


def self_check(loop) -> list[str]:
    """A perturbed answer of each kind must be judged wrong."""
    import check

    problems, seen = [], set()
    for op in loop.ops.values():
        text = loop.outputs.get(op.key)
        tag = (op.kind, op.expect)
        if tag in seen or text is None or loop.digests.get(op.key) == "wrong":
            continue
        seen.add(tag)
        if check.check(op, op.expect, check.perturb(op, text), loop.refs.get(op.key)) is None:
            problems.append(f"perturbed answer of {op.name} passed the check")
    return problems


# -- metrics -----------------------------------------------------------------

_SETUP_CMD = [sys.executable, "-c", "import ffsolve.cli"]


def setup_once() -> float:
    """Wall time of a fresh interpreter importing ffsolve.cli."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(_SETUP_CMD, env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
    return time.perf_counter() - start


def _summary(samples) -> dict:
    lat = [dt for _, dt in samples]
    p = tail_percentile(len(lat))
    by_class = {}
    for name, dt in samples:
        by_class.setdefault(name, []).append(dt)
    return {
        "ops": len(lat), "busy_s": sum(lat), "ops_per_s": len(lat) / sum(lat),
        "p50_ms": 1000 * _percentile(lat, 50), "tail_percentile": p,
        "tail_ms": 1000 * _percentile(lat, p),
        "by_class_median_ms": {k: 1000 * statistics.median(v) for k, v in sorted(by_class.items())},
    }


def latency_summary(samples) -> dict:
    """Summary of the scaled latencies, with that of the wall latencies
    under ``wall``."""
    out = _summary([(name, scaled) for name, scaled, _ in samples])
    out["wall"] = _summary([(name, wall) for name, _, wall in samples])
    return out


def chain_energy_errors(tracer) -> float:
    from reference import lowest_rel_error

    worst, cache = 0.0, {}
    for _, args, result in tracer.results["chains.chain_energies"]:
        spec = args[0]
        lowest = result.energies[0][0]
        key = (spec.k, spec.n_cells, spec.b2, lowest)
        if key not in cache:
            cache[key] = lowest_rel_error(spec.k, spec.b2, spec.n_cells, lowest)
        worst = max(worst, cache[key])
    return worst


def poly_energy_errors(tracer, loop) -> float:
    worst = 0.0
    for op_index, _, result in tracer.results["indpoly.single_particle_energies"]:
        ref = loop.refs.get(loop.op_log[op_index].key) or {}
        want = ref.get("energies")
        got = sorted(result.flat())
        if want and len(got) == len(want):
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)) / max(want))
    return worst


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "git_commit": commit, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ffsolve", "cli.py")):
        print(f"no ffsolve source tree under {SRC}", file=sys.stderr)
        return 2
    from workloads import NOMINAL_ROUND_S, WORKLOADS, make_rounds
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)

    nominal = NOMINAL_ROUND_S[args.workload]
    count = max(1, round(args.seconds / nominal))
    half = max(1, round(args.seconds / 2 / nominal))
    # a traced run times the same rounds untraced, then traced
    rounds = make_rounds(args.workload, args.seed, count if args.trace == 0 else half)
    ops = list({op.key: op for ops in rounds for op in ops}.values())
    for op in ops:
        for rel, text in op.files.items():
            with open(os.path.join(ROOT, rel), "w") as fh:
                fh.write(text)
    refs = load_references(ops)

    from ffsolve import cli
    out_path = os.path.join(WORK, "out.json")
    for kind in sorted({op.kind for op in ops}):
        cli.main(WARMUP[kind] + ["-o", out_path])

    loop = Loop(refs)
    # Keep the benchmark's own objects out of the collector's way, so that
    # the program's garbage collections cost what they would in a CLI run.
    gc.collect()
    gc.freeze()
    cap = 4 * args.seconds + 20   # keeps a much slower program within the run limit
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "round": [op.name for op in rounds[0]], "loop": "closed, one client, no threads"}
    table = []
    units = metric_units()
    if args.trace == 0:
        setup_once()   # fills the bytecode cache
        samples = loop.run(rounds, cap, setups=SETUP_REPEATS)
        setup = [scaled for scaled, _ in loop.setup]
        setup_wall = [wall for _, wall in loop.setup]
        summary = latency_summary(samples)
        metrics = {
            "ops_per_s": (summary["ops_per_s"], summary["ops"]),
            "latency_p50_ms": (summary["p50_ms"], summary["ops"]),
            "latency_tail_ms": (summary["tail_ms"], summary["ops"]),
            "setup_s": (statistics.median(setup), len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        record.update(summary=summary, setup_s_samples=setup, setup_s_wall=setup_wall)
        table.append(("failed_frac", len(loop.failures) / loop.attempted,
                      units["failed_frac"], loop.attempted))
        table.append(("latency_tail_percentile", summary["tail_percentile"], "percentile",
                      summary["ops"]))
        wall = summary["wall"]
        table += [("wall ops_per_s (not scaled)", wall["ops_per_s"], "1/s", wall["ops"]),
                  ("wall latency_p50_ms (not scaled)", wall["p50_ms"], "ms", wall["ops"]),
                  ("wall latency_tail_ms (not scaled)", wall["tail_ms"], "ms", wall["ops"]),
                  ("wall setup_s (not scaled)", statistics.median(setup_wall), "s",
                   len(setup_wall))]
    else:
        from spans import Tracer

        plain = latency_summary(loop.run(rounds, cap / 2))
        tracer = Tracer()
        tracer.install()
        first = len(loop.op_log)
        try:
            traced = latency_summary(loop.run(rounds, cap / 2, tracer))
        finally:
            tracer.uninstall()
        # spans are wall times, so their coverage is of the wall op time
        layer = tracer.layer_metrics(traced["ops"], traced["wall"]["busy_s"])
        layer["trace.overhead_frac"] = plain["ops_per_s"] / traced["ops_per_s"] - 1
        layer["failed_frac"] = len(loop.failures) / loop.attempted
        layer["indpoly.energy_rel_err_max"] = poly_energy_errors(tracer, loop)
        layer["chains.energy_rel_err_max"] = chain_energy_errors(tracer)
        metrics = {k: (v, traced["ops"]) for k, v in layer.items()}
        spans_path = os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        record.update(untraced=plain, traced=traced, first_traced_op=first,
                      spans_file=os.path.relpath(spans_path, ROOT))

    problems = self_check(loop)
    record.update(probe_ms=[1000 * p for p in loop.probes], attempted=loop.attempted,
                  failures=sorted(set(loop.failures)),
                  self_check_problems=problems, answer_hashes=loop.digests)
    with open(os.path.join(RESULTS, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, (value, n) in metrics.items():
        table.append((name, value, units[name], n))
    table.append(("probe_ms (machine speed, not a metric)",
                  1000 * statistics.median(loop.probes), "ms", len(loop.probes)))
    for name, value, unit, n in table:
        print(f"{name:48s} {value:14.6g} {unit:9s} n={n}")
    for line in sorted(set(loop.failures)) + problems:
        print(f"FAILED {line}")
    correct = not loop.failures and not problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": len(loop.failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, (v, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
