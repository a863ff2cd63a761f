"""Per-layer timing of ffsolve measured from outside.

``Tracer.install`` rebinds, in this process only, every public
module-level function of each ffsolve module (and the sum-level
arithmetic of ``OperatorSum``) to a wrapper that records a span: name,
start, end, parent span, op id.  Every module namespace that imported the
function by name gets the wrapper too, so calls between modules are seen.
Per-term primitives (``multiply``, ``commutes``, ``bits``) and generators
are left alone; their time counts in the caller.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "models", "graphs", "recognition", "indpoly", "chains",
          "solver", "paulis", "verify")
SKIP = {"paulis.multiply", "paulis.commutes", "graphs.bits"}
OPSUM_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "dagger")
PRODUCTS = {"paulis.opsum_mul", "paulis.opsum_comm", "paulis.opsum_anticomm"}


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, op, outermost)
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.op = None
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)  # captured per op
        self._seen_errors: set[int] = set()
        self._undo: list = []

    # -- installation --------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            outermost = tracer.active[name] == 0
            tracer.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result
            except Exception as exc:
                if id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op, outermost)

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"ffsolve.{m}") for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[id(fn)] = (fn, self._wrap(name, fn))
        for mod in [m for n, m in sys.modules.items() if n == "ffsolve" or n.startswith("ffsolve.")]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)][1])
        cls = modules["paulis"].OperatorSum
        for attr in OPSUM_METHODS:
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"paulis.OperatorSum.{attr}", fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- counters derived from arguments and results ---------------------

    def _observe(self, name: str, args, result):
        c = self.counts
        if name in PRODUCTS:
            c["paulis.term_pairs"] += len(args[0]) * len(args[1])
            c["paulis.terms_out"] += len(result)
        elif name == "paulis.to_dense":
            c["paulis.dense_dim_max"] = max(c["paulis.dense_dim_max"], 1 << args[0].n)
        elif name == "recognition.classify":
            c["recognition.undecided"] += bool(result.undecided)
        elif name in ("indpoly.single_particle_energies", "chains.chain_energies"):
            self.results[name].append((self.op, args, result))

    # -- aggregation ---------------------------------------------------

    def layer_metrics(self, n_ops: int, op_wall_s: float) -> dict[str, float]:
        """Per-op seconds and counts from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        time_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += end - start - child[i]
            calls[name] += 1
            if outermost:
                time_s[name] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / n_ops
            out[f"{layer}.errors"] = self.errors[layer] / n_ops
        for name in ("indpoly.weighted_independence_polynomial", "recognition.find_even_hole",
                     "recognition.find_simplicial_cliques", "recognition.find_claw",
                     "indpoly.single_particle_energies", "chains.chain_energies",
                     "paulis.opsum_mul", "solver.check_fundamental_identity",
                     "paulis.to_dense", "verify.brute_force_spectrum", "solver.transfer",
                     "solver.all_modes"):
            out[f"{name}.time_s"] = time_s[name] / n_ops
        for name in ("indpoly.weighted_independence_polynomial", "chains.chain_energies",
                     "graphs.frustration_graph", "solver.transfer"):
            out[f"{name}.calls"] = calls[name] / n_ops
        c = self.counts
        out["paulis.term_pairs"] = c["paulis.term_pairs"] / n_ops
        out["paulis.terms_out"] = c["paulis.terms_out"] / n_ops
        out["paulis.product_yield"] = (c["paulis.terms_out"] / c["paulis.term_pairs"]
                                       if c["paulis.term_pairs"] else 0.0)
        out["paulis.dense_dim_max"] = c["paulis.dense_dim_max"]
        out["recognition.undecided"] = c["recognition.undecided"] / n_ops
        out["trace.self_coverage"] = sum(self_s.values()) / op_wall_s
        return out

    def calls_by_op(self, name: str) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                out[span[4]] += 1
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
