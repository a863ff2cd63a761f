"""Command-line frontend.

Commands: analyze, solve, verify, dispersion, scan, generate.  Every JSON
output embeds the full run configuration for reproducibility.  Exit
codes: 0 all applicable checks pass, 1 error or failed checks,
2 structural refusal (not ECF), 3 undecided (search budget exhausted).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import asdict, dataclass

from . import chains
from .errors import FFSolveError, ParseError
from .graphs import WeightedGraph, frustration_graph
from .indpoly import (
    free_spectrum,
    single_particle_energies,
    weighted_independence_polynomial,
)
from .models import (
    SMALL_MODELS,
    Hamiltonian,
    generate_model,
    junction_graph,
    parse_graph,
    parse_hamiltonian,
    write_hamiltonian,
)
from .recognition import HOLE_SEARCH_BUDGET, classify, find_simplicial_cliques
from .solver import all_modes, mode_energy_gap, simplicial_extension
from .verify import SPECTRUM_MATCH_TOL, verify_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2
EXIT_UNDECIDED = 3

FREE_SPECTRUM_ALPHA_CAP = 16


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    model: str | None = None
    couplings: list | None = None
    n_cells: int | None = None
    k: int | None = None
    periodic: bool = False
    arms: list | None = None
    seed: int | None = None
    tol: float | None = None
    budget: int | None = None
    modes: bool = False
    output: str | None = None
    b2: list | None = None
    n_large: int | None = None
    vary: int | None = None
    values: list | None = None


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ffsolve-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(cfg: RunConfig, text: str):
    """Write ``text`` atomically to ``-o`` when it is given, else to stdout."""
    if cfg.output:
        _atomic_write(cfg.output, text)
    else:
        sys.stdout.write(text)


def _emit(cfg: RunConfig, payload: dict):
    """The run configuration and the result as one line of JSON; without
    ``indent`` the C encoder writes it."""
    _write(cfg, json.dumps({"config": asdict(cfg), "result": payload}, default=float) + "\n")


def _emit_csv(cfg: RunConfig, header: str, rows: list[str]):
    _write(cfg, header + "\n" + "\n".join(rows) + "\n")


def _draw_couplings(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(count)]


def _load_input(cfg: RunConfig) -> tuple[Hamiltonian | None, WeightedGraph]:
    """Hamiltonian (when available) and its weighted graph."""
    if cfg.input:
        with open(cfg.input) as fh:
            text = fh.read()
        stripped = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        stripped = [ln for ln in stripped if ln]
        if stripped and stripped[0].startswith("p "):
            return None, parse_graph(text)
        h = parse_hamiltonian(text)
        return h, frustration_graph(h)
    if not cfg.model:
        raise ParseError("provide an input file or --model")
    couplings = cfg.couplings
    if couplings is None and cfg.seed is not None:
        if cfg.model in SMALL_MODELS:
            count = len(SMALL_MODELS[cfg.model])
        elif cfg.model == "chain":
            count = cfg.k
        elif cfg.model == "junction":
            count = junction_graph(tuple(cfg.arms), cfg.k).n
        else:
            count = None
        if count:
            couplings = _draw_couplings(count, cfg.seed)
            cfg.couplings = couplings
    h = generate_model(cfg.model, couplings=couplings, n_cells=cfg.n_cells,
                       k=cfg.k, periodic=cfg.periodic,
                       arm_cells=tuple(cfg.arms) if cfg.arms else None)
    return h, frustration_graph(h)


def _structure_payload(graph: WeightedGraph, budget: int) -> tuple[dict, object]:
    report = classify(graph, hole_budget=budget)
    poly = weighted_independence_polynomial(graph)
    payload = {
        "vertices": graph.n,
        "edges": len(graph.edges()),
        "structure": report.to_dict(),
        "independence_polynomial": list(poly.coeffs),
        "alpha": poly.alpha,
    }
    return payload, report


def cmd_analyze(cfg: RunConfig) -> int:
    _, graph = _load_input(cfg)
    payload, report = _structure_payload(graph, cfg.budget)
    payload["structure"]["simplicial_cliques"] = [list(k) for k in find_simplicial_cliques(graph)]
    _emit(cfg, payload)
    return EXIT_UNDECIDED if report.undecided else EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    h, graph = _load_input(cfg)
    payload, report = _structure_payload(graph, cfg.budget)
    if report.undecided:
        _emit(cfg, payload)
        return EXIT_UNDECIDED
    if not report.ecf:
        payload["refusal"] = "frustration graph is not (even-hole, claw)-free"
        _emit(cfg, payload)
        return EXIT_REFUSED
    poly = weighted_independence_polynomial(graph)
    energies = single_particle_energies(poly)
    payload["energies"] = [[e, m] for e, m in energies.energies]
    payload["root_residual"] = energies.residual
    n = h.n if h else graph.n
    if energies.total <= n and energies.total <= FREE_SPECTRUM_ALPHA_CAP:
        payload["free_spectrum"] = [[v, d] for v, d in free_spectrum(energies, n)]
    if cfg.modes:
        if h is None:
            raise ParseError("--modes needs a Hamiltonian input, not a graph")
        ks = report.simplicial_clique
        hext, chi = simplicial_extension(h, ks)
        modes = all_modes(hext, chi, energies)
        payload["mode_term_counts"] = [len(m.op) for m in modes]
        payload["mode_energy_gap"] = mode_energy_gap(modes)
        payload["simplicial_clique"] = list(ks)
    _emit(cfg, payload)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    h, _ = _load_input(cfg)
    if h is None:
        raise ParseError("verify needs a Hamiltonian input, not a graph")
    report = verify_all(h, hole_budget=cfg.budget, spectrum_tol=cfg.tol)
    _emit(cfg, report.to_dict())
    if report.structure and report.structure.undecided:
        return EXIT_UNDECIDED
    if not report.applicable:
        return EXIT_REFUSED
    return EXIT_OK if report.passed() else EXIT_ERROR


def _b2_from_args(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.b2 is not None:
        if len(cfg.b2) != cfg.k:
            raise ParseError(f"--b2 needs {cfg.k} values")
        return tuple(cfg.b2)
    return (1.0 / cfg.k,) * cfg.k


def cmd_dispersion(cfg: RunConfig) -> int:
    spec = chains.ChainSpec(cfg.n_cells, cfg.k, _b2_from_args(cfg))
    points = chains.dispersion(spec)
    _emit_csv(cfg, "p,epsilon", [f"{p:.12g},{e:.12g}" for p, e in points])
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    vary = (cfg.vary if cfg.vary is not None else cfg.k) - 1
    if not 0 <= vary < cfg.k:
        raise ParseError(f"--vary must be in 1..{cfg.k}")
    grid = chains.others_equal_grid(cfg.k, vary, cfg.values or [])
    points = chains.gap_scan(cfg.k, grid, cfg.n_cells, cfg.n_large)
    header = ",".join(f"b{i + 1}sq" for i in range(cfg.k)) + ",gapN,gapNprime,flag"
    rows = []
    for pt in points:
        rows.append(",".join(f"{b:.12g}" for b in pt.b2)
                    + f",{pt.gap_small:.12g},{pt.gap_large:.12g},"
                    + ("gapless" if pt.gapless else "gapped"))
    _emit_csv(cfg, header, rows)
    return EXIT_OK


def cmd_generate(cfg: RunConfig) -> int:
    h, _ = _load_input(cfg)
    _write(cfg, write_hamiltonian(h))
    return EXIT_OK


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("input", nargs="?", help="Hamiltonian or graph file")
    p.add_argument("--model", choices=["h5", "h6", "chain", "junction", "back_to_back"])
    p.add_argument("--couplings", help="comma-separated couplings")
    p.add_argument("--N", type=int, dest="n_cells", help="unit cells (chain)")
    p.add_argument("--k", type=int, help="block size (chain/junction)")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--arms", help="comma-separated arm lengths (junction)")
    p.add_argument("--seed", type=int, help="draw random couplings")
    p.add_argument("--tol", type=float, default=SPECTRUM_MATCH_TOL)
    p.add_argument("--budget", type=int, default=HOLE_SEARCH_BUDGET,
                   help="even-hole search budget")
    p.add_argument("-o", "--output", help="write JSON here (atomic)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it, and
    building it costs more than many commands."""
    parser = argparse.ArgumentParser(prog="ffsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in [("analyze", cmd_analyze), ("solve", cmd_solve),
                     ("verify", cmd_verify), ("generate", cmd_generate)]:
        p = sub.add_parser(name)
        _add_model_args(p)
        if name == "solve":
            p.add_argument("--modes", action="store_true",
                           help="build the nonlocal eigenmodes too")
        p.set_defaults(fn=fn)

    p = sub.add_parser("dispersion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, dest="n_cells", required=True)
    for i in range(1, 10):
        p.add_argument(f"--b{i}sq", type=float, dest=f"b{i}sq")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("scan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, dest="n_cells", required=True)
    p.add_argument("--Nprime", type=int, dest="n_large", required=True)
    p.add_argument("--vary", type=int, help="1-based index of the varied coupling")
    p.add_argument("--values", required=True, help="comma-separated b^2 values")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_scan)

    return parser


def _squares_from_flags(args, k: int) -> list[float] | None:
    """Fill b^2 from --bXsq flags; unset entries share the rest of a unit sum."""
    given = {i: getattr(args, f"b{i}sq", None) for i in range(1, k + 1)}
    given = {i: v for i, v in given.items() if v is not None}
    if not given:
        return None
    fixed = sum(given.values())
    if fixed > 1.0 + 1e-12 or len(given) == k and abs(fixed - 1.0) > 1e-9:
        raise ParseError("squared couplings must sum to 1 under the fill convention")
    free = k - len(given)
    rest = (1.0 - fixed) / free if free else 0.0
    return [given.get(i, rest) for i in range(1, k + 1)]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    for name in ("input", "model", "n_cells", "k", "periodic", "seed",
                 "tol", "budget", "output", "n_large", "vary"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "couplings", None):
        cfg.couplings = [float(v) for v in args.couplings.split(",")]
    if getattr(args, "arms", None):
        cfg.arms = [int(v) for v in args.arms.split(",")]
    if getattr(args, "values", None):
        cfg.values = [float(v) for v in args.values.split(",")]
    if hasattr(args, "modes"):
        cfg.modes = args.modes
    if args.command == "dispersion":
        cfg.b2 = _squares_from_flags(args, cfg.k)
        if cfg.b2 is not None and not math.isclose(sum(cfg.b2), 1.0, rel_tol=1e-9):
            raise ParseError("squared couplings must sum to 1")
    try:
        return args.fn(cfg)
    except FFSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
