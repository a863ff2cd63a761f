"""Command-line frontend.

Commands: analyze, solve, verify, dispersion, scan, generate.  Every JSON
output embeds the options of the command that ran, the couplings drawn
under --seed included, for reproducibility.  Exit
codes: 0 all applicable checks pass, 1 error or failed checks,
2 structural refusal (not ECF), 3 undecided (the even-hole search ran out
of budget before ECF was decided; a claw refuses whatever the budget).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys

from . import chains
from .errors import FFSolveError, ParseError
from .graphs import WeightedGraph, frustration_graph
from .indpoly import (
    free_spectrum,
    single_particle_energies,
    weighted_independence_polynomial,
)
from .models import (
    Hamiltonian,
    generate_model,
    parse_graph,
    parse_hamiltonian,
    records,
    write_hamiltonian,
)
from .recognition import HOLE_SEARCH_BUDGET, classify
from .solver import all_modes, mode_energy_gap, simplicial_extension
from .verify import verify_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2
EXIT_UNDECIDED = 3

FREE_SPECTRUM_ALPHA_CAP = 16

# Every payload is a tree that its command has just built, so no cycle can
# occur and the encoder's walk for one is skipped; a non-finite float is
# written as null where it arises, and one that reaches the encoder raises
_ENCODER = json.JSONEncoder(default=float, check_circular=False, allow_nan=False)


def _atomic_write(path: str, data: bytes):
    """Write ``data`` to a new file beside ``path``, then rename it over
    ``path``.  The new file takes mode 0666 less the umask, as a file that
    ``open(path, "w")`` creates does; a name already taken is skipped."""
    d = os.path.dirname(os.path.abspath(path))
    for attempt in itertools.count():
        tmp = os.path.join(d, f".ffsolve-{os.getpid()}-{attempt}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # it names the temporary file, which the caller never chose
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as above: a directory at ``path``, say
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _write(args: argparse.Namespace, text: str):
    """Write ``text`` atomically to ``-o`` when it is given, else to stdout."""
    if args.output:
        _atomic_write(args.output, text.encode())
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, payload: dict):
    """The options of the command and the result as one line of strict
    JSON; without ``indent`` the C encoder writes it."""
    config = {k: v for k, v in vars(args).items() if k != "fn"}
    _write(args, _ENCODER.encode({"config": config, "result": payload}) + "\n")


def _emit_csv(args: argparse.Namespace, header: str, rows: list[str]):
    _write(args, header + "\n" + "\n".join(rows) + "\n")


def _draw_couplings(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(count)]


def _load_input(args: argparse.Namespace) -> tuple[Hamiltonian | None, WeightedGraph]:
    """Hamiltonian (when available) and its weighted graph."""
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
        if next(records(text), (0, ""))[1].startswith("p "):
            return None, parse_graph(text)
        h = parse_hamiltonian(text)
        return h, frustration_graph(h)
    if not args.model:
        raise ParseError("provide an input file or --model")

    def build(couplings):
        return generate_model(args.model, couplings=couplings, n_cells=args.n_cells, k=args.k,
                              periodic=args.periodic,
                              arm_cells=tuple(args.arms) if args.arms else None)

    h = build(args.couplings)
    if args.couplings is None and args.seed is not None:
        # a chain's k couplings repeat in every cell; every other family one for each term
        args.couplings = _draw_couplings(args.k if args.model == "chain" else len(h), args.seed)
        h = build(args.couplings)
    return h, frustration_graph(h)


def _structure_payload(graph: WeightedGraph, budget: int) -> tuple[dict, object]:
    report = classify(graph, hole_budget=budget)
    poly = weighted_independence_polynomial(graph)
    payload = {
        "vertices": graph.n,
        "edges": sum(row.bit_count() for row in graph.adj) // 2,
        "structure": report.to_dict(),
        # a coefficient beyond the float range is null
        "independence_polynomial": [c if math.isfinite(c) else None for c in poly.coeffs],
        "alpha": poly.alpha,
    }
    return payload, report


def cmd_analyze(args: argparse.Namespace) -> int:
    _, graph = _load_input(args)
    payload, report = _structure_payload(graph, args.budget)
    _emit(args, payload)
    return EXIT_UNDECIDED if report.undecided else EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    h, graph = _load_input(args)
    payload, report = _structure_payload(graph, args.budget)
    if report.refusal:
        payload["refusal"] = report.refusal
        _emit(args, payload)
        return EXIT_UNDECIDED if report.ecf is None else EXIT_REFUSED
    poly = weighted_independence_polynomial(graph)
    energies = single_particle_energies(poly)
    payload["energies"] = energies.energies
    payload["bracket_width"] = energies.width
    n = h.n if h else graph.n
    if energies.total <= n and energies.total <= FREE_SPECTRUM_ALPHA_CAP:
        payload["free_spectrum"] = free_spectrum(energies, n)
    if args.modes:
        if h is None:
            raise ParseError("--modes needs a Hamiltonian input, not a graph")
        ks = report.simplicial_clique
        hext, chi = simplicial_extension(h, ks)
        modes = all_modes(hext, chi, energies, poly)
        payload["mode_term_counts"] = [len(m.op) for m in modes]
        gap = mode_energy_gap(modes)
        payload["mode_energy_gap"] = gap if math.isfinite(gap) else None
        payload["simplicial_clique"] = ks
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    h, _ = _load_input(args)
    if h is None:
        raise ParseError("verify needs a Hamiltonian input, not a graph")
    report = verify_all(h, hole_budget=args.budget)
    _emit(args, report.to_dict())
    if report.structure and report.structure.ecf is None:
        return EXIT_UNDECIDED
    if not report.applicable:
        return EXIT_REFUSED
    return EXIT_OK if report.passed() else EXIT_ERROR


def cmd_dispersion(args: argparse.Namespace) -> int:
    given = {i: getattr(args, f"b{i + 1}sq") for i in range(9)}
    b2 = chains.unit_sum_fill(args.k, {i: v for i, v in given.items() if v is not None})
    spec = chains.ChainSpec(args.n_cells, args.k, b2)
    points = chains.dispersion(spec)
    _emit_csv(args, "p,epsilon", [f"{p:.12g},{e:.12g}" for p, e in points])
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    vary = (args.vary if args.vary is not None else args.k) - 1
    if not 0 <= vary < args.k:
        raise ParseError(f"--vary must be in 1..{args.k}")
    grid = [chains.unit_sum_fill(args.k, {vary: v}) for v in args.values]
    points = chains.gap_scan(args.k, grid, args.n_cells, args.n_large)
    header = ",".join(f"b{i + 1}sq" for i in range(args.k)) + ",gapN,gapNprime,flag"
    rows = []
    for pt in points:
        rows.append(",".join(f"{b:.12g}" for b in pt.b2)
                    + f",{pt.gap_small:.12g},{pt.gap_large:.12g},"
                    + ("gapless" if pt.gapless else "gapped"))
    _emit_csv(args, header, rows)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    h, _ = _load_input(args)
    _write(args, write_hamiltonian(h))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it, and
    building it costs more than many commands."""
    parser = argparse.ArgumentParser(prog="ffsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in [("analyze", cmd_analyze), ("solve", cmd_solve),
                     ("verify", cmd_verify), ("generate", cmd_generate)]:
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", help="Hamiltonian or graph file")
        p.add_argument("--model", choices=["h5", "h6", "chain", "junction", "back_to_back"])
        p.add_argument("--couplings", help="comma-separated couplings")
        p.add_argument("--N", type=int, dest="n_cells", help="unit cells (chain)")
        p.add_argument("--k", type=int, help="block size (chain/junction)")
        p.add_argument("--periodic", action="store_true")
        p.add_argument("--arms", help="comma-separated arm lengths (junction)")
        p.add_argument("--seed", type=int, help="draw random couplings")
        if name != "generate":
            p.add_argument("--budget", type=int, default=HOLE_SEARCH_BUDGET,
                           help="even-hole search budget")
        p.add_argument("-o", "--output", help="write JSON here (atomic)")
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


def _parse_lists(args: argparse.Namespace):
    """Replace the comma-separated options by their lists of numbers; an
    empty list is an input error, not the option left out."""
    for name, kind in (("couplings", float), ("arms", int), ("values", float)):
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            setattr(args, name, [kind(v) for v in text.split(",")])
        except ValueError:
            raise ParseError(f"--{name} needs comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_lists(args)
        return args.fn(args)
    except (FFSolveError, OSError) as exc:  # an OSError from the input or -o
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
