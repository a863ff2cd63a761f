"""Command-line interface: outputs, exit codes, round trips."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EPS,
    claw_free_graph,
    edge_list,
    forest_energies,
    forest_line_graph,
    naive_has_even_hole,
    naive_independence_polynomial,
    random_forest,
    rational_bisection_energies,
)
import ffsolve
from ffsolve import paulis
from ffsolve.chains import ChainSpec, chain_energies
from ffsolve.cli import main
from ffsolve.graphs import WeightedGraph
from ffsolve.errors import ModelError, ParseError
from ffsolve.indpoly import IndependencePolynomial
from ffsolve.models import (
    Hamiltonian,
    junction_graph,
    junction_model,
    parse_graph,
    parse_hamiltonian,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_analyze_h5(capsys):
    code, doc = run_json(capsys, "analyze", "--model", "h5",
                         "--couplings", "1,1,1,1,1")
    assert code == 0
    res = doc["result"]
    assert res["structure"]["ecf"] is True
    assert res["independence_polynomial"] == [1.0, 5.0, 5.0]
    assert res["alpha"] == 2
    assert doc["config"]["command"] == "analyze"
    assert doc["config"]["couplings"] == [1.0] * 5


def test_analyze_graph_file(tmp_path, capsys):
    p = tmp_path / "c4.graph"
    p.write_text("p 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
    code, doc = run_json(capsys, "analyze", str(p))
    assert code == 0
    assert doc["result"]["structure"]["even_hole_witness"] is not None


def test_solve_h5_unit(capsys):
    code, doc = run_json(capsys, "solve", "--model", "h5",
                         "--couplings", "1,1,1,1,1")
    assert code == 0
    eps = [e for e, _ in doc["result"]["energies"]]
    assert abs(eps[0] - math.sqrt((5 - math.sqrt(5)) / 2)) < 1e-10
    assert abs(eps[1] - math.sqrt((5 + math.sqrt(5)) / 2)) < 1e-10


def test_solve_uniform_junction_double_energy(capsys):
    """Junction (1,1,1) with its 15 couplings at 1: P = (1 + 3x)^2
    (1 + 9x + 12x^2), so sqrt(3) comes back once, with multiplicity 2."""
    code, doc = run_json(capsys, "solve", "--model", "junction", "--arms", "1,1,1",
                         "--k", "3", "--couplings", ",".join(["1"] * 15))
    assert code == 0
    got = doc["result"]["energies"]
    want = [(math.sqrt(24 / (9 + math.sqrt(33))), 1), (math.sqrt(3), 2),
            (math.sqrt(24 / (9 - math.sqrt(33))), 1)]
    assert [m for _, m in got] == [m for _, m in want]
    for (e, _), (w, _) in zip(got, want):
        assert math.isclose(e, w, rel_tol=1e-13)


def test_verify_reports_the_term_cap(capsys, monkeypatch):
    """Above the term cap verify prints its report and exits 1."""
    monkeypatch.setattr(paulis, "TERM_CAP", 30)
    code, doc = run_json(capsys, "verify", "--model", "h5")
    assert code == 1
    assert doc["result"]["failure"] == "product of 11 x 11 term pairs exceeds cap 30"


def test_solve_modes_at_small_couplings(capsys):
    """Couplings of order 1e-3 give the modes of couplings of order 1, and
    so do couplings of 1e-155, where each 1 / e_j^2 lies beyond the float
    range: the modes are formed at the couplings divided by 2^p."""
    for couplings in ("1,0.7,1.3", "0.001,0.0007,0.0013"):
        code, doc = run_json(capsys, "solve", "--modes", "--model", "chain", "--N", "5",
                             "--k", "3", "--couplings", couplings)
        assert code == 0
        assert doc["result"]["mode_term_counts"] == [150] * 5
    counts = []
    for couplings in ("1,1,1", "1e-155,1e-155,1e-155"):
        code, doc = run_json(capsys, "solve", "--modes", "--model", "chain", "--N", "3",
                             "--k", "3", "--couplings", couplings)
        assert code == 0
        counts.append(doc["result"]["mode_term_counts"])
    assert counts[0] == counts[1] and len(counts[0]) == 3


def test_solve_single_edge_345(tmp_path, capsys):
    p = tmp_path / "edge.ham"
    p.write_text("3.0 X0\n4.0 Z0\n")
    code, doc = run_json(capsys, "solve", str(p))
    assert code == 0
    assert abs(doc["result"]["energies"][0][0] - 5.0) < 1e-12


def test_solve_bracket_width_is_certified(capsys):
    """bracket_width is the largest relative width of the brackets that
    certify the squared energies: at most 1e-15, whatever the size of the
    coefficients, on chain 4x3 at couplings 1e60 too, whose float view
    overflows."""
    for argv in (("--model", "chain", "--N", "10", "--k", "3"), ("--model", "h6"),
                 ("--model", "chain", "--N", "4", "--k", "3", "--couplings", "1e60,1e60,1e60")):
        code, doc = run_json(capsys, "solve", *argv)
        assert code == 0
        assert 0.0 < doc["result"]["bracket_width"] <= 1e-15, argv


def test_solve_refuses_back_to_back(capsys):
    code, doc = run_json(capsys, "solve", "--model", "back_to_back",
                         "--couplings", "1,0.9,1.1,0.8,1.2,1.05")
    assert code == 2
    assert doc["result"]["structure"]["claw_witness"] is not None
    assert "refusal" in doc["result"]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_claw_refuses_whatever_the_hole_budget(command, capsys):
    """A claw refuses the graph even when the even-hole search runs out:
    ECF is decided (false), so the exit code is 2, not 3 (undecided)."""
    code, doc = run_json(capsys, command, "--model", "back_to_back", "--budget", "1")
    assert code == 2
    structure = doc["result"]["structure"]
    assert structure["ecf"] is False and structure["claw_witness"] is not None
    assert structure["undecided"] is True and structure["even_hole_free"] is None


def test_solve_modes_builds_no_dict_view(monkeypatch, tmp_path):
    """``solve --modes`` on chain 4x4 runs on packed tables alone: no sum's
    dict view and no list of strings is built, for every one of them is
    read off a table's words by ``_Table.strings``."""
    calls = []
    strings = paulis._Table.strings
    monkeypatch.setattr(paulis._Table, "strings",
                        lambda table, *cols: calls.append(1) or strings(table, *cols))
    out = tmp_path / "modes.json"
    argv = ["solve", "--modes", "--model", "chain", "--N", "4", "--k", "4", "--seed", "1"]
    assert main(argv + ["-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["result"]["mode_term_counts"]) == 4
    assert calls == []
    assert paulis.OperatorSum.identity(2).terms and calls == [1]  # the count does count


def test_claw_free_root_failure_is_reported_as_conditioning(capsys, tmp_path):
    """Two isolated vertices of weights 1e300 and 1e-300: in s, the lower
    root lies 1e-600 below the upper one, under every float, and the
    command exits 1.  The root finder, which sees the exact coefficients
    but not the graph, names the root below every float in one line,
    rather than complex roots or coefficients that could not resolve
    them."""
    p = tmp_path / "apart.graph"
    p.write_text("p 2\nv 0 1e300\nv 1 1e-300\n")
    assert main(["solve", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: isolated 1 real roots, expected 2: the other squared energies lie more than "
        "about 2^1074 below the weight sum c_1, under every float of the scaled variable\n")


@pytest.mark.parametrize("couplings", ["1.3346e-133,8.1609e-129,2.1212e-127", "1e-60,1e-60,1e-60"])
def test_underflowing_chain_is_solved(couplings, capsys):
    """Chain 4x3 has alpha = 4.  At these couplings its top coefficients
    underflow as floats: the first exited 0 with alpha = 1 and one energy,
    then both exited 1.  The exact coefficients give alpha = 4 and the
    four energies of ``chain_energies``."""
    code, doc = run_json(capsys, "solve", "--model", "chain", "--N", "4", "--k", "3",
                         "--couplings", couplings)
    assert code == 0 and doc["result"]["alpha"] == 4
    b2 = tuple(float(c) ** 2 for c in couplings.split(","))
    want = chain_energies(ChainSpec(4, 3, b2)).energies
    got = doc["result"]["energies"]
    assert [m for _, m in got] == [m for _, m in want] == [1, 1, 1, 1]
    assert all(math.isclose(a, b, rel_tol=1e-12) for (a, _), (b, _) in zip(got, want))


def strict_json(text: str):
    """``json.loads`` that rejects NaN and the infinities, which JSON lacks."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_overflowing_coefficients_are_written_as_null(command, capsys):
    """Chain 4x3 at couplings 1e60: c_3 and c_4 lie beyond the float range,
    whose view of them is infinite; strict JSON has null in their place."""
    code, out = run(capsys, command, "--model", "chain", "--N", "4", "--k", "3",
                    "--couplings", "1e60,1e60,1e60")
    assert code == 0
    coeffs = strict_json(out)["result"]["independence_polynomial"]
    assert coeffs[3:] == [None, None] and all(math.isfinite(c) for c in coeffs[:3])


def test_a_nan_residual_of_verify_is_written_as_null(capsys, monkeypatch):
    from ffsolve import verify

    monkeypatch.setattr(verify, "transfer_factorization_residual",
                        lambda h, us: [math.nan for _ in us])
    code, out = run(capsys, "verify", "--model", "h5", "--couplings", "1,0.7,-1.3,0.4,2")
    assert code == 1
    res = strict_json(out)["result"]
    assert res["lemma_residuals"]["transfer_factorization"] is None
    assert res["passed"] is False


def test_output_file_is_whole_after_short_writes(tmp_path, monkeypatch):
    """``os.write`` may write fewer bytes than it is given: the rest follow."""
    argv = ["solve", "--model", "chain", "--N", "3", "--k", "3", "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    want = (tmp_path / "out.json").read_bytes()
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    assert main(argv) == 0
    assert (tmp_path / "out.json").read_bytes() == want


def test_solve_with_modes(capsys):
    code, doc = run_json(capsys, "solve", "--model", "h5", "--seed", "3", "--modes")
    assert code == 0
    assert len(doc["result"]["mode_term_counts"]) == 2
    assert 0.0 <= doc["result"]["mode_energy_gap"] <= 1e-12


@pytest.mark.parametrize("n_cells, couplings", [
    (6, "0.6529773505358478,0.00011091475746107679"),
    (7, "0.007296017585737193,1.2220120800148258"),
])
def test_dimerized_chains_have_modes_and_verify(capsys, n_cells, couplings):
    """Dimerized chains whose N_j^2, from float coefficients, cancelled to
    -9.3e-30 and -6.1e-26 and refused the modes: taken exactly, every
    N_j^2 is positive, the modes are built, and verify passes."""
    argv = ["--model", "chain", "--N", str(n_cells), "--k", "2", "--couplings", couplings]
    code, doc = run_json(capsys, "solve", "--modes", *argv)
    assert code == 0 and len(doc["result"]["mode_term_counts"]) == n_cells
    code, doc = run_json(capsys, "verify", *argv)
    assert code == 0 and doc["result"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["--model", "chain", "--N", "8", "--k", "3", "--seed", "1"],
    ["--model", "chain", "--N", "10", "--k", "3", "--seed", "1"],
    ["--model", "junction", "--arms", "1,1,1", "--k", "3", "--seed", "3"],
    ["--model", "junction", "--arms", "1,2,1", "--k", "3", "--seed", "2"],
])
def test_mode_energy_gap_is_rounding(capsys, argv):
    """The Lanczos energies of the modes meet the certified energies to
    1e-13 of the largest: 4.0e-16, 5.3e-16, 3.2e-16 and 3.3e-16 here, where
    float energies put chain 10x3 at 2.8e-12."""
    code, doc = run_json(capsys, "solve", "--modes", *argv)
    assert code == 0 and 0.0 <= doc["result"]["mode_energy_gap"] <= 1e-13


def test_generate_then_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "chain.ham"
    code, _ = run(capsys, "generate", "--model", "chain", "--N", "2", "--k", "3",
                  "-o", str(out))
    assert code == 0
    h = parse_hamiltonian(out.read_text())
    assert len(h) == 6 and h.n == 6
    code, doc = run_json(capsys, "analyze", str(out))
    assert code == 0
    assert doc["result"]["alpha"] == 2


def test_verify_h6_seeded(capsys):
    code, doc = run_json(capsys, "verify", "--model", "h6", "--seed", "7")
    assert code == 0
    assert doc["result"]["passed"] is True


def test_verify_exit_refused(capsys):
    code, doc = run_json(capsys, "verify", "--model", "back_to_back", "--seed", "1")
    assert code == 2


def test_verify_exit_undecided(capsys):
    code, doc = run_json(capsys, "verify", "--model", "chain", "--N", "3", "--k", "3",
                         "--periodic", "--budget", "2")
    assert code == 3


def test_solve_exit_undecided_names_it(capsys):
    code, doc = run_json(capsys, "solve", "--model", "chain", "--N", "3", "--k", "3",
                         "--periodic", "--budget", "2")
    assert code == 3
    assert doc["result"]["refusal"] == "even-hole search undecided (budget exhausted)"
    assert doc["result"]["structure"]["simplicial_clique"] is None


def test_solve_refuses_a_cocktail_party_graph_at_once(tmp_path, capsys):
    """K_24 less a perfect matching is claw-free and has 4-holes.  Its
    refusal walks none of its cliques, whose number triples with every two
    more vertices: it took 2.1 s when every input had its cliques walked."""
    n = 24
    p = tmp_path / "cp.graph"
    p.write_text(f"p {n}\n" + "".join(f"e {i} {j}\n" for i in range(n)
                                      for j in range(i + 1, n) if j != i ^ 1))
    t0 = time.perf_counter()
    code, doc = run_json(capsys, "solve", str(p))
    elapsed = time.perf_counter() - t0
    structure = doc["result"]["structure"]
    assert code == 2
    assert structure["claw_free"] and structure["even_hole_free"] is False
    assert structure["simplicial_clique"] is None
    assert elapsed < 0.1


def test_modes_refused_on_a_disconnected_graph(tmp_path, capsys):
    """Two decoupled pairs: the energies come out, and the modes, which
    chi's Krylov space reaches in one component only, are refused with a
    message that names the components, by ``solve --modes`` and ``verify``."""
    p = tmp_path / "pairs.ham"
    p.write_text("1.0 X0 X1\n0.7 Y1 Y2\n1.3 X3 X4\n0.4 Y4 Y5\n")
    code, doc = run_json(capsys, "solve", str(p))
    assert code == 0
    assert [e for e, _ in doc["result"]["energies"]] == pytest.approx(
        [math.hypot(1.0, 0.7), math.hypot(1.3, 0.4)], rel=1e-12)
    code = main(["solve", "--modes", str(p)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: the frustration graph has 2 connected components")
    code, doc = run_json(capsys, "verify", str(p))
    assert code == 1
    assert doc["result"]["failure"] == "mode construction: " + err[len("error: "):].strip()


def test_verify_records_alpha_above_the_qubit_count(tmp_path, capsys):
    """An ECF graph, connected, with three commuting terms on two qubits:
    the operator identities hold on the extended system, but 2^3 sign
    patterns cannot share 4 states, and verify says so instead of raising."""
    p = tmp_path / "dependent.ham"
    p.write_text("1.0 Z0\n0.7 Z1\n0.5 Z0 Z1\n0.9 X0 X1\n0.6 Y0\n")
    code, doc = run_json(capsys, "verify", str(p))
    assert code == 1
    assert doc["result"]["structure"]["ecf"] is True and len(doc["result"]["energies"]) == 3
    assert doc["result"]["failure"].startswith("alpha=3 exceeds qubit count n=2")


def test_analyze_reports_the_one_simplicial_clique(capsys):
    """``analyze`` reports the clique the modes use, the first by size, then
    lexicographically, and neither a listing of all nor twin scans."""
    _, doc = run_json(capsys, "analyze", "--model", "h6")
    structure = doc["result"]["structure"]
    assert structure["simplicial_clique"] == [0, 1]
    assert not {"simplicial_cliques", "twins", "closed_neighborhood_duplicates"} & set(structure)


def test_graph_and_realization_give_same_energies(tmp_path, capsys):
    gfile = tmp_path / "g.graph"
    gfile.write_text("p 5\nv 0 1.0\nv 1 2.0\nv 2 0.5\nv 3 1.5\nv 4 0.8\n"
                     "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n")
    code, doc_graph = run_json(capsys, "solve", str(gfile))
    assert code == 0
    from ffsolve.models import parse_graph, realize_graph, write_hamiltonian
    hfile = tmp_path / "g.ham"
    hfile.write_text(write_hamiltonian(realize_graph(parse_graph(gfile.read_text()))))
    code, doc_ham = run_json(capsys, "solve", str(hfile))
    assert code == 0
    for (e1, m1), (e2, m2) in zip(doc_graph["result"]["energies"],
                                  doc_ham["result"]["energies"]):
        assert abs(e1 - e2) < 1e-9 and m1 == m2


def test_weight_zero_vertices_shape_no_structure(tmp_path, capsys):
    """A weight-0 vertex is no term of H: the star whose centre weighs 0 is
    three isolated vertices, as its realization and the file without the
    centre are, so all three give one verdict and one set of energies."""
    star = tmp_path / "star.graph"
    star.write_text("p 4\nv 0 0\nv 1 1.0\nv 2 0.5\nv 3 2.0\ne 0 1\ne 0 2\ne 0 3\n")
    less = tmp_path / "less.graph"
    less.write_text("p 3\nv 0 1.0\nv 1 0.5\nv 2 2.0\n")
    from ffsolve.models import parse_graph, realize_graph, write_hamiltonian
    ham = tmp_path / "star.ham"
    ham.write_text(write_hamiltonian(realize_graph(parse_graph(star.read_text()))))
    answers = []
    for path in (star, less, ham):
        code, doc = run_json(capsys, "solve", str(path))
        res = doc["result"]
        answers.append((code, res["structure"]["ecf"], res["alpha"], res["energies"]))
    assert answers[0] == answers[1] == (0, True, 3, [[2 ** -0.5, 1], [1.0, 1], [2 ** 0.5, 1]])
    (code, ecf, alpha, energies) = answers[2]
    assert (code, ecf, alpha) == (0, True, 3)
    assert all(math.isclose(e, w, rel_tol=1e-15) and m == n
               for (e, m), (w, n) in zip(energies, answers[0][3]))


def test_dispersion_csv(tmp_path, capsys):
    out = tmp_path / "disp.csv"
    code, _ = run(capsys, "dispersion", "--k", "4", "--N", "20",
                  "--b4sq", "0.1", "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,epsilon"
    assert len(lines) == 21
    last_p, last_e = map(float, lines[-1].split(","))
    assert abs(last_p - math.pi * 20 / 21) < 1e-9


def test_scan_csv(capsys):
    code, out = run(capsys, "scan", "--k", "4", "--N", "20", "--Nprime", "40",
                    "--values", "0.1,0.9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b1sq,b2sq,b3sq,b4sq,gapN,gapNprime,flag"
    assert lines[1].endswith("gapless")
    assert lines[2].endswith("gapped")


def test_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ham"
    bad.write_text("1.0 W0\n")
    code = main(["analyze", str(bad)])
    assert code == 1


def test_config_embedded_everywhere(capsys):
    _, doc = run_json(capsys, "analyze", "--model", "h6")
    cfg = doc["config"]
    assert {"command", "model", "budget", "seed"} <= set(cfg)


MODEL_OPTIONS = {"command", "input", "model", "couplings", "n_cells", "k", "periodic",
                 "arms", "seed", "budget", "output"}


@pytest.mark.parametrize("command", ["analyze", "solve", "verify"])
def test_config_holds_the_options_of_the_command(capsys, command):
    """The config block holds the options of the command that ran, with
    the couplings drawn under --seed, and none of another command."""
    _, doc = run_json(capsys, command, "--model", "h5", "--seed", "3")
    cfg = doc["config"]
    assert set(cfg) == MODEL_OPTIONS | ({"modes"} if command == "solve" else set())
    assert len(cfg["couplings"]) == 5 and all(isinstance(c, float) for c in cfg["couplings"])
    _, again = run_json(capsys, command, "--model", "h5",
                        "--couplings=" + ",".join(map(repr, cfg["couplings"])))
    for out in (doc, again):
        out["result"].pop("timings", None)
    assert again["result"] == doc["result"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_takes_the_mode_of_a_fresh_open(tmp_path, umask):
    """An ``-o`` file gets the mode that ``open(path, "w")`` gives a new
    file under the same umask, and no temporary file stays beside it."""
    old = os.umask(umask)
    try:
        with open(tmp_path / "fresh", "w"):
            pass
        assert main(["solve", "--model", "h5", "-o", str(tmp_path / "out.json")]) == 0
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "out.json").st_mode
    assert mode == os.stat(tmp_path / "fresh").st_mode
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out.json"]


@pytest.mark.parametrize("argv", [
    ["dispersion", "--k", "3", "--N", "8", "--b1sq", "2"],
    ["dispersion", "--k", "3", "--N", "8", "--b5sq", "0.2"],
    ["solve", "--model", "h5", "--couplings", "1,a,1,1,1"],
    ["scan", "--k", "3", "--N", "8", "--Nprime", "16", "--values", "0.1,b"],
    ["solve", "--model", "junction", "--k", "3", "--seed", "1"],
    ["analyze", "/nonexistent/x.ham"],
    ["solve", "--model", "h5", "-o", "/nonexistent/out.json"],
    ["analyze", "--model", "h5", "--couplings", "1e155,1,1,1,1"],
    ["solve", "--model", "h5", "--couplings", "1e155,1,1,1,1"],
    ["solve", "--model", "h5", "--couplings", ""],
    ["solve", "--model", "junction", "--k", "3", "--seed", "1", "--arms", ""],
    ["scan", "--k", "3", "--N", "4", "--Nprime", "8", "--values", ""],
    ["solve", "--model", "h5", "-o", "{tmp}/outdir"],
    ["solve", "--model", "h5", "-o", "{tmp}/outdir/"],
    ["solve", "--modes", "--model", "h5", "--couplings", "1e-170,1e-170,1e-170,1e-170,1e-170"],
    ["solve", "--modes", "--model", "chain", "--N", "3", "--k", "3",
     "--couplings", "1e-170,1e-170,1e-170"],
])
def test_input_errors_exit_1_with_a_message(capsys, tmp_path, argv):
    """Malformed or empty lists and squared couplings, a junction
    without arms, an unreadable input, an unwritable output or one that
    names a directory, couplings so large that their squares, the
    weights, overflow, modes asked of couplings whose squares all
    underflow, so that no term is left to form the simplicial mode, are
    input errors: exit 1 and one
    line on stderr, not an exception, that names the file at fault, not
    a temporary file, or the option that is empty.  No temporary file is
    left behind."""
    (tmp_path / "outdir").mkdir()
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = main(argv)
    assert [p.name for p in tmp_path.rglob("*")] == ["outdir"]
    captured = capsys.readouterr()
    assert ".ffsolve-" not in captured.err
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    for path in (a for a in argv if a.startswith("/")):
        assert path in captured.err
    for option, value in zip(argv, argv[1:]):
        if value == "":
            assert option in captured.err


REFUSALS = [
    # command lines: exit 1 with one line on stderr
    (None, "provide an input file or --model", ["solve"]),
    (None, "verify needs a Hamiltonian input", ["verify", "{graph}"]),
    (None, "--vary must be in 1..3",
     ["scan", "--k", "3", "--N", "4", "--Nprime", "8", "--values", "0.5", "--vary", "4"]),
    # the library: raises
    (ParseError, "unknown record", lambda: parse_graph("p 2\nx 0 1")),
    (ParseError, "duplicate 'p' line", lambda: parse_graph("p 2\np 3")),
    (ParseError, "missing 'p <n>' header", lambda: parse_graph("# no records\n")),
    (ParseError, "vertex index 5 out of range", lambda: parse_graph("p 2\nv 5 1.0")),
    (ParseError, "bad coupling", lambda: parse_hamiltonian("one X0")),
    (ModelError, "non-finite coupling",
     lambda: Hamiltonian.from_pairs([(math.nan, paulis.PauliTerm.from_ops(1, {0: "X"}))])),
    (ModelError, "acts on qubit 2 but n=2",
     lambda: Hamiltonian.from_pairs([(1.0, paulis.PauliTerm.from_ops(3, {2: "X"}))], n=2)),
    (ModelError, "at least one arm", lambda: junction_graph((), 3)),
    (ModelError, "k must be >= 2", lambda: junction_graph((1, 1), 1)),
    (ModelError, "arm lengths must be >= 1", lambda: junction_graph((1, 0), 3)),
    (ModelError, "expected 15 couplings, got 2", lambda: junction_model((1, 1, 1), 3, [1.0, 1.0])),
]


@pytest.mark.parametrize("error, message, case", REFUSALS,
                         ids=[message for _, message, _ in REFUSALS])
def test_refusals(error, message, case, capsys, tmp_path):
    """Each refusal is reached: a command line exits 1 with one line that
    names the fault and no traceback, a library call raises its error."""
    if error is not None:
        with pytest.raises(error, match=re.escape(message)):
            case()
        return
    graph = tmp_path / "g.graph"
    graph.write_text("p 2\ne 0 1\n")
    code = main([a.replace("{graph}", str(graph)) for a in case])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["p -1\n", "p 0\n", "p 1\nv 0 nan\n", "p 1\nv 0 inf\n"])
def test_graph_files_without_vertices_or_finite_weights_exit_1(capsys, tmp_path, text):
    """A graph file with no vertices or a non-finite weight is an input
    error, as a non-finite coupling is: exit 1 with the line at fault."""
    p = tmp_path / "bad.graph"
    p.write_text(text)
    code = main(["solve", str(p)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: line ") and "Traceback" not in captured.err


def test_solve_a_graph_of_zero_weights(capsys, tmp_path):
    """All weights 0: P = 1 and alpha = 0, so no energies, width 0, and
    one level 0 holding all 2^3 states."""
    p = tmp_path / "zero.graph"
    p.write_text("p 3\nv 0 0\nv 1 0\nv 2 0\n")
    code, doc = run_json(capsys, "solve", str(p))
    assert code == 0
    res = doc["result"]
    assert res["alpha"] == 0 and res["independence_polynomial"] == [1.0]
    assert res["energies"] == [] and res["bracket_width"] == 0.0
    assert res["free_spectrum"] == [[0.0, 8]]


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """The first call of np.unique or np.isin imports numpy.ma, 11-21 ms and
    about 1 MB in every process; no command calls them.  Nor does any
    command import a package other than numpy, though the test
    dependencies and scipy may be installed."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ffsolve.__file__)))
    out = str(tmp_path / "out")
    script = f"""
import sys
from ffsolve.cli import main
for argv in (["solve", "--model", "chain", "--N", "6", "--k", "3", "--seed", "1"],
             ["solve", "--modes", "--model", "h6", "--seed", "2"],
             ["verify", "--model", "chain", "--N", "2", "--k", "3", "--seed", "1"],
             ["dispersion", "--k", "3", "--N", "40", "--b1sq", "0.2"],
             ["scan", "--k", "3", "--N", "20", "--Nprime", "40", "--values", "0.1,0.5"],
             ["analyze", "--model", "h6"],
             ["generate", "--model", "junction", "--arms", "1,2", "--k", "3"]):
    assert main(argv + ["-o", {out!r}]) == 0, argv
print(sorted(m for m in ("numpy.ma", "networkx", "mpmath", "hypothesis", "scipy")
             if m in sys.modules))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_commands_back_to_back_match_separate_runs(capsys):
    """One process reuses its parser from command to command: outputs and
    exit codes equal those of a fresh process per command."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ffsolve.__file__)))
    for argv in (["solve", "--model", "h5"], ["dispersion", "--k", "3", "--N", "8"],
                 ["solve", "--model", "back_to_back"], ["analyze", "--model", "h6"],
                 ["solve", "--model", "chain", "--N", "15", "--k", "3"]):
        code, out = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "ffsolve.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def _solve_quietly(argv) -> tuple[int, str, str]:
    """``main(argv)`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def spread_couplings(draw, count: int) -> list[float]:
    """``count`` couplings 2^(s + u_i), u_i uniform in [-d, d], with d one of
    0, 10, 40, 100 and 300, and s 0 or uniform in [-500, 500]; each
    exponent is clamped to [-490, 490], so that the weights stay floats."""
    s = draw(st.sampled_from((0.0, None)))
    if s is None:
        s = draw(st.floats(-500.0, 500.0))
    d = draw(st.sampled_from((0.0, 10.0, 40.0, 100.0, 300.0)))
    spread = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    return [2.0 ** min(max(s + d * u, -490.0), 490.0) for u in spread]


def _solve_graph_file(graph: WeightedGraph) -> tuple[int, str, str]:
    """``solve`` on ``graph`` written as a graph file."""
    text = f"p {graph.n}\n" + "".join(f"v {v} {w!r}\n" for v, w in enumerate(graph.weights))
    text += "".join(f"e {i} {j}\n" for i, j in edge_list(graph))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.graph")
        with open(path, "w") as fh:
            fh.write(text)
        return _solve_quietly(["solve", path])


def _resolved(levels, width: float) -> list[int]:
    """The multiplicities of ``levels``, ascending (energy, multiplicity)
    pairs, a level within ``width`` of the one before it counted with it:
    roots closer than a bracket are one level or two as the cuts fall."""
    out = []
    for i, (e, m) in enumerate(levels):
        if i and e - levels[i - 1][0] <= width * e:
            out[-1] += m
        else:
            out.append(m)
    return out


@settings(max_examples=90, deadline=None)
@given(st.data())
def test_spread_couplings_are_solved_or_refused_in_one_line(data):
    """Chains N x k, N 2-9 and k 2-4, against ``chain_energies``; line
    graphs of trees of 3-25 edges, as graph files, against the Jordan-Wigner
    energies; and claw-free, even-hole-free graphs of at most 10 vertices
    from ``claw_free_graph``, as graph files, against
    ``rational_bisection_energies`` of their polynomial by enumeration; at
    couplings spread over up to 2^600.  A solve that exits 0 has the
    reference's alpha, and each energy within its bracket width plus the
    reference's error: N eps of the largest squared energy for the chain
    recursion, 8 n eps of the largest energy for the eigenvalues of the
    n x n adjacency, and 4 eps of each energy, two roundings of a square
    root, for the bisection, whose multiplicities it has too, levels within
    the bracket width of each other counted as one.  Any other answer is
    exit 1 with one line."""
    family = data.draw(st.sampled_from(["chain", "tree", "claw-free"]))
    rel, levels = 0.0, None
    if family == "chain":
        n_cells, k = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 4))
        couplings = data.draw(spread_couplings(k))
        code, out, err = _solve_quietly(
            ["solve", "--model", "chain", "--N", str(n_cells), "--k", str(k),
             "--couplings", ",".join(map(repr, couplings))])
        want = chain_energies(ChainSpec(n_cells, k, tuple(c * c for c in couplings))).flat()
        power, noise = 2, n_cells * EPS * want[-1] ** 2  # on squared energies
    elif family == "tree":
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        n, edges, _ = random_forest(rng, rng.randint(3, 25))
        b = data.draw(spread_couplings(len(edges)))
        code, out, err = _solve_graph_file(forest_line_graph(edges, b))
        want = forest_energies(n, edges, b)
        power, noise = 1, 8 * n * EPS * want[-1]
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        graph = claw_free_graph(rng, rng.random() < 0.5)
        while graph.n > 10 or naive_has_even_hole(graph):
            graph = claw_free_graph(rng, rng.random() < 0.5)
        b = data.draw(spread_couplings(graph.n))
        graph = WeightedGraph(graph.n, edge_list(graph), weights=[c * c for c in b])
        code, out, err = _solve_graph_file(graph)
        ints, shift = naive_independence_polynomial(graph)
        ref = rational_bisection_energies(IndependencePolynomial(tuple(ints), shift))
        want, levels = ref.flat(), ref.energies
        power, noise, rel = 1, 0.0, 4 * EPS
    if code != 0:
        assert code == 1 and not out and err.count("\n") == 1 and "Traceback" not in err
        return
    result = json.loads(out)["result"]
    got = sorted(e ** power for e, m in result["energies"] for _ in range(m))
    assert result["alpha"] == len(got) == len(want)
    width = result["bracket_width"] + rel
    assert levels is None or _resolved(result["energies"], width) == _resolved(levels, width)
    assert all(abs(a - b ** power) <= width * b ** power + noise for a, b in zip(got, want)), \
        (got, want)
