"""Decide free-fermion solvability of a Pauli Hamiltonian from its
frustration graph, and construct the solution when it exists."""

from .chains import (
    ChainSpec,
    dispersion,
    elementary_symmetric,
    gap_scan,
)
from .errors import (
    ComplexRootError,
    ConditioningError,
    DegenerateModeError,
    FFSolveError,
    ModelError,
    NotSimplicialError,
    ParseError,
    SearchBudgetError,
)
from .graphs import WeightedGraph, frustration_graph
from .indpoly import (
    IndependencePolynomial,
    SingleParticleEnergies,
    free_spectrum,
    single_particle_energies,
    weighted_independence_polynomial,
)
from .models import (
    Hamiltonian,
    back_to_back_model,
    chain_model,
    generate_model,
    h5_model,
    h6_model,
    junction_graph,
    junction_model,
    parse_graph,
    parse_hamiltonian,
    realize_graph,
    write_hamiltonian,
)
from .paulis import (
    OperatorSum,
    PauliTerm,
    commutes,
    multiply,
    opsum_anticomm_batch,
    opsum_comm,
    opsum_comm_batch,
    opsum_mul,
    opsum_mul_batch,
)
from .recognition import (
    StructureReport,
    classify,
    find_claw,
    find_even_hole,
    smallest_simplicial_clique,
)
from .solver import (
    IncognitoMode,
    TransferOperator,
    all_modes,
    charges_commute_residual,
    check_fundamental_identity,
    reconstruct,
    simplicial_extension,
    transfer,
    transfer_factorization_residual,
)
from .verify import (
    VerificationReport,
    brute_force_spectrum,
    verify_all,
    verify_free,
)

__version__ = "0.1.0"
