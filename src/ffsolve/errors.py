"""Exception types shared across the package."""


class FFSolveError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FFSolveError):
    """Malformed Hamiltonian or graph file."""


class ModelError(FFSolveError):
    """Invalid model parameters (sizes, couplings)."""


class TermBudgetError(FFSolveError):
    """An operator-sum product exceeded the configured term cap."""


class DenseCapError(FFSolveError):
    """A dense-matrix realization was requested above the qubit cap."""


class SearchBudgetError(FFSolveError):
    """A structure search exhausted its node budget; the answer is undecided."""


class ComplexRootError(FFSolveError):
    """Fewer real roots than the polynomial degree were isolated.

    For claw-free frustration graphs this signals a conditioning failure;
    for general graphs it means the independence polynomial is not
    real-rooted and no free spectrum can be synthesized from it.
    """

    def __init__(self, found, expected):
        self.found = found
        self.expected = expected
        super().__init__(
            f"isolated {found} real roots, expected {expected}; "
            "polynomial may have complex roots or is ill-conditioned"
        )

    def on_claw_free(self) -> "ConditioningError":
        """This failure on a claw-free graph, whose polynomial is real-rooted
        (Chudnovsky and Seymour, JCTB 97, 2007) and exact: the roots not
        isolated lie below every float of the scaled variable."""
        return ConditioningError(
            f"isolated {self.found} real roots, expected {self.expected}, on a claw-free graph: "
            "the other squared energies lie more than about 2^1074 below the weight sum c_1, "
            "under every float of the scaled variable")


class DegenerateModeError(FFSolveError):
    """Mode construction refused: the requested single-particle energy is repeated."""


class ConditioningError(FFSolveError):
    """A result that exact inputs fix is no float: a root below every float of
    the scaled variable, a mode's 1 / e^2 or normalization, or a Ritz value."""


class NotSimplicialError(FFSolveError):
    """The supplied vertex set is not a simplicial clique of the frustration graph."""
