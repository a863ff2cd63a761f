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
    """The polynomial is not real-rooted: Newton's inequalities fail, or
    c_alpha is 0, as a float that underflowed gives, a root at 0, which no
    energy has.  A claw-free graph's exact polynomial never raises it (its
    roots are real; Chudnovsky and Seymour, JCTB 97, 2007), but complex
    roots that pass the inequalities pass for a repeated root."""


class DegenerateModeError(FFSolveError):
    """Mode construction refused: the requested single-particle energy is repeated."""


class ConditioningError(FFSolveError):
    """A result that exact inputs fix is not found in floats: a root below
    every float of the scaled variable (the root finder's range limit), a
    mode's 1 / e^2 or normalization, or 2 e_j with no Ritz value within the
    Lanczos run's bound, or with a bound above ``solver.MODE_TOL`` of it."""


class NotSimplicialError(FFSolveError):
    """The supplied vertex set is not a simplicial clique of the frustration graph."""
