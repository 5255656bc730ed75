"""Spectral-shift and spectral-subspace bounds for off-diagonal Hermitian perturbations.

Given a Hermitian A whose spectrum splits into two separated components
sigma and Sigma, and a Hermitian V coupling only across that split, the
library computes and verifies: two-sided bounds on the spectral shift,
enclosure of spec(A + V), gap persistence, and sharp bounds on the norm of
the difference between the spectral projections of A and A + V, together
with the classic counterexamples showing the norm thresholds are optimal.
"""

from .config import DEFAULT_TOL, Tolerances
from .intervals import (
    Case,
    Classification,
    SpectralSet,
    classify_case,
)
from .operators import (
    ConvergenceError,
    EigenDecomposition,
    ValidationError,
    spectral_norm,
)
from .analysis import (
    AnalysisReport,
    PerturbationProblem,
    QnrSample,
    delta_v,
    gap_persistence,
    qnr_sample,
    shift_bounds,
    spectrum_enclosure,
    two_by_two_extremes,
)
from .subspaces import (
    C_PI,
    ProjectionDifference,
    bound_case1,
    bound_case2,
    bound_pair_inequality,
    bound_subordinated,
    maximal_gap_interval,
    tan_theta_bound,
    verify_pair_inequality,
)
from .harness import (
    BatchSummary,
    ProblemSpec,
    SearchResult,
    THEOREM_IDS,
    batch_verify,
    builtin_example,
    random_problem,
    random_problem_spec,
    run_theorem,
    search_worst_case,
    summarize,
)

__all__ = [
    "AnalysisReport",
    "BatchSummary",
    "C_PI",
    "Case",
    "Classification",
    "ConvergenceError",
    "DEFAULT_TOL",
    "EigenDecomposition",
    "PerturbationProblem",
    "ProblemSpec",
    "ProjectionDifference",
    "QnrSample",
    "SearchResult",
    "SpectralSet",
    "THEOREM_IDS",
    "Tolerances",
    "ValidationError",
    "batch_verify",
    "bound_case1",
    "bound_case2",
    "bound_pair_inequality",
    "bound_subordinated",
    "builtin_example",
    "classify_case",
    "delta_v",
    "gap_persistence",
    "maximal_gap_interval",
    "qnr_sample",
    "random_problem",
    "random_problem_spec",
    "run_theorem",
    "search_worst_case",
    "shift_bounds",
    "spectral_norm",
    "spectrum_enclosure",
    "summarize",
    "tan_theta_bound",
    "two_by_two_extremes",
    "verify_pair_inequality",
]

__version__ = "0.1.0"
