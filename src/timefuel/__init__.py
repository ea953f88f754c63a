"""Time-fuel optimal bang-off-bang control for diagonal LTI systems.

Steers a single-input system with real, distinct, nonzero, rational
eigenvalues to the origin while minimizing the integral of k + |u(t)|.
The pipeline enumerates all admissible switching sequences, solves one
static program per candidate shape and reports the verified least-cost
schedule.
"""

from .builder import (
    NlpInstance,
    build_all,
    count_nlps,
    sequence_instance,
    sign_vectors,
)
from .model import (
    LtiSystem,
    ProblemSpec,
    RationalSpectrum,
    build_spectrum,
    load_problem,
    parse_problem,
    validate_problem,
)
from .sequences import (
    CandidateSequence,
    FamilyId,
    SegmentCounts,
    brute_force_candidates,
    conjugate,
    count_all_candidates,
    count_family,
    enumerate_candidates,
    enumerate_family,
    segment_solutions,
    tilde_sequence,
)
from .simulate import (
    SwitchingSchedule,
    Trajectory,
    evaluate_cost,
    lp_oracle,
    null_certificate,
    propagate,
    reachability_x0,
)
from .solver import (
    InfeasibleProblemError,
    LocalSolution,
    SolveReport,
    SolverFailedError,
    SolverOptions,
    solve_nlp,
    solve_time_fuel,
)

__all__ = [
    "CandidateSequence",
    "FamilyId",
    "InfeasibleProblemError",
    "LocalSolution",
    "LtiSystem",
    "NlpInstance",
    "ProblemSpec",
    "RationalSpectrum",
    "SegmentCounts",
    "SolveReport",
    "SolverFailedError",
    "SolverOptions",
    "SwitchingSchedule",
    "Trajectory",
    "build_all",
    "build_spectrum",
    "brute_force_candidates",
    "conjugate",
    "count_all_candidates",
    "count_family",
    "count_nlps",
    "enumerate_candidates",
    "enumerate_family",
    "evaluate_cost",
    "load_problem",
    "lp_oracle",
    "null_certificate",
    "parse_problem",
    "propagate",
    "reachability_x0",
    "segment_solutions",
    "sequence_instance",
    "sign_vectors",
    "solve_nlp",
    "solve_time_fuel",
    "tilde_sequence",
    "validate_problem",
]

__version__ = "0.1.0"
