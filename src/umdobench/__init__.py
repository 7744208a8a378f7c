"""Scalable robust-MDO benchmark problems and estimator benchmarking."""

from .errors import (
    CapacityError,
    InfeasibleReferenceError,
    NumericalError,
    ProblemFormatError,
    ProblemVersionError,
    SingularCouplingError,
    UmdoBenchError,
    UndefinedMetricError,
)
from .problem import (
    FORMAT_VERSION,
    BlockSystem,
    ProblemConfig,
    ScalableProblem,
    UncertaintyModel,
    assemble,
    deserialize,
    generate,
    instance_digest,
    problem_digest,
    serialize,
    tune_feasibility,
)

__version__ = "0.1.0"

from .bench import (
    BenchmarkReport,
    BenchmarkRun,
    EstimatorSummary,
    default_benchmark_problem,
    report_to_csv,
    report_to_json,
    run_benchmark,
    write_report,
)
from .driver import (
    OptimizerSettings,
    RobustEvaluator,
    RunResult,
    optimize,
    percent_errors,
)
from .mda import MDAResult, MDASettings, solve_mda
from .qp import (
    QPData,
    QPSolution,
    check_positive_definite,
    export_qp,
    reduce_deterministic,
    reduce_margin,
    reduce_probability,
    solve_qp,
)
from .uq import (
    ExactStats,
    GaussianSampler,
    StatEstimate,
    StatisticSpec,
    composed_value,
    exact_stats,
    mc_estimate,
)
