"""Minimum-power capacitated cover (MPCC) toolkit.

Given access points with a shared service capacity and terminal devices
in the plane, compute per-AP power assignments that cover every device
at minimum total power.  Provides the minimum-local-ratio solver
(``solve_mlr``), a nearest-capable-access greedy baseline
(``solve_nca``), an exact enumeration oracle (``solve_exact``), stable
JSON file formats, and a reproducible benchmark harness.

``import mpcc`` gives the three solvers, the instance and solution model,
the file formats and the experiment sweeps.  MLR's step functions
(``init_state``, ``select_min_ratio``, ``apply_selection``,
``assemble_solution``) live in ``mpcc.mlr``, for stepping through a solve.
"""

from .baselines import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    ExactBudget,
    ExactResult,
    solve_exact,
    solve_nca,
)
from .experiments import (
    DEFAULT_SEED,
    AlgorithmSummary,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    TrialRow,
    generate_instance,
    preset,
    run_experiment,
    run_sweep,
    utilization_variance,
)
from .formats import (
    FormatError,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    solution_to_json,
    solution_violations,
    trace_line,
)
from .mlr import MlrInvariantError, solve_mlr
from .model import (
    DiskOrder,
    InfeasibleInstanceError,
    Instance,
    Solution,
    check_feasible,
    disk_geometry,
    disk_order,
    validate_instance,
)

__version__ = "0.1.0"
