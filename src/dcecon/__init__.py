"""Data-center economics toolkit.

Cobb-Douglas production modeling with labor/capital-augmenting technological
progress, closed-form and gradient-based optima for cost, revenue, and profit,
stochastic-frontier elasticity recovery, least-squares and constrained QP
fitting, and market-concentration (HHI) measurement.

numpy is the only dependency, and the fitting module is the only one that
needs it. It and the names it exports are loaded on first access, so importing
dcecon (and running any CLI command but fit) does not load numpy.
"""

import importlib

from .closed_form import (
    BudgetProblem,
    ClosedFormSolution,
    ProfitSolution,
    cost_min,
    profit_max,
    revenue_max,
)
from .concentration import Concentration, MarketShares, ShareEntry, classify_hhi, hhi
from .errors import (
    DataValidationError,
    DegenerateProblemError,
    DomainError,
    EconModelError,
    InfeasibleProblemError,
    NumericalOverflowError,
    ParameterError,
    SingularSystemError,
    UnboundedProblemError,
)
from .frontier import (
    FrontierSpec,
    draw_shocks,
    elasticities_from_frontier,
    frontier_output,
    synthesize,
    technical_efficiency,
)
from .optimizers import (
    OptimizerConfig,
    OptimResult,
    Termination,
    profit_table,
    sga_revenue_max,
    sgd_cost_min,
    sgd_linear_cost_min,
)
from .production import (
    CobbDouglasParams,
    CostRecord,
    RdDeterminants,
    ScaleClassification,
    ScaleRegime,
    TechProgress,
    evaluate_augmented,
    evaluate_output,
    harrod_progress,
    invert_harrod,
    invert_solow,
    linear_cost,
    returns_to_scale,
    solow_progress,
)
from .reports import RunReport, ingest_costs, run_table

__version__ = "0.1.0"

_FITTING_NAMES = frozenset({
    "DesignMatrix",
    "FitResult",
    "QuadraticProgram",
    "certify_solution",
    "ols_fit",
    "predict",
    "qp_fit",
    "qp_solve",
    "r_squared",
})


def __getattr__(name):
    # importlib, not `from . import fitting`: that looks the name up on this
    # package first, which calls __getattr__ again without end
    if name == "fitting" or name in _FITTING_NAMES:
        fitting = importlib.import_module(".fitting", __name__)
        return fitting if name == "fitting" else getattr(fitting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetProblem",
    "ClosedFormSolution",
    "CobbDouglasParams",
    "Concentration",
    "CostRecord",
    "DataValidationError",
    "DegenerateProblemError",
    "DesignMatrix",
    "DomainError",
    "EconModelError",
    "FitResult",
    "FrontierSpec",
    "InfeasibleProblemError",
    "MarketShares",
    "NumericalOverflowError",
    "OptimResult",
    "OptimizerConfig",
    "ParameterError",
    "ProfitSolution",
    "QuadraticProgram",
    "RdDeterminants",
    "RunReport",
    "ScaleClassification",
    "ScaleRegime",
    "ShareEntry",
    "SingularSystemError",
    "TechProgress",
    "Termination",
    "UnboundedProblemError",
    "certify_solution",
    "classify_hhi",
    "cost_min",
    "draw_shocks",
    "elasticities_from_frontier",
    "evaluate_augmented",
    "evaluate_output",
    "frontier_output",
    "harrod_progress",
    "hhi",
    "ingest_costs",
    "invert_harrod",
    "invert_solow",
    "linear_cost",
    "ols_fit",
    "predict",
    "profit_max",
    "profit_table",
    "qp_fit",
    "qp_solve",
    "r_squared",
    "returns_to_scale",
    "revenue_max",
    "run_table",
    "sga_revenue_max",
    "sgd_cost_min",
    "sgd_linear_cost_min",
    "solow_progress",
    "synthesize",
    "technical_efficiency",
]
