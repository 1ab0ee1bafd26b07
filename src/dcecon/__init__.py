"""Data-center economics toolkit.

Cobb-Douglas production modeling with labor/capital-augmenting technological
progress, closed-form and gradient-based optima for cost, revenue, and profit,
stochastic-frontier elasticity recovery, least-squares and constrained QP
fitting, and market-concentration (HHI) measurement.

The package runs on the Python standard library. Every submodule, and every
name exported here, is loaded on first access, so importing dcecon loads none
of them. Every CLI command loads cli, reports, optimizers, production and
errors; only the modules a command itself uses (closed_form, frontier,
fitting, concentration, reference) load on demand.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "closed_form": ("ClosedFormSolution", "ProfitSolution", "cost_min", "profit_max",
                    "revenue_max"),
    "concentration": ("Concentration", "MarketShares", "ShareEntry", "classify_hhi", "hhi"),
    "errors": ("DataValidationError", "DegenerateProblemError", "DomainError",
               "EconModelError", "InfeasibleProblemError", "NumericalOverflowError",
               "ParameterError", "SingularSystemError", "UnboundedProblemError"),
    "fitting": ("DesignMatrix", "FitResult", "QuadraticProgram", "certify_solution",
                "ols_fit", "predict", "qp_fit", "qp_solve", "r_squared"),
    "frontier": ("draw_shocks", "elasticities_from_frontier", "frontier_output", "synthesize",
                 "technical_efficiency"),
    "optimizers": ("OptimResult", "OptimizerConfig", "Termination", "sga_revenue_max",
                   "sgd_cost_min"),
    "production": ("CostRecord", "RdDeterminants", "ScaleClassification", "ScaleRegime",
                   "evaluate_augmented", "evaluate_output", "harrod_progress", "invert_harrod",
                   "invert_solow", "linear_cost", "returns_to_scale", "solow_progress"),
    "reports": ("RunReport", "ingest_costs", "profit_table", "run_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "reference"}


def __getattr__(name):
    # importlib, not `from . import module`: that looks the name up on this
    # package first, which calls __getattr__ again without end
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_MODULE_OF)
