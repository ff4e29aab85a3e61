"""Additive Bayesian network learning for mixed-distribution data.

The package scores candidate parent sets per node with generalized linear
models (Bayesian Laplace evidence or frequentist information criteria),
finds optimal structures by exact subset dynamic programming or heuristic
search, quantifies arc uncertainty through information-theoretic link
strength, and controls over-fitting with a parametric bootstrap.
"""

__version__ = "0.1.0"

from .dag import (
    ConstraintSet,
    Dag,
    DagComparison,
    DagMetrics,
    compare_dags,
    info_metrics,
    markov_blanket,
    topological_order,
)
from .data import Dataset, DesignMatrix, build_design, load_dataset, standardize
from .formula import parse_formula, render_formula
from .glm import (
    FitResult,
    PriorSpec,
    fit_node,
    frequentist_scores,
    marginal_densities,
)

__all__ = [
    "ConstraintSet",
    "Dag",
    "DagComparison",
    "DagMetrics",
    "Dataset",
    "DesignMatrix",
    "FitResult",
    "PriorSpec",
    "build_design",
    "compare_dags",
    "fit_node",
    "frequentist_scores",
    "info_metrics",
    "load_dataset",
    "marginal_densities",
    "markov_blanket",
    "parse_formula",
    "render_formula",
    "standardize",
    "topological_order",
]
