"""Instance types: metrics, grouped trees, valuations, stochastic elements,
generators, and the on-disk format."""

from .generators import Instance, random_instance
from .metrics import (GridPoints, Metric, metric_closure, metric_from_matrix,
                      uniform_metric)
from .serial import dump, dumps, load, loads
from .stoch import StochasticInstance
from .trees import GroupedTree, normalize
from .valuations import (CoverFunction, CoverTerm, ExplicitFunction,
                         ValuationSet, alpha_from_epsilon, check_submodular,
                         compute_epsilon, min_nonzero_marginal, uniform_term)

__all__ = [
    "Instance", "random_instance",
    "GridPoints", "Metric", "metric_closure", "metric_from_matrix",
    "uniform_metric",
    "dump", "dumps", "load", "loads",
    "StochasticInstance",
    "GroupedTree", "normalize",
    "CoverFunction", "CoverTerm", "ExplicitFunction", "ValuationSet",
    "alpha_from_epsilon", "check_submodular", "compute_epsilon",
    "min_nonzero_marginal", "uniform_term",
]
