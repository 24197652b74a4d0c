"""Utility-maximizing decision policies under causal fairness constraints.

Submodules:
  scm       structural causal models and path-specific counterfactual sampling
  dist      finite joint distributions over binned covariates and outcomes
  linprog   bounded-variable two-phase simplex for box-bounded linear programs
  fairness  fairness definitions compiled to LP rows, and the optimizer
  pareto    threshold policies, frontier sweep, dominance measurement
  markov    recurrent-class structure of counterfactual transition chains
  betafair  beta tail means and the two-group ordering check
  cli       JSON-configured experiment pipeline and subcommands
"""

from . import betafair, dist, errors, fairness, linprog, markov, pareto, scm
from .fairness import FairnessSpec, solve_fair
from .pareto import Policy, dominance_gap, frontier

__version__ = "0.1.0"

__all__ = [
    "scm",
    "dist",
    "linprog",
    "fairness",
    "pareto",
    "markov",
    "betafair",
    "errors",
    "FairnessSpec",
    "solve_fair",
    "Policy",
    "dominance_gap",
    "frontier",
    "__version__",
]
