"""Exception types shared across the package."""


class CausalFairError(Exception):
    """Base class for all package errors."""


class CycleError(CausalFairError):
    """The supplied DAG contains a directed cycle."""


class UnknownNodeError(CausalFairError):
    """A parent or path references a node that does not exist."""


class MissingConstantError(CausalFairError):
    """A required structural-equation constant was not supplied."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__("missing constants: " + ", ".join(self.missing))


class EmptyInputError(CausalFairError):
    """No draws were provided."""


class ZeroMassError(CausalFairError):
    """A mass table sums to zero."""


class NegativeMassError(CausalFairError):
    """A mass table contains negative entries."""


class InconsistentMassError(CausalFairError):
    """Joint mass tables do not marginalize back to the point masses."""


class ZeroRowError(CausalFairError):
    """A support point has zero probability mass."""


class GroupMassZeroError(CausalFairError):
    """A group referenced by a quantile has no probability mass."""


class MultiGroupUnsupportedError(CausalFairError):
    """The frontier sweep only supports exactly two groups."""


class NonStochasticError(CausalFairError):
    """A matrix supplied as row-stochastic is not."""


class DomainError(CausalFairError):
    """A numeric argument lies outside the function's domain."""


class HypothesisViolation(CausalFairError):
    """The preconditions of the impossibility check do not hold."""


class ConfigError(CausalFairError):
    """The experiment configuration failed validation."""


class SolverError(CausalFairError):
    """The LP solver failed: iteration limit, or a result that violates its rows."""
