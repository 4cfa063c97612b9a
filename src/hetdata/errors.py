"""Exception hierarchy shared across the package."""


class HetdataError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(HetdataError, ValueError):
    """An argument is outside its documented domain (NaN, wrong range, ...)."""


class NumericalRangeError(HetdataError, ArithmeticError):
    """A computation would overflow/underflow beyond recoverable asymptotics."""


class EvaluationError(HetdataError):
    """A function could not be evaluated: it raised, or returned NaN or inf."""


class SolverError(HetdataError):
    """A solver failed to locate a root."""


class NoSolutionError(SolverError):
    """The matching equation has no root on the admissible branch."""

    def __init__(self, target, branch_minimum):
        self.target = target
        self.branch_minimum = branch_minimum
        super().__init__(
            f"log target {target} lies below the log branch minimum "
            f"{branch_minimum}; no root exists on the increasing branch"
        )


class DegenerateInputError(HetdataError, ValueError):
    """An input makes the requested quantity degenerate (m=0, tau_L=tau_H, ...)."""


class ParamError(HetdataError, ValueError):
    """Parameter validation failed; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(HetdataError):
    """Bad CLI configuration (unknown flag, missing file, malformed JSON)."""
