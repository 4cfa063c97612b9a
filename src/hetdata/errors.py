"""Exception hierarchy shared across the package."""


class HetdataError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(HetdataError, ValueError):
    """An argument is outside its documented domain (NaN, wrong range, ...)."""


class NumericalRangeError(HetdataError, ArithmeticError):
    """A computation would overflow/underflow beyond recoverable asymptotics."""


class EvaluationError(HetdataError):
    """A user-supplied callable returned a non-finite value."""


class SolverError(HetdataError):
    """A solver failed to locate a root."""


class ConvergenceError(SolverError):
    """The portfolio-moment quadrature reached its highest order unconverged."""

    def __init__(self, theta, sigma1, gamma, order, change):
        self.theta, self.sigma1, self.gamma = theta, sigma1, gamma
        self.order, self.change = order, change
        super().__init__(
            f"portfolio moment quadrature did not converge at theta={theta}, "
            f"sigma_idio={sigma1}, gamma={gamma}: the last doubling, to order "
            f"{order}, changed the value by {change}"
        )


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
