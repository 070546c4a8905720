"""Exception hierarchy shared across the package.

The CLI maps ConfigurationError (and subclasses) to exit code 2 and
NumericalError (and subclasses) to exit code 3.
"""


class StirapError(Exception):
    """Base class for all package exceptions."""


class ConfigurationError(StirapError):
    """Invalid or inconsistent user-supplied configuration."""


class InvalidPulseError(ConfigurationError):
    """Pulse parameters violate their invariants (e.g. sigma <= 0)."""


class NumericalError(StirapError):
    """Base class for failures detected during computation."""


class InvalidStateError(NumericalError):
    """A quantum state violates hermiticity / trace / positivity bounds."""


class PreconditionError(NumericalError):
    """A documented operation precondition does not hold."""


class UndefinedFrameError(PreconditionError):
    """Dark state requested where it is not defined (both drives off)."""


class NonDispersiveError(NumericalError):
    """Cavity parameters outside the dispersive regime."""


class IntegrationFailureError(NumericalError):
    """Time integration violated a state invariant mid-run."""

    def __init__(self, message: str, step: int, t_ns: float):
        super().__init__(message)
        self.step = step
        self.t_ns = t_ns


class SingularDesignError(NumericalError):
    """Tomography reference traces are too degenerate to invert."""


class MaxIterationsError(NumericalError):
    """Iterative solver hit its iteration cap; best result attached.

    No solver in the package raises it; kept while perfbench imports it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class NonAdiabaticRunError(NumericalError):
    """Propagation leaked out of the dark state; phase oracle invalid."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage
