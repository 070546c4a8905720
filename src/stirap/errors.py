"""The package's failure contract, stated once.

Every failure the package raises is one of two types, and the CLI maps
ConfigurationError to exit code 2 and NumericalError to exit code 3.  The
message names the failure: an integration failure ends in
"at step N (t = T ns)".
"""


class ConfigurationError(Exception):
    """Invalid or inconsistent user-supplied configuration."""


class NumericalError(Exception):
    """A failure detected during computation."""


class MaxIterationsError(NumericalError):
    """Iterative solver hit its iteration cap; best result attached.

    No solver in the package raises it; kept while perfbench imports it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
