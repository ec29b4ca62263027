"""The package's two error kinds, under one base: an input outside the domain
where the closed forms and the simulator hold (DomainError), and a
computation that does not reach a finite, converged value (NumericalError)."""


class CfgLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CfgLabError, ValueError):
    """Inputs violate a documented precondition (domain/shape/sign); a size
    budget or a root bracket with no sign change is one too."""


class NumericalError(CfgLabError, FloatingPointError):
    """A computation produced non-finite values or did not converge (reports
    where it happened)."""
