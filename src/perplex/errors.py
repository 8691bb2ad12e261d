"""Exception types raised across the package.

Everything derives from :class:`PerplexError` so callers can catch the
whole family at once.  The CLI maps these to exit code 1; negative
*results* (invalid parameters, infeasible fits) are reports, not
exceptions, and map to exit code 2.
"""


class PerplexError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateParams(PerplexError):
    """The parameter pair does not admit the requested construction,
    e.g. the identity element when a1*b2 - a2*b1 vanishes."""


class NotAUnit(PerplexError):
    """Inversion was requested for an element whose norm vanishes."""


class ZeroInput(PerplexError):
    """An operation that needs a nonzero element received (0, 0)."""


class DegenerateDirection(PerplexError):
    """A power of the base point vanished, so the quotient ladder
    or ratio is undefined along this direction."""


class IllConditioned(PerplexError):
    """A normalization step divided by a quantity too close to zero
    for the requested tolerance."""


class NotSeparated(PerplexError):
    """A direction failed the positive-separation margin check."""


class GcrViolated(PerplexError):
    """A derivative was requested for a map whose compatibility
    residual is not zero."""


class FitFailed(PerplexError):
    """No valid parameter pair realizes the requested structure."""


class InsufficientSamples(PerplexError):
    """Too few usable samples survived filtering to fit anything."""


class DegenerateAlgebra(PerplexError):
    """The operation is only meaningful for algebras with a
    nondegenerate norm form."""


class EmptyFiber(PerplexError):
    """No fiber point converged for the requested target value."""
