"""Exception hierarchy shared by all alexkit modules.

Every error alexkit raises is an `AlexkitError`, except three built-in
ones that are part of its contract:
- `ValueError` for an inexact `//`, the one exact division;
- `ZeroDivisionError` for a division by zero in `//` and `pseudo_divmod`;
- `TypeError` for an argument of the wrong type, such as
  `evaluate_tangle(1, field)`, `RationalPoint(None)`, `t // 1.5`, or an
  int or the other ring's polynomial where a Laurent polynomial is
  expected (`canonical_poly(3)`, `mv_normalize(t)`,
  `smith_normal_form([[1]])`, `poly_det([[1]], 1)`).
A non-finite point or one that is no number raises `ValidationError`,
as in `RationalPoint("x")` and `t.evaluate(float("nan"))`.
A non-integral number where an integer is expected raises
`ValidationError`, as do a size out of range (negative, no strand or
arc, or past sys.maxsize) and a `ComplexPoint` tolerance outside [0, 1);
unequal variable counts and ragged matrix rows raise
`DimensionMismatch`, and `to_laurent` of several variables
`UseMultivariableRoute`.
"""


class AlexkitError(Exception):
    """Base class for all errors raised by alexkit.

    `exit_code` is the command line's exit status for the error: 2 for
    malformed or invalid input, 1 when two routes disagree, 3 otherwise.
    """

    exit_code = 3


class ZeroPolynomial(AlexkitError):
    """An operation that requires a nonzero polynomial got the zero polynomial."""


class NotAUnit(AlexkitError):
    """An element that must be invertible is not.

    Raised for the evaluation point t = 0; for a negative power, or the
    `term_inverse`, of a polynomial that is not +-t^k (a +-monomial in
    several variables); and for a Fox weight that is not a +-monomial.
    """


class UnknownGenerator(AlexkitError):
    """A word or diagram references a generator with no assigned weight."""


class ParseError(AlexkitError):
    """Malformed textual input; carries the offending position."""

    exit_code = 2

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %s)" % (message, position)
        super().__init__(message)
        self.position = position


class ValidationError(AlexkitError):
    """Structurally invalid diagram data."""

    exit_code = 2


class AmbiguousOrientation(ValidationError):
    """A PD crossing satisfies neither (or both) orientation conditions."""


class NotFound(AlexkitError):
    """Catalog lookup for an unknown name."""

    exit_code = 2


class DimensionMismatch(AlexkitError):
    """Span or matrix shapes are incompatible."""


class BoundaryMismatch(AlexkitError):
    """Tangle composition with unequal boundary objects."""

    exit_code = 2

    def __init__(self, position, expected, found):
        super().__init__(
            "boundary mismatch at %s: expected %s, found %s"
            % (position, expected, found)
        )
        self.position = position
        self.expected = expected
        self.found = found


class UseMultivariableRoute(AlexkitError):
    """Operation defined for knots was called on a multi-component link."""


class UseUnivariateRoute(AlexkitError):
    """Operation defined for links was called on a knot."""


class RouteDisagreement(AlexkitError):
    """Two routes that compute the same invariant gave different values."""

    exit_code = 1


class EmptyMatrix(AlexkitError):
    """Reduced Burau representation of the 1-strand braid group is empty."""
