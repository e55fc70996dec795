"""Exception types shared across the package."""


class RegimeError(ValueError):
    """Parameters violate a precondition of the requested analysis.

    Raised when a routine is called outside the parameter regime where its
    result is defined (wrong determinant signs, trace on the wrong side of
    a bifurcation curve, and so on).
    """


class ZeroImageError(ArithmeticError):
    """A point on the unit sphere maps exactly to the origin.

    The radial/angular decomposition of the map is undefined at such points.
    """
