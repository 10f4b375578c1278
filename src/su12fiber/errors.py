"""Exception types shared across the package."""


class OrderMismatchError(ValueError):
    """Two truncated series (or matrices of them) have different truncation orders."""


class NonUnitError(ArithmeticError):
    """Inversion or exact division was requested for a non-invertible element."""


class InvalidGenusError(ValueError):
    """The genus must be an integer >= 2."""


class LengthMismatchError(ValueError):
    """A configuration's length disagrees with the ambient N = 4g - 4."""


class InvalidScaleError(ValueError):
    """The torus acts by nonzero scalars only."""


class NotOnBoundaryError(ValueError):
    """Fixed-point limits exist only for strictly semistable configurations."""


class NoChartError(ValueError):
    """Affine charts exist only over the stable locus."""


class HeckeDatumError(ValueError):
    """Kernel generators whose determinant is not a unit multiple of zeta
    do not come from a simple-zero Hecke modification."""


class SmithPreconditionError(ValueError):
    """smith_form requires the determinant to equal zeta exactly."""


class InternalInconsistencyError(RuntimeError):
    """An identity that is forced by a verified precondition failed anyway."""
