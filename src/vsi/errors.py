"""Exception types shared across the package."""


class VsiError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParseError(VsiError):
    """Malformed quiver/representation/field-spec input."""


class OrientedCycleError(VsiError):
    """The arrow set admits an oriented cycle (loops included)."""


class UnknownVertexError(VsiError):
    pass


class DimensionMismatchError(VsiError):
    """A vector or matrix does not fit the quiver or the declared shapes."""


class NegativeDimensionError(VsiError):
    pass


class ZeroVectorError(VsiError):
    pass


class FieldMismatchError(VsiError):
    """Two objects over different coefficient fields were combined."""


class FieldTooSmallError(VsiError):
    """The prime field is too small for a computation's exactness argument."""


class QuiverMismatchError(VsiError):
    pass


class NonSquareWeightError(VsiError):
    """dim V does not pair the two sides of the presentation into a square matrix."""


class SplitFailureError(VsiError):
    """A direct-sum splitting could not be realized (unlucky samples or small field)."""


class NotDynkinError(VsiError):
    pass


class NotASimplexError(VsiError):
    """The given vertex set is not a face of the complex."""


class ZeroCoefficientsError(VsiError):
    pass


class InvariantViolationError(VsiError):
    """A structural guarantee failed at runtime; treat as a verification failure."""


class EmptyLabelError(VsiError):
    """A codimension-one wall received no positive-root label."""


class UnsupportedDimensionError(VsiError):
    """Geometric export requested in a rank the format cannot carry."""
