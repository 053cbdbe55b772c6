"""Exception types shared across the package."""


class FdalgError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(FdalgError):
    """Operands live over different scalar fields."""


class DimensionError(FdalgError):
    """Shape or dimension mismatch."""


class UnsupportedCharacteristicError(FdalgError):
    """The requested algorithm is not valid in this characteristic."""


class UnsplitQuotientError(FdalgError):
    """The semisimple quotient has a factor that is not a matrix algebra
    over the ground field (certified: :class:`NotSplitError`), or no zero
    divisor was found in one (inconclusive); idempotent machinery cannot
    proceed."""


class NotSplitError(UnsplitQuotientError):
    """Certified: a factor of the semisimple quotient is not a matrix
    algebra over the ground field."""


class InconclusiveError(FdalgError):
    """A search terminated without either a witness or a disproof.

    Distinct from a certified negative: callers must not treat this as
    'no'.
    """


class NoSymmetricUnitError(FdalgError):
    """The unit search of the involution-transfer algorithm was exhausted.

    ``exhaustive`` is True when the sweep provably covered the whole
    search space (tiny finite fields), in which case no unit of the form
    x + x^theta or x - x^theta exists.
    """

    def __init__(self, message: str, exhaustive: bool = False):
        super().__init__(message)
        self.exhaustive = exhaustive


class NotAPosetError(FdalgError):
    """A relation extracted from an algebra fails a partial-order axiom."""


class VerificationError(FdalgError):
    """A constructed object failed one of its defining equations."""
