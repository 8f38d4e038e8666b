"""Exception types shared across the package."""


class SynfuzzError(Exception):
    """Base class for all library-specific errors."""


class NotPrimeError(SynfuzzError, ValueError):
    """The requested base-field modulus is not a prime number."""


class NoDefaultModulusError(SynfuzzError, LookupError):
    """No built-in modulus polynomial is available for this field size."""


class NonPrimitiveAlphaError(SynfuzzError, ValueError):
    """The class of x is not a generator of the multiplicative group.  A
    reducible modulus raises this too, since x cannot be primitive on it."""


class ShapeMismatchError(SynfuzzError, ValueError):
    """A word does not fit the code that reads it: the wrong shape, or a
    cell that is not a symbol of its alphabet.  Every refused data word,
    message or syndrome raises this class or one of its two subclasses."""


class LengthMismatchError(ShapeMismatchError):
    """A word or message has the wrong number of symbols."""


class AlphabetMismatchError(ShapeMismatchError):
    """A cell is not an int (bools are) in the code's alphabet."""


class ShapeUnsupportedError(SynfuzzError, ValueError):
    """The requested burst shape is not defined for this construction."""


class CapacityTooLargeError(SynfuzzError, ValueError):
    """The designed error capability does not fit the code length."""


class DecodeFailure(SynfuzzError):
    """No correctable error pattern is consistent with the syndrome."""


class TooManyErasuresError(DecodeFailure, ValueError):
    """More erasure positions than redundancy symbols: no pattern can be
    decoded, so it is a DecodeFailure."""


class IndexOutOfRangeError(SynfuzzError, IndexError):
    """Inner-code index or position outside the valid range."""


class QueryUnsupportedError(SynfuzzError, ValueError):
    """Capability query does not apply to this layout."""


class OutOfRangeError(SynfuzzError, ValueError):
    """Error pattern does not fit inside the word or array."""


class PlacementFailedError(SynfuzzError, RuntimeError):
    """Could not place the requested disjoint error pattern."""


class UnsupportedHashError(SynfuzzError, ValueError):
    """Unknown hash algorithm identifier."""


class SpecParseError(SynfuzzError, ValueError):
    """Malformed code specification string."""


class TemplateFormatError(SynfuzzError, ValueError):
    """Malformed or truncated template file."""
