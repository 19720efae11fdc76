"""Domain error types shared across the library.

Every error carries a stable machine-readable name (the class name) so the
CLI can emit it verbatim in its JSON error objects.
"""


class DomainError(ValueError):
    """Base class for all domain errors raised by this library."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- field construction / arithmetic ----------------------------------------

class NotPrime(DomainError):
    pass


class InvalidDegree(DomainError):
    pass


class PrimeTooLarge(DomainError):
    """A field spec names a prime too large to test by trial division."""


class ExtensionTooLarge(DomainError):
    """An extension field whose modulus search would scan too many candidates."""


class FieldMismatch(DomainError):
    pass


class DivisionByZero(DomainError):
    pass


class ParseError(DomainError):
    """Malformed field-spec or polynomial text."""


# -- polynomials -------------------------------------------------------------

class BothZero(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


# -- cellular automata -------------------------------------------------------

class NotBipermutive(DomainError):
    pass


class DegreeZero(DomainError):
    pass


class LengthMismatch(DomainError):
    pass


class SeedLengthMismatch(DomainError):
    pass


# -- subspaces and codes -----------------------------------------------------

class AmbientMismatch(DomainError):
    pass


class TooFewCodewords(DomainError):
    pass


class EmptyCode(DomainError):
    pass


class EmptyFamily(DomainError):
    pass


class TooFewMembers(DomainError):
    pass


class DuplicateMember(DomainError):
    pass


class NonPositive(DomainError):
    pass


class GNotMonic(DomainError):
    pass


class GZeroConstant(DomainError):
    pass


class DegreeTooLarge(DomainError):
    pass


class BudgetExceeded(DomainError):
    pass


# -- channel -----------------------------------------------------------------

class TooManyErasures(DomainError):
    pass


class NegativeCount(DomainError):
    pass


class GuaranteeViolated(DomainError):
    """A trial inside the 2 d < D region did not decode to the sent codeword."""
