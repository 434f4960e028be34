"""Exception hierarchy. Every error carries a machine-readable code for the CLI."""


class ScatteredLabError(Exception):
    """Base class; `code` is the stable identifier emitted in JSON reports."""

    code = "Error"
    exit_code = 1

    def __init__(self, message=""):
        super().__init__(message or self.code)


class RefusedPrecondition(ScatteredLabError):
    """Input is valid but outside the configured or mathematical working range."""

    exit_code = 2


# field_tower
class NonPrime(ScatteredLabError):
    code = "NonPrime"


class DegreeTooLarge(RefusedPrecondition):
    code = "DegreeTooLarge"


class NotADivisor(ScatteredLabError):
    code = "NotADivisor"


class BadElement(ScatteredLabError):
    code = "BadElement"


# linearized
class NotBijective(ScatteredLabError):
    code = "NotBijective"


class ZeroPolynomial(ScatteredLabError):
    code = "ZeroPolynomial"


class NotStandard(ScatteredLabError):
    code = "NotStandard"


# stabilizer
class NotScattered(ScatteredLabError):
    code = "NotScattered"


class NotAField(ScatteredLabError):
    code = "NotAField"


class AllScalar(ScatteredLabError):
    code = "AllScalar"


# standard_form
class NotInS(ScatteredLabError):
    code = "NotInS"


# mrd
class TooLarge(RefusedPrecondition):
    code = "TooLarge"


# families
class BadParams(ScatteredLabError):
    code = "BadParams"


class UnsupportedParams(ScatteredLabError):
    code = "UnsupportedParams"


# plane
class SmallQ(RefusedPrecondition):
    code = "SmallQ"


class HallCase(RefusedPrecondition):
    code = "HallCase"


# cli
class ParseError(ScatteredLabError):
    code = "ParseError"


class InternalError(ScatteredLabError):
    """Raised when a structural guarantee fails; always indicates a bug."""

    code = "InternalError"
