"""Exception taxonomy shared by every hamrc module."""


class HamrcError(Exception):
    """Base class for all hamrc errors."""


class InvalidTerm(HamrcError):
    """A Pauli term is malformed or has the wrong length."""


class NotTwoBody(HamrcError):
    """An operation required a two-body expansion but got higher weight."""


class NotCoupled(HamrcError):
    """The requested pair carries no coupling term."""


class NotHermitian(HamrcError):
    """A dense operator failed the Hermiticity tolerance."""


class TooLarge(HamrcError):
    """Dense evaluation was requested above the configured qubit cap."""


class DimMismatch(HamrcError):
    """Two dense operators have incompatible shapes."""


class NotConnected(HamrcError):
    """No routing path exists between the requested qubits."""


class InvalidStep(HamrcError):
    """A compilation step was requested with invalid parameters."""


class Infeasible(HamrcError):
    """No step count satisfies the requested error budget."""


class VerificationFailure(HamrcError):
    """A compiled schedule missed its predicted error bound."""


class ParseError(HamrcError):
    """A text input could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
