"""Exception hierarchy shared across the package."""


class ChiralvaError(Exception):
    """Base class for all library errors."""


class ContractError(ChiralvaError):
    """A documented precondition was violated by the caller or the input data."""


class ParseError(ChiralvaError):
    """Input text or a spec file could not be parsed.

    Carries a 1-based (line, column) position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class IllFormedProduct(ContractError):
    """A product of formal series that has no well-defined expansion.

    Raised by `formal.support_bounds` for any product node, wherever it sits
    in an expression, with two or more factors of infinite support (two
    delta atoms, say): they would have to be convolved against each other.
    """


class UnsupportedInput(ContractError):
    """The caller did not assert a hypothesis the operation needs."""


class UnsupportedAlgebra(ContractError):
    """Structure data outside the finitely-checkable class (e.g. a derivation
    that is not nilpotent on the stored table)."""


class NotCommutative(ContractError):
    pass


class NotAssociative(ContractError):
    pass


class NotADerivation(ContractError):
    pass


class NotNilpotent(ContractError):
    pass
