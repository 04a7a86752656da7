"""Exception types shared across the package."""


class McflowError(Exception):
    """Base class for all package errors."""


class InputError(McflowError):
    """A caller-supplied argument is invalid."""


class ParseError(McflowError):
    """An instance file is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class GenerationError(McflowError):
    """Random instance generation could not satisfy its parameters."""


class InfeasibleError(McflowError):
    """The problem admits no feasible routing for some demands."""

    def __init__(self, message: str, owners: tuple = ()):
        super().__init__(message)
        self.owners = tuple(owners)


class BackendError(McflowError):
    """An LP backend failed or is unsuitable for the given problem size."""


class LpTimeLimit(McflowError):
    """An LP solve stopped at its time limit before reaching optimality."""


class DecompositionError(McflowError):
    """Aggregated flows could not be decomposed into commodity paths."""


class InternalError(McflowError):
    """An internal invariant was violated; indicates a bug."""
