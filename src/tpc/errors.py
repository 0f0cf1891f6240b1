"""Exception types shared across the solver stack."""


class TpcError(Exception):
    """Base class for all errors raised by this package."""


class TheorySyntaxError(TpcError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class ArityMismatch(TpcError):
    pass


class FreeRhsVariable(TpcError):
    def __init__(self, variable, axiom):
        self.variable = variable
        self.axiom = axiom
        super().__init__(f"axiom {axiom!r} introduces variable {variable!r} on the right-hand side")


class NonGroundStart(TpcError):
    pass


class UnsupportedRule(TpcError):
    pass


class UnknownAxiom(TpcError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown axiom {name!r}")


class InvalidProofStep(TpcError):
    """A proof step failed to apply at the given 1-based position."""

    def __init__(self, index, step_name=None):
        self.index = index
        self.step_name = step_name
        super().__init__(f"proof step {index} ({step_name!r}) does not apply")


class BudgetExceeded(TpcError):
    pass


class ShapeError(TpcError):
    def __init__(self, message, path=()):
        self.path = tuple(path)
        where = "/".join(str(p) for p in self.path) or "root"
        super().__init__(f"{message} (at index position {where})")


class NotLinearizable(TpcError):
    """Star closure / exponent fitting found no verified affine form."""

    def __init__(self, message, scheme=None):
        self.scheme = scheme
        super().__init__(message if scheme is None else f"{message}: {scheme}")


class Unsupported(TpcError):
    pass


class Ambiguous(TpcError):
    """Tuning could not resolve remaining index variables unambiguously.
    When a linear system leaves an unknown free, ``free`` is the first one,
    and ``least`` the least natural value of it that the solved unknowns
    depending on it alone allow; ``free`` is None for any other give-up."""

    def __init__(self, message, free=None, least=0):
        self.free = free
        self.least = least
        super().__init__(message)


class InternalMismatch(TpcError):
    """A solver produced an answer that failed replay; indicates a bug."""
