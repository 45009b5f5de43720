"""Exception types shared across the package."""


class PadicDynError(Exception):
    """Base class for domain errors raised by this package."""


class NotPrimeError(PadicDynError):
    """A modulus base that must be prime is composite (or < 2)."""


class NotAUnitError(PadicDynError):
    """Inversion was attempted on a p-adic integer that is not a unit."""


class NotARootError(PadicDynError):
    """A Hensel step or lift was seeded with a value that is not a root
    at the required level."""


class SingularRootError(PadicDynError):
    """A Hensel step or lift was seeded with a singular root, so no
    unique lift exists."""


class BudgetExceededError(PadicDynError):
    """A resource budget (tree node count, or the CLI's work estimate)
    was exhausted."""


class PolyParseError(PadicDynError):
    """Syntax error in a polynomial expression; carries the 0-based
    character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
