"""Exception types shared across the package."""

__all__ = [
    "WeightMultError",
    "InvalidType",
    "DimensionMismatch",
    "NotDominant",
    "NotUnder",
    "NegativeInput",
    "PreconditionViolated",
    "InexactDivision",
    "QueryTooDeep",
    "WrongType",
    "ZeroHighestWeight",
    "GroupTooLarge",
    "ParseError",
    "RankMismatch",
]


class WeightMultError(Exception):
    """Base class for every error raised by this package."""


class InvalidType(WeightMultError):
    """Family/rank pair outside the finite simple types, or a bad Cartan datum."""


class DimensionMismatch(WeightMultError):
    """A coordinate vector whose length differs from the rank."""


class NotDominant(WeightMultError):
    """A weight required to be dominant has a negative coordinate."""


class NotUnder(WeightMultError):
    """lam - mu is not a nonnegative integer combination of simple roots."""


class NegativeInput(WeightMultError):
    """A vector required to be nonnegative has a negative entry."""


class PreconditionViolated(WeightMultError):
    """An operation was invoked outside its stated domain."""


class InexactDivision(WeightMultError):
    """An exact division left a remainder, or an exact count came out negative.

    Either signals an internal inconsistency.
    """


class QueryTooDeep(WeightMultError):
    """A recursive query went deeper than the interpreter's recursion limit allows."""


class WrongType(WeightMultError):
    """An operation restricted to one family was invoked on another."""


class ZeroHighestWeight(WeightMultError):
    """The closed-form evaluation needs a nonzero highest weight."""


class GroupTooLarge(WeightMultError):
    """Weyl group enumeration would exceed the configured cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"Weyl group order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class ParseError(WeightMultError):
    """Command-line input rejected; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int = 0, expected: tuple = ()):
        detail = f"{message} (offset {offset}"
        if expected:
            detail += ", expected " + " | ".join(sorted(expected))
        detail += ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


class RankMismatch(WeightMultError):
    """A bracketed coordinate list whose arity differs from the declared rank."""
