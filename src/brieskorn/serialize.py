"""JSON encoding conventions: arbitrary-precision values as decimal strings.

Plain JSON numbers lose integers beyond 2^53 in common consumers, so every
value that can grow (exponents, periods, indices, rational parts) is
serialized as a decimal string, and rationals as {"num": ..., "den": ...}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .topology import ExponentTuple


def parse_int(s, what: str = "integer") -> int:
    """An int as itself, or a string only in the form `str` writes: ASCII
    digits, an optional leading minus, no sign on zero, no leading zero, no
    whitespace and no underscores."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if not isinstance(s, str):
        raise InvalidInputError(f"{what} must be a decimal string, got {s!r}")
    try:
        value = int(s, 10)
    except ValueError:
        value = None
    if value is None or str(value) != s:
        raise InvalidInputError(f"{what} is not a decimal integer: {s!r}")
    return value


def tuple_obj(t: ExponentTuple) -> list[str]:
    return [str(e) for e in t.entries]


def fraction_obj(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}

