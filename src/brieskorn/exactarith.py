"""Exact rational and integer-polynomial arithmetic.

Everything here is exact: rationals are `fractions.Fraction` (always
reduced, positive denominator) and polynomials keep integer coefficients,
with Python's arbitrary-precision ints throughout. No floating point
anywhere. Besides `IntPolynomial`, the module holds the dominance check
that certifies where a polynomial's complex roots lie.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidInputError

Rational = Union[int, Fraction]


class IntPolynomial:
    """Univariate polynomial with integer coefficients, ascending degree order.

    Immutable; trailing zero coefficients are stripped so the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def evaluate(self, x: Rational) -> Rational:
        """Exact evaluation by Horner's scheme; Fraction in, Fraction out."""
        acc: Rational = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def dominance_margin(p: IntPolynomial, radius: int) -> tuple[int, int]:
    """(leading term at the radius, sum of lower-order absolute values).

    The two witness integers of the root-location certificate: for
    p = 16m^4 - 8m^3 - 50m^2 - 34m - 6 at radius 3 they are 1296 and 774.
    """
    if p.is_zero:
        raise InvalidInputError("dominance check needs a nonzero polynomial")
    if radius < 1:
        raise InvalidInputError(f"radius must be >= 1, got {radius}")
    deg = p.degree
    head = abs(p.coeffs[deg]) * radius**deg
    tail = sum(abs(c) * radius**i for i, c in enumerate(p.coeffs[:deg]))
    return head, tail


def dominance_check(p: IntPolynomial, radius: int) -> bool:
    """True iff the leading term strictly dominates all lower-order terms on
    the circle of the given radius, certifying that every complex root of p
    lies strictly inside that disc."""
    head, tail = dominance_margin(p, radius)
    return head > tail
