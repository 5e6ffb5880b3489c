"""Exact integer, rational and polynomial arithmetic plus the counting kernel.

Everything here is exact: integers are Python's arbitrary-precision ints,
rationals are `fractions.Fraction` (always reduced, positive denominator),
and polynomials keep integer coefficients. No floating point anywhere.

The one nontrivial piece is `count_multiples_avoiding`, an oracle for the
Reeb-orbit frequencies: `reeb.frequencies` computes them by a recurrence
over the period lattice, and the reproduction suite and the tests compare
it with this kernel. The kernel counts multiples of a base below a bound
that avoid a set of forbidden divisor classes, and it does so along two
independent routes that are cross-checked against each other whenever the
candidate range is small enough:

  (a) direct enumeration of the candidates a in [1, ceil(bound/base) - 1],
      marking those with some forbidden f dividing a*base;
  (b) inclusion-exclusion over a divisibility-minimal antichain of the
      reduced moduli q_f = lcm(base, f) / base.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import BrieskornError, CapacityError, InvalidInputError
from .limits import DEFAULT_LIMITS, Limits

Rational = Union[int, Fraction]


def _candidate_range(base: int, bound: int) -> int:
    # Number of candidates a with a*base < bound, i.e. ceil(bound/base) - 1.
    return (bound + base - 1) // base - 1


def _count_direct(base: int, bound: int, forbidden: Sequence[int]) -> int:
    """Route (a): enumerate every candidate and sieve out forbidden ones.

    Works in a-space (x = a*base): f divides a*base iff q = f/gcd(f, base)
    divides a, so marking multiples of each q in a bytearray enumerates the
    full candidate range at native speed.
    """
    ncand = _candidate_range(base, bound)
    if ncand <= 0:
        return 0
    sieve = bytearray(ncand + 1)  # index a in [1, ncand]
    for f in forbidden:
        q = f // math.gcd(f, base)
        if q <= ncand:
            sieve[q::q] = b"\x01" * (ncand // q)
    return ncand - sieve.count(1)


def _count_inclusion_exclusion(
    base: int, bound: int, forbidden: Sequence[int], antichain_cap: int
) -> int:
    """Route (b): signed subset sum over a divisibility-minimal antichain."""
    qs = sorted({f // math.gcd(f, base) for f in forbidden})
    antichain = []
    for q in qs:  # ascending, so any divisor of q was seen before q
        if not any(q % p == 0 for p in antichain):
            antichain.append(q)
    if len(antichain) > antichain_cap:
        raise CapacityError(
            f"inclusion-exclusion antichain has {len(antichain)} elements, "
            f"exceeding the cap of {antichain_cap}"
        )
    total = 0
    for k in range(len(antichain) + 1):
        for subset in combinations(antichain, k):
            block = 1
            for q in subset:
                block = math.lcm(block, q)
            total += (-1) ** k * ((bound - 1) // (base * block))
    return total


def count_multiples_avoiding(
    base: int,
    bound: int,
    forbidden: Sequence[int],
    limits: Limits = DEFAULT_LIMITS,
) -> int:
    """Count natural a with a*base < bound and a*base in no forbidden f*N.

    Always computed by inclusion-exclusion; whenever the candidate range is
    at most `limits.direct_count_limit` the direct enumeration runs as well
    and the two results are required to agree.
    """
    if base < 1 or bound < 1:
        raise InvalidInputError(f"base and bound must be >= 1, got ({base}, {bound})")
    for f in forbidden:
        if f < 1:
            raise InvalidInputError(f"forbidden values must be >= 1, got {f}")
    count = _count_inclusion_exclusion(base, bound, forbidden, limits.antichain_cap)
    if _candidate_range(base, bound) <= limits.direct_count_limit:
        direct = _count_direct(base, bound, forbidden)
        if direct != count:
            raise BrieskornError(
                "counting strategies disagree: direct enumeration gives "
                f"{direct}, inclusion-exclusion gives {count} for "
                f"base={base}, bound={bound}, forbidden={list(forbidden)}"
            )
    return count


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

    def __call__(self, x: Rational) -> Rational:
        return self.evaluate(x)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("m" if i == 1 else f"m^{i}")
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


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
