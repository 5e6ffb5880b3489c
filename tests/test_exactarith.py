from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brieskorn.errors import CapacityError, InvalidInputError
from brieskorn.exactarith import (
    IntPolynomial,
    _count_direct,
    _count_inclusion_exclusion,
    count_multiples_avoiding,
    dominance_check,
    dominance_margin,
)
from brieskorn.limits import DEFAULT_LIMITS, Limits

# h is the quartic denominator of the parametric family's closed form; its
# value 2642 at m=4 shows up all over the reference results.
H_POLY = IntPolynomial((-6, -34, -50, -8, 16))


def naive_count(base, bound, forbidden):
    # independent oracle: literal walk over candidates a with a*base < bound
    return sum(
        1
        for a in range(1, (bound + base - 1) // base)
        if all((a * base) % f for f in forbidden)
    )


# ------------------------------------------------- counting kernel


def test_count_examples():
    assert count_multiples_avoiding(6, 30, [10, 15, 30]) == 4  # 6, 12, 18, 24
    assert count_multiples_avoiding(2, 6, [6]) == 2  # 2 and 4
    assert count_multiples_avoiding(30, 30, []) == 0  # no a with 30a < 30


def test_count_validates_inputs():
    with pytest.raises(InvalidInputError):
        count_multiples_avoiding(0, 10, [])
    with pytest.raises(InvalidInputError):
        count_multiples_avoiding(1, 0, [])
    with pytest.raises(InvalidInputError):
        count_multiples_avoiding(1, 10, [0])


def test_count_antichain_cap():
    limits = Limits(antichain_cap=2)
    with pytest.raises(CapacityError, match="cap of 2"):
        count_multiples_avoiding(1, 1000, [2, 3, 5], limits)


def test_count_antichain_discards_multiples():
    # 4 and 6 are multiples of 2, so the antichain is just {2}: well under
    # any cap, and the result is the odd numbers below 100.
    limits = Limits(antichain_cap=1)
    assert count_multiples_avoiding(1, 100, [2, 4, 6], limits) == 50


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=2500),
    st.lists(st.integers(min_value=1, max_value=60), max_size=6),
)
def test_count_matches_naive(base, bound, forbidden):
    assert count_multiples_avoiding(base, bound, forbidden) == naive_count(
        base, bound, forbidden
    )


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=2500),
    st.lists(st.integers(min_value=1, max_value=60), max_size=6),
)
def test_direct_equals_inclusion_exclusion(base, bound, forbidden):
    assert _count_direct(base, bound, forbidden) == _count_inclusion_exclusion(
        base, bound, forbidden, DEFAULT_LIMITS.antichain_cap
    )


# ------------------------------------------------------ polynomials


def test_polynomial_normalization():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0,)).degree == -1


def test_polynomial_derivative():
    g = IntPolynomial((3, 17, 21))
    assert g.derivative() == IntPolynomial((17, 42))
    assert IntPolynomial((5,)).derivative().is_zero


def test_polynomial_evaluate():
    assert H_POLY.evaluate(4) == 2642
    assert H_POLY(Fraction(1, 2)) == Fraction(-6, 1) - 17 - Fraction(50, 4) - 1 + 1
    assert IntPolynomial(()).evaluate(7) == 0


def test_polynomial_mul():
    m = IntPolynomial((0, 1))
    assert m * m == IntPolynomial((0, 0, 1))
    assert (m * IntPolynomial(())).is_zero


def test_polynomial_add_sub():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((4, 5))
    assert p + q == IntPolynomial((5, 7, 3))
    assert p - p == IntPolynomial(())


small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(min_value=-20, max_value=20), max_size=5)
)


@given(small_polys, small_polys, st.integers(min_value=-10, max_value=10))
def test_polynomial_mul_evaluation_homomorphism(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(small_polys, small_polys)
def test_polynomial_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


# ------------------------------------------------------- dominance


def test_dominance_reference_polynomial():
    assert dominance_margin(H_POLY, 3) == (1296, 774)
    assert dominance_check(H_POLY, 3) is True


def test_dominance_root_outside():
    assert dominance_check(IntPolynomial((-10, 1)), 3) is False  # root at 10


def test_dominance_all_roots_at_zero():
    assert dominance_check(IntPolynomial((0, 0, 1)), 1) is True


def test_dominance_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        dominance_check(IntPolynomial(()), 3)
    with pytest.raises(InvalidInputError):
        dominance_check(H_POLY, 0)


# ---------------------------------------------------- exact rationals


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_fraction_round_trip(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x
    assert x.denominator > 0
    assert math.gcd(abs(x.numerator), x.denominator) in (0, 1)
