from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brieskorn.errors import InvalidInputError
from brieskorn.exactarith import IntPolynomial, dominance_check, dominance_margin

# h is the quartic denominator of the parametric family's closed form; its
# value 2642 at m=4 shows up all over the reference results.
H_POLY = IntPolynomial((-6, -34, -50, -8, 16))


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
    assert H_POLY.evaluate(Fraction(1, 2)) == Fraction(-6, 1) - 17 - Fraction(50, 4) - 1 + 1
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
