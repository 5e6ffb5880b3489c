from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn.reeb
from brieskorn.errors import CapacityError, InvalidInputError, PreconditionError
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.reeb import (
    _lattice,
    connected_sum_chi,
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    reeb_periods,
    stratum,
    total_rs_index,
)
from brieskorn.topology import ExponentTuple, _kappa_sorted, make_tuple, pairwise_coprime
from brieskorn.verify import _inclusion_exclusion_frequencies
from oracles import (
    brieskorn_pham_kappa,
    fraction_connected_sum,
    naive_frequencies,
    per_stratum_mean_euler,
    subset_periods,
)

wide_tuples = st.lists(
    st.integers(min_value=2, max_value=30), min_size=2, max_size=8
).map(lambda xs: ExponentTuple(tuple(xs)))


# ----------------------------------------------------------- periods


def test_periods_examples():
    assert reeb_periods(make_tuple([2, 2, 3])) == [2, 6]
    assert reeb_periods(make_tuple([2, 3, 5])) == [6, 10, 15, 30]
    assert reeb_periods(make_tuple([4, 5, 9, 19])) == [
        20, 36, 45, 76, 95, 171, 180, 380, 684, 855, 3420,
    ]


@given(wide_tuples)
def test_periods_end_at_d_and_divide_it(t):
    periods = reeb_periods(t)
    assert periods[-1] == t.d
    assert all(t.d % p == 0 for p in periods)
    assert periods == sorted(set(periods))
    assert periods == subset_periods(t.entries)


# ------------------------------------------------------ subset lattice


@given(
    st.lists(st.integers(min_value=2, max_value=12), min_size=2, max_size=5).filter(
        lambda xs: math.prod(x - 1 for x in xs) <= 20_000
    )
)
def test_lattice_kappa_matches_both_routes_on_every_subtuple(entries):
    # the bounds of test_kappa_matches_brieskorn_pham_count
    kap = _lattice(ExponentTuple(tuple(entries)), DEFAULT_LIMITS)[1]
    for J in range(1 << len(entries)):
        sub = [e for j, e in enumerate(entries) if J >> j & 1]
        assert kap[J] == _kappa_sorted(tuple(sorted(sub))) == brieskorn_pham_kappa(sub), sub


def test_lattice_cap_fails_before_allocating(monkeypatch):
    # 17 entries against a cap of 16: each table would hold 2^17 entries,
    # over 1 MB, so the peak of a check made after allocating shows
    limits = Limits(subset_cap=16)
    monkeypatch.setattr(brieskorn.reeb, "DEFAULT_LIMITS", limits)  # frequencies has no limits
    t = ExponentTuple(tuple(range(2, 19)))
    calls = {
        "reeb_periods": lambda: reeb_periods(t, limits),
        "frequencies": lambda: frequencies(t),
        "stratum": lambda: stratum(t, 6, limits),
        "mean_euler": lambda: mean_euler(t, limits),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="cap of 16"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, name


# ------------------------------------------------------------ strata


def test_stratum_reference_values():
    s = stratum(make_tuple([4, 5, 9, 19]), 20)
    assert s.subtuple.entries == (4, 5)
    assert s.indices == (0, 1)
    assert (s.m_t, s.dim, s.quotient_dim) == (2, 1, 0)
    assert s.mu_rs == -14  # (5+5) + (4+4) + (2+3) + (1+2) - 40
    assert s.chi_s1 == 1
    assert s.frequency == 144  # naive count of multiples of 20 below 3420


def test_stratum_small_triple():
    s = stratum(make_tuple([2, 3, 5]), 6)
    assert s.subtuple.entries == (2, 3)
    assert s.mu_rs == 1  # (3+3) + (2+2) + (1+2) - 12
    assert s.chi_s1 == 1  # gcd(2, 3)


def test_stratum_top_period_is_even_index():
    t = make_tuple([2, 3, 5])
    s = stratum(t, 30)
    assert s.subtuple == t
    assert s.mu_rs % 2 == 0  # all entries divide the top period
    assert s.frequency == 1


def test_stratum_rejects_non_period():
    with pytest.raises(InvalidInputError):
        stratum(make_tuple([2, 3, 5]), 7)


def test_top_stratum_index_equals_total():
    # at T = d every exponent divides T, so the floor/ceil sum collapses to
    # the total-index formula
    for entries in [(2, 3, 5), (4, 5, 9, 19), (2, 2, 3), (6, 10, 15)]:
        t = make_tuple(entries)
        assert stratum(t, t.d).mu_rs == total_rs_index(t)


@given(wide_tuples)
@settings(max_examples=60)
def test_stratum_parity(t):
    by_period = {s.period: s for s in mean_euler(t).strata}
    for T in reeb_periods(t):
        s = stratum(t, T)
        assert (s.mu_rs - (t.n + 1 - s.m_t)) % 2 == 0
        assert (s.mu_rs - s.quotient_dim // 2 - (t.n + 1)) % 2 == 0
        assert s.frequency == by_period[T].frequency


# ------------------------------------------------------- total index


def test_total_index_examples():
    assert total_rs_index(make_tuple([4, 5, 9, 19])) == -2642
    assert total_rs_index(make_tuple([2, 4, 6, 12])) == 0
    assert total_rs_index(make_tuple([2, 3, 5])) == 2


# ------------------------------------------------------- frequencies


def test_frequencies_examples():
    assert frequencies(make_tuple([2, 2, 3])) == [2, 1]  # periods 2, 6
    assert frequencies(make_tuple([2, 3, 5])) == [4, 2, 1, 1]  # periods 6, 10, 15, 30
    assert frequencies(make_tuple([36, 95])) == [1]  # the one period 3420


def test_frequencies_validation():
    # a list of periods is refused: [2, 3, 12] is not closed under lcm, and
    # the recurrence over it gave [5, 3, 1], where 4 multiples of 2 below 12
    # avoid 3 and 12
    with pytest.raises(InvalidInputError, match="ExponentTuple"):
        frequencies([2, 3, 12])
    with pytest.raises(InvalidInputError):
        frequencies((6, 10, 15, 30))


@given(wide_tuples)
@settings(max_examples=60)
def test_frequencies_match_naive_oracle(t):
    periods = subset_periods(t.entries)
    if t.d <= 10**5:
        assert frequencies(t) == naive_frequencies(periods)


@given(wide_tuples)
@settings(max_examples=60)
def test_frequencies_match_counting_kernel(t):
    # no bound on d: the inclusion-exclusion oracle covers the tuples with
    # d > 10^5 that the naive oracle above skips
    assert frequencies(t) == _inclusion_exclusion_frequencies(subset_periods(t.entries))


# ------------------------------------------------------- mean euler


def test_mean_euler_reference_tuple():
    report = mean_euler(make_tuple([4, 5, 9, 19]))
    assert report.defined
    assert report.value == Fraction(407, 2642)
    assert report.total_index == -2642
    assert report.global_sign == 1


def test_mean_euler_hand_worked_triple():
    report = mean_euler(make_tuple([2, 3, 5]))
    assert report.value == Fraction(-9, 2)
    assert [s.period for s in report.strata] == [6, 10, 15, 30]
    assert [s.frequency for s in report.strata] == [4, 2, 1, 1]
    assert [s.chi_s1 for s in report.strata] == [1, 1, 1, 2]
    assert report.global_sign == -1


def test_mean_euler_undefined():
    report = mean_euler(make_tuple([2, 4, 6, 12]))
    assert not report.defined
    assert report.value is None
    assert report.total_index == 0


def test_mean_euler_report_invariants():
    for entries in [(2, 3, 5), (4, 5, 9, 19), (2, 2, 3), (2, 2, 5, 6)]:
        report = mean_euler(make_tuple(entries))
        last = report.strata[-1]
        assert last.period == report.exponents.d
        assert last.frequency == 1
        if report.defined:
            weighted = sum(s.frequency * s.chi_s1 for s in report.strata)
            assert report.value * abs(report.total_index) == report.global_sign * weighted


def test_mean_euler_report_rejects_inconsistent_fields():
    good = mean_euler(make_tuple([2, 3, 5]))
    with pytest.raises(InvalidInputError):
        replace(good, total_index=0)  # defined, yet total index 0
    with pytest.raises(InvalidInputError):
        replace(good, value=None)  # defined, yet no value


@given(wide_tuples)
@settings(max_examples=100)
def test_mean_euler_matches_per_stratum_route(t):
    # the lattice pass against periods by a subset walk, frequencies by the
    # recurrence and one kappa call per stratum
    report, oracle = mean_euler(t), per_stratum_mean_euler(t)
    for field in fields(report):
        assert getattr(report, field.name) == getattr(oracle, field.name), field.name


@given(wide_tuples)
@settings(max_examples=100)
def test_mean_euler_sign_coherence_and_parity(t):
    # mean_euler itself raises if the per-stratum signs disagree with the
    # global prefactor; this exercises it across random tuples up to L = 8
    report = mean_euler(t)
    assert report.defined == (report.total_index != 0)
    for s in report.strata:
        assert (s.mu_rs - (t.n + 1 - s.m_t)) % 2 == 0


# -------------------------------------------------- coprime closed form


def test_coprime_closed_form_examples():
    assert mean_euler_coprime(make_tuple([4, 5, 9, 19])) == Fraction(407, 2642)
    assert mean_euler_coprime(make_tuple([2, 3, 5])) == Fraction(-9, 2)


def test_coprime_closed_form_fermat_tuple_matches_general():
    t = make_tuple([17, 257, 65537, 4294967297])
    assert mean_euler_coprime(t) == mean_euler(t).value


def test_coprime_closed_form_names_offending_pair():
    with pytest.raises(PreconditionError, match="indices 0 and 1"):
        mean_euler_coprime(make_tuple([2, 4, 6, 12]))


def test_coprime_closed_form_agrees_with_general_small():
    # oracle equivalence across lengths 3, 4, 5 with entries up to 50
    samples = [
        (2, 3, 5), (3, 4, 7), (5, 7, 9), (49, 50, 3),
        (2, 3, 5, 7), (4, 5, 9, 19), (5, 6, 11, 23), (7, 11, 13, 15),
        (2, 3, 5, 7, 11), (3, 4, 5, 7, 11), (8, 9, 25, 49, 11),
    ]
    for entries in samples:
        t = make_tuple(entries)
        assert pairwise_coprime(t)
        assert mean_euler(t).value == mean_euler_coprime(t)


def test_coprime_tuples_have_definite_sign():
    # (-1)^(n+1) * chi_m > 0 whenever the entries are pairwise coprime
    for entries in [(2, 3, 5), (2, 3, 5, 7), (3, 4, 5, 7, 11), (2, 3, 5, 7, 11, 13)]:
        t = make_tuple(entries)
        value = mean_euler(t).value
        assert (-1) ** (t.n + 1) * value > 0


# ----------------------------------------------------- connected sum


def test_connected_sum_reference_value():
    chi4 = Fraction(407, 2642)
    assert connected_sum_chi([chi4, chi4], 3) == Fraction(-507, 2642)
    assert connected_sum_chi([chi4, chi4], 3) < 0


def test_connected_sum_single_summand():
    x = Fraction(7, 10)
    assert connected_sum_chi([x], 3) == x


def test_connected_sum_commutative_and_associative():
    q, r, s = Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)
    assert connected_sum_chi([q, r], 3) == connected_sum_chi([r, q], 3)
    left = connected_sum_chi([connected_sum_chi([q, r], 3), s], 3)
    flat = connected_sum_chi([q, r, s], 3)
    assert left == flat


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_connected_sum_neutral_element(n):
    neutral = Fraction((-1) ** (n + 1), 2)
    x = Fraction(407, 2642)
    assert connected_sum_chi([x, neutral], n) == x


def test_connected_sum_validation():
    with pytest.raises(InvalidInputError):
        connected_sum_chi([], 3)
    with pytest.raises(InvalidInputError):
        connected_sum_chi([Fraction(1)], 1)


@pytest.mark.parametrize(
    "values", [[0.1, 0.2], [Fraction(1, 3), 0.5], ["1/3", Fraction(1, 3)], [None]]
)
def test_connected_sum_rejects_inexact_summands(values):
    with pytest.raises(InvalidInputError, match="exact rationals"):
        connected_sum_chi(values, 3)


def test_connected_sum_accepts_int_summands():
    result = connected_sum_chi([1, 2], 3)
    assert type(result) is Fraction and result == Fraction(5, 2)


summands = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(max_denominator=10_000),
)


@given(st.lists(summands, min_size=1, max_size=4), st.integers(min_value=2, max_value=6))
def test_connected_sum_matches_fraction_arithmetic(values, n):
    result = connected_sum_chi(values, n)
    assert type(result) is Fraction
    assert result == fraction_connected_sum(values, n)


# ------------------------------------------------- isolated exponents


def test_has_isolated_exponent_examples():
    assert has_isolated_exponent(make_tuple([4, 5, 9, 19]))
    assert not has_isolated_exponent(make_tuple([2, 4, 6, 12]))
    assert has_isolated_exponent(make_tuple([2, 2, 3]))


def test_isolated_exponent_forces_defined_invariant():
    for entries in combinations_with_replacement(range(2, 16), 4):
        t = ExponentTuple(entries)
        if has_isolated_exponent(t):
            assert total_rs_index(t) != 0, entries
