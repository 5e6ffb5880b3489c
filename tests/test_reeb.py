from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn.certify import enumerate_sphere_tuples
from brieskorn.families import fermat_tuple
from brieskorn.errors import CapacityError, InvalidInputError, PreconditionError
from brieskorn import reeb, topology
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.reeb import (
    Stratum,
    _build_strata,
    _chi_numerator,
    chi_m,
    connected_sum_chi,
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    total_rs_index,
)
from brieskorn.topology import (
    ExponentTuple,
    chi_s1,
    kappa,
    make_tuple,
    pairwise_coprime,
    subset_lattice,
)
from brieskorn.verify import _recurrence_frequencies
from oracles import (
    alternating_kappa,
    brieskorn_pham_kappa,
    fraction_connected_sum,
    loop_build_strata,
    naive_frequencies,
    pairwise_isolated_exponent,
    per_stratum_mean_euler,
    sign_coherence,
    subset_periods,
)

wide_tuples = st.lists(
    st.integers(min_value=2, max_value=30), min_size=2, max_size=8
).map(lambda xs: ExponentTuple(tuple(xs)))


def periods(t):
    return [s.period for s in mean_euler(t).strata]


def stratum(t, T):
    # the stratum of period T among those mean_euler builds
    return next(s for s in mean_euler(t).strata if s.period == T)


# ----------------------------------------------------------- periods


def test_periods_examples():
    assert periods(make_tuple([2, 2, 3])) == [2, 6]
    assert periods(make_tuple([2, 3, 5])) == [6, 10, 15, 30]
    assert periods(make_tuple([4, 5, 9, 19])) == [
        20, 36, 45, 76, 95, 171, 180, 380, 684, 855, 3420,
    ]


@given(wide_tuples)
def test_periods_end_at_d_and_divide_it(t):
    ps = periods(t)
    assert ps[-1] == t.d
    assert all(t.d % p == 0 for p in ps)
    assert ps == sorted(set(ps))
    assert ps == subset_periods(t.entries)


# ------------------------------------------------------ subset lattice


@given(
    st.lists(st.integers(min_value=2, max_value=12), min_size=2, max_size=5).filter(
        lambda xs: math.prod(x - 1 for x in xs) <= 20_000
    )
)
def test_lattice_kappa_matches_both_routes_on_every_subtuple(entries):
    # the bounds of test_kappa_matches_brieskorn_pham_count
    kap = subset_lattice(ExponentTuple(tuple(entries)), DEFAULT_LIMITS)[2]
    for J in range(1 << len(entries)):
        sub = [e for j, e in enumerate(entries) if J >> j & 1]
        assert kap[J] == alternating_kappa(sub) == brieskorn_pham_kappa(sub), sub


def test_lattice_cap_fails_before_allocating(monkeypatch):
    # 17 entries against a cap of 16: each table would hold 2^17 entries,
    # over 1 MB, so the peak of a check made after allocating shows. The
    # shared positions table starts empty, so growing it (about 0.18 MB)
    # before the cap check would show too
    monkeypatch.setattr(reeb, "_POSITIONS", [()])
    limits = Limits(subset_cap=16)
    t = ExponentTuple(tuple(range(2, 19)))
    calls = {
        "frequencies": lambda: frequencies(t, limits),
        "mean_euler": lambda: mean_euler(t, limits),
        "chi_m": lambda: chi_m(t, limits),
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
    assert reeb._POSITIONS == [()]


@pytest.mark.parametrize(
    "reader",
    [frequencies, mean_euler, kappa, chi_s1, chi_m],
    ids=["frequencies", "mean_euler", "kappa", "chi_s1", "chi_m"],
)
def test_lattice_readers_refuse_a_plain_list(reader):
    # refused before `entries` or `length` is read, in the lattice's words
    with pytest.raises(InvalidInputError, match="takes an ExponentTuple, got list"):
        reader([2, 3, 5, 7])


# ------------------------------------------------------------ strata


def test_stratum_reference_values():
    t = make_tuple([4, 5, 9, 19])
    s = stratum(t, 20)
    assert t.subtuple(s.indices).entries == (4, 5)
    assert s.indices == (0, 1)
    assert (s.m_t, 2 * s.m_t - 3, 2 * s.m_t - 4) == (2, 1, 0)
    assert s.mu_rs == -14  # (5+5) + (4+4) + (2+3) + (1+2) - 40
    assert s.chi_s1 == 1
    assert s.frequency == 144  # naive count of multiples of 20 below 3420


def test_stratum_small_triple():
    t = make_tuple([2, 3, 5])
    s = stratum(t, 6)
    assert t.subtuple(s.indices).entries == (2, 3)
    assert s.mu_rs == 1  # (3+3) + (2+2) + (1+2) - 12
    assert s.chi_s1 == 1  # gcd(2, 3)


def test_stratum_top_period_is_even_index():
    t = make_tuple([2, 3, 5])
    s = stratum(t, 30)
    assert t.subtuple(s.indices) == t
    assert s.mu_rs % 2 == 0  # all entries divide the top period
    assert s.frequency == 1


def test_top_stratum_index_equals_total():
    # at T = d every exponent divides T, so the floor/ceil sum collapses to
    # the total-index formula
    for entries in [(2, 3, 5), (4, 5, 9, 19), (2, 2, 3), (6, 10, 15)]:
        t = make_tuple(entries)
        assert stratum(t, t.d).mu_rs == total_rs_index(t)


def test_stratum_is_an_immutable_record_with_fixed_field_order():
    assert Stratum._fields == ("period", "indices", "m_t", "mu_rs", "chi_s1", "frequency")
    s = stratum(make_tuple([2, 3, 5]), 6)
    with pytest.raises(AttributeError):
        s.mu_rs = 0
    assert s == (6, (0, 1), 2, 1, 1, 4)
    assert hash(s) == hash(tuple(s))


@given(wide_tuples)
@settings(max_examples=60)
def test_stratum_parity(t):
    strata = mean_euler(t).strata
    assert [s.period for s in strata] == subset_periods(t.entries)
    for s in strata:
        assert (s.mu_rs - (t.n + 1 - s.m_t)) % 2 == 0
        assert (s.mu_rs - (2 * s.m_t - 4) // 2 - (t.n + 1)) % 2 == 0


def assert_builds_like_the_loop(t):
    # `_build_strata` reads the same records as the row-by-row oracle, each
    # an exact `Stratum`, with strictly increasing periods, and its numerator
    # is the lattice sum
    lattice = subset_lattice(t, DEFAULT_LIMITS)
    strata, numerator = _build_strata(t, lattice)
    assert strata == loop_build_strata(t, lattice)
    assert numerator == _chi_numerator(lattice)
    assert all(type(s) is Stratum for s in strata)
    assert all(s.period < r.period for s, r in zip(strata, strata[1:]))


@pytest.mark.parametrize("length", range(2, 13))
def test_strata_builder_matches_the_row_loop_at_every_length(length):
    # entries up to 60 repeat and share factors, so many subsets are not
    # closed; the repeated entry is the degenerate case of one closed subset
    rng = random.Random(length)
    for entries in (
        [rng.randint(2, 60) for _ in range(length)],
        [rng.choice((6, 10, 15, 12)) for _ in range(length)],
        [6] * length,
    ):
        assert_builds_like_the_loop(ExponentTuple(tuple(entries)))


@pytest.mark.parametrize(
    "t",
    [
        make_tuple((4, 5, 9, 19)),
        make_tuple((2, 3, 5)),
        make_tuple((2, 3, 5, 7, 11, 13, 17, 19, 23, 29)),
        fermat_tuple(2, 3),
    ],
    ids=["sigma4", "2-3-5", "first-ten-primes", "F2-F5"],
)
def test_strata_builder_matches_the_row_loop_on_the_anchors(t):
    assert_builds_like_the_loop(t)


# entries up to 10^12, many of them multiples of 60, so that the periods run
# to dozens of digits and many subsets are not closed
large_entries = st.one_of(st.integers(min_value=2, max_value=10**12),
                          st.integers(min_value=1, max_value=10**10).map(lambda k: 60 * k))


@given(st.lists(large_entries, min_size=2, max_size=6).map(lambda xs: ExponentTuple(tuple(xs))))
@settings(max_examples=60, deadline=None)
def test_strata_builder_matches_the_row_loop_on_large_entries(t):
    assert_builds_like_the_loop(t)
    assert mean_euler(t).value == chi_m(t)


def test_robbin_salamon_index_divides_the_period_and_reads_no_subset():
    # (2, 4, 3) with a frequency planted at J = 0b110, a subset that is not
    # closed: its lcm 12 is the top period, which all three entries divide,
    # so the builder makes a stratum of m_t = 2 there. Its index comes from
    # the period alone, with the parity of L - 3, not of L - m_t
    t = make_tuple((2, 4, 3))
    lcm, freq, kap = subset_lattice(t, DEFAULT_LIMITS)
    freq = freq[:]
    freq[0b110] = 1
    strata, _ = _build_strata(t, (lcm, freq, kap))
    [planted] = [s for s in strata if s.indices == (1, 2)]
    assert (planted.period, planted.m_t) == (12, 2)
    assert planted.mu_rs == total_rs_index(t)
    assert (planted.mu_rs - (t.n + 1 - planted.m_t)) % 2 == 1


def test_strata_builds_in_any_order_of_lengths_read_one_positions_table(monkeypatch):
    # from an empty table, lengths that grow it, read a prefix of it and
    # double on past it (12 and 14), in that order and reversed, so that the
    # table also grows from part way: a stale or mis-grown table gives some
    # build the wrong `indices`
    rng = random.Random(36)
    lengths = (12, 3, 14, 6, 2, 11, 4)
    for order in (lengths, lengths[::-1]):
        monkeypatch.setattr(reeb, "_POSITIONS", [()])
        for length in order:
            t = ExponentTuple(tuple(rng.randint(2, 40) for _ in range(length)))
            lattice = subset_lattice(t, DEFAULT_LIMITS)
            assert _build_strata(t, lattice)[0] == loop_build_strata(t, lattice), order


def test_the_positions_table_holds_2048_subsets_after_a_longer_tuple(monkeypatch):
    monkeypatch.setattr(reeb, "_POSITIONS", [()])
    mean_euler(ExponentTuple(tuple(range(2, 16))))  # 14 entries
    assert len(reeb._POSITIONS) == 2**11 == topology._CHUNK_SUBSETS
    assert reeb._POSITIONS == [tuple(j for j in range(11) if J >> j & 1) for J in range(2**11)]


def test_reports_of_one_length_share_their_indices():
    # both tuples are pairwise coprime, so every subset of two or more
    # positions is a stratum of each, at periods in different orders
    first = {s.indices: s.indices for s in mean_euler(make_tuple((2, 3, 5, 7, 11))).strata}
    second = mean_euler(make_tuple((13, 4, 9, 25, 7))).strata
    assert len(first) == len(second) == 26
    assert all(first[s.indices] is s.indices for s in second)


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
@settings(max_examples=60, deadline=None)
def test_frequencies_match_naive_oracle(t):
    periods = subset_periods(t.entries)
    if t.d <= 10**5:
        assert frequencies(t) == naive_frequencies(periods)


@given(wide_tuples)
@settings(max_examples=60)
def test_frequencies_match_the_recurrence(t):
    # no bound on d: the period recurrence covers the tuples with d > 10^5
    # that the naive oracle above skips
    assert frequencies(t) == _recurrence_frequencies(subset_periods(t.entries))


# ------------------------------------------------------- mean euler


def test_mean_euler_reference_tuple():
    report = mean_euler(make_tuple([4, 5, 9, 19]))
    assert report.value == Fraction(407, 2642)
    assert report.total_index == -2642


def test_mean_euler_hand_worked_triple():
    report = mean_euler(make_tuple([2, 3, 5]))
    assert report.value == Fraction(-9, 2)
    assert [s.period for s in report.strata] == [6, 10, 15, 30]
    assert [s.frequency for s in report.strata] == [4, 2, 1, 1]
    assert [s.chi_s1 for s in report.strata] == [1, 1, 1, 2]


def test_mean_euler_undefined():
    report = mean_euler(make_tuple([2, 4, 6, 12]))
    assert report.value is None
    assert report.total_index == 0


def test_mean_euler_report_invariants():
    for entries in [(2, 3, 5), (4, 5, 9, 19), (2, 2, 3), (2, 2, 5, 6)]:
        t = make_tuple(entries)
        report = mean_euler(t)
        last = report.strata[-1]
        assert last.period == t.d
        assert last.frequency == 1
        if report.value is not None:
            weighted = sum(s.frequency * s.chi_s1 for s in report.strata)
            sign = (-1) ** (t.n + 1)
            assert report.value * abs(report.total_index) == sign * weighted


@given(wide_tuples)
@settings(max_examples=100)
def test_mean_euler_matches_per_stratum_route(t):
    # the lattice pass against periods by a subset walk, frequencies by the
    # recurrence and one kappa call per stratum
    report, oracle = mean_euler(t), per_stratum_mean_euler(t)
    for field in report._fields:
        assert getattr(report, field) == getattr(oracle, field), field


def test_chi_m_is_the_mean_euler_value_on_every_sphere_with_entries_to_20():
    # the lattice sum against the value of mean_euler, and against the sum
    # over its strata with the per-stratum signs, on each of these spheres
    spheres = enumerate_sphere_tuples(20)
    assert len(spheres) == 2830
    for t in spheres:
        report = mean_euler(t)
        assert chi_m(t) == report.value, t
        stratified, lattice = sign_coherence(t, report)
        assert stratified == lattice, t


@given(wide_tuples)
@settings(max_examples=100)
def test_chi_m_is_the_mean_euler_value(t):
    assert chi_m(t) == mean_euler(t).value


def test_chi_m_is_none_where_the_total_index_is_zero():
    t = make_tuple([2, 4, 6, 12])
    assert chi_m(t) is None
    assert chi_m(make_tuple([4, 5, 9, 19])) == Fraction(407, 2642)


@given(wide_tuples)
@settings(max_examples=100)
def test_mean_euler_sign_coherence_and_parity(t):
    # the sum over the strata with the per-stratum signs against the lattice
    # sum with the global prefactor, across random tuples up to L = 8
    report = mean_euler(t)
    stratified, lattice = sign_coherence(t, report)
    assert stratified == lattice
    assert (report.value is None) == (report.total_index == 0)
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


@given(wide_tuples)
def test_isolated_exponent_matches_pairwise_definition(t):
    assert has_isolated_exponent(t) == pairwise_isolated_exponent(t.entries)


def test_isolated_exponent_forces_defined_invariant():
    for entries in combinations_with_replacement(range(2, 16), 4):
        t = ExponentTuple(entries)
        if has_isolated_exponent(t):
            assert total_rs_index(t) != 0, entries
