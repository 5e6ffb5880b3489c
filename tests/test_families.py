from __future__ import annotations

import math
from fractions import Fraction

import pytest

import brieskorn.families
import brieskorn.topology
from brieskorn.errors import CapacityError, InvalidInputError, PreconditionError
from brieskorn.families import (
    CHI_DENOMINATOR,
    CHI_NUMERATOR,
    DERIVATIVE_COMBINATION_COEFFS,
    closed_form_checks,
    derivative_combination,
    fermat_asymptotics_report,
    fermat_number,
    fermat_tuple,
    sigma_family_rows,
    sigma_m_closed_form,
    sigma_m_tuple,
)
from brieskorn.limits import Limits
from brieskorn.reeb import chi_m, mean_euler
from brieskorn.topology import SphereKind, evaluate_criterion, pairwise_coprime


# ------------------------------------------------------ sigma family


def test_sigma_m_tuple_values():
    assert sigma_m_tuple(4).entries == (4, 5, 9, 19)
    assert sigma_m_tuple(2).entries == (2, 3, 5, 11)
    assert sigma_m_tuple(6).entries == (6, 7, 13, 27)


def test_sigma_m_tuple_rejects_small_parameter():
    with pytest.raises(InvalidInputError):
        sigma_m_tuple(1)


def test_sigma_m_coprimality_depends_on_three():
    assert pairwise_coprime(sigma_m_tuple(4))
    t6 = sigma_m_tuple(6)
    assert not pairwise_coprime(t6)
    assert math.gcd(6, 27) == 3


def test_sigma_m_always_a_sphere():
    # the entries m+1 and 2m+1 are coprime to everything else, so every
    # parameter gives two isolated points
    for m in range(2, 40):
        v = evaluate_criterion(sigma_m_tuple(m))
        assert v.kind is SphereKind.SPHERE_BY_I, m


def test_closed_form_values():
    assert sigma_m_closed_form(4) == Fraction(407, 2642)
    assert sigma_m_closed_form(5) == Fraction(613, 7574)


def test_closed_form_rejects_multiples_of_three():
    with pytest.raises(PreconditionError):
        sigma_m_closed_form(3)


def test_closed_form_matches_general_algorithm():
    for m in range(4, 31):
        if math.gcd(m, 3) == 1:
            assert mean_euler(sigma_m_tuple(m)).value == sigma_m_closed_form(m), m


def test_closed_form_sign_breaks_below_parameter_three():
    # the denominator polynomial is negative at m = 2 (its positivity from
    # m >= 3 on is exactly what the radius-3 dominance certifies), so the
    # literal quotient differs from the true invariant there by sign
    assert sigma_m_closed_form(2) == Fraction(-121, 82)
    assert mean_euler(sigma_m_tuple(2)).value == Fraction(121, 82)


def test_family_rows_flag_multiples_of_three():
    rows = {r.parameter: r for r in sigma_family_rows(4, 9)}
    assert rows[6].closed_form is None and rows[6].agrees is None
    assert rows[6].chi_m is not None  # general algorithm still applies
    assert rows[4].agrees is True
    assert rows[4].closed_form == Fraction(407, 2642)
    # the criterion's kind alone; the rows keep no components
    assert {r.kind for r in rows.values()} == {SphereKind.SPHERE_BY_I}
    # agreement and strict decrease over the coprime rows, as verify-paper reads them
    assert closed_form_checks(sigma_family_rows(4, 50)) == (True, True)
    with pytest.raises(InvalidInputError):
        sigma_family_rows(1, 5)
    with pytest.raises(InvalidInputError):
        sigma_family_rows(5, 4)


def test_family_rows_read_their_tables_in_chunks(monkeypatch):
    # the 197 rows of verify-paper item 2 through `subset_lattices`: two
    # chunks, not one table per row
    chunks, size = [], brieskorn.topology._CHUNK_SUBSETS >> 4  # tuples per chunk at length 4
    honest = brieskorn.topology._lattice_chunk
    monkeypatch.setattr(brieskorn.topology, "_lattice_chunk",
                        lambda rows: chunks.append(list(rows)) or honest(rows))
    family = sigma_family_rows(4, 200)
    assert [len(rows) for rows in chunks] == [size, 197 - size]
    assert [entries for rows in chunks for entries in rows] == [
        r.exponents.entries for r in family]
    assert [r.parameter for r in family] == list(range(4, 201))
    assert [r.chi_m for r in family] == [chi_m(r.exponents) for r in family]


def test_derivative_combination_coefficients():
    combo = derivative_combination()
    assert combo.coeffs == DERIVATIVE_COMBINATION_COEFFS == (0, 48, 208, 80, -648, -672)
    # independent spot check at m = 2: g'h - h'g evaluated two ways
    g, h = CHI_NUMERATOR, CHI_DENOMINATOR
    direct = g.derivative().evaluate(2) * h.evaluate(2) - h.derivative().evaluate(2) * g.evaluate(2)
    assert combo.evaluate(2) == direct
    # negative for m >= 1, which makes the closed form strictly decreasing there
    assert all(combo.evaluate(m) < 0 for m in range(1, 201))


def test_first_family_value_below_one_quarter():
    assert sigma_m_closed_form(4) < Fraction(1, 4)


# ------------------------------------------------------ fermat family


def test_fermat_numbers():
    assert fermat_number(0) == 3
    assert fermat_number(2) == 17
    assert fermat_number(5) == 4294967297


def test_fermat_recursion():
    assert 3 * 5 * 17 + 2 == 257 == fermat_number(3)
    product = 1
    for k in range(8):
        f = fermat_number(k)
        if k >= 1:
            assert f == product + 2
        product *= f


def test_fermat_cap():
    with pytest.raises(CapacityError):
        fermat_number(13)
    with pytest.raises(CapacityError):
        fermat_tuple(9, 4)
    assert fermat_tuple(2, 3, Limits(fermat_cap=5)).length == 4


def test_fermat_tuple_reference():
    t = fermat_tuple(2, 3)
    assert t.entries == (17, 257, 65537, 4294967297)
    assert pairwise_coprime(t)
    assert evaluate_criterion(t).kind is SphereKind.SPHERE_BY_I


def test_fermat_tuple_computes_only_its_entries(monkeypatch):
    indices = []
    honest = brieskorn.families.fermat_number
    monkeypatch.setattr(brieskorn.families, "fermat_number",
                        lambda k, limits: indices.append(k) or honest(k, limits))
    assert fermat_tuple(4, 3).entries == tuple(fermat_number(k) for k in range(4, 8))
    assert indices == [4, 5, 6, 7]


def test_fermat_tuple_validation():
    with pytest.raises(InvalidInputError):
        fermat_tuple(-1, 3)
    with pytest.raises(InvalidInputError):
        fermat_tuple(2, 1)


def test_fermat_asymptotics_n3():
    report = fermat_asymptotics_report([2, 3, 4], 3)
    assert report.passed
    assert report.ratio_error_strictly_decreasing
    assert report.first_in_interval == 2
    assert all(r.self_sum_sign_negative for r in report.rows)
    # sign convention: n = 3 keeps the invariant itself positive
    assert all(r.chi_m > 0 and r.signed_chi == r.chi_m for r in report.rows)


def test_fermat_asymptotics_n4_sign():
    # odd prefactor: the invariant is negative, its signed version positive
    report = fermat_asymptotics_report([0, 1], 4)
    for r in report.rows:
        assert r.chi_m < 0
        assert r.signed_chi == -r.chi_m > 0


def test_fermat_asymptotics_builds_no_subset_lattice(monkeypatch):
    # chi_m is the closed form alone; verify-paper item 9 compares it with
    # the general algorithm
    chunks = []
    honest = brieskorn.topology._lattice_chunk
    monkeypatch.setattr(brieskorn.topology, "_lattice_chunk",
                        lambda rows: chunks.append(list(rows)) or honest(rows))
    report = fermat_asymptotics_report([2, 3, 4], 3)
    assert report.passed
    assert chunks == []


def test_fermat_asymptotics_validates_indices():
    with pytest.raises(InvalidInputError):
        fermat_asymptotics_report([], 3)
    with pytest.raises(InvalidInputError):
        fermat_asymptotics_report([3, 2], 3)
