"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (tolerance zero); the only inequalities are the stated
runtime budgets. Expected values are frozen from independent derivations:
hand-evaluated subset sums, the naive counting oracle in `oracles.py`, and
direct polynomial evaluation.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import jsonschema

from brieskorn.certify import certify_non_brieskorn_pairs, distinctness_classes
from brieskorn.cli import main
from brieskorn.exactarith import IntPolynomial, dominance_check, dominance_margin
from brieskorn.families import fermat_number, fermat_tuple, sigma_m_tuple
from brieskorn.reeb import (
    connected_sum_chi,
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    reeb_periods,
    total_rs_index,
)
from brieskorn.topology import ExponentTuple, SphereKind, evaluate_criterion, kappa, make_tuple
from envelope_schema import ENVELOPE_SCHEMA
from oracles import naive_frequencies

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number:>2}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _sphere_tuples_up_to(max_exponent):
    return [
        ExponentTuple(entries)
        for entries in combinations_with_replacement(range(2, max_exponent + 1), 4)
        if evaluate_criterion(ExponentTuple(entries)).is_sphere
    ]


def test_criterion_01_reference_value_both_routes():
    start = time.perf_counter()
    t = make_tuple([4, 5, 9, 19])
    general = mean_euler(t).value
    closed = mean_euler_coprime(t)
    elapsed = time.perf_counter() - start
    ok = general == Fraction(407, 2642) == closed and elapsed < 1.0
    report(
        1,
        "chi_m(4,5,9,19) = 407/2642 by the stratified and the coprime formulas",
        ok,
        f"general={general}, closed={closed}, {elapsed:.3f}s",
    )


def test_criterion_02_closed_form_agreement_and_decrease():
    start = time.perf_counter()
    g = IntPolynomial((3, 17, 21))
    h = IntPolynomial((-6, -34, -50, -8, 16))
    previous = None
    agree = True
    decreasing = True
    checked = 0
    for m in range(4, 201):
        if math.gcd(m, 3) != 1:
            continue
        value = mean_euler(sigma_m_tuple(m)).value
        if value != Fraction(g.evaluate(m), h.evaluate(m)):
            agree = False
        if previous is not None and not value < previous:
            decreasing = False
        previous = value
        checked += 1
    elapsed = time.perf_counter() - start
    ok = agree and decreasing and elapsed < 30.0
    report(
        2,
        "general algorithm matches the closed form on [4,200] and decreases",
        ok,
        f"{checked} parameters, {elapsed:.2f}s",
    )


def test_criterion_03_connected_sum_certificates():
    chi4 = mean_euler(sigma_m_tuple(4)).value
    self_sum = connected_sum_chi([chi4, chi4], 3)
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(m) for m in (4, 5, 7, 8, 10)])
    self_certs = [c for c in certs if c.tuple_a == c.tuple_b]
    partition = distinctness_classes(self_certs)
    m4 = [c for c in self_certs if c.tuple_a.entries == (4, 5, 9, 19)]
    ok = (
        self_sum == Fraction(-507, 2642)
        and self_sum < 0
        and len(m4) == 1
        and m4[0].chi_sum == Fraction(-507, 2642)
        and len(self_certs) == 5
        and len(partition.classes) == 5
    )
    report(
        3,
        "self-sum certificate -507/2642 and 5 pairwise distinct classes",
        ok,
        f"self_sum={self_sum}, classes={len(partition.classes)}",
    )


def test_criterion_04_derivative_combination_coefficients():
    g = IntPolynomial((3, 17, 21))
    h = IntPolynomial((-6, -34, -50, -8, 16))
    combo = g.derivative() * h - h.derivative() * g
    ok = combo.coeffs == (0, 48, 208, 80, -648, -672)
    report(4, "g'h - h'g has coefficients (0,48,208,80,-648,-672)", ok, str(list(combo.coeffs)))


def test_criterion_05_dominance_certificate():
    h = IntPolynomial((-6, -34, -50, -8, 16))
    head, tail = dominance_margin(h, 3)
    ok = dominance_check(h, 3) is True and (head, tail) == (1296, 774)
    report(5, "denominator dominance at radius 3 with witnesses 1296 > 774", ok, f"{head} > {tail}")


def test_criterion_06_index_parity_and_sign_coherence():
    rng = random.Random(1321)
    violations = 0
    strata_checked = 0
    for _ in range(1000):
        entries = tuple(rng.randint(2, 30) for _ in range(rng.randint(2, 6)))
        t = ExponentTuple(entries)
        rep = mean_euler(t)  # raises internally if the sign routes disagree
        for s in rep.strata:
            strata_checked += 1
            if (s.mu_rs - (t.n + 1 - s.m_t)) % 2 != 0:
                violations += 1
    ok = violations == 0
    report(
        6,
        "index parity and per-stratum/global sign coherence on 10^3 random tuples",
        ok,
        f"{strata_checked} strata checked",
    )


def test_criterion_07_positivity_over_full_enumeration():
    start = time.perf_counter()
    spheres = _sphere_tuples_up_to(20)
    bad = []
    for t in spheres:
        for idx in combinations(range(4), 3):
            if kappa(t.subtuple(idx)) != 0:
                bad.append((t.entries, idx))
        value = mean_euler(t).value
        if value is None or value <= 0:
            bad.append(t.entries)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    report(
        7,
        "all sphere 4-tuples with entries <= 20: triple kappa = 0 and chi_m > 0",
        ok,
        f"{len(spheres)} tuples, {elapsed:.2f}s",
    )


def test_criterion_08_frequency_oracle_equivalence():
    pool = [make_tuple([4, 5, 9, 19]), make_tuple([2, 3, 5])]
    pool += [sigma_m_tuple(m) for m in range(4, 201)]
    rng = random.Random(1321)
    pool += [
        ExponentTuple(tuple(rng.randint(2, 30) for _ in range(rng.randint(2, 6))))
        for _ in range(1000)
    ]
    pool += _sphere_tuples_up_to(20)
    seen = set()
    checked = 0
    mismatches = 0
    for t in pool:
        key = tuple(sorted(t.entries))
        if key in seen or t.d > 10**6:
            continue
        seen.add(key)
        periods = reeb_periods(t)
        if frequencies(t) != naive_frequencies(periods):
            mismatches += 1
        checked += 1
    ok = mismatches == 0 and checked > 0
    report(
        8,
        "subset-lattice frequencies equal the naive oracle's counts whenever d <= 10^6",
        ok,
        f"{checked} tuples",
    )


def test_criterion_09_fermat_suite():
    numbers = [fermat_number(k) for k in range(8)]
    recursion_ok = all(
        numbers[k] == math.prod(numbers[:k]) + 2 for k in range(1, 8)
    )
    verdict_ok = (
        evaluate_criterion(make_tuple([17, 257, 65537, 4294967297])).kind
        is SphereKind.SPHERE_BY_I
    )
    errors = []
    all_below_quarter = True
    sums_negative = True
    for ell in (2, 3, 4):
        t = fermat_tuple(ell, 3)
        chi = mean_euler_coprime(t)
        x = 2 ** (2**ell)
        errors.append(abs(chi * 2 * x**3 - 1))  # (-1)^(n+1) = +1 for n = 3
        if not chi < QUARTER:
            all_below_quarter = False
        if not connected_sum_chi([chi, chi], 3) < 0:
            sums_negative = False
    monotone = errors[0] > errors[1] > errors[2]
    ok = recursion_ok and verdict_ok and monotone and all_below_quarter and sums_negative
    report(
        9,
        "Fermat recursion, sphere verdict, ratio -> 1 monotonically, negative self-sums",
        ok,
        f"|ratio-1| ~ {[float(e) for e in errors]}",
    )


def test_criterion_10_isolated_exponent_definedness():
    counterexamples = [
        entries
        for entries in combinations_with_replacement(range(2, 31), 4)
        if has_isolated_exponent(ExponentTuple(entries))
        and total_rs_index(ExponentTuple(entries)) == 0
    ]
    undefined_ok = not mean_euler(make_tuple([2, 4, 6, 12])).defined
    ok = not counterexamples and undefined_ok
    report(
        10,
        "isolated exponent forces nonzero total index (entries <= 30); (2,4,6,12) undefined",
        ok,
        f"{len(counterexamples)} counterexamples",
    )


def test_criterion_11_hand_worked_cross_check():
    t = make_tuple([2, 3, 5])
    rep = mean_euler(t)
    strata = [(s.period, s.frequency) for s in rep.strata]
    ok = (
        rep.value == Fraction(-9, 2)
        and mean_euler_coprime(t) == Fraction(-9, 2)
        and strata == [(6, 4), (10, 2), (15, 1), (30, 1)]
        and rep.total_index == 2
    )
    report(
        11,
        "chi_m(2,3,5) = -9/2 both ways with strata (6:4, 10:2, 15:1, 30:1), index 2",
        ok,
        f"value={rep.value}, strata={strata}",
    )


def test_criterion_12_verify_paper_end_to_end(capsys):
    start = time.perf_counter()
    code = main(["verify-paper", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    items = envelope["result"]["items"]
    ok = (
        code == 0
        and elapsed < 60.0
        and envelope["result"]["all_passed"] is True
        and [i["item"] for i in items] == list(range(1, 12))
        and all(i["passed"] for i in items)
    )
    with capsys.disabled():
        report(
            12,
            "verify-paper runs items 1-11 end-to-end, exits 0, under 60 s",
            ok,
            f"exit={code}, {elapsed:.2f}s",
        )
