from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn
from brieskorn.certify import (
    CONCLUSION,
    PAIR_BUDGET,
    SEARCH_BUDGET,
    NonBrieskornCertificate,
    certify_non_brieskorn_pairs,
    distinctness_classes,
    enumerate_sphere_tuples,
    iter_certificates,
    read_certificates,
    sphere_chi,
    write_certificates,
)
from brieskorn.errors import (
    CapacityError,
    CertificateFormatError,
    InvalidInputError,
    PreconditionError,
)
from brieskorn.families import sigma_m_tuple
from brieskorn.limits import DEFAULT_LIMITS
from brieskorn.reeb import _chi_m, _chi_numerator, connected_sum_chi, mean_euler, total_rs_index
from brieskorn.topology import (
    ExponentTuple,
    evaluate_criterion,
    make_tuple,
    subset_lattice,
    subset_lattices,
)
from oracles import (
    canonical_read_certificates,
    certificate_to_obj,
    filtered_sphere_tuples,
    json_dumps_lines,
    per_field_read_certificates,
)

HALF = Fraction(1, 2)


# ------------------------------------------------------- enumeration


def test_enumerate_small_membership():
    spheres = enumerate_sphere_tuples(5)
    entries = {t.entries for t in spheres}
    assert (2, 3, 4, 5) in entries  # isolated points 3 and 5
    assert (2, 2, 2, 3) in entries  # even-component route
    assert (2, 2, 2, 2) not in entries


def test_enumerate_max_exponent_two():
    assert enumerate_sphere_tuples(2) == []


def test_enumerate_is_sorted_and_canonical():
    spheres = enumerate_sphere_tuples(8)
    keys = [t.entries for t in spheres]
    assert keys == sorted(keys)
    assert all(t.entries == tuple(sorted(t.entries)) for t in spheres)


def test_enumerate_budget():
    # C(72, 4) candidates at A = 70; A = 69 is the largest search in budget
    assert SEARCH_BUDGET == 10**6
    with pytest.raises(CapacityError, match=r"^search space holds 1028790 candidate tuples, "
                                            r"exceeding the budget of 1000000$"):
        enumerate_sphere_tuples(70)


def test_enumerate_budget_comes_before_any_work(monkeypatch):
    # no table and no mask before the budget is checked: the prefix masks read
    # `gcd_masks` and a table of the pairs with gcd 2, built with `math.gcd`
    monkeypatch.setattr("brieskorn.certify.SEARCH_BUDGET", 494)
    monkeypatch.setattr("brieskorn.certify.math", SimpleNamespace(comb=math.comb))
    monkeypatch.setattr("brieskorn.certify.gcd_masks", None)
    with pytest.raises(CapacityError, match="495 candidate"):
        enumerate_sphere_tuples(10)


def test_enumerate_budget_admits_a_search_space_of_its_size(monkeypatch):
    # the 495 candidates at A = 10 fit a budget of 495
    expected = enumerate_sphere_tuples(10)
    monkeypatch.setattr("brieskorn.certify.SEARCH_BUDGET", 495)
    assert enumerate_sphere_tuples(10) == expected


@pytest.mark.parametrize("max_exponent", [*range(2, 17), 20, 24])
def test_enumerate_matches_the_filtered_oracle(max_exponent):
    # the prefix masks against every sorted 4-tuple put through the
    # set-based criterion
    assert enumerate_sphere_tuples(max_exponent) == filtered_sphere_tuples(max_exponent)


@pytest.mark.parametrize("max_exponent, count", [(19, 2530), (25, 6972), (30, 13736), (40, 43480)])
def test_enumerate_sphere_counts(max_exponent, count):
    assert len(enumerate_sphere_tuples(max_exponent)) == count


def test_enumerate_follows_the_three_sphere_shapes_at_40():
    # On 4 entries (i), two isolated points, leaves at most one edge: four
    # isolated points or two. (ii) needs an odd component of even entries of
    # size > 1, so three, and an isolated point, the odd fourth entry.
    shapes = {}
    for t in enumerate_sphere_tuples(40):
        verdict = evaluate_criterion(t)
        shape = verdict.kind.value, len(verdict.isolated_points)
        shapes[shape] = shapes.get(shape, 0) + 1
    assert shapes == {("SPHERE_BY_I", 4): 8282, ("SPHERE_BY_I", 2): 30318,
                      ("SPHERE_BY_II", 1): 4880}


# Why chi_m > 0 on every 5-dimensional sphere (README, "Why every summand has
# chi_m > 0"): step (a) is the shape test above, and steps (b)-(d) follow.


@given(st.tuples(*[st.integers(min_value=2, max_value=10**6)] * 3))
def test_a_triple_has_the_rank_of_its_pairwise_gcds(triple):
    # step (b): abc / lcm(a, b, c) = g_ab g_bc g_ca / g_abc, by comparing the
    # p-adic valuations, so Milnor-Orlik's rank of a triple is read off its gcds
    a, b, c = triple
    g_ab, g_bc, g_ca, g_abc = math.gcd(a, b), math.gcd(b, c), math.gcd(c, a), math.gcd(a, b, c)
    assert g_ab * g_bc * g_ca % g_abc == 0
    quotient = g_ab * g_bc * g_ca // g_abc
    assert a * b * c // math.lcm(a, b, c) == quotient
    kappa = subset_lattice(ExponentTuple(triple), DEFAULT_LIMITS)[2][-1]
    assert kappa == 2 - (g_ab + g_bc + g_ca) + quotient


def test_every_sphere_to_30_has_a_numerator_of_3_plus_nonnegative_terms():
    # steps (c)-(d) on all 13,736 spheres with entries <= 30, one lattice pass:
    # kappa is 0 on the four triples and on the whole tuple, so a pair
    # stratum has chi_S1 = gcd, a triple stratum 2 and the top one 3 with
    # frequency 1; the numerator is 3 plus nonnegative terms, and the total
    # index is nonzero, so chi_m >= 3 / |total index| > 0
    triples = (0b0111, 0b1011, 0b1101, 0b1110)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    spheres = enumerate_sphere_tuples(30)
    assert len(spheres) == 13736
    for t, lattice in zip(spheres, subset_lattices(spheres, DEFAULT_LIMITS)):
        _, freq, kap = lattice
        e = t.entries
        assert [kap[J] for J in triples] == [0] * 4 and kap[0b1111] == 0, e
        assert freq[0b1111] == 1, e
        numerator = _chi_numerator(lattice)
        assert numerator == (3 + sum(freq[1 << i | 1 << j] * math.gcd(e[i], e[j]) for i, j in pairs)
                             + 2 * sum(freq[J] for J in triples)), e
        assert numerator >= 3, e
        total = total_rs_index(t)
        assert total != 0, e
        assert _chi_m(t, lattice) == Fraction(numerator, abs(total)) > 0, e


def test_enumerated_spheres_have_positive_invariant():
    for t in enumerate_sphere_tuples(12):
        value = mean_euler(t).value
        assert value is not None and value > 0, t.entries


# ------------------------------------------------------ certificates


def test_self_pair_certificate():
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4)])
    assert len(certs) == 1
    cert = certs[0]
    assert cert.tuple_a == cert.tuple_b == make_tuple([4, 5, 9, 19])
    assert cert.chi_sum == Fraction(-507, 2642)
    assert cert.dimension == 5
    assert not cert.boundary
    assert cert.conclusion == CONCLUSION


def test_mixed_pair_certificate():
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4), sigma_m_tuple(5)])
    assert len(certs) == 3  # both self-pairs and the mixed pair
    mixed = [c for c in certs if c.tuple_a != c.tuple_b]
    assert len(mixed) == 1
    expected = Fraction(407, 2642) + Fraction(613, 7574) - HALF
    assert mixed[0].chi_sum == expected < 0


def test_large_invariants_yield_no_certificate():
    # both values exceed 1/4, so the sum stays positive
    pair = [make_tuple([2, 2, 2, 3]), make_tuple([2, 2, 2, 5])]
    assert mean_euler(pair[0]).value == Fraction(7, 10)
    assert mean_euler(pair[1]).value == Fraction(11, 14)
    assert certify_non_brieskorn_pairs(pair) == []


def test_zero_sum_is_a_boundary_certificate(monkeypatch):
    # the search up to 12 has no pair summing to exactly 0, so stub the
    # invariants: 1/4 + 1/4 - 1/2 = 0 is certified, 1/12 and 1/6 are not
    quarter, third = make_tuple([2, 2, 2, 3]), make_tuple([2, 2, 2, 5])
    chi = {quarter.entries: Fraction(1, 4), third.entries: Fraction(1, 3)}
    monkeypatch.setattr(
        "brieskorn.certify.mean_euler",
        lambda t, limits: SimpleNamespace(defined=True, value=chi[t.entries]),
    )
    certs = certify_non_brieskorn_pairs([quarter, third])
    assert len(certs) == 1
    cert = certs[0]
    assert cert.tuple_a == cert.tuple_b == quarter
    assert cert.chi_sum == 0
    assert cert.boundary is True


def test_certify_canonicalizes_and_deduplicates():
    certs = certify_non_brieskorn_pairs(
        [make_tuple([19, 9, 5, 4]), sigma_m_tuple(4)]
    )
    assert len(certs) == 1
    assert certs[0].tuple_a.entries == (4, 5, 9, 19)


def test_pair_budget_counts_distinct_tuples_before_any_chi_m(monkeypatch):
    # two permutations of one tuple make one pair; a second tuple makes three
    assert PAIR_BUDGET == 25 * 10**6
    monkeypatch.setattr("brieskorn.certify.PAIR_BUDGET", 1)
    assert len(certify_non_brieskorn_pairs([make_tuple([19, 9, 5, 4]), sigma_m_tuple(4)])) == 1
    monkeypatch.setattr("brieskorn.certify.sphere_chi", None)
    with pytest.raises(CapacityError, match=r"^2 distinct sphere tuples make 3 pairs, "
                                            r"exceeding the budget of 1$"):
        certify_non_brieskorn_pairs([sigma_m_tuple(4), make_tuple([2, 2, 2, 2])])


def test_certify_rejects_wrong_length():
    with pytest.raises(PreconditionError):
        certify_non_brieskorn_pairs([make_tuple([2, 3, 5])])


def test_certify_rejects_non_sphere():
    with pytest.raises(PreconditionError):
        certify_non_brieskorn_pairs([make_tuple([2, 2, 2, 2])])


def test_sphere_chi_checks_length_then_verdict_then_chi_m(monkeypatch):
    assert sphere_chi(make_tuple([4, 5, 9, 19]), "t") == Fraction(407, 2642)
    with pytest.raises(PreconditionError, match=r"^t \(2, 3, 8, 8\) is not a sphere tuple "
                       r"\(NOT_SPHERE\)$"):
        sphere_chi(make_tuple([2, 3, 8, 8]), "t")
    # a long tuple is refused before the criterion or the lattice sees it
    monkeypatch.setattr("brieskorn.certify.sphere_kind", None)
    monkeypatch.setattr("brieskorn.certify.mean_euler", None)
    with pytest.raises(PreconditionError,
                       match="^t has 30 entries, but a 5-dimensional sphere needs 4$"):
        sphere_chi(make_tuple([4] * 30), "t")


def test_pair_search_refuses_a_summand_with_undefined_chi_m(monkeypatch):
    # no sphere has total index 0 (each has an isolated exponent), so stub chi_m
    monkeypatch.setattr(
        "brieskorn.certify.mean_euler",
        lambda t, limits: SimpleNamespace(defined=False, value=None),
    )
    with pytest.raises(PreconditionError,
                       match=r"^tuples\[0\] \(4, 5, 9, 19\) has no chi_m \(total index 0\)$"):
        certify_non_brieskorn_pairs([make_tuple([19, 9, 5, 4])])


def test_certificate_completeness_small_scan():
    # independent quadratic re-scan: nothing below the threshold is missed
    spheres = enumerate_sphere_tuples(12)
    certs = certify_non_brieskorn_pairs(spheres)
    emitted = {(c.tuple_a.entries, c.tuple_b.entries) for c in certs}
    chi = {t.entries: mean_euler(t).value for t in spheres}
    expected = set()
    for i, a in enumerate(spheres):
        for b in spheres[i:]:
            if chi[a.entries] + chi[b.entries] - HALF <= 0:
                expected.add((a.entries, b.entries))
    assert emitted == expected
    for c in certs:
        assert c.chi_sum == c.chi_a + c.chi_b - HALF <= 0
        assert c.chi_sum == connected_sum_chi([c.chi_a, c.chi_b], 3)


# ------------------------------------------------------- distinctness


def test_distinctness_of_family_self_sums():
    tuples = [sigma_m_tuple(m) for m in (4, 5, 7, 8)]
    certs = certify_non_brieskorn_pairs(tuples)
    self_certs = [c for c in certs if c.tuple_a == c.tuple_b]
    classes = distinctness_classes(self_certs)
    assert len(classes) == 4
    assert not any(cls.inconclusive for cls in classes)
    values = [cls.chi_sum for cls in classes]
    assert values == sorted(values)


def test_distinctness_merges_identical_certificates():
    cert = certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0]
    classes = distinctness_classes([cert, cert])
    assert len(classes) == 1
    assert not classes[0].inconclusive


def test_distinctness_flags_equal_values_from_different_pairs():
    a = NonBrieskornCertificate(
        tuple_a=make_tuple([2, 3, 5, 7]),
        tuple_b=make_tuple([2, 3, 5, 7]),
        chi_a=Fraction(1, 8),
        chi_b=Fraction(1, 8),
        chi_sum=Fraction(-1, 4),
        boundary=False,
    )
    b = NonBrieskornCertificate(
        tuple_a=make_tuple([2, 3, 5, 11]),
        tuple_b=make_tuple([2, 3, 5, 11]),
        chi_a=Fraction(1, 16),
        chi_b=Fraction(3, 16),
        chi_sum=Fraction(-1, 4),
        boundary=False,
    )
    classes = distinctness_classes([a, b])
    assert len(classes) == 1
    assert classes[0].inconclusive


# ------------------------------------------------------- persistence


def test_round_trip(tmp_path):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4), sigma_m_tuple(5)])
    path = tmp_path / "certs.jsonl"
    write_certificates(certs, path)
    assert read_certificates(path) == certs


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_certificates(path) == []


def test_malformed_line_cites_line_number(tmp_path):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4)])
    path = tmp_path / "bad.jsonl"
    write_certificates(certs, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[0], "{not json"]) + "\n")
    with pytest.raises(CertificateFormatError, match="line 3"):
        read_certificates(path)


def test_missing_field_cites_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tuple_a": ["4","5","9","19"]}\n')
    with pytest.raises(CertificateFormatError, match="line 1"):
        read_certificates(path)


def _tampered_self_pair(tmp_path, **fields):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4)])
    obj = certificate_to_obj(certs[0])
    obj.update(fields)
    path = tmp_path / "tampered.jsonl"
    path.write_text(_lines(obj))
    return path


@pytest.mark.parametrize(
    "fields",
    [
        {"chi_sum": {"num": "5", "den": "1"}},
        {"boundary": True},
        {"chi_a": {"num": "1", "den": "1"}, "chi_b": {"num": "1", "den": "1"},
         "chi_sum": {"num": "3", "den": "2"}},
        {"tuple_a": ["2", "3"]},
        {"conclusion": "this sum is a Brieskorn sphere"},
    ],
)
def test_inconsistent_certificate_cites_line_number(tmp_path, fields):
    path = _tampered_self_pair(tmp_path, **fields)
    with pytest.raises(CertificateFormatError, match="line 1"):
        read_certificates(path)


def test_inconsistent_certificate_rejected_under_optimize(tmp_path):
    # `python -O` strips asserts; the validation must not depend on them.
    path = _tampered_self_pair(tmp_path, chi_sum={"num": "5", "den": "1"})
    script = (
        "import sys\n"
        "from brieskorn.certify import read_certificates\n"
        "from brieskorn.errors import CertificateFormatError\n"
        "try:\n"
        "    read_certificates(sys.argv[1])\n"
        "except CertificateFormatError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    # the line is canonical, so it reaches the constructor's arithmetic check
    assert proc.stdout.strip() == "line 1: chi_sum 5 != chi_a + chi_b - 1/2 = -507/2642"


# one tampered value per field of the reference line, each outside the file contract
TAMPERED_FIELDS = {
    "tuple_a": ["4", "5", "9"],
    "tuple_b": ["4", "5", "9", "1"],
    "chi_a": {"num": "408", "den": "2642"},
    "chi_b": {"num": "407", "den": "2641"},
    "chi_sum": {"num": "-506", "den": "2642"},
    "dimension": 7,
    "boundary": True,
    "conclusion": "connected sum is a Brieskorn contact structure",
}


def test_tampered_fields_cover_the_certificate():
    assert tuple(TAMPERED_FIELDS) == tuple(certificate_to_obj(
        certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0]))


@pytest.mark.parametrize("field", TAMPERED_FIELDS)
def test_each_tampered_field_is_rejected_with_its_line_number(tmp_path, field):
    # the reference self-pair of (4, 5, 9, 19) on three lines, the middle one tampered
    reference = certificate_to_obj(certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0])
    tampered = {**reference, field: TAMPERED_FIELDS[field]}
    path = tmp_path / "tampered.jsonl"
    path.write_text(_lines(reference, tampered, reference))
    with pytest.raises(CertificateFormatError, match="line 2") as info:
        read_certificates(path)
    assert info.value.line_number == 2
    assert _outcome(read_certificates, path) == _outcome(canonical_read_certificates, path)


@pytest.mark.parametrize("side", ["tuple_a", "tuple_b"])
@pytest.mark.parametrize("entries", [["2", "2", "2", "2"], ["2", "4", "6", "12"]])
def test_a_tuple_that_is_not_a_sphere_is_rejected_with_its_line_number(tmp_path, side, entries):
    # the chi fields stay those of the reference line, so only the verdict
    # re-derived from the tuple can reject it
    reference = certificate_to_obj(certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0])
    tampered = {**reference, side: entries}
    path = tmp_path / "tampered.jsonl"
    path.write_text(_lines(reference, tampered))
    with pytest.raises(CertificateFormatError, match="line 2: .* is not a sphere tuple "
                       r"\(NOT_SPHERE\)") as info:
        read_certificates(path)
    assert info.value.line_number == 2


# chi values that satisfy every arithmetic check of a line, but are not chi_m of its tuple
FORGED_CHI = {"chi_a": {"num": "1", "den": "8"}, "chi_b": {"num": "1", "den": "8"},
              "chi_sum": {"num": "-1", "den": "4"}}


def test_a_consistent_forged_chi_is_rejected_with_its_line_number(tmp_path):
    # chi_a + chi_b - 1/2 = chi_sum <= 0 holds, and chi_m of (4, 5, 9, 19) is 407/2642
    reference = certificate_to_obj(certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0])
    forged = {**reference, **FORGED_CHI}
    NonBrieskornCertificate(sigma_m_tuple(4), sigma_m_tuple(4), Fraction(1, 8), Fraction(1, 8),
                            Fraction(-1, 4), boundary=False)  # a valid certificate object
    path = tmp_path / "forged.jsonl"
    path.write_text(_lines(reference, forged, reference))
    with pytest.raises(CertificateFormatError, match=r"line 2: chi_a 1/8 is not chi_m "
                       r"407/2642 of \(4, 5, 9, 19\)") as info:
        read_certificates(path)
    assert info.value.line_number == 2
    path.write_text(_lines(reference, {**reference, "chi_b": FORGED_CHI["chi_b"],
                                       "chi_sum": {"num": "-2335", "den": "10568"}}))
    with pytest.raises(CertificateFormatError, match="line 2: chi_b 1/8 is not chi_m"):
        read_certificates(path)


# each non-canonical integer text, in a field where its value would be valid
NON_CANONICAL_INTEGERS = {
    "spaced": (["tuple_a", 0], " 4 "),
    "plus": (["tuple_a", 0], "+4"),
    "underscore": (["tuple_a", 3], "1_9"),
    "leading_zero": (["tuple_a", 0], "04"),
    "arabic_indic_digit": (["tuple_a", 0], "\u0664"),
    "minus_zero": (["chi_sum", "num"], "-0"),  # on a boundary line, where chi_sum is 0
}


@pytest.mark.parametrize("form", NON_CANONICAL_INTEGERS)
def test_a_non_canonical_integer_is_rejected_with_its_line_number(tmp_path, form):
    # chi_m is 17/47 for (4, 7, 12, 19) and 13/94 for (7, 11, 12, 18): a sum of 0
    pair = certify_non_brieskorn_pairs([make_tuple([4, 7, 12, 19]), make_tuple([7, 11, 12, 18])])
    boundary = certificate_to_obj(next(c for c in pair if c.boundary))
    reference = certificate_to_obj(certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0])
    field, text = NON_CANONICAL_INTEGERS[form]
    base = boundary if form == "minus_zero" else reference
    path = tmp_path / "certs.jsonl"
    path.write_text(_lines(base, _with(base, field, text)), encoding="utf-8")
    # int() reads each of them, so only the comparison with the writer's line refuses it
    with pytest.raises(CertificateFormatError,
                       match="not the line `certificate_lines` writes for it") as info:
        read_certificates(path)
    assert info.value.line_number == 2


def test_a_byte_that_is_not_utf8_is_rejected_with_its_line_number(tmp_path):
    line = json_dumps_lines(certify_non_brieskorn_pairs([sigma_m_tuple(4)])).encode()
    path = tmp_path / "certs.jsonl"
    for bad in (line.replace(b'"4"', b'"\xff"', 1), b"\xff" + line):
        path.write_bytes(line + bad + line)
        with pytest.raises(CertificateFormatError, match="line 2") as info:
            read_certificates(path)
        assert info.value.line_number == 2


def test_writes_are_deterministic(tmp_path):
    certs = certify_non_brieskorn_pairs(enumerate_sphere_tuples(9))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_certificates(certs, p1)
    write_certificates(certs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_a_failed_write_leaves_the_old_file(tmp_path):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4)])
    path = tmp_path / "certs.jsonl"
    path.write_text("old content")
    with pytest.raises(AttributeError):
        write_certificates(certs + ["x"], path)
    assert path.read_text() == "old content"
    assert os.listdir(tmp_path) == ["certs.jsonl"]  # no temporary file is left


def test_write_goes_through_a_symlink_and_into_a_pipe(tmp_path):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4), sigma_m_tuple(5)])
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    real.write_text("old content")
    link.symlink_to(real)
    digest = write_certificates(certs, link)
    assert link.is_symlink()
    assert hashlib.sha256(real.read_bytes()).hexdigest() == digest

    fifo = tmp_path / "certs.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert write_certificates(certs, fifo) == digest
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [real.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_serialized_integers_are_strings(tmp_path):
    import json

    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4)])
    path = tmp_path / "certs.jsonl"
    write_certificates(certs, path)
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj["tuple_a"] == ["4", "5", "9", "19"]
    assert obj["chi_sum"] == {"num": "-507", "den": "2642"}
    assert obj["dimension"] == 5
    assert obj["boundary"] is False
    assert obj["conclusion"] == CONCLUSION


def test_iter_certificates_yields_lines_before_a_bad_one(tmp_path):
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4), sigma_m_tuple(5)])
    path = tmp_path / "certs.jsonl"
    write_certificates(certs, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + lines[1] + lines[2].replace('"-', '"', 1))
    it = iter_certificates(path)
    assert next(it) == certs[0]
    assert next(it) == certs[1]
    with pytest.raises(CertificateFormatError, match="line 3") as info:
        next(it)
    assert info.value.line_number == 3


# --------------------------------------------- writer and integer check

RATIONALS = st.builds(
    Fraction,
    st.integers(-(10**40), 10**40) | st.integers(-3, 3),
    st.integers(1, 10**40) | st.integers(1, 4),
)
NONPOSITIVE = st.just(Fraction(0)) | RATIONALS.map(lambda q: -abs(q))
# sphere tuples only: the reader refuses any other tuple
TUPLES = st.lists(st.integers(2, 10**30) | st.integers(2, 9), min_size=4, max_size=4).map(
    make_tuple
).filter(lambda t: evaluate_criterion(t).is_sphere)


@st.composite
def certificate_lists(draw):
    # few tuples and chi_a values, so tuples repeat, also with other chi values
    tuples = draw(st.lists(TUPLES, min_size=1, max_size=3))
    chis = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    certs = []
    for _ in range(draw(st.integers(0, 8))):
        chi_a, chi_sum = draw(st.sampled_from(chis)), draw(NONPOSITIVE)
        certs.append(
            NonBrieskornCertificate(
                tuple_a=draw(st.sampled_from(tuples)),
                tuple_b=draw(st.sampled_from(tuples)),
                chi_a=chi_a,
                chi_b=chi_sum - chi_a + HALF,
                chi_sum=chi_sum,
                boundary=chi_sum == 0,
            )
        )
    return certs


def _write_and_read(certs):
    # the digest, the bytes, and what the reader and its per-field oracle make of them
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "certs.jsonl"
        digest = write_certificates(certs, path)
        data = path.read_bytes()
        return digest, data, _outcome(read_certificates, path), _outcome(
            canonical_read_certificates, path)


@settings(max_examples=200, deadline=None)
@given(certificate_lists())
def test_writer_matches_json_dumps(certs):
    # the chi values are drawn, not derived from the tuples, so the reader
    # refuses almost every such file; it must do so as the oracle does
    digest, data, back, oracle = _write_and_read(certs)
    assert data.decode("utf-8") == json_dumps_lines(certs)
    assert digest == hashlib.sha256(data).hexdigest()
    assert back == oracle
    if back[0] == "accepted":
        assert back[1] == certs


@functools.cache
def search_certificates() -> list[NonBrieskornCertificate]:
    # the certificates of every sphere pair at A = 12: each tuple has its own
    # chi_m; built on first draw, so a fault in the search fails tests by
    # name instead of the module's collection
    return certify_non_brieskorn_pairs(enumerate_sphere_tuples(12))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.deferred(lambda: st.sampled_from(search_certificates())), max_size=12))
def test_written_search_certificates_read_back(certs):
    # tuples and chi values repeat across lines, in any order, and hit the reader's caches
    digest, data, back, oracle = _write_and_read(certs)
    assert data.decode("utf-8") == json_dumps_lines(certs)
    assert back == oracle == ("accepted", certs)


def test_writer_keys_sides_by_tuple_and_chi():
    t = make_tuple([4, 5, 9, 19])
    certs = [
        NonBrieskornCertificate(t, t, Fraction(1, 8), Fraction(1, 8), Fraction(-1, 4), False),
        NonBrieskornCertificate(t, t, Fraction(1, 4), Fraction(1, 4), Fraction(0), True),
        NonBrieskornCertificate(t, t, Fraction(1, 8), Fraction(-1, 3), Fraction(-17, 24), False),
    ]
    digest, data, back, oracle = _write_and_read(certs)
    assert data.decode("utf-8") == json_dumps_lines(certs)
    # chi_m of (4, 5, 9, 19) is 407/2642, so the reader refuses the first line
    assert back == oracle == (
        "rejected", 1, "line 1: chi_a 1/8 is not chi_m 407/2642 of (4, 5, 9, 19)")


OFF_BY_ONE = st.sampled_from([-1, 0, 1])


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS, OFF_BY_ONE, st.one_of(st.none(), RATIONALS))
def test_integer_check_accepts_exactly_the_sum(chi_a, chi_b, off, other):
    exact = chi_a + chi_b - HALF
    if other is None:
        chi_sum = Fraction(exact.numerator + off, exact.denominator)
    else:
        chi_sum = other
    t = make_tuple([4, 5, 9, 19])
    try:
        NonBrieskornCertificate(t, t, chi_a, chi_b, chi_sum, chi_sum == 0)
    except InvalidInputError as exc:
        accepted, message = False, str(exc)
    else:
        accepted, message = True, ""
    assert accepted == (chi_sum == exact and chi_sum <= 0)
    if chi_sum != exact:
        assert message.startswith(f"chi_sum {chi_sum} != chi_a + chi_b - 1/2 = {exact}")


@pytest.mark.parametrize("side", ["chi_a", "chi_b", "chi_sum"])
def test_certificate_refuses_a_float_chi(side):
    t = make_tuple([4, 5, 9, 19])
    values = {"chi_a": Fraction(1, 8), "chi_b": Fraction(1, 8), "chi_sum": Fraction(-1, 4)}
    values[side] = float(values[side])
    with pytest.raises(InvalidInputError, match="exact rationals"):
        NonBrieskornCertificate(t, t, boundary=False, **values)


@pytest.mark.parametrize("fields", [{"boundary": 0}, {"dimension": 7}, {"dimension": 5.0}])
def test_certificate_refuses_what_the_file_cannot_hold(fields):
    # dimension is a class constant, not a field, so it cannot be given at all
    t = make_tuple([4, 5, 9, 19])
    values = {"boundary": False, **fields}
    error = TypeError if "dimension" in fields else InvalidInputError
    with pytest.raises(error, match=next(iter(fields))):
        NonBrieskornCertificate(t, t, Fraction(1, 8), Fraction(1, 8), Fraction(-1, 4), **values)
    assert NonBrieskornCertificate.dimension == 5


def test_certificate_sides_must_be_exponent_tuples():
    # a plain tuple is refused by name, under `python -O` too
    script = (
        "from fractions import Fraction\n"
        "from brieskorn.certify import NonBrieskornCertificate\n"
        "from brieskorn.errors import InvalidInputError\n"
        "from brieskorn.topology import make_tuple\n"
        "t = make_tuple([4, 5, 9, 19])\n"
        "chi = (Fraction(1, 8), Fraction(1, 8), Fraction(-1, 4), False)\n"
        "for sides in (((4, 5, 9, 19), t), (t, [4, 5, 9, 19])):\n"
        "    try:\n"
        "        NonBrieskornCertificate(*sides, *chi)\n"
        "    except InvalidInputError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    expected = ["tuple_a must be an ExponentTuple, got tuple",
                "tuple_b must be an ExponentTuple, got list"]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert proc.stdout.splitlines() == expected, flags


# ------------------------------------------------ reader parity


def _base_objs():
    certs = certify_non_brieskorn_pairs([sigma_m_tuple(4), sigma_m_tuple(5)])
    return [certificate_to_obj(c) for c in certs]


def _with(obj, path, value):
    # a copy of `obj` with the field at `path` (keys, then maybe a list index) set
    out = copy.deepcopy(obj)
    *head, last = path
    target = out
    for key in head:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return out


_DELETE = object()


def _lines(*objs):
    # compact lines, as the writer's; text outside ASCII is written as itself
    return "".join(
        o if isinstance(o, str)
        else json.dumps(o, separators=(",", ":"), ensure_ascii=False) + "\n"
        for o in objs
    )


def _reader_cases():
    a, ab, b = _base_objs()
    permuted = {k: a[k] for k in reversed(list(a))}
    cases = {
        "valid": _lines(a, ab, b),
        "repeated_valid_lines": _lines(a, a, ab, a, b),
        "permuted_keys_and_spaces": json.dumps(permuted, indent=1).replace("\n", " ") + "\n"
        + json.dumps(ab) + "\n",
        "blank_lines": "\n" + _lines(a) + "   \n\t\n" + _lines(b) + "\n",
        "default_separators": json.dumps(a) + "\n",
        "crlf_line_ends": _lines(a, ab).replace("\n", "\r\n"),
        "no_final_newline": _lines(a, ab)[:-1],
        "invalid_json": _lines(a) + "{not json\n",
        "not_an_object": _lines(a) + "[1, 2]\n",
        "missing_field": _lines(a, _with(ab, ["chi_sum"], _DELETE)),
        "missing_fields_all": _lines(a, {}),
        "tuple_not_list": _lines(_with(a, ["tuple_b"], "4,5,9,19")),
        "hex_entry": _lines(a, _with(a, ["tuple_a", 0], "0x4")),
        "word_entry": _lines(_with(a, ["tuple_b", 2], "nine")),
        "spaced_entry": _lines(a, _with(a, ["tuple_a", 0], " 4 ")),
        "underscore_entry": _lines(_with(a, ["tuple_a", 3], "1_9"), a),
        "number_entries": _lines(_with(_with(a, ["tuple_a"], [4, 5, 9, 19]),
                                       ["tuple_b"], [4, 5, 9, 19]), a),
        "string_then_number_entries": _lines(a, _with(a, ["tuple_a"], [4, 5, 9, 19])),
        "float_entry_after_string_line": _lines(a, _with(a, ["tuple_a"], [4.0, "5", "9", "19"])),
        "float_entry_after_number_line": _lines(_with(a, ["tuple_a"], [4, 5, 9, 19]),
                                                _with(a, ["tuple_a"], [4.0, 5, 9, 19])),
        "boolean_entry": _lines(a, _with(a, ["tuple_a", 0], True)),
        "list_entry": _lines(a, _with(a, ["tuple_a", 1], ["5"])),
        "small_entry": _lines(_with(a, ["tuple_a", 0], "1")),
        "escaped_entry": _lines(a).replace('"4"', '"\\u0034"', 1),
        "huge_entry": _lines(a, _with(a, ["tuple_b", 3], "1" + "0" * 5000)),
        "short_tuple": _lines(a, _with(a, ["tuple_b"], ["4", "5", "9"])),
        "one_entry_tuple": _lines(_with(a, ["tuple_a"], ["4"])),
        "number_fraction": _lines(_with(a, ["chi_a"], {"num": 407, "den": 2642}), a),
        "float_num_after_number_fraction": _lines(
            _with(a, ["chi_a"], {"num": 407, "den": 2642}),
            _with(a, ["chi_a"], {"num": 407.0, "den": 2642}),
        ),
        "boolean_den": _lines(a, _with(a, ["chi_a", "den"], True)),
        "decimal_num": _lines(_with(a, ["chi_b", "num"], "407.0")),
        "word_den": _lines(a, _with(a, ["chi_b", "den"], "abc")),
        "zero_den": _lines(a, _with(a, ["chi_sum", "den"], "0")),
        "negative_den": _lines(_with(_with(a, ["chi_sum", "den"], "-2642"),
                                     ["chi_sum", "num"], "507")),
        "non_reduced": _lines(a, _with(_with(a, ["chi_a"], {"num": "814", "den": "5284"}),
                                       ["chi_b"], {"num": "1221", "den": "7926"})),
        "non_reduced_sum": _lines(_with(a, ["chi_sum"], {"num": "-1014", "den": "5284"})),
        "fraction_extra_key": _lines(a, _with(a, ["chi_a", "x"], "1")),
        "fraction_wrong_key": _lines(a, _with(a, ["chi_a"], {"num": "407", "d": "2642"})),
        "fraction_list_value": _lines(a, _with(a, ["chi_a", "num"], ["407"])),
        "fraction_not_object": _lines(_with(a, ["chi_b"], "407/2642")),
        "tampered_sum": _lines(a, ab, _with(b, ["chi_sum", "num"], "-1")),
        "positive_sum": _lines(_with(_with(_with(a, ["chi_a"], {"num": "1", "den": "1"}),
                                           ["chi_b"], {"num": "1", "den": "1"}),
                                     ["chi_sum"], {"num": "3", "den": "2"})),
        "wrong_boundary": _lines(a, _with(a, ["boundary"], True)),
        "non_boolean_boundary": _lines(_with(a, ["boundary"], 0)),
        "wrong_dimension": _lines(a, _with(a, ["dimension"], 7)),
        "string_dimension": _lines(_with(a, ["dimension"], "5")),
        "float_dimension": _lines(_with(a, ["dimension"], 5.0), a),
        "exponent_dimension": _lines(a).replace('"dimension":5,', '"dimension":5e0,') + _lines(a),
        "wrong_conclusion": _lines(a, _with(a, ["conclusion"], "a Brieskorn sphere")),
        "non_string_conclusion": _lines(_with(a, ["conclusion"], 5)),
        "two_faults": _lines(_with(_with(a, ["dimension"], 4), ["tuple_b", 0], "x")),
        "non_sphere_tuple": _lines(a, _with(a, ["tuple_b"], ["2", "2", "2", "2"])),
        "forged_chi": _lines(a, {**a, **FORGED_CHI}),
        "long_sphere_tuple": _lines(_with(a, ["tuple_b"], ["4", "5", "9", "19", "23"])),
        "non_sphere_before_bad_entry": _lines(
            _with(_with(a, ["tuple_a"], ["2", "4", "6", "12"]), ["tuple_b", 0], "x")),
    }
    return cases


READER_CASES = [
    "blank_lines",
    "boolean_den",
    "boolean_entry",
    "crlf_line_ends",
    "decimal_num",
    "default_separators",
    "escaped_entry",
    "exponent_dimension",
    "float_dimension",
    "float_entry_after_number_line",
    "float_entry_after_string_line",
    "float_num_after_number_fraction",
    "forged_chi",
    "fraction_extra_key",
    "fraction_list_value",
    "fraction_not_object",
    "fraction_wrong_key",
    "hex_entry",
    "huge_entry",
    "invalid_json",
    "list_entry",
    "long_sphere_tuple",
    "missing_field",
    "missing_fields_all",
    "negative_den",
    "no_final_newline",
    "non_boolean_boundary",
    "non_reduced",
    "non_reduced_sum",
    "non_sphere_before_bad_entry",
    "non_sphere_tuple",
    "non_string_conclusion",
    "not_an_object",
    "number_entries",
    "number_fraction",
    "one_entry_tuple",
    "permuted_keys_and_spaces",
    "positive_sum",
    "repeated_valid_lines",
    "short_tuple",
    "small_entry",
    "spaced_entry",
    "string_dimension",
    "string_then_number_entries",
    "tampered_sum",
    "tuple_not_list",
    "two_faults",
    "underscore_entry",
    "valid",
    "word_den",
    "word_entry",
    "wrong_boundary",
    "wrong_conclusion",
    "wrong_dimension",
    "zero_den",
]


# the refusals whose message the reader keeps; any other refusal is pinned by
# its line number alone
KEPT_MESSAGES = re.compile(r"is not a sphere tuple|is not chi_m|!= chi_a \+ chi_b - 1/2")


def _outcome(reader, path):
    try:
        return "accepted", reader(path)
    except CertificateFormatError as exc:
        message = str(exc)
        return "rejected", exc.line_number, message if KEPT_MESSAGES.search(message) else None


def test_reader_cases_are_all_listed():
    assert sorted(_reader_cases()) == READER_CASES


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_matches_the_per_field_reader(tmp_path, name):
    # the per-field reader with each line held to the writer's bytes
    path = tmp_path / "certs.jsonl"
    path.write_text(_reader_cases()[name], encoding="utf-8", newline="")
    assert _outcome(read_certificates, path) == _outcome(canonical_read_certificates, path)


# the cases the per-field reader reads otherwise than the reader: each holds a
# line that it accepts but that is not the writer's line for its certificate
NEWLY_REFUSED = [
    "blank_lines",
    "crlf_line_ends",
    "default_separators",
    "escaped_entry",
    "float_entry_after_number_line",
    "float_num_after_number_fraction",
    "no_final_newline",
    "non_reduced",
    "non_reduced_sum",
    "number_entries",
    "number_fraction",
    "permuted_keys_and_spaces",
    "string_then_number_entries",
]


def test_newly_refused_cases_are_listed(tmp_path):
    path = tmp_path / "certs.jsonl"
    differ = []
    for name, text in sorted(_reader_cases().items()):
        path.write_text(text, encoding="utf-8", newline="")
        if (_outcome(per_field_read_certificates, path)[:2]
                != _outcome(canonical_read_certificates, path)[:2]):
            differ.append(name)
    assert differ == NEWLY_REFUSED
