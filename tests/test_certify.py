from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import brieskorn
from brieskorn.certify import (
    CONCLUSION,
    NonBrieskornCertificate,
    certificate_to_obj,
    certify_non_brieskorn_pairs,
    distinctness_classes,
    enumerate_sphere_tuples,
    read_certificates,
    write_certificates,
)
from brieskorn.errors import CapacityError, CertificateFormatError, PreconditionError
from brieskorn.families import sigma_m_tuple
from brieskorn.limits import Limits
from brieskorn.reeb import connected_sum_chi, mean_euler
from brieskorn.topology import make_tuple

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
    with pytest.raises(CapacityError, match="15 candidate"):
        enumerate_sphere_tuples(4, 4, Limits(search_budget=10))


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


def test_certify_rejects_wrong_length():
    with pytest.raises(PreconditionError):
        certify_non_brieskorn_pairs([make_tuple([2, 3, 5])])


def test_certify_rejects_non_sphere():
    with pytest.raises(PreconditionError):
        certify_non_brieskorn_pairs([make_tuple([2, 2, 2, 2])])


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
    partition = distinctness_classes(self_certs)
    assert len(partition.classes) == 4
    assert not any(cls.inconclusive for cls in partition.classes)
    assert partition.values == sorted(partition.values)


def test_distinctness_merges_identical_certificates():
    cert = certify_non_brieskorn_pairs([sigma_m_tuple(4)])[0]
    partition = distinctness_classes([cert, cert])
    assert len(partition.classes) == 1
    assert not partition.classes[0].inconclusive


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
    partition = distinctness_classes([a, b])
    assert len(partition.classes) == 1
    assert partition.classes[0].inconclusive


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
    path.write_text(json.dumps(obj) + "\n")
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
        "    print(exc.line_number)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "1"


def test_writes_are_deterministic(tmp_path):
    certs = certify_non_brieskorn_pairs(enumerate_sphere_tuples(9))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_certificates(certs, p1)
    write_certificates(certs, p2)
    assert p1.read_bytes() == p2.read_bytes()


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
