"""The package's records: named tuples that cannot be changed once built.

Every record is a `typing.NamedTuple`, so it equals, hashes and orders like
the plain tuple of its fields. The validated records, `ExponentTuple`,
`NonBrieskornCertificate` and `Limits`, check their fields in `__new__`,
and every way to build one (`_make`, `_replace`) goes through those checks.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brieskorn
from brieskorn import (
    DEFAULT_LIMITS,
    CheckResult,
    ExponentTuple,
    Limits,
    NonBrieskornCertificate,
    SuiteResult,
    certify_non_brieskorn_pairs,
    distinctness_classes,
    evaluate_criterion,
    fermat_asymptotics_report,
    mean_euler,
    sigma_family_rows,
)
from brieskorn.errors import BrieskornError, InvalidInputError

REFERENCE = ExponentTuple((4, 5, 9, 19))
CERTIFICATE = NonBrieskornCertificate(
    REFERENCE, REFERENCE, Fraction(407, 2642), Fraction(407, 2642), Fraction(-507, 2642), False
)


def _one_of_each_record() -> list[tuple]:
    report = mean_euler(REFERENCE)
    fermat = fermat_asymptotics_report([0, 1], 4)
    check = CheckResult(1, "reference values", True, "407/2642", 0.0)
    return [
        REFERENCE,
        evaluate_criterion(REFERENCE),
        report,
        report.strata[0],
        CERTIFICATE,
        distinctness_classes(certify_non_brieskorn_pairs([REFERENCE]))[0],
        sigma_family_rows(4, 4)[0],
        fermat.rows[0],
        fermat,
        DEFAULT_LIMITS,
        check,
        SuiteResult((check,), 0.0),
    ]


RECORDS = _one_of_each_record()


def test_every_public_record_is_covered():
    public = {
        value for name, value in vars(brieskorn).items()
        if not name.startswith("_") and isinstance(value, type) and issubclass(value, tuple)
    }
    assert {type(record) for record in RECORDS} == public


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_a_record_cannot_be_changed(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_a_record_is_the_tuple_of_its_fields(record):
    # so hashes, and with them set and dict orders, are those of the field tuple
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record == fields
    assert hash(record) == hash(fields)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")


def test_replace_and_make_rerun_the_exponent_tuple_checks():
    with pytest.raises(InvalidInputError, match=r"^entry at index 0 must be >= 2, got 1$"):
        ExponentTuple((2, 3))._replace(entries=(1, 3))
    with pytest.raises(InvalidInputError, match=r"^the entries of an exponent tuple must be a "
                                                r"tuple, got list$"):
        ExponentTuple._make([[2, 3]])
    assert ExponentTuple((2, 3))._replace(entries=(5, 7)) == ExponentTuple((5, 7))


def test_an_exponent_tuple_is_not_the_entries_of_another():
    # an ExponentTuple is a tuple of one field, refused as it was before it was one
    with pytest.raises(InvalidInputError, match=r"must be a tuple, got ExponentTuple$"):
        ExponentTuple(REFERENCE)


def test_replace_and_make_rerun_the_certificate_checks():
    with pytest.raises(InvalidInputError, match=r"^chi_sum 1/2 != chi_a \+ chi_b - 1/2 = "):
        CERTIFICATE._replace(chi_sum=Fraction(1, 2))
    with pytest.raises(InvalidInputError, match=r"^boundary must be a boolean, got 0$"):
        CERTIFICATE._replace(boundary=0)
    with pytest.raises(InvalidInputError, match=r"^tuple_b must be an ExponentTuple, got tuple$"):
        NonBrieskornCertificate._make([REFERENCE, REFERENCE.entries, *CERTIFICATE[2:]])
    assert CERTIFICATE._replace() == CERTIFICATE
    with pytest.raises(TypeError):
        NonBrieskornCertificate._make(CERTIFICATE[:5])


@pytest.mark.parametrize("build, message", [
    (lambda: Limits(subset_cap=-1), r"^limit subset_cap must be nonnegative, got -1$"),
    (lambda: DEFAULT_LIMITS._replace(subset_cap=-3),
     r"^limit subset_cap must be nonnegative, got -3$"),
    (lambda: Limits._make([19, -2]), r"^limit fermat_cap must be nonnegative, got -2$"),
    (lambda: DEFAULT_LIMITS.with_overrides(fermat_cap=-1),
     r"^limit fermat_cap must be nonnegative, got -1$"),
    (lambda: Limits(subset_cap=4.5), r"^limit subset_cap must be an integer, got 4.5$"),
    (lambda: Limits(subset_cap=True), r"^limit subset_cap must be an integer, got True$"),
    (lambda: Limits(subset_cap="19"), r"^limit subset_cap must be an integer, got '19'$"),
    (lambda: DEFAULT_LIMITS.with_overrides(subset_cap="19"),
     r"^limit subset_cap must be an integer, got '19'$"),
], ids=["negative", "replace", "make", "with-overrides", "float", "bool", "str",
        "with-overrides-str"])
def test_limits_check_their_own_fields(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_limits_built_every_way_are_checked_caps():
    assert Limits() == DEFAULT_LIMITS == (19, 12)
    assert Limits(0, 0) == Limits._make([0, 0]) == DEFAULT_LIMITS._replace(subset_cap=0,
                                                                          fermat_cap=0)
    assert DEFAULT_LIMITS.with_overrides(subset_cap=None, fermat_cap=5) == (19, 5)
    with pytest.raises(TypeError):
        Limits._make([19])
    # a cap of the wrong type is refused in the library's words, before any
    # comparison with a tuple length could raise a TypeError
    with pytest.raises(BrieskornError):
        mean_euler(REFERENCE, Limits(subset_cap="19"))


def test_importing_the_package_loads_no_introspection_modules():
    # dataclasses would import inspect, ast and dis into every process that
    # imports the package; a module set, not a timing
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    probe = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(statement: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}\n{probe}"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        return set(proc.stdout.split())

    bare = loaded("pass")
    package = loaded("import brieskorn, brieskorn.cli")
    assert "brieskorn.cli" in package
    assert (package - bare) & {"dataclasses", "inspect", "ast", "dis"} == set()
