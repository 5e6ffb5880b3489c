"""Sphere-tuple enumeration and non-Brieskorn certificates for S^5 sums.

Every 5-dimensional Brieskorn sphere has strictly positive mean Euler
characteristic, while a contact connected sum of two of them has

    chi_a + chi_b - 1/2.

Whenever that value is <= 0 the sum cannot be a Brieskorn contact structure;
the exact rational computation of such a value is a machine-checkable
certificate. Distinct certificate values additionally certify that the
corresponding sums are pairwise non-contactomorphic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CapacityError, CertificateFormatError, InvalidInputError, PreconditionError
from .limits import DEFAULT_LIMITS, Limits
from .reeb import connected_sum_chi, mean_euler
from .serialize import fraction_obj, parse_fraction, parse_int
from .topology import ExponentTuple, evaluate_criterion

CONCLUSION = "connected sum not contactomorphic to any Brieskorn contact structure"


@dataclass(frozen=True)
class NonBrieskornCertificate:
    """Exact witness that a connected sum of two sphere tuples is not Brieskorn."""

    tuple_a: ExponentTuple
    tuple_b: ExponentTuple
    chi_a: Fraction
    chi_b: Fraction
    chi_sum: Fraction
    boundary: bool
    dimension: int = 5
    conclusion: str = CONCLUSION

    def __post_init__(self):
        # Explicit raises, not asserts: certificates read back from a file
        # must be checked under `python -O` too.
        for side, t in (("tuple_a", self.tuple_a), ("tuple_b", self.tuple_b)):
            if t.length != 4:
                raise InvalidInputError(
                    f"{side} has {t.length} entries, but a 5-dimensional sphere needs 4"
                )
        if self.conclusion != CONCLUSION:
            raise InvalidInputError(
                f"conclusion must be {CONCLUSION!r}, got {self.conclusion!r}"
            )
        if self.chi_sum != self.chi_a + self.chi_b - Fraction(1, 2):
            raise InvalidInputError(
                f"chi_sum {self.chi_sum} != chi_a + chi_b - 1/2 = "
                f"{self.chi_a + self.chi_b - Fraction(1, 2)}"
            )
        if self.chi_sum > 0:
            raise InvalidInputError(f"chi_sum {self.chi_sum} is positive, so nothing is certified")
        if self.boundary != (self.chi_sum == 0):
            raise InvalidInputError(
                f"boundary is {self.boundary} but chi_sum is {self.chi_sum}"
            )


def enumerate_sphere_tuples(
    max_exponent: int, length: int = 4, limits: Limits = DEFAULT_LIMITS
) -> list[ExponentTuple]:
    """All canonical sphere tuples with entries in [2, max_exponent].

    Canonical means entries sorted ascending; output is in lexicographic
    order and free of permutation duplicates.
    """
    if max_exponent < 2:
        raise InvalidInputError(f"max_exponent must be >= 2, got {max_exponent}")
    if length < 3:
        raise InvalidInputError(f"length must be >= 3, got {length}")
    candidates = math.comb(max_exponent - 2 + length, length)
    if candidates > limits.search_budget:
        raise CapacityError(
            f"search space holds {candidates} candidate tuples, exceeding "
            f"the budget of {limits.search_budget}"
        )
    out = []
    for entries in combinations_with_replacement(range(2, max_exponent + 1), length):
        t = ExponentTuple(entries)
        if evaluate_criterion(t).is_sphere:
            out.append(t)
    return out


def certify_non_brieskorn_pairs(
    tuples: Sequence[ExponentTuple], limits: Limits = DEFAULT_LIMITS
) -> list[NonBrieskornCertificate]:
    """Certificates for every unordered pair (self-pairs included) whose
    connected-sum value is <= 0.

    Inputs must be sphere 4-tuples with defined mean Euler characteristic;
    they are canonicalized, so permuted duplicates collapse to one tuple.
    """
    rows: list[tuple[ExponentTuple, Fraction]] = []
    seen: set[tuple[int, ...]] = set()
    for t in tuples:
        if t.length != 4:
            raise PreconditionError(f"certificates need 4-tuples, got {t} of length {t.length}")
        if not evaluate_criterion(t).is_sphere:
            raise PreconditionError(f"{t} is not a sphere tuple")
        c = t.canonical()
        if c.entries in seen:
            continue
        seen.add(c.entries)
        report = mean_euler(c, limits)
        if not report.defined:
            raise PreconditionError(
                f"mean Euler characteristic of {c} is undefined (total index 0)"
            )
        rows.append((c, report.value))

    certificates = []
    for i, (a, chi_a) in enumerate(rows):
        for b, chi_b in rows[i:]:
            total = connected_sum_chi([chi_a, chi_b], n=3)
            # A Fraction carries its sign in the numerator.
            if total.numerator <= 0:
                certificates.append(
                    NonBrieskornCertificate(
                        tuple_a=a,
                        tuple_b=b,
                        chi_a=chi_a,
                        chi_b=chi_b,
                        chi_sum=total,
                        boundary=(total.numerator == 0),
                    )
                )
    return certificates


@dataclass(frozen=True)
class DistinctnessClass:
    chi_sum: Fraction
    certificates: tuple[NonBrieskornCertificate, ...]
    inconclusive: bool


@dataclass(frozen=True)
class DistinctnessPartition:
    """Certificates grouped by their exact connected-sum value.

    Distinct values certify pairwise non-contactomorphic sums. A class
    holding several different pairs with one value is flagged inconclusive:
    equality of the invariant decides nothing.
    """

    classes: tuple[DistinctnessClass, ...] = field(default=())

    @property
    def values(self) -> list[Fraction]:
        return [c.chi_sum for c in self.classes]


def distinctness_classes(
    certificates: Iterable[NonBrieskornCertificate],
) -> DistinctnessPartition:
    groups: dict[Fraction, list[NonBrieskornCertificate]] = {}
    for cert in certificates:
        groups.setdefault(cert.chi_sum, []).append(cert)
    classes = []
    for value in sorted(groups):
        members = groups[value]
        pairs = {(c.tuple_a.entries, c.tuple_b.entries) for c in members}
        classes.append(DistinctnessClass(value, tuple(members), len(pairs) > 1))
    return DistinctnessPartition(tuple(classes))


def certificate_to_obj(cert: NonBrieskornCertificate) -> dict:
    return {
        "tuple_a": [str(e) for e in cert.tuple_a.entries],
        "tuple_b": [str(e) for e in cert.tuple_b.entries],
        "chi_a": fraction_obj(cert.chi_a),
        "chi_b": fraction_obj(cert.chi_b),
        "chi_sum": fraction_obj(cert.chi_sum),
        "dimension": cert.dimension,
        "boundary": cert.boundary,
        "conclusion": cert.conclusion,
    }


_REQUIRED_FIELDS = (
    "tuple_a",
    "tuple_b",
    "chi_a",
    "chi_b",
    "chi_sum",
    "dimension",
    "boundary",
    "conclusion",
)


def _certificate_from_obj(obj: dict) -> NonBrieskornCertificate:
    missing = [k for k in _REQUIRED_FIELDS if k not in obj]
    if missing:
        raise InvalidInputError(f"missing fields {missing}")
    for side in ("tuple_a", "tuple_b"):
        if not isinstance(obj[side], list):
            raise InvalidInputError(f"{side} must be a list of decimal strings")
    tuple_a = ExponentTuple(tuple(parse_int(e, "tuple_a entry") for e in obj["tuple_a"]))
    tuple_b = ExponentTuple(tuple(parse_int(e, "tuple_b entry") for e in obj["tuple_b"]))
    if obj["dimension"] != 5:
        raise InvalidInputError(f"dimension must be 5, got {obj['dimension']!r}")
    if not isinstance(obj["boundary"], bool):
        raise InvalidInputError(f"boundary must be a boolean, got {obj['boundary']!r}")
    if not isinstance(obj["conclusion"], str):
        raise InvalidInputError("conclusion must be a string")
    return NonBrieskornCertificate(
        tuple_a=tuple_a,
        tuple_b=tuple_b,
        chi_a=parse_fraction(obj["chi_a"], "chi_a"),
        chi_b=parse_fraction(obj["chi_b"], "chi_b"),
        chi_sum=parse_fraction(obj["chi_sum"], "chi_sum"),
        boundary=obj["boundary"],
        conclusion=obj["conclusion"],
    )


def write_certificates(
    certificates: Iterable[NonBrieskornCertificate], path: str | Path
) -> list[dict]:
    """Write certificates as JSONL, byte-deterministic; return the objects written."""
    objs = [certificate_to_obj(c) for c in certificates]
    text = "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs)
    Path(path).write_text(text, encoding="utf-8")
    return objs


def read_certificates(path: str | Path) -> list[NonBrieskornCertificate]:
    """Load a JSONL certificate file; errors cite the 1-based line number."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CertificateFormatError(lineno, f"invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise CertificateFormatError(lineno, "expected a JSON object")
            try:
                out.append(_certificate_from_obj(obj))
            except InvalidInputError as exc:
                raise CertificateFormatError(lineno, str(exc)) from None
    return out
