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

import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    CertificateFormatError,
    InvalidInputError,
    PreconditionError,
    UnsupportedLengthError,
)
from .limits import DEFAULT_LIMITS, Limits
from .reeb import connected_sum_chi, mean_euler
from .serialize import parse_fraction, parse_int
from .topology import SPHERE_KINDS, ExponentTuple, _verdict, sphere_kind

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
        # must be checked under `python -O` too. This is the one check of the
        # fields; the reader passes them through as it parsed them.
        for side, t in (("tuple_a", self.tuple_a), ("tuple_b", self.tuple_b)):
            if t.length != 4:
                raise InvalidInputError(
                    f"{side} has {t.length} entries, but a 5-dimensional sphere needs 4"
                )
        # The writer emits these two as fixed text, so only the int 5 and a
        # bool may be stored.
        if type(self.dimension) is not int or self.dimension != 5:
            raise InvalidInputError(f"dimension must be 5, got {self.dimension!r}")
        if type(self.boundary) is not bool:
            raise InvalidInputError(f"boundary must be a boolean, got {self.boundary!r}")
        if self.conclusion != CONCLUSION:
            raise InvalidInputError(
                f"conclusion must be {CONCLUSION!r}, got {self.conclusion!r}"
            )
        # chi_sum == chi_a + chi_b - 1/2 over the integers: the stored
        # denominators are positive, so cross-multiplying keeps the equation.
        try:
            an, ad = self.chi_a.numerator, self.chi_a.denominator
            bn, bd = self.chi_b.numerator, self.chi_b.denominator
            sn, sd = self.chi_sum.numerator, self.chi_sum.denominator
            exact = 2 * sn * ad * bd == sd * (2 * (an * bd + bn * ad) - ad * bd)
        except (AttributeError, TypeError):
            raise InvalidInputError(
                "chi_a, chi_b and chi_sum must be exact rationals (Fraction or int), got "
                f"{self.chi_a!r}, {self.chi_b!r}, {self.chi_sum!r}"
            ) from None
        if not exact:
            raise InvalidInputError(
                f"chi_sum {self.chi_sum} != chi_a + chi_b - 1/2 = "
                f"{self.chi_a + self.chi_b - Fraction(1, 2)}"
            )
        if sn > 0:
            raise InvalidInputError(f"chi_sum {self.chi_sum} is positive, so nothing is certified")
        if self.boundary != (sn == 0):
            raise InvalidInputError(
                f"boundary is {self.boundary} but chi_sum is {self.chi_sum}"
            )


def sphere_chi(t: ExponentTuple, what: str, limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """chi_m of `t`, checked to be a summand a certificate may have.

    A certificate rests on chi_m > 0 for every 5-dimensional Brieskorn
    sphere, so a summand must have 4 entries, be a sphere by the criterion
    and have a defined chi_m. The length comes first, so a long tuple never
    reaches the criterion or the lattice cap. Raises `PreconditionError`
    naming `t` as `what`.
    """
    if t.length != 4:
        raise PreconditionError(
            f"{what} has {t.length} entries, but a 5-dimensional sphere needs 4"
        )
    kind = sphere_kind(t)
    if kind not in SPHERE_KINDS:
        raise PreconditionError(f"{what} {t} is not a sphere tuple ({kind.value})")
    chi_m = mean_euler(t, limits).value
    if chi_m is None:
        raise PreconditionError(f"{what} {t} has no chi_m (total index 0)")
    return chi_m


def enumerate_sphere_tuples(
    max_exponent: int, length: int = 4, limits: Limits = DEFAULT_LIMITS
) -> list[ExponentTuple]:
    """All canonical sphere tuples with entries in [2, max_exponent].

    Canonical means entries sorted ascending; output is in lexicographic
    order and free of permutation duplicates. The sorted tuples are walked
    depth-first: each prefix carries the adjacency masks of its gcd graph,
    and an extension adds the new entry's row from a table of which values
    share a factor, so every pair of values costs one gcd per call.
    """
    if max_exponent < 2:
        raise InvalidInputError(f"max_exponent must be >= 2, got {max_exponent}")
    if length < 4:
        raise UnsupportedLengthError(
            f"sphere tuples need at least 4 entries, got length {length}: "
            "the criterion only detects homology spheres at length 3"
        )
    if length > limits.subset_cap:
        # the budget counts candidates, but a candidate's walk grows with its length
        raise CapacityError(
            f"sphere tuples of length {length} exceed the length cap of {limits.subset_cap}"
        )
    candidates = math.comb(max_exponent - 2 + length, length)
    if candidates > limits.search_budget:
        raise CapacityError(
            f"search space holds {candidates} candidate tuples, exceeding "
            f"the budget of {limits.search_budget}"
        )
    values = range(2, max_exponent + 1)
    # shares[x]: bit y set iff gcd(x, y) >= 2
    shares = [0] * (max_exponent + 1)
    for x in values:
        for y in range(x, max_exponent + 1):
            if math.gcd(x, y) >= 2:
                shares[x] |= 1 << y
                shares[y] |= 1 << x
    out = []
    # prefixes still to extend, the next one on top; each with its masks
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), [])]
    while stack:
        prefix, adj = stack.pop()
        k = len(prefix)
        bit = 1 << k
        children = []
        for x in values[prefix[-1] - 2 :] if prefix else values:
            row = shares[x]
            grown = adj.copy()
            mask = 0
            for i, e in enumerate(prefix):
                if row >> e & 1:
                    mask |= 1 << i
                    grown[i] |= bit
            grown.append(mask)
            entries = prefix + (x,)
            if k + 1 < length:
                children.append((entries, grown))
            elif _verdict(entries, grown)[0] in SPHERE_KINDS:
                out.append(ExponentTuple(entries))
        stack += reversed(children)  # smallest on top, so the output stays sorted
    return out


def certify_non_brieskorn_pairs(
    tuples: Sequence[ExponentTuple], limits: Limits = DEFAULT_LIMITS
) -> list[NonBrieskornCertificate]:
    """Certificates for every unordered pair (self-pairs included) whose
    connected-sum value is <= 0.

    Inputs must pass `sphere_chi`; they are canonicalized, so permuted
    duplicates collapse to one tuple.
    """
    rows: list[tuple[ExponentTuple, Fraction]] = []
    seen: set[tuple[int, ...]] = set()
    for i, t in enumerate(tuples):
        c = t.canonical()
        if c.entries not in seen:
            seen.add(c.entries)
            rows.append((c, sphere_chi(c, f"tuples[{i}]", limits)))

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


def distinctness_classes(
    certificates: Iterable[NonBrieskornCertificate],
) -> tuple[DistinctnessClass, ...]:
    """Certificates grouped by their exact connected-sum value, in value order.

    Distinct values certify pairwise non-contactomorphic sums. A class
    holding several different pairs with one value is flagged inconclusive:
    equality of the invariant decides nothing.
    """
    groups: dict[Fraction, list[NonBrieskornCertificate]] = {}
    for cert in certificates:
        groups.setdefault(cert.chi_sum, []).append(cert)
    classes = []
    for value in sorted(groups):
        members = groups[value]
        pairs = {(c.tuple_a.entries, c.tuple_b.entries) for c in members}
        classes.append(DistinctnessClass(value, tuple(members), len(pairs) > 1))
    return tuple(classes)


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

# Lines are written in chunks of this many, so the text in memory stays small.
_WRITE_CHUNK_LINES = 4096


def certificate_lines(certificates: Iterable[NonBrieskornCertificate]) -> Iterator[str]:
    """The JSONL line of each certificate, newline included.

    A line is one compact JSON object with the keys tuple_a, tuple_b,
    chi_a, chi_b, chi_sum, dimension, boundary and conclusion, in that
    order. Tuples are lists of decimal strings and rationals are
    {"num": ..., "den": ...} objects of decimal strings. The text is built
    from fragments: each (tuple, chi) side is formatted once, chi_sum once
    per line, and the tail is one of two fixed texts.
    """
    sides: dict[tuple, tuple[str, str]] = {}
    conclusion = json.dumps(CONCLUSION)
    tails = {
        flag: f',"dimension":5,"boundary":{json.dumps(flag)},"conclusion":{conclusion}}}\n'
        for flag in (False, True)
    }

    def side(t: ExponentTuple, chi: Fraction) -> tuple[str, str]:
        num, den = chi.numerator, chi.denominator
        key = (t.entries, num, den)
        texts = sides.get(key)
        if texts is None:
            texts = sides[key] = (
                '["' + '","'.join(map(str, t.entries)) + '"]',
                f'{{"num":"{num}","den":"{den}"}}',
            )
        return texts

    for c in certificates:
        tuple_a, chi_a = side(c.tuple_a, c.chi_a)
        tuple_b, chi_b = side(c.tuple_b, c.chi_b)
        s = c.chi_sum
        yield (
            f'{{"tuple_a":{tuple_a},"tuple_b":{tuple_b},"chi_a":{chi_a},"chi_b":{chi_b},'
            f'"chi_sum":{{"num":"{s.numerator}","den":"{s.denominator}"}}{tails[c.boundary]}'
        )


def write_certificates(certificates: Iterable[NonBrieskornCertificate], path: str | Path) -> str:
    """Write certificates as JSONL, byte-deterministic; return the file's sha256 hex digest.

    The lines are those of `certificate_lines`. They go to a temporary file
    beside `path`, which replaces `path` only once every line is written, so
    a failure leaves the old file as it was. A device or pipe at `path` is
    written in place, since replacing it would remove it.
    """
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.{os.urandom(8).hex()}.tmp"
    digest = hashlib.sha256()
    lines = certificate_lines(certificates)
    try:
        with open(tmp, "wb" if in_place else "xb") as fh:
            while chunk := "".join(islice(lines, _WRITE_CHUNK_LINES)):
                data = chunk.encode("utf-8")
                fh.write(data)
                digest.update(data)
        if not in_place:
            os.replace(tmp, target)
    except BaseException:
        if not in_place and os.path.exists(tmp):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def _parse_side(entries, chi_obj, side: str, cache: dict) -> tuple[ExponentTuple, Fraction]:
    # One side of a line: tuple_a with chi_a, or tuple_b with chi_b. Cached
    # only under all-string keys: a string equals only a string, so a hit
    # means the same text, while 4.0 == 4 would let a float entry through. A
    # miss re-derives the tuple's sphere verdict and chi_m, so in a valid file
    # they run once per distinct tuple.
    key = None
    if type(chi_obj) is dict and len(chi_obj) == 2:
        key = (*entries, chi_obj.get("num"), chi_obj.get("den"))
    try:
        return cache[key]
    except (KeyError, TypeError):
        pass
    what = f"tuple_{side}"
    t = ExponentTuple(tuple(parse_int(e, f"{what} entry") for e in entries))
    chi_m = sphere_chi(t, what)
    # a line whose chi values add up is still forged unless they are its tuples' chi_m
    chi = parse_fraction(chi_obj, f"chi_{side}")
    if chi != chi_m:
        raise InvalidInputError(f"chi_{side} {chi} is not chi_m {chi_m} of {t}")
    if key is not None and all(type(x) is str for x in key):
        cache[key] = t, chi
    return t, chi


def _certificate_from_obj(obj: dict, sides: dict) -> NonBrieskornCertificate:
    missing = [k for k in _REQUIRED_FIELDS if k not in obj]
    if missing:
        raise InvalidInputError(f"missing fields {missing}")
    for side in ("tuple_a", "tuple_b"):
        if not isinstance(obj[side], list):
            raise InvalidInputError(f"{side} must be a list of decimal strings")
    tuple_a, chi_a = _parse_side(obj["tuple_a"], obj["chi_a"], "a", sides)
    tuple_b, chi_b = _parse_side(obj["tuple_b"], obj["chi_b"], "b", sides)
    # the constructor checks dimension, boundary and conclusion
    return NonBrieskornCertificate(
        tuple_a=tuple_a,
        tuple_b=tuple_b,
        chi_a=chi_a,
        chi_b=chi_b,
        # nearly every line has its own chi_sum, so caching it would only grow
        chi_sum=parse_fraction(obj["chi_sum"], "chi_sum"),
        boundary=obj["boundary"],
        dimension=obj["dimension"],
        conclusion=obj["conclusion"],
    )


def iter_certificates(path: str | Path) -> Iterator[NonBrieskornCertificate]:
    """Yield the certificates of a JSONL file in order; errors cite the 1-based line number.

    Each tuple must be a sphere of 4 entries, and its chi must be the chi_m
    re-derived from it. Each distinct (tuple, chi) text is parsed and
    checked once per file; every line is still checked as a whole
    certificate.
    """
    sides: dict = {}
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
                cert = _certificate_from_obj(obj, sides)
            except InvalidInputError as exc:
                raise CertificateFormatError(lineno, str(exc)) from None
            yield cert


def read_certificates(path: str | Path) -> list[NonBrieskornCertificate]:
    """Load a JSONL certificate file; errors cite the 1-based line number."""
    return list(iter_certificates(path))
