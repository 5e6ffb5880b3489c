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
import re
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CapacityError,
    CertificateFormatError,
    InvalidInputError,
    PreconditionError,
)
from .limits import DEFAULT_LIMITS, Limits
from .reeb import connected_sum_chi, mean_euler
from .topology import SPHERE_KINDS, ExponentTuple, gcd_masks, sphere_kind

CONCLUSION = "connected sum not contactomorphic to any Brieskorn contact structure"

# the most candidate tuples a sphere search may enumerate: A <= 69
SEARCH_BUDGET = 10**6
# the most unordered sphere pairs a pair search may check: A <= 25 in `search`
PAIR_BUDGET = 25 * 10**6


class _CertificateFields(NamedTuple):
    tuple_a: ExponentTuple
    tuple_b: ExponentTuple
    chi_a: Fraction
    chi_b: Fraction
    chi_sum: Fraction
    boundary: bool


class NonBrieskornCertificate(_CertificateFields):
    """Exact witness that a connected sum of two sphere tuples is not Brieskorn.

    A named tuple of its six fields. The checks run in `__new__`, and
    `_make` (which `_replace` calls) goes through it too.
    """

    __slots__ = ()
    # the same for every certificate, and fixed text in every file line
    dimension = 5
    conclusion = CONCLUSION

    def __new__(cls, tuple_a: ExponentTuple, tuple_b: ExponentTuple, chi_a: Fraction,
                chi_b: Fraction, chi_sum: Fraction, boundary: bool):
        # Explicit raises, not asserts: certificates read back from a file
        # must be checked under `python -O` too.
        for side, t in (("tuple_a", tuple_a), ("tuple_b", tuple_b)):
            if not isinstance(t, ExponentTuple):
                raise InvalidInputError(
                    f"{side} must be an ExponentTuple, got {type(t).__name__}"
                )
            if t.length != 4:
                raise InvalidInputError(
                    f"{side} has {t.length} entries, but a 5-dimensional sphere needs 4"
                )
        if type(boundary) is not bool:
            raise InvalidInputError(f"boundary must be a boolean, got {boundary!r}")
        # chi_sum == chi_a + chi_b - 1/2 over the integers: the stored
        # denominators are positive, so cross-multiplying keeps the equation.
        try:
            an, ad = chi_a.numerator, chi_a.denominator
            bn, bd = chi_b.numerator, chi_b.denominator
            sn, sd = chi_sum.numerator, chi_sum.denominator
            exact = 2 * sn * ad * bd == sd * (2 * (an * bd + bn * ad) - ad * bd)
        except (AttributeError, TypeError):
            raise InvalidInputError(
                "chi_a, chi_b and chi_sum must be exact rationals (Fraction or int), got "
                f"{chi_a!r}, {chi_b!r}, {chi_sum!r}"
            ) from None
        if not exact:
            raise InvalidInputError(
                f"chi_sum {chi_sum} != chi_a + chi_b - 1/2 = "
                f"{chi_a + chi_b - Fraction(1, 2)}"
            )
        if sn > 0:
            raise InvalidInputError(f"chi_sum {chi_sum} is positive, so nothing is certified")
        if boundary != (sn == 0):
            raise InvalidInputError(f"boundary is {boundary} but chi_sum is {chi_sum}")
        return tuple.__new__(cls, (tuple_a, tuple_b, chi_a, chi_b, chi_sum, boundary))

    @classmethod
    def _make(cls, iterable) -> "NonBrieskornCertificate":
        return cls(*iterable)


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


def enumerate_sphere_tuples(max_exponent: int) -> list[ExponentTuple]:
    """All canonical 4-entry sphere tuples with entries in [2, max_exponent].

    Canonical means entries sorted ascending; output is in lexicographic
    order and free of permutation duplicates. On 4 entries the criterion
    reads: (i) holds iff the gcd graph has at most one edge, and (ii) iff
    three entries are even with pairwise gcd 2 and the fourth is odd and
    coprime to them. So each sorted prefix a <= b <= c takes one mask of
    the last entries x in [c, max_exponent] that complete it to a sphere,
    read off `gcd_masks`, its complement and a table of the pairs with
    gcd 2, and only its set bits become `ExponentTuple`s. `sphere_chi`
    re-checks every summand with the general criterion before it reaches
    a certificate.
    """
    if max_exponent < 2:
        raise InvalidInputError(f"max_exponent must be >= 2, got {max_exponent}")
    candidates = math.comb(max_exponent + 2, 4)
    if candidates > SEARCH_BUDGET:
        raise CapacityError(
            f"search space holds {candidates} candidate tuples, exceeding "
            f"the budget of {SEARCH_BUDGET}"
        )
    top = max_exponent + 1
    full = (1 << top) - 1
    shares = gcd_masks(max_exponent)
    evens = sum(1 << y for y in range(2, top, 2))
    odds = sum(1 << y for y in range(3, top, 2))
    # good[v]: bit y set iff (v, y) may be a pair of a tuple that (ii) holds
    # on, that is both even with gcd 2, or of opposite parity and coprime
    good = [0] * top
    for v in range(2, top):
        two = sum(1 << y for y in range(2, top, 2) if math.gcd(v, y) == 2)
        good[v] = two | ~shares[v] & (evens if v & 1 else odds)
    out = []
    for a in range(2, top):
        sa, ga = shares[a], good[a]
        for b in range(a, top):
            sb, gb = shares[b], good[b]
            ab = sa >> b & 1
            for c in range(b, top):
                sc, gc = shares[c], good[c]
                # (i): at most one edge, so x meets at most one of a, b, c
                # when they have no edge, and none when they have one
                edges = ab + (sa >> c & 1) + (sb >> c & 1)
                if edges == 0:
                    xs = ~(sa & sb | sa & sc | sb & sc)
                elif edges == 1:
                    xs = ~(sa | sb | sc)
                else:
                    xs = 0
                # (ii): every pair good and some entry odd; no two odd
                # entries make a good pair, so then exactly one is odd
                if ga >> b & ga >> c & gb >> c & 1:
                    xs |= ga & gb & gc & (-1 if (a | b | c) & 1 else odds)
                xs &= full >> c << c  # x in [c, max_exponent]
                while xs:
                    low = xs & -xs
                    out.append(ExponentTuple((a, b, c, low.bit_length() - 1)))
                    xs ^= low
    return out


def certify_non_brieskorn_pairs(
    tuples: Sequence[ExponentTuple], limits: Limits = DEFAULT_LIMITS
) -> list[NonBrieskornCertificate]:
    """Certificates for every unordered pair (self-pairs included) whose
    connected-sum value is <= 0.

    Inputs must pass `sphere_chi`; they are canonicalized, so permuted
    duplicates collapse to one tuple. The pairs of the distinct tuples are
    checked against `PAIR_BUDGET` before any `sphere_chi` call.
    """
    distinct: dict[tuple[int, ...], tuple[int, ExponentTuple]] = {}
    for i, t in enumerate(tuples):
        c = t.canonical()
        distinct.setdefault(c.entries, (i, c))
    pairs = len(distinct) * (len(distinct) + 1) // 2
    if pairs > PAIR_BUDGET:
        raise CapacityError(
            f"{len(distinct)} distinct sphere tuples make {pairs} pairs, exceeding "
            f"the budget of {PAIR_BUDGET}"
        )
    rows = [(c, sphere_chi(c, f"tuples[{i}]", limits)) for i, c in distinct.values()]

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


class DistinctnessClass(NamedTuple):
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


# Lines are written in chunks of this many, so the text in memory stays small.
_WRITE_CHUNK_LINES = 4096

# The file format, written once for the writer and the reader: each side's
# tuple as a list of decimal strings, each rational as {"num": ..., "den": ...}
# of decimal strings, and a fixed tail after chi_sum for each boundary value.
_TAILS = {
    flag: f',"dimension":5,"boundary":{json.dumps(flag)},"conclusion":{json.dumps(CONCLUSION)}}}\n'
    for flag in (False, True)
}


def _fraction_text(q: Fraction) -> str:
    return f'{{"num":"{q.numerator}","den":"{q.denominator}"}}'


def _side_texts(t: ExponentTuple, chi: Fraction) -> tuple[str, str]:
    return '["' + '","'.join(map(str, t.entries)) + '"]', _fraction_text(chi)


def _line(
    side_a: tuple[str, str], side_b: tuple[str, str], chi_sum: Fraction, boundary: bool
) -> str:
    # a certificate's line from the (tuple, chi) texts of its two sides
    (tuple_a, chi_a), (tuple_b, chi_b) = side_a, side_b
    return (
        f'{{"tuple_a":{tuple_a},"tuple_b":{tuple_b},"chi_a":{chi_a},"chi_b":{chi_b},'
        f'"chi_sum":{_fraction_text(chi_sum)}{_TAILS[boundary]}'
    )


def certificate_lines(certificates: Iterable[NonBrieskornCertificate]) -> Iterator[str]:
    """The JSONL line of each certificate, newline included.

    A line is one compact JSON object with the keys tuple_a, tuple_b,
    chi_a, chi_b, chi_sum, dimension, boundary and conclusion, in that
    order. Tuples are lists of decimal strings and rationals are
    {"num": ..., "den": ...} objects of decimal strings. Each (tuple, chi)
    side is formatted once, chi_sum once per line, and the tail is one of
    two fixed texts.
    """
    sides: dict[tuple, tuple[str, str]] = {}

    def side(t: ExponentTuple, chi: Fraction) -> tuple[str, str]:
        key = (t.entries, chi.numerator, chi.denominator)
        texts = sides.get(key)
        if texts is None:
            texts = sides[key] = _side_texts(t, chi)
        return texts

    for c in certificates:
        yield _line(side(c.tuple_a, c.chi_a), side(c.tuple_b, c.chi_b), c.chi_sum, c.boundary)


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


# Finds the fields of a line without validating them: a line is accepted only
# if it is the one `certificate_lines` writes for the certificate read from it.
_LINE = re.compile(
    r'\{"tuple_a":(\[[^\]]*\]),"tuple_b":(\[[^\]]*\]),'
    r'"chi_a":\{"num":"([^"]*)","den":"([^"]*)"\},"chi_b":\{"num":"([^"]*)","den":"([^"]*)"\},'
    r'"chi_sum":\{"num":"([^"]*)","den":"([^"]*)"\},"dimension":5,"boundary":(true|false),'
)


def iter_certificates(path: str | Path) -> Iterator[NonBrieskornCertificate]:
    """Yield the certificates of a JSONL file in order; errors cite the 1-based line number.

    A line is accepted exactly when it is, byte for byte, the line that
    `certificate_lines` writes for the certificate read from it. Each tuple
    must be a sphere of 4 entries and its chi the chi_m re-derived from it,
    once per distinct tuple text; every line is still checked as a whole
    certificate.
    """
    # per distinct tuple text: the tuple, its chi_m, chi_m's num and den
    # texts, and the side's texts as the writer makes them
    spheres: dict[str, tuple] = {}

    def side(text: str, num: str, den: str, name: str):
        hit = spheres.get(text)
        if hit is None:
            t = ExponentTuple(tuple(map(int, text[2:-2].split('","'))))
            chi_m = sphere_chi(t, f"tuple_{name}")
            chi_m_text = str(chi_m.numerator), str(chi_m.denominator)
            hit = spheres[text] = t, chi_m, chi_m_text, _side_texts(t, chi_m)
        t, chi_m, chi_m_text, texts = hit
        if (num, den) != chi_m_text:
            # a line whose chi values add up is still forged unless they are
            # its tuples' chi_m; another text of chi_m fails the line comparison
            chi = Fraction(int(num), int(den))
            if chi != chi_m:
                raise InvalidInputError(f"chi_{name} {chi} is not chi_m {chi_m} of {t}")
        return t, chi_m, texts

    # a byte that is not UTF-8 becomes a lone surrogate, which no written line holds
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                fields = _LINE.match(line)
                if fields is None:
                    raise InvalidInputError("not a certificate line")
                ta, tb, an, ad, bn, bd, sn, sd, flag = fields.groups()
                tuple_a, chi_a, texts_a = side(ta, an, ad, "a")
                tuple_b, chi_b, texts_b = side(tb, bn, bd, "b")
                cert = NonBrieskornCertificate(
                    tuple_a, tuple_b, chi_a, chi_b, Fraction(int(sn), int(sd)), flag == "true"
                )
                if _line(texts_a, texts_b, cert.chi_sum, cert.boundary) != line:
                    raise InvalidInputError("not the line `certificate_lines` writes for it")
            except (ValueError, ZeroDivisionError) as exc:
                # ValueError covers InvalidInputError and a failed int()
                raise CertificateFormatError(lineno, str(exc)) from None
            yield cert


def read_certificates(path: str | Path) -> list[NonBrieskornCertificate]:
    """Load a JSONL certificate file; errors cite the 1-based line number."""
    return list(iter_certificates(path))
