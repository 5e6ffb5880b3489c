"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from brieskorn.certify import CONCLUSION, NonBrieskornCertificate
from brieskorn.errors import (
    BrieskornError,
    CapacityError,
    CertificateFormatError,
    InvalidInputError,
    UnsupportedLengthError,
)
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.reeb import (
    MeanEulerReport,
    Stratum,
    _chi_numerator,
    has_isolated_exponent,
    total_rs_index,
)
from brieskorn.serialize import fraction_obj, parse_int, tuple_obj
from brieskorn.topology import (
    ExponentTuple,
    SphereKind,
    SphereVerdict,
    _bits,
    _chi_s1,
    _require_exponent_tuple,
    chi_s1,
    subset_lattice,
)
from brieskorn.verify import _recurrence_frequencies


def set_criterion(a):
    # the sphere criterion on Gamma(a) built from a dict of adjacency sets, one
    # gcd per index pair, with its components by a stack walk; condition (ii) first
    if a.length < 3:
        raise UnsupportedLengthError(
            f"the sphere criterion needs at least 3 entries, got {a.length}"
        )
    entries = a.entries
    L = a.length
    adjacency = {i: set() for i in range(L)}
    for i, j in combinations(range(L), 2):
        if math.gcd(entries[i], entries[j]) >= 2:
            adjacency[i].add(j)
            adjacency[j].add(i)

    components = []
    seen = set()
    for start in range(L):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(frozenset(comp))

    evens = {i for i in range(L) if entries[i] % 2 == 0}
    even_component = frozenset()
    if evens:
        comp = next(c for c in components if evens & c)
        if not evens <= comp:
            raise BrieskornError(f"even entries of {a} span more than one component")
        if all(entries[i] % 2 == 0 for i in comp):
            even_component = comp

    isolated = tuple(i for i in range(L) if not adjacency[i])
    ec = sorted(even_component)
    pairwise_gcd2 = all(
        math.gcd(entries[i], entries[j]) == 2 for i, j in combinations(ec, 2)
    )
    condition_ii = len(isolated) >= 1 and len(ec) > 1 and len(ec) % 2 == 1 and pairwise_gcd2
    condition_i = len(isolated) >= 2
    if a.length == 3:
        kind = (
            SphereKind.HOMOLOGY_SPHERE_CONDITIONS_HOLD
            if (condition_i or condition_ii)
            else SphereKind.HOMOLOGY_SPHERE_CONDITIONS_FAIL
        )
    elif condition_ii:
        kind = SphereKind.SPHERE_BY_II
    elif condition_i:
        kind = SphereKind.SPHERE_BY_I
    else:
        kind = SphereKind.NOT_SPHERE
    return SphereVerdict(kind, isolated, tuple(components), even_component, pairwise_gcd2)


def filtered_sphere_tuples(max_exponent):
    # every sorted 4-tuple over [2, max_exponent], kept if `set_criterion` calls it a sphere
    candidates = combinations_with_replacement(range(2, max_exponent + 1), 4)
    return [t for t in map(ExponentTuple, candidates) if set_criterion(t).is_sphere]


def naive_frequencies(periods):
    # counts multiples of each period below the top one avoiding all larger
    # periods; deliberately the dumbest possible implementation
    top = periods[-1]
    out = []
    for i, t in enumerate(periods):
        if i == len(periods) - 1:
            out.append(1)
            continue
        larger = periods[i + 1 :]
        out.append(sum(1 for x in range(t, top, t) if all(x % f for f in larger)))
    return out


def subset_periods(entries):
    # the lcms of all subsets of at least two entries, by a plain subset walk
    subsets = (s for k in range(2, len(entries) + 1) for s in combinations(entries, k))
    return sorted({math.lcm(*s) for s in subsets})


def per_stratum_mean_euler(a):
    # mean_euler stratum by stratum: subset-walk periods, the recurrence for
    # their frequencies, and one chi_s1 (hence kappa) call per stratum
    periods = subset_periods(a.entries)
    strata = []
    for period, frequency in zip(periods, _recurrence_frequencies(periods)):
        indices = tuple(j for j, e in enumerate(a.entries) if period % e == 0)
        mu = sum(2 * q + (r != 0) for q, r in (divmod(period, e) for e in a.entries))
        strata.append(Stratum(period, indices, len(indices), mu - 2 * period,
                              chi_s1(a.subtuple(indices)), frequency))
    d = a.d
    total = 2 * (sum(d // e for e in a.entries) - d)
    numerator = sum(s.frequency * s.chi_s1 for s in strata)
    value = Fraction((-1) ** (a.n + 1) * numerator, abs(total)) if total else None
    return MeanEulerReport(total, value, tuple(strata))


def loop_build_strata(a, lattice):
    # the strata of `a` row by row off its `subset_lattice` table: one
    # (period, frequency, kappa, subset) row per closed subset of two or
    # more positions, sorted as tuples, then the top period with frequency
    # 1; per row the positions by a bit loop and one `Stratum` call
    lcm, freq, kap = lattice
    top = len(lcm) - 1
    rows = sorted((lcm[J], freq[J], kap[J], J) for J in range(top) if freq[J] and J & (J - 1))
    rows.append((lcm[top], 1, kap[top], top))
    strata = []
    for T, frequency, kappa, J in rows:
        indices = tuple(_bits(J))
        m_t = len(indices)
        mu = sum([T // e - -T // e for e in a.entries]) - 2 * T
        strata.append(Stratum(T, indices, m_t, mu, _chi_s1(m_t, kappa), frequency))
    return tuple(strata)


def sign_coherence(a, report):
    # the two sides of sign coherence for `a` and its `mean_euler` report:
    # the sum of frequency * chi_S1 over its strata with the per-stratum
    # signs (-1)^(mu_RS - m_t), and the lattice sum with the global sign
    # (-1)^(n+1), from a table built here
    stratified = sum((-1) ** ((s.mu_rs - s.m_t) % 2) * s.frequency * s.chi_s1
                     for s in report.strata)
    return stratified, (-1) ** (a.n + 1) * _chi_numerator(subset_lattice(a, DEFAULT_LIMITS))


def fraction_connected_sum(values, n):
    # the connected-sum value summed with Fraction arithmetic throughout
    correction = Fraction((-1) ** n, 2)
    return sum(values, start=Fraction(0)) + (len(values) - 1) * correction


def loop_subset_lattice(a: ExponentTuple, limits: Limits) -> tuple[list[int], list[int], list[int]]:
    """lcm[J], freq[J] and kappa[J] for every subset J of entry positions.

    The loop kernel: one lcm and one product per subset, from J without its
    lowest position, and Moebius transforms that visit every subset once per
    position. `topology.subset_lattice` must return exactly these tables.

    For 0 < x <= d let J(x) = {j : a_j | x}. Since d // lcm[J] of them have
    J(x) containing J, the superset Moebius transform of these counts is
    freq[J] = #{x : J(x) = J}, and the entries sum to d. It vanishes unless J
    is closed (every a_j dividing lcm(J) is in J), as J(x) is; x = d alone
    has every position, so the top entry is 1. kappa is the subset Moebius
    transform of the quotients prod // lcm. Each table has 2^L entries, so
    the length is capped before any is allocated.
    """
    _require_exponent_tuple(a)
    L, entries = a.length, a.entries
    if L > limits.subset_cap:
        raise CapacityError(f"the subset lattice walks 2^{L} subsets, exceeding the "
                            f"length cap of {limits.subset_cap}")
    size = 1 << L
    lcm, kap = [1] * size, [1] * size  # kap holds prod[J] until the quotients replace it
    for J in range(1, size):  # from J without its lowest position
        low = J & -J
        lcm[J] = math.lcm(lcm[J ^ low], entries[low.bit_length() - 1])
        kap[J] = kap[J ^ low] * entries[low.bit_length() - 1]
    for J in range(1, size):
        kap[J], rem = divmod(kap[J], lcm[J])
        if rem:
            raise BrieskornError(f"lcm does not divide the product on subset {J:b} of {a}")
    for j, k in combinations_with_replacement(range(L), 2):  # singletons 1, pairs their gcd
        if kap[1 << j | 1 << k] != (1 if j == k else math.gcd(entries[j], entries[k])):
            raise BrieskornError(f"product/lcm quotient check fails at {j}, {k} of {a}")
    d = lcm[-1]
    freq = [d // m for m in lcm]
    for i in range(L):
        bit = 1 << i
        for base in range(0, size, 2 * bit):
            for J in range(base, base + bit):
                freq[J] -= freq[J | bit]
                kap[J | bit] -= kap[J]
    return lcm, freq, kap


def alternating_kappa(entries):
    # Milnor-Orlik: the alternating sum over all subsets of the product/lcm
    # quotients, of any length (the empty subset has product 1 and lcm 1)
    L = len(entries)
    total = 0
    for k in range(L + 1):
        for subset in combinations(entries, k):
            quotient, rem = divmod(math.prod(subset), math.lcm(*subset))
            assert rem == 0, subset
            total += (-1) ** (L - k) * quotient
    return total


def brieskorn_pham_kappa(entries):
    # Brieskorn-Pham: the middle homology rank counts the exponent vectors
    # 0 < i_j < a_j with sum_j i_j / a_j an integer; over L = lcm(a) that is
    # sum_j i_j * (L // a_j) divisible by L
    big = math.lcm(*entries)
    weights = [big // a for a in entries]
    return sum(
        1
        for i in product(*(range(1, a) for a in entries))
        if sum(x * w for x, w in zip(i, weights)) % big == 0
    )


def pairwise_isolated_exponent(entries):
    # some entry coprime to each other entry, one gcd per ordered pair
    return any(
        all(math.gcd(e, f) == 1 for j, f in enumerate(entries) if j != i)
        for i, e in enumerate(entries)
    )


def per_tuple_isolated_census(max_entry):
    # verify-paper item 10's census tuple by tuple: every sorted 4-tuple over
    # [2, max_entry] built as an ExponentTuple and read by the library; how
    # many have an isolated exponent, and the set of those of total index 0
    isolated, zero_index = 0, set()
    for entries in combinations_with_replacement(range(2, max_entry + 1), 4):
        t = ExponentTuple(entries)
        isolated += has_isolated_exponent(t)
        if total_rs_index(t) == 0:
            zero_index.add(entries)
    return isolated, zero_index


def certificate_to_obj(cert):
    # one certificate as the JSON object of its file line, keys in file order
    return {
        "tuple_a": tuple_obj(cert.tuple_a),
        "tuple_b": tuple_obj(cert.tuple_b),
        "chi_a": fraction_obj(cert.chi_a),
        "chi_b": fraction_obj(cert.chi_b),
        "chi_sum": fraction_obj(cert.chi_sum),
        "dimension": cert.dimension,
        "boundary": cert.boundary,
        "conclusion": cert.conclusion,
    }


def json_dumps_lines(certificates):
    # the certificate file's text, one `json.dumps` of each certificate object
    return "".join(
        json.dumps(certificate_to_obj(c), separators=(",", ":")) + "\n" for c in certificates
    )


_CERTIFICATE_FIELDS = (
    "tuple_a", "tuple_b", "chi_a", "chi_b", "chi_sum", "dimension", "boundary", "conclusion",
)


def _per_field_certificate(obj):
    missing = [k for k in _CERTIFICATE_FIELDS if k not in obj]
    if missing:
        raise InvalidInputError(f"missing fields {missing}")
    for side in ("tuple_a", "tuple_b"):
        if not isinstance(obj[side], list):
            raise InvalidInputError(f"{side} must be a list of decimal strings")
    tuples, chis = {}, {}
    for side in ("a", "b"):
        what = f"tuple_{side}"
        t = tuples[side] = ExponentTuple(tuple(parse_int(e, f"{what} entry") for e in obj[what]))
        if len(t.entries) != 4:
            raise InvalidInputError(
                f"{what} has {len(t.entries)} entries, but a 5-dimensional sphere needs 4"
            )
        verdict = set_criterion(t)
        if not verdict.is_sphere:
            raise InvalidInputError(f"{what} {t} is not a sphere tuple ({verdict.kind.value})")
        chi_m = per_stratum_mean_euler(t).value
        if chi_m is None:
            raise InvalidInputError(f"{what} {t} has no chi_m (total index 0)")
        chi = chis[side] = parse_fraction(obj[f"chi_{side}"], f"chi_{side}")
        if chi != chi_m:
            raise InvalidInputError(f"chi_{side} {chi} is not chi_m {chi_m} of {t}")
    chi_sum = parse_fraction(obj["chi_sum"], "chi_sum")
    if type(obj["dimension"]) is not int or obj["dimension"] != 5:
        raise InvalidInputError(f"dimension must be 5, got {obj['dimension']!r}")
    if type(obj["boundary"]) is not bool:
        raise InvalidInputError(f"boundary must be a boolean, got {obj['boundary']!r}")
    if obj["conclusion"] != CONCLUSION:
        raise InvalidInputError(f"conclusion must be {CONCLUSION!r}, got {obj['conclusion']!r}")
    return NonBrieskornCertificate(
        tuple_a=tuples["a"],
        tuple_b=tuples["b"],
        chi_a=chis["a"],
        chi_b=chis["b"],
        chi_sum=chi_sum,
        boundary=obj["boundary"],
    )


def _per_field_line(lineno, line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(lineno, f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise CertificateFormatError(lineno, "expected a JSON object")
    try:
        return _per_field_certificate(obj)
    except InvalidInputError as exc:
        raise CertificateFormatError(lineno, str(exc)) from None


def per_field_read_certificates(path):
    # the certificate reader without caches: every field of every line
    # parsed and validated on its own, in any JSON spelling; blank lines skipped
    with open(path, encoding="utf-8") as fh:
        return [
            _per_field_line(lineno, line)
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]


def canonical_read_certificates(path):
    # the per-field reader with each line held to `json_dumps_lines` of the
    # certificate read from it: a blank line, any other spelling and a \r\n
    # line end are refused
    out = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                raise CertificateFormatError(lineno, "blank line")
            cert = _per_field_line(lineno, line)
            if line != json_dumps_lines([cert]):
                raise CertificateFormatError(lineno, "not the json.dumps line of its certificate")
            out.append(cert)
    return out


def parse_fraction(obj, what="rational"):
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise InvalidInputError(f"{what} must be an object with num/den, got {obj!r}")
    num = parse_int(obj["num"], f"{what}.num")
    den = parse_int(obj["den"], f"{what}.den")
    if den <= 0:
        raise InvalidInputError(f"{what}.den must be positive, got {den}")
    return Fraction(num, den)
