"""End-to-end reproduction suite behind the `verify-paper` CLI command.

Each item recomputes one of the package's reference results from scratch
and reports pass/fail. Items 6 and 7 build the subset lattices of their
tuples in chunks of one length (`topology.subset_lattices`) and read each
table through the `reeb` seams. Item 6 is the sign-coherence oracle of
`reeb.mean_euler`: per stratum, positions by division and the index
parity; per tuple, the builder's numerator, which is the value
`mean_euler` reports, and the stratified sum against the lattice sum.
Items 6 and 7 record the strata frequencies in the run's context, and
item 8 compares those with its oracles instead of building the same
subset lattices again: the claiming count and Moebius inversion on the
poset of the tuple's periods, which take their periods from a subset walk
of their own. Item 9 checks what the Fermat functions only compute: the
product recursion on F_0, ..., F_7, and each row's closed form against
the general algorithm. Items that read only the value of chi_m take it
from the lattice sum (`reeb.chi_m`, or `reeb._chi_m` on a table already
built) and build no strata. Item 10 sweeps sorted prefixes and builds a
tuple only where the last entry makes the total index 0. Everything is
exact arithmetic, so every check is an equality at tolerance zero; the
only inequalities are the stated runtime budgets. The random sample in
item 6 is seeded, so the whole suite is deterministic.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations, groupby
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .certify import certify_non_brieskorn_pairs, distinctness_classes, enumerate_sphere_tuples
from .exactarith import dominance_check, dominance_margin
from .families import (
    CHI_DENOMINATOR,
    DERIVATIVE_COMBINATION_COEFFS,
    closed_form_checks,
    derivative_combination,
    fermat_asymptotics_report,
    fermat_tuple,
    sigma_family_rows,
    sigma_m_tuple,
)
from .limits import DEFAULT_LIMITS, Limits
from .reeb import (
    _build_strata,
    _chi_m,
    _chi_numerator,
    _frequencies,
    chi_m,
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    total_rs_index,
)
from .topology import (
    ExponentTuple,
    SphereKind,
    _chi_s1,
    gcd_masks,
    sphere_kind,
    subset_lattices,
)

DEFAULT_SEED = 20250707


class CheckResult(NamedTuple):
    item: int
    name: str
    passed: bool
    detail: str
    seconds: float


class SuiteResult(NamedTuple):
    checks: tuple[CheckResult, ...]
    total_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# positions per window of `_direct_frequencies`, which holds one window and
# two slices of at most half of one, whatever d is. Each window loops over
# every period once, so smaller windows cost more time: on item 8's 3,766
# period sets, 2^17 takes ~39 ms against ~35 ms for one window of d bytes,
# and 2^16 ~42 ms (Python 3.11, 2 vCPU)
_WINDOW = 1 << 17


def _direct_frequencies(periods: Sequence[int]) -> list[int]:
    # Direct counting oracle, independent of the recurrence below and of the
    # subset lattice behind `reeb.frequencies`: the periods claim the
    # positions of one full period from largest to smallest, so each multiple
    # is counted once, by the largest period dividing it, which is "multiples
    # of T up to and including d that no larger period divides". The
    # positions are taken mod d, so position 0 stands for d itself, a
    # multiple of every period and d's alone; it is claimed before the loop
    # and d's count appended after it, as letting the top period claim it in
    # the loop took item 8's period sets 2-14% longer (2 vCPU, Python 3.11).
    # A segmented sieve (Bays and Hudson, 1977): the positions are walked in
    # windows of `_WINDOW`, and in each window every period in turn claims
    # its free multiples from the first one at or above the window's start.
    # The claim rule is per position, so the counts of the windows add up;
    # the filter d <= 10^6 in item 8 bounds the time this takes, not its
    # memory.
    top = periods[-1]
    descending = periods[-2::-1]
    counts = [0] * len(descending)
    for lo in range(0, top, _WINDOW):
        claimed = bytearray(min(_WINDOW, top - lo))
        if not lo:
            claimed[0] = 1
        for i, t in enumerate(descending):
            start = -lo % t
            free = claimed[start::t]
            counts[i] += free.count(0)
            claimed[start::t] = b"\x01" * len(free)
    counts.reverse()
    counts.append(1)
    return counts


def _recurrence_frequencies(periods: Sequence[int]) -> list[int]:
    """Frequency of each of `periods`, by Moebius inversion on the poset of
    the periods ordered by divisibility, from the top period d down:

        f(T) = d // T - sum(f(U) for the periods U > T with T | U)

    so f(d) = 1. The periods must be sorted and closed under lcm, as the
    subset walk of item 8 makes them. Then the periods dividing a multiple x
    of T in (0, d] have their lcm among the periods: the largest period
    dividing x, a multiple of T. So the d // T multiples of T split by that
    period U, and f(U) of them go to each U. Inverting the sum over the
    poset is the general form of inclusion-exclusion (Rota, 1964).
    Independent of the subset lattice and of the claiming count.
    """
    top = periods[-1]
    above: list[tuple[int, int]] = []  # (U, f(U)) for the periods done so far
    out = []
    for t in reversed(periods):
        f = top // t
        for u, g in above:
            if not u % t:
                f -= g
        above.append((t, f))
        out.append(f)
    out.reverse()
    return out


def _stratified_route(entries: Sequence[int], strata) -> tuple[list[tuple[int, ...]], int]:
    """Item 6's second route to the strata: the positions of the entries
    dividing each period, found by division, and the sum of frequency *
    chi_S1 with the per-stratum signs (-1)^(mu_RS - m_t), m_t counted from
    those positions. Where every index parity holds, that sum is the
    lattice sum times the global sign (-1)^(n+1)."""
    positions, total = [], 0
    for period, _, _, mu_rs, chi_s1, frequency in strata:
        idx = tuple([j for j, e in enumerate(entries) if period % e == 0])
        positions.append(idx)
        total += (-1) ** ((mu_rs - len(idx)) % 2) * frequency * chi_s1
    return positions, total


def _item_1_sigma4_both_routes(limits: Limits, ctx: dict) -> tuple[bool, str]:
    target = Fraction(407, 2642)
    a = sigma_m_tuple(4)
    general = chi_m(a, limits)
    closed = mean_euler_coprime(a)
    ok = general == target == closed
    return ok, f"general route gives {general}, coprime closed form gives {closed}"


def _item_2_closed_form_agreement(limits: Limits, ctx: dict) -> tuple[bool, str]:
    rows = sigma_family_rows(4, 200, limits)
    agreement, decreasing = closed_form_checks(rows)
    n_checked = sum(1 for r in rows if r.pairwise_coprime)
    return agreement and decreasing, (
        f"{n_checked} parameters with gcd(m,3)=1 in [4,200]: "
        f"agreement={agreement}, strictly decreasing={decreasing}"
    )


def _item_3_connected_sum_certificates(limits: Limits, ctx: dict) -> tuple[bool, str]:
    ms = (4, 5, 7, 8, 10)
    tuples = [sigma_m_tuple(m) for m in ms]
    certs = certify_non_brieskorn_pairs(tuples, limits)
    self_certs = [c for c in certs if c.tuple_a == c.tuple_b]
    by_first = {c.tuple_a.entries[0]: c for c in self_certs}
    target = Fraction(-507, 2642)
    m4 = by_first.get(4)
    classes = distinctness_classes(self_certs)
    ok = (
        len(self_certs) == len(ms)
        and m4 is not None
        and m4.chi_sum == target
        and m4.chi_sum < 0
        and len(classes) == len(ms)
        and not any(cls.inconclusive for cls in classes)
    )
    got = m4.chi_sum if m4 else None
    return ok, (
        f"self-sum at m=4 is {got}; {len(self_certs)} self-certificates in "
        f"{len(classes)} distinct classes"
    )


def _item_4_derivative_combination(limits: Limits, ctx: dict) -> tuple[bool, str]:
    combo = derivative_combination()
    ok = combo.coeffs == DERIVATIVE_COMBINATION_COEFFS
    return ok, f"coefficients (ascending) = {list(combo.coeffs)}"


def _item_5_dominance(limits: Limits, ctx: dict) -> tuple[bool, str]:
    head, tail = dominance_margin(CHI_DENOMINATOR, 3)
    ok = dominance_check(CHI_DENOMINATOR, 3) and (head, tail) == (1296, 774)
    return ok, f"leading term {head} > lower-order bound {tail} at radius 3"


def _item_6_parity_and_signs(limits: Limits, ctx: dict) -> tuple[bool, str]:
    rng = random.Random(DEFAULT_SEED)
    tuples = []
    for _ in range(1000):
        length = rng.randint(2, 6)
        tuples.append(ExponentTuple(tuple(rng.randint(2, 30) for _ in range(length))))
    ctx["random_tuples"] = tuples
    recorded = ctx.setdefault("frequencies", {})
    checked = 0
    # the lattices are built in chunks of one length (`subset_lattices`)
    by_length = sorted(tuples, key=attrgetter("length"))
    for length, group in groupby(by_length, key=attrgetter("length")):
        group = list(group)  # n + 1 = length for each tuple t of the group
        for t, lattice in zip(group, subset_lattices(group, limits)):
            strata, built = _build_strata(t, lattice)
            recorded[tuple(sorted(t.entries))] = [s.frequency for s in strata]
            positions, stratified = _stratified_route(t.entries, strata)
            for s, idx in zip(strata, positions):
                if s.indices != idx:
                    return False, (f"stratum positions {s.indices} of {t} at period "
                                   f"{s.period} are not those of its divisors {idx}")
                if (s.mu_rs - (length - s.m_t)) % 2 != 0:
                    return False, f"parity violated for {t} at period {s.period}"
                checked += 1
            sign, numerator = (-1) ** length, _chi_numerator(lattice)
            if built != numerator:
                return False, (f"strata numerator {built} of {t} != lattice "
                               f"numerator {numerator}")
            if stratified != sign * numerator:
                return False, (f"sign coherence failed for {t}: stratified numerator "
                               f"{stratified} != {sign} * {numerator}")
    return True, f"{len(tuples)} random tuples, {checked} strata parity-checked"


def _item_7_sphere_enumeration(limits: Limits, ctx: dict) -> tuple[bool, str]:
    spheres = enumerate_sphere_tuples(20)
    ctx["sphere_tuples_20"] = spheres
    recorded = ctx.setdefault("frequencies", {})
    # each subtuple of two or more positions, with its bit mask in the lattice
    subtuples = [(idx, sum(1 << i for i in idx))
                 for k in (2, 3, 4) for idx in combinations(range(4), k)]
    for t, lattice in zip(spheres, subset_lattices(spheres, limits)):  # one table per sphere
        kap = lattice[2]
        for idx, J in subtuples:
            if len(idx) == 3 and kap[J] != 0:
                return False, f"nonzero homology rank for triple {idx} of {t}"
            chi = _chi_s1(len(idx), kap[J])
            if chi <= 0:
                return False, f"chi_S1 = {chi} on subtuple {idx} of {t}, expected > 0"
        recorded[tuple(sorted(t.entries))] = _frequencies(lattice)
        value = _chi_m(t, lattice)
        if value is None or value <= 0:
            return False, f"mean Euler characteristic of {t} is {value}, expected > 0"
    return True, f"{len(spheres)} sphere tuples with entries <= 20, all positive"


def _item_8_frequency_oracle(limits: Limits, ctx: dict) -> tuple[bool, str]:
    pool: list[ExponentTuple] = [ExponentTuple((4, 5, 9, 19)), ExponentTuple((2, 3, 5))]
    pool += [sigma_m_tuple(m) for m in range(4, 201)]
    pool += ctx.get("random_tuples", [])
    pool += ctx.get("sphere_tuples_20", [])
    # the lattice frequencies of the tuples items 6 and 7 have built, by sorted entries
    recorded = ctx.get("frequencies", {})
    seen: set[tuple[int, ...]] = set()
    checked = 0
    for t in pool:
        key = tuple(sorted(t.entries))
        if key in seen or t.d > 10**6:
            continue
        seen.add(key)
        lattice_frequencies = recorded.get(key)
        if lattice_frequencies is None:
            lattice_frequencies = frequencies(t, limits)
        # the oracles get the periods from a subset walk, independent of the lattice
        subsets = (s for k in range(2, t.length + 1) for s in combinations(t.entries, k))
        periods = sorted({math.lcm(*s) for s in subsets})
        if not (
            lattice_frequencies
            == _recurrence_frequencies(periods)
            == _direct_frequencies(periods)
        ):
            return False, f"frequency mismatch for {t}"
        checked += 1
    # "inclusion-exclusion" names the recurrence: its general form, on the period poset
    return True, (
        f"{checked} tuples with d <= 10^6: subset lattice, inclusion-exclusion "
        "and direct count agree"
    )


def _item_9_fermat_suite(limits: Limits, ctx: dict) -> tuple[bool, str]:
    numbers = fermat_tuple(0, 7, limits).entries
    for k in range(1, len(numbers)):
        if numbers[k] != math.prod(numbers[:k]) + 2:
            return False, f"Fermat product recursion fails at index {k}"
    kind = sphere_kind(fermat_tuple(2, 3, limits))
    if kind is not SphereKind.SPHERE_BY_I:
        return False, f"Fermat tuple verdict is {kind.value}"
    report = fermat_asymptotics_report([2, 3, 4], 3, limits)
    for r in report.rows:  # the closed form against the general algorithm
        general = chi_m(r.exponents, limits)
        if general != r.chi_m:
            return False, (f"general route gives {general} for {r.exponents}, "
                           f"closed form gives {r.chi_m}")
    ok = report.passed and all(r.self_sum_sign_negative for r in report.rows)
    errs = ", ".join(f"l={r.ell}: |ratio-1|={r.ratio_error.numerator}/{r.ratio_error.denominator}"
                     for r in report.rows) if not ok else ""
    return ok, (
        "recursion exact through index 7; ratio error strictly decreasing "
        "over l in {2,3,4}; all signed values in (0, 1/4); self-sums negative"
        + (f" [{errs}]" if errs else "")
    )


def _isolated_census(max_entry: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Over the sorted 4-tuples with entries in [2, max_entry]: how many have
    an isolated exponent, and the tuples with sum_j 1/a_j = 1, which are
    those of total index 0.

    One pass over the sorted prefixes (a, b, c), the last entry x running
    over [c, max_entry]. From the gcd masks of the values, one mask over x
    marks the x for which some entry is coprime to the other three: an
    entry of the prefix when it is coprime to the rest of the prefix and to
    x, or x itself when it is coprime to all three. The equation
    sum_j 1/a_j = 1 fixes x = abc / (abc - ab - bc - ca), so each prefix
    has at most one such tuple. No `ExponentTuple` is built.
    """
    full = (1 << (max_entry + 1)) - 1
    # coprime[v]: bit y set iff gcd(v, y) == 1, for y in [2, max_entry]
    coprime = [full ^ m for m in gcd_masks(max_entry)]
    isolated = 0
    zero_index = []
    for a in range(2, max_entry + 1):
        co_a = coprime[a]
        for b in range(a, max_entry + 1):
            co_b = coprime[b]
            ab, ab_coprime = a * b, co_a >> b & 1
            for c in range(b, max_entry + 1):
                co_c = coprime[c]
                x_mask = co_a & co_b & co_c  # x isolated
                if ab_coprime and co_a >> c & 1:
                    x_mask |= co_a  # a isolated
                if ab_coprime and co_b >> c & 1:
                    x_mask |= co_b  # b isolated
                if co_c >> a & 1 and co_c >> b & 1:
                    x_mask |= co_c  # c isolated
                isolated += (x_mask >> c).bit_count()
                abc = ab * c
                gap = abc - ab - (a + b) * c
                if gap > 0 and not abc % gap and c <= abc // gap <= max_entry:
                    zero_index.append((a, b, c, abc // gap))
    return isolated, zero_index


def _item_10_isolated_exponent(limits: Limits, ctx: dict) -> tuple[bool, str]:
    # "isolated => nonzero total index" can fail only on a tuple of total
    # index 0, and those are the solved tuples: the library is read on them
    # and on one isolated sphere. The isolated count is the census's, not
    # the library's; tests/test_acceptance.py criterion 10 reads the library
    # on every sorted 4-tuple over [2, 30] and compares it with the census.
    checked, zero_index = _isolated_census(30)
    for entries in zero_index:
        t = ExponentTuple(entries)
        if total_rs_index(t) != 0:
            return False, f"{t} has sum 1/a_j = 1 but total index {total_rs_index(t)}"
        if has_isolated_exponent(t):
            return False, f"{t} has an isolated exponent but total index 0"
    reference = ExponentTuple((4, 5, 9, 19))
    if not has_isolated_exponent(reference) or total_rs_index(reference) != -2642:
        return False, (
            f"{reference} reads isolated={has_isolated_exponent(reference)}, "
            f"total index {total_rs_index(reference)}; expected True, -2642"
        )
    undefined = chi_m(ExponentTuple((2, 4, 6, 12)), limits) is None
    if not undefined:
        return False, "(2, 4, 6, 12) unexpectedly has a defined invariant"
    return True, (
        f"{checked} tuples with an isolated exponent all have nonzero total "
        "index; (2, 4, 6, 12) reported undefined"
    )


def _item_11_hand_worked_triple(limits: Limits, ctx: dict) -> tuple[bool, str]:
    t = ExponentTuple((2, 3, 5))
    report = mean_euler(t, limits)
    target = Fraction(-9, 2)
    periods = [s.period for s in report.strata]
    freqs = [s.frequency for s in report.strata]
    ok = (
        report.value == target
        and mean_euler_coprime(t) == target
        and periods == [6, 10, 15, 30]
        and freqs == [4, 2, 1, 1]
        and report.total_index == 2
    )
    return ok, (
        f"value {report.value} by both formulas; strata {list(zip(periods, freqs))}; "
        f"total index {report.total_index}"
    )


_ITEMS: list[tuple[int, str, Callable, float | None]] = [
    (1, "mean-euler-sigma4-both-routes", _item_1_sigma4_both_routes, 1.0),
    (2, "closed-form-agreement-and-decrease", _item_2_closed_form_agreement, 30.0),
    (3, "connected-sum-certificates-distinct", _item_3_connected_sum_certificates, None),
    (4, "derivative-combination-coefficients", _item_4_derivative_combination, None),
    (5, "denominator-dominance-radius-3", _item_5_dominance, None),
    (6, "stratum-index-parity-and-sign-coherence", _item_6_parity_and_signs, None),
    (7, "sphere-enumeration-positivity", _item_7_sphere_enumeration, 60.0),
    (8, "frequency-direct-count-equivalence", _item_8_frequency_oracle, None),
    (9, "fermat-recursion-and-asymptotics", _item_9_fermat_suite, None),
    (10, "isolated-exponent-definedness", _item_10_isolated_exponent, None),
    (11, "hand-worked-triple-strata", _item_11_hand_worked_triple, None),
]


def run_reproduction_suite(limits: Limits = DEFAULT_LIMITS) -> SuiteResult:
    """Run all reproduction items and collect per-item results."""
    ctx: dict = {}
    checks = []
    suite_start = time.perf_counter()
    for item, name, fn, budget in _ITEMS:
        start = time.perf_counter()
        try:
            passed, detail = fn(limits, ctx)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            passed = False
            detail += f" (exceeded {budget:.0f}s runtime budget: {elapsed:.1f}s)"
        checks.append(CheckResult(item, name, passed, detail, elapsed))
    return SuiteResult(tuple(checks), time.perf_counter() - suite_start)
