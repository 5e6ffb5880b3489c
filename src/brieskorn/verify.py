"""End-to-end reproduction suite behind the `verify-paper` CLI command.

Each item recomputes one of the package's reference results from scratch
and reports pass/fail. Everything is exact arithmetic, so every check is an
equality at tolerance zero; the only inequalities are the stated runtime
budgets. The random sample in item 6 is seeded, so the whole suite is
deterministic.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Sequence

from .certify import certify_non_brieskorn_pairs, distinctness_classes, enumerate_sphere_tuples
from .errors import CapacityError
from .exactarith import dominance_check, dominance_margin
from .families import (
    CHI_DENOMINATOR,
    DERIVATIVE_COMBINATION_COEFFS,
    derivative_combination,
    fermat_asymptotics_report,
    fermat_number,
    fermat_tuple,
    sigma_family_report,
    sigma_m_tuple,
)
from .limits import DEFAULT_LIMITS, Limits
from .reeb import (
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    total_rs_index,
)
from .topology import ExponentTuple, SphereKind, evaluate_criterion, kappa

DEFAULT_SEED = 20250707

# Largest antichain `_inclusion_exclusion_frequencies` sums over; the sum
# has 2^size terms.
_ANTICHAIN_CAP = 24


@dataclass(frozen=True)
class CheckResult:
    item: int
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class SuiteResult:
    checks: tuple[CheckResult, ...]
    total_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _direct_frequencies(periods: Sequence[int]) -> list[int]:
    # Direct counting oracle, independent of the inclusion-exclusion oracle
    # below and of the subset lattice behind `reeb.frequencies`: the periods
    # claim the positions below the top period d from largest to smallest, so
    # each multiple is counted once, by the largest period dividing it, which
    # is "multiples of T below d that no larger period divides". One byte per
    # position below d; the filter d <= 10^6 in item 8 keeps that at most 1 MB.
    top = periods[-1]
    claimed = bytearray(top)
    out = [1]
    for t in reversed(periods[:-1]):
        out.append(claimed[t::t].count(0))
        claimed[t::t] = b"\x01" * len(range(t, top, t))
    out.reverse()
    return out


def _inclusion_exclusion_frequencies(periods: Sequence[int]) -> list[int]:
    # Inclusion-exclusion oracle, independent of the subset lattice and of
    # the claiming count above: a larger period U divides a*T iff the
    # reduced modulus U // gcd(U, T) divides a, so the multiples of T below
    # d that avoid every larger period are a signed subset sum over those
    # moduli. A modulus that another one divides excludes nothing more, so
    # only the divisibility-minimal ones (an antichain) enter the sum.
    top = periods[-1]
    out = []
    for i, t in enumerate(periods[:-1]):
        antichain: list[int] = []
        for q in sorted({u // math.gcd(u, t) for u in periods[i + 1 :]}):
            if all(q % p for p in antichain):  # ascending, so divisors came first
                antichain.append(q)
        if len(antichain) > _ANTICHAIN_CAP:
            raise CapacityError(
                f"inclusion-exclusion antichain has {len(antichain)} elements "
                f"at period {t}, exceeding the cap of {_ANTICHAIN_CAP}"
            )
        total = 0
        for k in range(len(antichain) + 1):
            for subset in combinations(antichain, k):
                total += (-1) ** k * ((top - 1) // (t * math.lcm(*subset)))
        out.append(total)
    return out + [1]


def _item_1_sigma4_both_routes(limits: Limits, ctx: dict) -> tuple[bool, str]:
    target = Fraction(407, 2642)
    a = sigma_m_tuple(4)
    general = mean_euler(a, limits).value
    closed = mean_euler_coprime(a)
    ok = general == target == closed
    return ok, f"general route gives {general}, coprime closed form gives {closed}"


def _item_2_closed_form_agreement(limits: Limits, ctx: dict) -> tuple[bool, str]:
    report = sigma_family_report(4, 200, limits)
    ok = report.closed_form_agreement and report.strictly_decreasing
    n_checked = sum(1 for r in report.rows if r.pairwise_coprime)
    return ok, (
        f"{n_checked} parameters with gcd(m,3)=1 in [4,200]: "
        f"agreement={report.closed_form_agreement}, "
        f"strictly decreasing={report.strictly_decreasing}"
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
        and len(classes.classes) == len(ms)
        and not any(cls.inconclusive for cls in classes.classes)
    )
    got = m4.chi_sum if m4 else None
    return ok, (
        f"self-sum at m=4 is {got}; {len(self_certs)} self-certificates in "
        f"{len(classes.classes)} distinct classes"
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
    rng = random.Random(ctx["seed"])
    tuples = []
    for _ in range(1000):
        length = rng.randint(2, 6)
        tuples.append(ExponentTuple(tuple(rng.randint(2, 30) for _ in range(length))))
    ctx["random_tuples"] = tuples
    checked = 0
    for t in tuples:
        report = mean_euler(t, limits)  # raises if the two sign routes differ
        for s in report.strata:
            if (s.mu_rs - (t.n + 1 - s.m_t)) % 2 != 0:
                return False, f"parity violated for {t} at period {s.period}"
            checked += 1
    return True, f"{len(tuples)} random tuples, {checked} strata parity-checked"


def _item_7_sphere_enumeration(limits: Limits, ctx: dict) -> tuple[bool, str]:
    spheres = enumerate_sphere_tuples(20, 4, limits)
    ctx["sphere_tuples_20"] = spheres
    for t in spheres:
        for idx in combinations(range(4), 3):
            if kappa(t.subtuple(idx), limits) != 0:
                return False, f"nonzero homology rank for triple {idx} of {t}"
        value = mean_euler(t, limits).value
        if value is None or value <= 0:
            return False, f"mean Euler characteristic of {t} is {value}, expected > 0"
    return True, f"{len(spheres)} sphere tuples with entries <= 20, all positive"


def _item_8_frequency_oracle(limits: Limits, ctx: dict) -> tuple[bool, str]:
    pool: list[ExponentTuple] = [ExponentTuple((4, 5, 9, 19)), ExponentTuple((2, 3, 5))]
    pool += [sigma_m_tuple(m) for m in range(4, 201)]
    pool += ctx.get("random_tuples", [])
    pool += ctx.get("sphere_tuples_20", [])
    seen: set[tuple[int, ...]] = set()
    checked = 0
    for t in pool:
        key = tuple(sorted(t.entries))
        if key in seen or t.d > 10**6:
            continue
        seen.add(key)
        # the oracles get the periods from a subset walk, independent of the lattice
        subsets = (s for k in range(2, t.length + 1) for s in combinations(t.entries, k))
        periods = sorted({math.lcm(*s) for s in subsets})
        if not (
            frequencies(t)
            == _inclusion_exclusion_frequencies(periods)
            == _direct_frequencies(periods)
        ):
            return False, f"frequency mismatch for {t}"
        checked += 1
    return True, (
        f"{checked} tuples with d <= 10^6: subset lattice, inclusion-exclusion "
        "and direct count agree"
    )


def _item_9_fermat_suite(limits: Limits, ctx: dict) -> tuple[bool, str]:
    numbers = [fermat_number(k, limits) for k in range(8)]
    running = numbers[0]
    for k in range(1, 8):
        if numbers[k] != running + 2:
            return False, f"product recursion fails at index {k}"
        running *= numbers[k]
    verdict = evaluate_criterion(fermat_tuple(2, 3, limits))
    if verdict.kind is not SphereKind.SPHERE_BY_I:
        return False, f"Fermat tuple verdict is {verdict.kind.value}"
    report = fermat_asymptotics_report([2, 3, 4], 3, limits)
    ok = report.passed and all(r.self_sum_sign_negative for r in report.rows)
    errs = ", ".join(f"l={r.ell}: |ratio-1|={r.ratio_error.numerator}/{r.ratio_error.denominator}"
                     for r in report.rows) if not ok else ""
    return ok, (
        "recursion exact through index 7; ratio error strictly decreasing "
        "over l in {2,3,4}; all signed values in (0, 1/4); self-sums negative"
        + (f" [{errs}]" if errs else "")
    )


def _item_10_isolated_exponent(limits: Limits, ctx: dict) -> tuple[bool, str]:
    checked = 0
    for entries in combinations_with_replacement(range(2, 31), 4):
        t = ExponentTuple(entries)
        if has_isolated_exponent(t):
            checked += 1
            if total_rs_index(t) == 0:
                return False, f"{t} has an isolated exponent but total index 0"
    undefined = not mean_euler(ExponentTuple((2, 4, 6, 12)), limits).defined
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


def run_reproduction_suite(
    limits: Limits = DEFAULT_LIMITS, seed: int = DEFAULT_SEED
) -> SuiteResult:
    """Run all reproduction items and collect per-item results."""
    ctx: dict = {"seed": seed}
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
