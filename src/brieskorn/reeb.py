"""Reeb period lattice, fixed-point strata and the mean Euler characteristic.

The Reeb flow on the manifold of a = (a_0, ..., a_n) rotates the j-th
coordinate at speed 1/a_j, so a point returns after time T exactly when
every a_j supporting it divides T. The minimal periods are therefore the
lcms of subsets of at least two exponents (no point of the manifold has
fewer than two nonzero coordinates), and the points of period T form a
smaller Brieskorn manifold on the exponents dividing T.

Per stratum the relevant data are its Robbin-Salamon index

    mu_RS(Sigma_T) = sum_j (floor(T/a_j) + ceil(T/a_j)) - 2T,

its equivariant Euler characteristic, and its frequency: the number of
multiples of T below the top period d that are not multiples of any larger
period. Periods, frequencies and every kappa (Milnor-Orlik) come from one
lcm per subset of entries and two fast Moebius transforms over that subset
lattice ("Fourier meets Moebius", Bjorklund et al. 2007). The mean Euler
characteristic combines them into one exact rational divided by the total
index 2d(sum_j 1/a_j - 1); it is an invariant of the contact structure and
is defined whenever that total index is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .errors import BrieskornError, CapacityError, InvalidInputError, PreconditionError
from .limits import DEFAULT_LIMITS, Limits
from .topology import ExponentTuple, noncoprime_pair

__all__ = [
    "Stratum",
    "MeanEulerReport",
    "reeb_periods",
    "stratum",
    "total_rs_index",
    "frequencies",
    "mean_euler",
    "mean_euler_coprime",
    "connected_sum_chi",
    "has_isolated_exponent",
]


@dataclass(frozen=True)
class Stratum:
    """All T-periodic points of the Reeb flow, itself a Brieskorn manifold.

    `indices` are the positions j with a_j | T, `subtuple` the exponents on
    them, `m_t` their count. The stratum has dimension 2*m_t - 3 and its
    orbit space dimension 2*m_t - 4.
    """

    period: int
    indices: tuple[int, ...]
    subtuple: ExponentTuple
    m_t: int
    dim: int
    quotient_dim: int
    mu_rs: int
    chi_s1: int
    frequency: int


@dataclass(frozen=True)
class MeanEulerReport:
    exponents: ExponentTuple
    total_index: int
    defined: bool
    value: Fraction | None
    strata: tuple[Stratum, ...]
    global_sign: int

    def __post_init__(self):
        if self.defined != (self.total_index != 0):
            raise InvalidInputError(
                f"defined is {self.defined} but the total index is {self.total_index}"
            )
        if (self.value is not None) != self.defined:
            raise InvalidInputError(f"value {self.value} contradicts defined={self.defined}")


def _lattice(a: ExponentTuple, limits: Limits) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The strata as (period, frequency, kappa of the entries dividing the
    period), by period, and kappa[J] for every subset J of entry positions.

    For 0 < x < d let J(x) = {j : a_j | x}. Since d // lcm[J] - 1 of them
    have J(x) containing J, the superset Moebius transform of these counts
    is freq[J] = #{x : J(x) = J}. It vanishes unless J is closed (every a_j
    dividing lcm(J) is in J), as J(x) is, so its nonzero entries with
    |J| >= 2 are the strata below d, which has frequency 1 by convention.
    kappa is the subset Moebius transform of the quotients prod // lcm.
    """
    L, entries = a.length, a.entries
    if L > limits.subset_cap:
        raise CapacityError(f"the period lattice walks 2^{L} subsets, exceeding the "
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
    freq = [d // m - 1 for m in lcm]
    for i in range(L):
        bit = 1 << i
        for base in range(0, size, 2 * bit):
            for J in range(base, base + bit):
                freq[J] -= freq[J | bit]
                kap[J | bit] -= kap[J]
    rows = sorted((lcm[J], freq[J], kap[J]) for J in range(size - 1) if freq[J] and J & (J - 1))
    return rows + [(d, 1, kap[-1])], kap


def reeb_periods(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> list[int]:
    """Sorted minimal periods: lcms of all subsets of >= 2 exponents.

    The largest entry is always d, the lcm of the whole tuple.
    """
    return [T for T, _, _ in _lattice(a, limits)[0]]


def _floor_ceil_index(a: ExponentTuple, T: int) -> int:
    # floor(T/e) + ceil(T/e), with the ceiling as -floor(-T/e)
    return sum(T // e - -T // e for e in a.entries) - 2 * T


def _build_stratum(a: ExponentTuple, T: int, frequency: int, kappa: int) -> Stratum:
    indices = tuple(j for j, e in enumerate(a.entries) if T % e == 0)
    # a period is an lcm of >= 2 entries, so at least those entries divide it
    if len(indices) < 2:
        raise BrieskornError(f"period {T} of {a} is divided by fewer than two entries")
    m_t = len(indices)
    mu = _floor_ceil_index(a, T)
    # Each exponent not dividing T contributes an odd floor+ceil term.
    if (mu - (a.n + 1 - m_t)) % 2 != 0:
        raise BrieskornError(f"index parity fails for {a} at period {T}: mu_RS = {mu}")
    return Stratum(
        period=T,
        indices=indices,
        subtuple=a.subtuple(indices),
        m_t=m_t,
        dim=2 * m_t - 3,
        quotient_dim=2 * m_t - 4,
        mu_rs=mu,
        # chi_S1 = n + (-1)^(n-1) kappa on the subtuple, which has n = m_t - 1
        chi_s1=m_t - 1 + (-1) ** m_t * kappa,
        frequency=frequency,
    )


def frequencies(a: ExponentTuple) -> list[int]:
    """Frequency of each period of `reeb_periods(a)`: the multiples of it
    below the top period d that no larger period divides. The top period
    itself has frequency 1 by convention."""
    if not isinstance(a, ExponentTuple):
        raise InvalidInputError(f"frequencies take an ExponentTuple, got {type(a).__name__}")
    return [f for _, f, _ in _lattice(a, DEFAULT_LIMITS)[0]]


def stratum(a: ExponentTuple, T: int, limits: Limits = DEFAULT_LIMITS) -> Stratum:
    """Fully populated stratum for one period of the flow on `a`."""
    rows = {row[0]: row for row in _lattice(a, limits)[0]}
    if T not in rows:
        raise InvalidInputError(f"{T} is not a Reeb period of {a}; periods are {list(rows)}")
    return _build_stratum(a, *rows[T])


def total_rs_index(a: ExponentTuple) -> int:
    """Robbin-Salamon index of the whole manifold: 2d(sum_j 1/a_j - 1)."""
    d = a.d
    return 2 * (sum(d // e for e in a.entries) - d)


def mean_euler(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> MeanEulerReport:
    """Mean Euler characteristic via the stratified formula.

    The signed sum over strata is evaluated twice, once with the
    per-stratum signs (-1)^(mu_RS - quotient_dim/2) and once with the global
    prefactor (-1)^(n+1); the index parity relation makes these agree and
    the agreement is enforced.
    """
    total = total_rs_index(a)
    strata = tuple(_build_stratum(a, *row) for row in _lattice(a, limits)[0])

    numerator_global = sum(s.frequency * s.chi_s1 for s in strata)
    numerator_stratified = sum(
        (-1) ** ((s.mu_rs - (s.quotient_dim // 2)) % 2) * s.frequency * s.chi_s1
        for s in strata
    )
    global_sign = (-1) ** (a.n + 1)
    if numerator_stratified != global_sign * numerator_global:
        raise BrieskornError(
            f"sign coherence failed for {a}: stratified numerator "
            f"{numerator_stratified} != {global_sign} * {numerator_global}"
        )

    if total == 0:
        return MeanEulerReport(a, 0, False, None, strata, global_sign)
    value = Fraction(global_sign * numerator_global, abs(total))
    return MeanEulerReport(a, total, True, value, strata, global_sign)


def mean_euler_coprime(a: ExponentTuple) -> Fraction:
    """Closed form of the mean Euler characteristic for pairwise coprime
    exponents:

        (-1)^(n+1) * [sum_{s=0}^{n-1} (n-s) e_s(a_0 - 1, ..., a_n - 1)]
                   / (2 |sum_j prod(a)/a_j - prod(a)|)

    with e_s the elementary symmetric polynomial of degree s.
    """
    bad = noncoprime_pair(a)
    if bad is not None:
        i, j = bad
        raise PreconditionError(
            f"entries at indices {i} and {j} are not coprime: "
            f"gcd({a.entries[i]}, {a.entries[j]}) = {math.gcd(a.entries[i], a.entries[j])}"
        )
    n = a.n
    shifted = [e - 1 for e in a.entries]
    elementary = [1] + [0] * len(shifted)
    for v in shifted:
        for k in range(len(shifted), 0, -1):
            elementary[k] += v * elementary[k - 1]
    bracket = sum((n - s) * elementary[s] for s in range(n))
    prod = math.prod(a.entries)
    denominator = 2 * abs(sum(prod // e for e in a.entries) - prod)
    return Fraction((-1) ** (n + 1) * bracket, denominator)


def connected_sum_chi(values: Sequence[Fraction], n: int) -> Fraction:
    """Mean Euler characteristic of a contact connected sum in dimension 2n-1.

    Each junction adds (-1)^n * 1/2, so k summands contribute their sum plus
    (k - 1) such corrections. Associative and commutative by construction.

    The summands must be exact rationals (`Fraction` or `int`). Their
    numerators and denominators are accumulated over the integers, starting
    from (-1)^n * (k - 1) / 2, and reduced by one gcd at the end; the
    denominator stays positive, so the result is the reduced `Fraction`.
    """
    if not values:
        raise InvalidInputError("connected sum needs at least one summand")
    if n < 2:
        raise InvalidInputError(f"connected sum needs n >= 2, got {n}")
    num, den = (-1) ** n * (len(values) - 1), 2
    try:
        for v in values:
            num, den = num * v.denominator + v.numerator * den, den * v.denominator
    except (AttributeError, TypeError):
        raise InvalidInputError(
            f"connected sum summands must be exact rationals (Fraction or int), got {values!r}"
        ) from None
    return Fraction(num, den)


def has_isolated_exponent(a: ExponentTuple) -> bool:
    """True iff some entry is coprime to all the others.

    A sufficient condition for the mean Euler characteristic to be defined:
    with an isolated exponent the unit-fraction sum cannot equal 1.
    """
    for i, e in enumerate(a.entries):
        if all(math.gcd(e, f) == 1 for j, f in enumerate(a.entries) if j != i):
            return True
    return False
