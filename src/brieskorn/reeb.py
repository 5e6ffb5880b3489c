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
multiples of T up to and including the top period d that no larger period
divides, so d itself has frequency 1. Periods, frequencies and every kappa
are read from one `topology.subset_lattice` table; the strata are its closed
subsets of two or more entries, the whole tuple among them. The mean Euler
characteristic is the sum of frequency * chi_S1 over those subsets, with the
global sign (-1)^(n+1), divided by the absolute total index
2d(sum_j 1/a_j - 1); it is an invariant of the contact structure and is
defined whenever that total index is nonzero. `chi_m` reads that sum
straight off the table and builds no stratum. `mean_euler` builds the
strata, each field one column read off the table at the closed subsets, and
takes the sum off their frequency and `chi_S1` columns, so each `chi_S1` is
computed once; the tests compare the two values. The positions of a stratum
are those of its subset, read from one table of subset positions that every
call shares (at most 2^11 entries, grown when a longer tuple first needs
them), so strata of one length share their `indices` tuples across calls
and reports; only a tuple of more than 11 entries doubles that table on in a
list of its own call. Only its Robbin-Salamon index is found by
division, of its period by every entry in one stream of quotients; it never
reads the subset, so the parity check of `verify-paper` item 6 on it keeps
its meaning. The second route to the sum, over the strata with the
per-stratum signs, is an oracle of `verify-paper` item 6 and the tests, not
of this module. `_chi_m`, `_mean_euler`, `_build_strata` and `_frequencies`
take a table already built, so a caller with many tuples of one length
builds their tables a chunk at a time (`topology.subset_lattices`) and reads
each through them. A `Stratum` is a named tuple, so it unpacks in field
order and compares equal to a plain tuple of its values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InvalidInputError, PreconditionError
from .limits import DEFAULT_LIMITS, Limits
from .topology import ExponentTuple, _chi_s1, noncoprime_pair, subset_lattice

__all__ = [
    "Stratum",
    "MeanEulerReport",
    "total_rs_index",
    "frequencies",
    "chi_m",
    "mean_euler",
    "mean_euler_coprime",
    "connected_sum_chi",
    "has_isolated_exponent",
]


class Stratum(NamedTuple):
    """All T-periodic points of the Reeb flow, itself a Brieskorn manifold.

    What `mean_euler` computes for the period T: the positions `indices` of
    the a_j | T and their count `m_t`, then `mu_rs`, `chi_s1`, `frequency`.
    The stratum is the manifold of `a.subtuple(indices)`, of dimension
    2*m_t - 3 and orbit space dimension 2*m_t - 4. An immutable named tuple:
    it unpacks in field order and equals a plain tuple of the same values.
    `indices` is an entry of the positions table that `_build_strata` shares,
    so strata of equal positions, in any reports of tuples of one length up
    to 11, hold the same tuple object.
    """

    period: int
    indices: tuple[int, ...]
    m_t: int
    mu_rs: int
    chi_s1: int
    frequency: int


class MeanEulerReport(NamedTuple):
    """The mean Euler characteristic of a tuple with its strata; `value` is
    None exactly when the total index is 0."""

    total_index: int
    value: Fraction | None
    strata: tuple[Stratum, ...]


def _closed_subsets(lcm: list[int], freq: list[int]) -> list[int]:
    # the strata's subsets of a `subset_lattice` table, by period: the closed
    # subsets of two or more positions, whose frequencies are nonzero. The
    # empty subset and the singletons are zeroed in a copy of the
    # frequencies, so `compress` keeps the rest with no test per subset.
    # Distinct closed subsets have distinct lcms, so the periods strictly
    # increase, and the whole tuple, of lcm d, comes last.
    closed = freq[:]
    closed[0] = 0
    for j in range((len(lcm) - 1).bit_length()):
        closed[1 << j] = 0
    subsets = list(compress(range(len(lcm)), closed))
    subsets.sort(key=lcm.__getitem__)
    return subsets


# the positions of every subset, shared by all `_build_strata` calls: entry J
# lists the set bits of J, ascending, so the table of a shorter length is its
# prefix. It grows by doubling when a longer tuple first asks, to at most
# 2^_SHARED_BITS entries, the subsets one lattice chunk holds
# (`topology._CHUNK_SUBSETS`)
_SHARED_BITS = 11
_POSITIONS: list[tuple[int, ...]] = [()]


def _positions(L: int) -> list[tuple[int, ...]]:
    # the positions of every subset of L entries: the shared table, grown to
    # min(L, _SHARED_BITS) positions, then doubled on in a list of this call
    for j in range(len(_POSITIONS).bit_length() - 1, min(L, _SHARED_BITS)):
        _POSITIONS.extend([p + (j,) for p in _POSITIONS])
    positions = _POSITIONS
    for j in range(_SHARED_BITS, L):
        positions = positions + [p + (j,) for p in positions]
    return positions


def _build_strata(a: ExponentTuple,
                  lattice: tuple[list[int], ...]) -> tuple[tuple[Stratum, ...], int]:
    """The strata of the flow on `a`, read column by column off its
    `subset_lattice` table, and the sum of frequency * chi_S1 over them.

    Each stratum is a closed subset J of the table, and its period,
    frequency and kappa are the table's entries at J. A closed subset holds
    exactly the positions of the entries dividing its period, so `indices`
    is J's positions and `m_t` is J's bit count. The positions come from one
    table of every subset's positions that all calls share, built by
    doubling: it grows only when a longer tuple first asks, and only to
    2^11 entries (`topology._CHUNK_SUBSETS`, about 0.18 MB held), after the
    lattice has passed its cap check. A tuple of more than 11 entries
    doubles on from that table in a list of this call. Only the Robbin-Salamon
    index is found by division, in one stream of quotients over the periods
    and entries. The sum is taken off the `chi_S1` column the strata hold, so
    each is computed once.
    """
    lcm, freq, kap = lattice
    entries = a.entries
    L = len(entries)
    subsets = _closed_subsets(lcm, freq)
    positions = _positions(L)
    periods = list(map(lcm.__getitem__, subsets))
    frequency = list(map(freq.__getitem__, subsets))
    m = list(map(int.bit_count, subsets))
    # floor(T/e) + ceil(T/e) = T//e + (T-1)//e + 1, the quotients streamed
    # and summed L at a time, one period each. An entry dividing T adds the
    # odd term 2T/e - 1 and any other entry an even term, so mu has the
    # parity of L - m_t whatever J is (verify-paper item 6 checks that on
    # every stratum it reads)
    q = (T // e + U // e for T in periods for U in (T - 1,) for e in entries)
    mu = [s + L - 2 * T for s, T in zip(map(sum, zip(*[q] * L)), periods)]
    chi = list(map(_chi_s1, m, map(kap.__getitem__, subsets)))
    rows = zip(periods, map(positions.__getitem__, subsets), m, mu, chi, frequency)
    strata = tuple(map(tuple.__new__, repeat(Stratum), rows))
    return strata, sum(map(mul, frequency, chi))


def _frequencies(lattice: tuple[list[int], ...]) -> list[int]:
    """`frequencies(a)` from the `subset_lattice` table of `a`."""
    lcm, freq, _ = lattice
    return list(map(freq.__getitem__, _closed_subsets(lcm, freq)))


def frequencies(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> list[int]:
    """Frequency of each Reeb period of `a`, by period: the multiples of it
    up to and including the top period d that no larger period divides. The
    periods are the lcms of two or more entries; the top period d is its
    own only such multiple, so its frequency is 1."""
    return _frequencies(subset_lattice(a, limits))


def total_rs_index(a: ExponentTuple) -> int:
    """Robbin-Salamon index of the whole manifold: 2d(sum_j 1/a_j - 1)."""
    d = a.d
    return 2 * (sum(d // e for e in a.entries) - d)


def _chi_numerator(lattice: tuple[list[int], ...]) -> int:
    # sum of frequency * chi_S1 over the strata: every subset of two or more
    # positions with a nonzero frequency, the whole tuple among them; read by
    # `_chi_m`, which builds no strata, and by verify-paper item 6
    _, freq, kap = lattice
    total = 0
    for J in compress(range(len(freq)), freq):
        if J & (J - 1):
            total += freq[J] * _chi_s1(J.bit_count(), kap[J])
    return total


def chi_m(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> Fraction | None:
    """The mean Euler characteristic of `a`, or None when its total index is
    0; equal to `mean_euler(a).value`, without building the strata."""
    # the lattice first: it refuses what is not an ExponentTuple
    return _chi_m(a, subset_lattice(a, limits))


def _chi_m(a: ExponentTuple, lattice: tuple[list[int], ...]) -> Fraction | None:
    """`chi_m(a)` from the `subset_lattice` table of `a`, for callers that
    read other entries of that table too or build it in a chunk
    (`subset_lattices`)."""
    total = total_rs_index(a)
    if total == 0:
        return None
    return Fraction((-1) ** (a.n + 1) * _chi_numerator(lattice), abs(total))


def mean_euler(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> MeanEulerReport:
    """Mean Euler characteristic with its strata.

    The value is the sum of frequency * chi_S1 over the strata, taken off
    the builder's columns, with the global sign (-1)^(n+1); `chi_m` reads
    the same sum off the lattice without building strata. Each stratum
    takes its positions, m_t, kappa and frequency from the lattice entries
    at its closed subset and its Robbin-Salamon index from division of its
    period by every entry. `verify-paper` item 6 and the tests
    check that the sum over the strata with the per-stratum signs
    (-1)^(mu_RS - m_t) (the parity of mu_RS - (2*m_t - 4)/2) agrees with the
    lattice sum.
    """
    # the lattice first: it refuses what is not an ExponentTuple
    return _mean_euler(a, subset_lattice(a, limits))


def _mean_euler(a: ExponentTuple, lattice: tuple[list[int], ...]) -> MeanEulerReport:
    """`mean_euler(a)` from the `subset_lattice` table of `a`, for callers
    that read other entries of that table too or build it in a chunk
    (`subset_lattices`)."""
    total = total_rs_index(a)
    strata, numerator = _build_strata(a, lattice)
    value = Fraction((-1) ** (a.n + 1) * numerator, abs(total)) if total else None
    return MeanEulerReport(total, value, strata)


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
    with an isolated exponent the unit-fraction sum cannot equal 1. An entry
    is coprime to all the others iff it is coprime to their product.
    """
    prod = math.prod(a.entries)
    for e in a.entries:
        if math.gcd(e, prod // e) == 1:
            return True
    return False
