"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from brieskorn.reeb import MeanEulerReport, Stratum
from brieskorn.topology import chi_s1


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


def recurrence_frequencies(periods):
    # periods closed under lcm, as subset_periods returns them: the d/T - 1
    # multiples of T below the top period d split by the largest period
    # dividing them, a multiple of T below d, so from the largest period down
    #     freq(T) = (d/T - 1) - sum(freq(U) for periods T < U < d with T | U)
    top = periods[-1]
    out = [1] * len(periods)
    for i in range(len(periods) - 2, -1, -1):
        t = periods[i]
        out[i] = top // t - 1 - sum(
            out[j] for j in range(i + 1, len(periods) - 1) if periods[j] % t == 0
        )
    return out


def per_stratum_mean_euler(a):
    # mean_euler stratum by stratum: subset-walk periods, the recurrence for
    # their frequencies, and one chi_s1 (hence kappa) call per stratum
    periods = subset_periods(a.entries)
    strata = []
    for period, frequency in zip(periods, recurrence_frequencies(periods)):
        indices = tuple(j for j, e in enumerate(a.entries) if period % e == 0)
        b = a.subtuple(indices)
        m_t = len(indices)
        mu = sum(2 * q + (r != 0) for q, r in (divmod(period, e) for e in a.entries))
        strata.append(Stratum(period, indices, b, m_t, 2 * m_t - 3, 2 * m_t - 4,
                              mu - 2 * period, chi_s1(b), frequency))
    d = a.d
    total = 2 * (sum(d // e for e in a.entries) - d)
    sign = (-1) ** (a.n + 1)
    numerator = sum(s.frequency * s.chi_s1 for s in strata)
    value = Fraction(sign * numerator, abs(total)) if total else None
    return MeanEulerReport(a, total, total != 0, value, tuple(strata), sign)


def fraction_connected_sum(values, n):
    # the connected-sum value summed with Fraction arithmetic throughout
    correction = Fraction((-1) ** n, 2)
    return sum(values, start=Fraction(0)) + (len(values) - 1) * correction


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
