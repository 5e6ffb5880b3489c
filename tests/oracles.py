"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


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
