"""Reference implementations the tests compare the package against."""

from __future__ import annotations


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
