from __future__ import annotations

import random

import brieskorn.verify
from brieskorn.limits import DEFAULT_LIMITS
from brieskorn.reeb import reeb_periods
from brieskorn.topology import ExponentTuple
from brieskorn.verify import _direct_frequencies, _item_8_frequency_oracle
from oracles import naive_frequencies


def test_direct_frequencies_examples():
    assert _direct_frequencies([2, 6]) == [2, 1]
    assert _direct_frequencies([6, 10, 15, 30]) == [4, 2, 1, 1]
    assert _direct_frequencies([3420]) == [1]


def test_direct_frequencies_match_naive_oracle():
    rng = random.Random(2642)
    checked = 0
    for _ in range(400):
        t = ExponentTuple(tuple(rng.randint(2, 40) for _ in range(rng.randint(2, 6))))
        if t.d > 10**5:
            continue
        periods = reeb_periods(t)
        assert _direct_frequencies(periods) == naive_frequencies(periods), t
        checked += 1
    assert checked >= 100


def test_item_8_fails_when_frequencies_are_off_by_one(monkeypatch):
    passed, _ = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
    assert passed

    # each of the three routes item 8 compares: recurrence, kernel, direct count
    for route in ("frequencies", "count_multiples_avoiding", "_direct_frequencies"):
        honest = getattr(brieskorn.verify, route)

        def off_by_one(*args, honest=honest):
            out = honest(*args)
            if isinstance(out, int):
                return out + 1
            out[0] += 1
            return out

        with monkeypatch.context() as patch:
            patch.setattr(brieskorn.verify, route, off_by_one)
            passed, detail = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
        assert not passed, route
        assert detail.startswith("frequency mismatch for")
