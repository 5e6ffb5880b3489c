from __future__ import annotations

import random

import pytest

import brieskorn.verify
from brieskorn.errors import CapacityError
from brieskorn.limits import DEFAULT_LIMITS
from brieskorn.reeb import reeb_periods
from brieskorn.topology import ExponentTuple, make_tuple
from brieskorn.verify import (
    _direct_frequencies,
    _inclusion_exclusion_frequencies,
    _item_8_frequency_oracle,
)
from oracles import naive_frequencies

# item 8's two oracles besides the subset lattice behind `reeb.frequencies`
ORACLES = pytest.mark.parametrize(
    "oracle",
    [_direct_frequencies, _inclusion_exclusion_frequencies],
    ids=["direct", "inclusion_exclusion"],
)


@ORACLES
def test_frequency_oracle_examples(oracle):
    assert oracle([2, 6]) == [2, 1]
    assert oracle([6, 10, 15, 30]) == [4, 2, 1, 1]
    assert oracle([3420]) == [1]


@ORACLES
def test_frequency_oracle_matches_naive_oracle(oracle):
    rng = random.Random(2642)
    checked = 0
    for _ in range(400):
        t = ExponentTuple(tuple(rng.randint(2, 40) for _ in range(rng.randint(2, 6))))
        if t.d > 10**5:
            continue
        periods = reeb_periods(t)
        assert oracle(periods) == naive_frequencies(periods), t
        checked += 1
    assert checked >= 100


def test_inclusion_exclusion_caps_its_antichain(monkeypatch):
    monkeypatch.setattr(brieskorn.verify, "_ANTICHAIN_CAP", 1)
    # 4 and 8 are multiples of 2, so at T = 2 the antichain is just {2}
    assert _inclusion_exclusion_frequencies([2, 4, 8]) == [2, 1, 1]
    # at T = 6 the reduced moduli of the larger periods give the antichain {5, 7}
    with pytest.raises(CapacityError, match="cap of 1"):
        _inclusion_exclusion_frequencies(reeb_periods(make_tuple([2, 3, 5, 7])))


def test_item_8_fails_when_frequencies_are_off_by_one(monkeypatch):
    passed, _ = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
    assert passed

    # each of the three routes item 8 compares: subset lattice, inclusion-exclusion, direct count
    for route in ("frequencies", "_inclusion_exclusion_frequencies", "_direct_frequencies"):
        honest = getattr(brieskorn.verify, route)

        def off_by_one(arg, honest=honest):  # a tuple for the lattice, periods for the oracles
            out = honest(arg)
            out[0] += 1
            return out

        with monkeypatch.context() as patch:
            patch.setattr(brieskorn.verify, route, off_by_one)
            passed, detail = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
        assert not passed, route
        assert detail.startswith("frequency mismatch for")
