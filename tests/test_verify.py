from __future__ import annotations

import random

import pytest

import brieskorn.families
import brieskorn.verify
from brieskorn.errors import BrieskornError, CapacityError
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.reeb import reeb_periods
from brieskorn.topology import ExponentTuple, make_tuple
from brieskorn.verify import (
    _direct_frequencies,
    _inclusion_exclusion_frequencies,
    _item_2_closed_form_agreement,
    _item_8_frequency_oracle,
    _item_9_fermat_suite,
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

        def off_by_one(*args, honest=honest):  # (tuple, limits) for the lattice, periods otherwise
            out = honest(*args)
            out[0] += 1
            return out

        with monkeypatch.context() as patch:
            patch.setattr(brieskorn.verify, route, off_by_one)
            passed, detail = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
        assert not passed, route
        assert detail.startswith("frequency mismatch for")


def test_item_8_honours_the_subset_cap():
    # the pool holds 4- to 6-entry tuples, whose lattices a cap of 3 refuses
    with pytest.raises(CapacityError, match="cap of 3"):
        _item_8_frequency_oracle(Limits(subset_cap=3), {})


def test_item_2_fails_when_the_closed_form_is_off_at_one_parameter(monkeypatch):
    honest = brieskorn.families.sigma_m_closed_form
    monkeypatch.setattr(brieskorn.families, "sigma_m_closed_form",
                        lambda m: honest(m) + (m == 7))
    passed, detail = _item_2_closed_form_agreement(DEFAULT_LIMITS, {})
    assert not passed
    assert "agreement=False" in detail


def test_item_9_fails_when_a_fermat_number_is_wrong(monkeypatch):
    honest = brieskorn.families.fermat_number
    monkeypatch.setattr(brieskorn.families, "fermat_number",
                        lambda k, limits: honest(k, limits) + 2 * (k == 5))
    with pytest.raises(BrieskornError, match="recursion fails at index 5"):
        _item_9_fermat_suite(DEFAULT_LIMITS, {})
