from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import brieskorn
import brieskorn.families
import brieskorn.reeb
import brieskorn.topology
import brieskorn.verify
from brieskorn.errors import CapacityError
from brieskorn.families import sigma_m_tuple
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.reeb import Stratum, frequencies, mean_euler
from brieskorn.topology import ExponentTuple
from brieskorn.verify import (
    _direct_frequencies,
    _item_2_closed_form_agreement,
    _item_6_parity_and_signs,
    _item_7_sphere_enumeration,
    _item_8_frequency_oracle,
    _item_9_fermat_suite,
    _item_10_isolated_exponent,
    _isolated_census,
    _recurrence_frequencies,
    _stratified_route,
)
from oracles import naive_frequencies, per_tuple_isolated_census, subset_periods
from verify_faults import FAULTS, replace_everywhere, run_case

CHUNK = brieskorn.topology._CHUNK_SUBSETS >> 4  # tuples per chunk at length 4

# item 8's two oracles besides the subset lattice behind `reeb.frequencies`
ORACLES = pytest.mark.parametrize(
    "oracle",
    [_direct_frequencies, _recurrence_frequencies],
    ids=["direct", "recurrence"],
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
        periods = subset_periods(t.entries)
        assert oracle(periods) == naive_frequencies(periods), t
        checked += 1
    assert checked >= 100


# entry tuples whose period sets meet, for each window below, a d that is a
# multiple of the window, one more and one less, a period above the window
# and a period dividing a window start
WINDOW_CASES = [(5, 5, 7, 11), (2, 2, 3, 3), (3, 9, 11), (3, 7, 9), (2, 3, 64)]


@pytest.mark.parametrize("window", [1, 2, 5, 7, 64])
def test_direct_count_across_window_ends(monkeypatch, window):
    monkeypatch.setattr(brieskorn.verify, "_WINDOW", window)
    sets = [subset_periods(entries) for entries in WINDOW_CASES]
    for periods in sets:
        assert _direct_frequencies(periods) == _recurrence_frequencies(periods), periods
    assert {0, 1 % window, -1 % window} <= {p[-1] % window for p in sets}
    assert any(t > window for p in sets for t in p[:-1])
    assert any(lo % t == 0 for p in sets for t in p[:-1] for lo in range(window, p[-1], window))


def test_direct_count_holds_one_window_whatever_d():
    # d = 970,200, the largest of item 8, and period 2: a table of d bytes
    # would trace ~1 MB, one window and two slices of half of it ~2 windows
    periods = subset_periods((2, 2, 8, 9, 25, 49, 11))
    tracemalloc.start()
    try:
        got = _direct_frequencies(periods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (periods[0], periods[-1]) == (2, 970_200)
    assert got == _recurrence_frequencies(periods)
    assert peak < 3 * brieskorn.verify._WINDOW


@pytest.mark.parametrize(
    "entries",
    [
        (2, 3, 5, 7, 11, 13, 17, 19, 23, 29),  # 1,013 periods, d > 10^9
        (6, 10, 15, 7, 11),
        (5, 19, 2, 21, 11, 9),  # 57 periods, the longest list of item 8's pool
    ],
    ids=["ten-primes", "6-10-15-7-11", "longest-in-item-8"],
)
def test_recurrence_on_long_period_lists(entries):
    t = ExponentTuple(entries)
    periods = subset_periods(entries)
    got = _recurrence_frequencies(periods)
    assert got == frequencies(t)
    if t.d <= 10**6:
        assert got == _direct_frequencies(periods)


def test_the_longest_list_of_item_8_has_57_periods(suite_ctx):
    # item 8's pool, as `_item_8_frequency_oracle` builds it
    pool = [ExponentTuple((4, 5, 9, 19)), ExponentTuple((2, 3, 5))]
    pool += [sigma_m_tuple(m) for m in range(4, 201)]
    pool += suite_ctx["random_tuples"] + suite_ctx["sphere_tuples_20"]
    lengths = {len(subset_periods(t.entries)): t.entries for t in pool if t.d <= 10**6}
    assert max(lengths) == 57
    assert lengths[57] == (5, 19, 2, 21, 11, 9)


def test_item_8_fails_when_frequencies_are_off_by_one(monkeypatch):
    passed, _ = _item_8_frequency_oracle(DEFAULT_LIMITS, {})
    assert passed

    # each of the three routes item 8 compares: subset lattice, recurrence, direct count
    for route in ("frequencies", "_recurrence_frequencies", "_direct_frequencies"):
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
    passed, detail = _item_9_fermat_suite(DEFAULT_LIMITS, {})
    assert not passed
    assert "recursion fails at index 5" in detail


# ------------------------------------------------ item 10 by prefix


# the census at 30 is compared with the per-tuple loop in
# tests/test_acceptance.py criterion 10, which walks that range once
@pytest.mark.parametrize("max_entry", range(2, 17))
def test_isolated_census_matches_the_per_tuple_loop(max_entry):
    isolated, zero_index = _isolated_census(max_entry)
    assert len(set(zero_index)) == len(zero_index)
    assert (isolated, set(zero_index)) == per_tuple_isolated_census(max_entry)


def test_item_10_builds_a_tuple_only_per_solved_tuple_and_anchor(monkeypatch):
    # the 13 tuples of total index 0 over [2, 30], the sphere (4, 5, 9, 19)
    # and (2, 4, 6, 12), which is also a solved tuple
    made = []
    honest = ExponentTuple.__new__
    monkeypatch.setattr(ExponentTuple, "__new__",
                        lambda cls, entries: made.append(entries) or honest(cls, entries))
    passed, detail = _item_10_isolated_exponent(DEFAULT_LIMITS, {})
    assert passed, detail
    solved = _isolated_census(30)[1]
    assert len(solved) == 13
    assert len(made) <= len(solved) + 2
    assert set(made) == {*solved, (4, 5, 9, 19)}


# ------------------------------------------------------ planted faults


@pytest.mark.parametrize("case", FAULTS, ids=[case[0] for case in FAULTS])
def test_a_planted_fault_fails_its_item(case):
    assert run_case(case, planted=False) == (True, 0)
    assert run_case(case) == (False, 1)


def test_every_item_has_a_planted_fault():
    assert {case[1] for case in FAULTS} == {entry[0] for entry in brieskorn.verify._ITEMS}


def test_planted_faults_fail_under_optimize():
    # `python -O` strips asserts; every item must still report its fault
    tests = Path(__file__).resolve().parent
    src = Path(brieskorn.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", str(tests / "verify_faults.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
    )
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert outcomes == [[case[0], False, 1] for case in FAULTS]


# ------------------------------------------------- one lattice per tuple


def calls_to(monkeypatch, name: str) -> list[tuple[int, ...]]:
    """The entries of each call to `brieskorn.topology.<name>`, from any module."""
    calls = []
    honest = getattr(brieskorn.topology, name)

    def counted(a, *args):
        calls.append(a.entries)
        return honest(a, *args)

    replace_everywhere(monkeypatch, honest, counted)
    return calls


@pytest.fixture(scope="module")
def suite_ctx():
    # the records items 6 and 7 leave for item 8
    ctx = {}
    assert _item_6_parity_and_signs(DEFAULT_LIMITS, ctx)[0]
    assert _item_7_sphere_enumeration(DEFAULT_LIMITS, ctx)[0]
    return ctx


def chunks_built(monkeypatch) -> list[list[tuple[int, ...]]]:
    """The entry tuples of each chunk `brieskorn.topology._lattice_chunk`
    builds, the kernel behind `subset_lattice` and `subset_lattices`."""
    chunks = []
    honest = brieskorn.topology._lattice_chunk

    def counted(rows):
        chunks.append(list(rows))
        return honest(rows)

    replace_everywhere(monkeypatch, honest, counted)
    return chunks


def test_item_7_builds_one_lattice_per_sphere_and_calls_no_kappa(monkeypatch):
    # one table per sphere, in order, through the chunks of `subset_lattices`
    chunks = chunks_built(monkeypatch)
    singles, kappas = calls_to(monkeypatch, "subset_lattice"), calls_to(monkeypatch, "kappa")
    ctx = {}
    passed, detail = _item_7_sphere_enumeration(DEFAULT_LIMITS, ctx)
    assert passed, detail
    spheres = [t.entries for t in ctx["sphere_tuples_20"]]
    assert len(spheres) == 2830
    assert [entries for rows in chunks for entries in rows] == spheres
    assert [len(rows) for rows in chunks] == [CHUNK] * (2830 // CHUNK) + [2830 % CHUNK]
    assert singles == []
    assert kappas == []


def test_item_6_builds_its_lattices_in_chunks_of_one_length(monkeypatch):
    # every sampled tuple once, grouped by length in sample order, and no
    # `mean_euler` call: the strata are read off the chunk tables
    chunks = chunks_built(monkeypatch)
    singles = calls_to(monkeypatch, "subset_lattice")
    honest = brieskorn.reeb.mean_euler
    replace_everywhere(monkeypatch, honest, lambda *args: pytest.fail("mean_euler called"))
    ctx = {}
    passed, detail = _item_6_parity_and_signs(DEFAULT_LIMITS, ctx)
    assert passed, detail
    sample = [t.entries for t in ctx["random_tuples"]]
    by_length = sorted(sample, key=len)
    assert [entries for rows in chunks for entries in rows] == by_length
    assert all(len({len(entries) for entries in rows}) == 1 for rows in chunks)
    assert all(0 < len(rows) <= brieskorn.topology._CHUNK_SUBSETS >> len(rows[0])
               for rows in chunks)
    assert singles == []


def test_stratified_route_signs_each_stratum_by_its_own_index_parity():
    # hand-built strata of (2, 3, 5) whose parities disagree, which item 6
    # refuses before it sums: the global sign (-1)^3 would give -4 - 2.
    # The first stratum's m_t field is off as well; the route counts m_t
    # from the positions it finds, so mu_RS - m_t is 2 - 2 there, not 2 - 3.
    strata = [Stratum(6, (0, 1), 3, 2, 1, 4), Stratum(30, (0, 1, 2), 3, 0, 2, 1)]
    positions, total = _stratified_route((2, 3, 5), strata)
    assert positions == [(0, 1), (0, 1, 2)]
    assert total == 4 - 2


def test_item_8_builds_lattices_only_for_tuples_items_6_and_7_did_not(monkeypatch, suite_ctx):
    lattices = calls_to(monkeypatch, "subset_lattice")
    passed, detail = _item_8_frequency_oracle(DEFAULT_LIMITS, suite_ctx)
    assert passed, detail
    built = [tuple(sorted(entries)) for entries in lattices]
    assert len(set(built)) == len(built)
    assert not set(built) & set(suite_ctx["frequencies"])
    assert 0 < len(built) < 100
    # the same verdict and detail when item 8 builds every table itself
    assert _item_8_frequency_oracle(DEFAULT_LIMITS, {**suite_ctx, "frequencies": {}}) == (
        passed, detail)


def test_item_8_fails_on_a_wrong_recorded_frequency(suite_ctx):
    recorded = dict(suite_ctx["frequencies"])
    honest = recorded[(4, 5, 9, 19)]
    recorded[(4, 5, 9, 19)] = [honest[0] + 1] + honest[1:]
    passed, detail = _item_8_frequency_oracle(DEFAULT_LIMITS,
                                              {**suite_ctx, "frequencies": recorded})
    assert not passed
    assert detail == "frequency mismatch for (4, 5, 9, 19)"


# ------------------------------------------------ strata only where read


def built_strata(item: int, needs: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """The entries of each `reeb._build_strata` call while `verify-paper
    --json` runs `item` and `needs` alone, which must all pass."""
    built = []

    def counting(honest):
        def build(a, lattice):
            built.append(a.entries)
            return honest(a, lattice)
        return build

    case = ("count-strata", item, needs, "brieskorn.reeb._build_strata", counting)
    assert run_case(case) == (True, 0)
    return built


def test_items_that_read_only_chi_m_build_no_strata():
    # items 2 and 7 read the value off the lattice; item 11 reads strata
    assert built_strata(7, needs=(2,)) == []
    assert built_strata(11) == [(2, 3, 5)]


def test_mean_euler_builds_no_tuple_per_stratum(monkeypatch):
    # a stratum records the positions of its entries, not a tuple of them;
    # a length-10 tuple of the strata workload's pool
    t = ExponentTuple((11, 10, 40, 52, 18, 40, 41, 42, 12, 26))
    made = []
    honest = ExponentTuple.__new__

    def counted(cls, entries):
        made.append(entries)
        return honest(cls, entries)

    # every tuple is validated on construction, a subtuple too
    monkeypatch.setattr(ExponentTuple, "__new__", counted)
    assert len(mean_euler(t).strata) == 168
    assert made == []
