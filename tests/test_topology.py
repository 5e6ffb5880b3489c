from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn import topology
from brieskorn.errors import (
    BrieskornError,
    CapacityError,
    InvalidInputError,
    UnsupportedLengthError,
)
from brieskorn.limits import DEFAULT_LIMITS, Limits
from brieskorn.topology import (
    ExponentTuple,
    SphereKind,
    chi_s1,
    evaluate_criterion,
    kappa,
    make_tuple,
    noncoprime_pair,
    pairwise_coprime,
    sphere_kind,
    subset_lattice,
    subset_lattices,
)
import oracles
from oracles import (
    alternating_kappa,
    brieskorn_pham_kappa,
    loop_subset_lattice,
    set_criterion,
)

small_tuples = st.lists(
    st.integers(min_value=2, max_value=30), min_size=2, max_size=6
).map(lambda xs: ExponentTuple(tuple(xs)))


# ----------------------------------------------------------- tuples


def test_make_tuple_valid():
    t = make_tuple([4, 5, 9, 19])
    assert t.length == 4 and t.n == 3 and t.dimension == 5
    assert t.d == 3420
    assert str(t) == "(4, 5, 9, 19)"


def test_make_tuple_fermat_sizes():
    t = make_tuple([17, 257, 65537, 4294967297])
    assert t.n == 3
    assert t.d == 17 * 257 * 65537 * 4294967297


def test_make_tuple_rejects_small_entry():
    with pytest.raises(InvalidInputError, match="index 1"):
        make_tuple([2, 1, 3])


def test_make_tuple_rejects_short():
    with pytest.raises(InvalidInputError):
        make_tuple([5])


def test_make_tuple_rejects_non_integers():
    with pytest.raises(InvalidInputError, match="index 0"):
        make_tuple([2.0, 3])


@pytest.mark.parametrize("entries", [[4, 5, 9, 19], range(2, 5), "45"],
                         ids=["list", "range", "str"])
def test_exponent_tuple_refuses_entries_that_are_not_a_tuple(entries):
    # a list-built tuple would be unequal to its tuple-built twin and unhashable
    with pytest.raises(InvalidInputError) as exc:
        ExponentTuple(entries)
    assert str(exc.value) == (f"the entries of an exponent tuple must be a tuple, "
                              f"got {type(entries).__name__}")
    built = make_tuple(range(2, 5))
    assert built == ExponentTuple((2, 3, 4)) and hash(built) == hash(ExponentTuple((2, 3, 4)))


def test_canonical_sorts_entries():
    assert make_tuple([9, 4, 19, 5]).canonical().entries == (4, 5, 9, 19)


@given(small_tuples, st.data())
def test_subtuple_equals_a_validated_tuple(t, data):
    # the result must equal a tuple built, and validated, from the same entries
    idx = data.draw(st.lists(st.integers(0, t.length - 1), min_size=2, max_size=t.length))
    sub = t.subtuple(idx)
    built = ExponentTuple(tuple(t.entries[i] for i in idx))
    assert sub == built and hash(sub) == hash(built)
    assert sub.entries == built.entries and type(sub.entries) is tuple


@given(small_tuples, st.lists(st.integers(0, 1), max_size=1))
def test_subtuple_refuses_fewer_than_two_indices(t, idx):
    with pytest.raises(InvalidInputError, match="at least 2 entries"):
        t.subtuple(idx)


def test_subtuple_index_out_of_range():
    with pytest.raises(IndexError):
        make_tuple([2, 3, 5]).subtuple((0, 3))


# ------------------------------------------------------------ graph


def test_graph_coprime_tuple_has_no_edges():
    g = evaluate_criterion(make_tuple([4, 5, 9, 19]))
    assert g.components == tuple(frozenset({i}) for i in range(4))
    assert g.isolated_points == (0, 1, 2, 3)
    assert g.even_component == frozenset({0})  # the single even entry
    assert len(g.even_component) == 1


def test_graph_all_even_is_complete():
    g = evaluate_criterion(make_tuple([2, 2, 2, 2]))
    assert g.components == (frozenset({0, 1, 2, 3}),)
    assert g.even_component == frozenset({0, 1, 2, 3})
    assert g.isolated_points == ()


def test_graph_even_chain():
    g = evaluate_criterion(make_tuple([2, 4, 6, 12]))
    assert g.isolated_points == ()
    assert g.even_component == frozenset({0, 1, 2, 3})


def test_graph_impure_even_component_is_dropped():
    # 6 links the evens to the odd 3, so no component consists of evens only
    g = evaluate_criterion(make_tuple([2, 6, 3, 7]))
    assert g.even_component == frozenset()
    assert frozenset({0, 1, 2}) in g.components


def test_components_partition_vertices():
    for entries in [(2, 3, 5), (2, 4, 9, 27), (6, 10, 15, 7, 11)]:
        g = evaluate_criterion(make_tuple(entries))
        seen = sorted(i for c in g.components for i in c)
        assert seen == list(range(len(entries)))


def test_mask_graph_and_criterion_match_the_set_oracle_on_small_4_tuples():
    for entries in combinations_with_replacement(range(2, 21), 4):
        t = ExponentTuple(entries)
        oracle = set_criterion(t)
        assert evaluate_criterion(t) == oracle, entries
        assert sphere_kind(t) is oracle.kind, entries


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=3, max_size=9))
def test_mask_graph_and_criterion_match_the_set_oracle(entries):
    # every field: components, even component, isolated points and the
    # verdict, whose kind `sphere_kind` gives alone
    t = ExponentTuple(tuple(entries))
    oracle = set_criterion(t)
    assert evaluate_criterion(t) == oracle
    assert sphere_kind(t) is oracle.kind


# -------------------------------------------------------- criterion


def test_criterion_two_isolated_points():
    v = evaluate_criterion(make_tuple([4, 5, 9, 19]))
    assert v.kind is SphereKind.SPHERE_BY_I
    assert set(v.isolated_points) >= {1, 2}  # the entries 5 and 9


def test_criterion_not_sphere():
    v = evaluate_criterion(make_tuple([2, 2, 2, 2]))
    assert v.kind is SphereKind.NOT_SPHERE
    assert len(v.even_component) == 4


def test_criterion_even_component_route():
    v = evaluate_criterion(make_tuple([2, 2, 2, 3, 5]))
    assert v.kind is SphereKind.SPHERE_BY_II
    assert len(v.even_component) == 3
    assert v.even_component_pairwise_gcd2
    assert len(v.isolated_points) >= 1


def test_criterion_length_three_reports_homology_conditions():
    assert (
        evaluate_criterion(make_tuple([2, 3, 5])).kind
        is SphereKind.HOMOLOGY_SPHERE_CONDITIONS_HOLD
    )
    assert (
        evaluate_criterion(make_tuple([2, 2, 2])).kind
        is SphereKind.HOMOLOGY_SPHERE_CONDITIONS_FAIL
    )


def test_criterion_rejects_pairs():
    for reader in (evaluate_criterion, sphere_kind):
        with pytest.raises(UnsupportedLengthError,
                           match="^the sphere criterion needs at least 3 entries, got 2$"):
            reader(make_tuple([2, 3]))


def test_criterion_gcd_must_be_exactly_two():
    # even component {4, 4, 2} has a pair with gcd 4, so route (ii) fails
    v = evaluate_criterion(make_tuple([4, 4, 2, 3]))
    assert v.kind is SphereKind.NOT_SPHERE
    assert not v.even_component_pairwise_gcd2
    # with gcds all exactly 2 the same shape passes
    v2 = evaluate_criterion(make_tuple([4, 2, 2, 3]))
    assert v2.kind is SphereKind.SPHERE_BY_II


@given(st.lists(st.integers(min_value=2, max_value=30), min_size=3, max_size=6))
def test_criterion_permutation_invariant(entries):
    kinds = {
        evaluate_criterion(ExponentTuple(p)).kind
        for p in set(permutations(entries))
    }
    assert len(kinds) == 1


# --------------------------------------------------- subset lattice

LATTICE_INPUTS = [
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29),
    (2, 4, 6, 12),
    (6, 10, 15, 7, 11),
    (17, 257, 65537, 4294967297),  # Fermat F2..F5: the products are big integers
]


@pytest.mark.parametrize("entries", LATTICE_INPUTS, ids=str)
def test_lattice_matches_the_loop_kernel(entries):
    t = ExponentTuple(entries)
    assert subset_lattice(t, DEFAULT_LIMITS) == loop_subset_lattice(t, DEFAULT_LIMITS)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=60), min_size=2, max_size=12))
def test_lattice_matches_the_loop_kernel_on_drawn_tuples(entries):
    # entries up to 60 repeat and share factors, so most subsets are not closed
    t = ExponentTuple(tuple(entries))
    lattice = subset_lattice(t, DEFAULT_LIMITS)
    assert lattice == loop_subset_lattice(t, DEFAULT_LIMITS)
    # every x in (0, d] lies in exactly one J(x), and x = d alone in the top
    freq = lattice[1]
    assert sum(freq) == t.d and freq[-1] == 1


def _planted_lcm(monkeypatch, wrong, module=topology):
    # `module`'s binding of `math`, with `wrong(m, e, lcm)` as its lcm of two
    # values; `math` itself and every other module keep the real one
    real = math.lcm
    planted = SimpleNamespace(**{**vars(math), "lcm": lambda m, e: wrong(m, e, real(m, e))})
    monkeypatch.setattr(module, "math", planted)


def _lcm_180_as_360(m, e, r):
    # lcm(4, 5, 9) = 180 read as 360, which does not divide 4 * 5 * 9
    return 2 * r if r == 180 else r


def _lcm_of_4_and_6_as_24(m, e, r):
    # lcm(4, 6) read as their product 24: every product still divides, but
    # the pair's quotient is 1, not gcd(4, 6) = 2
    return m * e if {m, e} == {4, 6} else r


def _refused_by_the_loop_kernel_alone(monkeypatch, wrong, entries, message):
    # The kernel checks nothing of what it computes: with the lcm planted in
    # it, its tables differ from the loop kernel's, and the loop kernel,
    # with the same lcm planted, refuses them with `message`.
    ts = [make_tuple(e) for e in entries]
    _planted_lcm(monkeypatch, wrong)
    got = [subset_lattice(ts[0], DEFAULT_LIMITS)] if len(ts) == 1 else [
        *subset_lattices(ts, DEFAULT_LIMITS)]
    assert got != [loop_subset_lattice(t, DEFAULT_LIMITS) for t in ts]
    _planted_lcm(monkeypatch, wrong, oracles)
    with pytest.raises(BrieskornError) as exc:
        for t in ts:
            loop_subset_lattice(t, DEFAULT_LIMITS)
    assert str(exc.value) == message


def test_loop_kernel_alone_refuses_an_lcm_that_does_not_divide_the_product(monkeypatch):
    _refused_by_the_loop_kernel_alone(
        monkeypatch, _lcm_180_as_360, [(4, 5, 9, 19)],
        "lcm does not divide the product on subset 111 of (4, 5, 9, 19)")


def test_loop_kernel_alone_refuses_a_pair_quotient_that_is_not_its_gcd(monkeypatch):
    _refused_by_the_loop_kernel_alone(
        monkeypatch, _lcm_of_4_and_6_as_24, [(4, 6, 5, 7)],
        "product/lcm quotient check fails at 0, 1 of (4, 6, 5, 7)")


def test_loop_kernel_alone_names_the_chunk_tuple_whose_lcm_does_not_divide_the_product(monkeypatch):
    # met by the middle tuple of a chunk of three
    _refused_by_the_loop_kernel_alone(
        monkeypatch, _lcm_180_as_360, [(2, 3, 5, 7), (4, 5, 9, 19), (3, 5, 7, 11)],
        "lcm does not divide the product on subset 111 of (4, 5, 9, 19)")


def test_loop_kernel_alone_names_the_chunk_tuple_whose_pair_quotient_is_not_its_gcd(monkeypatch):
    # met by the middle tuple of a chunk of three
    _refused_by_the_loop_kernel_alone(
        monkeypatch, _lcm_of_4_and_6_as_24, [(2, 3, 5, 7), (4, 6, 5, 7), (3, 5, 7, 11)],
        "product/lcm quotient check fails at 0, 1 of (4, 6, 5, 7)")


@pytest.mark.parametrize("length", range(2, 11))
def test_lattice_takes_one_lcm_per_nonempty_subset(monkeypatch, length):
    calls = []
    _planted_lcm(monkeypatch, lambda m, e, r: calls.append((m, e)) or r)
    subset_lattice(ExponentTuple(tuple(range(2, 2 + length))), DEFAULT_LIMITS)
    assert len(calls) == 2**length - 1


# ------------------------------------------------ lattices in chunks

CHUNK = topology._CHUNK_SUBSETS >> 4  # tuples per chunk at length 4


def drawn_tuples(count: int, length: int, seed: int = 0) -> list[ExponentTuple]:
    # entries up to 60 repeat and share factors, so many subsets are not closed
    rng = random.Random(seed)
    return [ExponentTuple(tuple(rng.randint(2, 60) for _ in range(length)))
            for _ in range(count)]


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_lattices_match_the_loop_kernel_across_chunk_ends(count):
    ts = drawn_tuples(count, 4, seed=count)
    assert list(subset_lattices(ts, DEFAULT_LIMITS)) == [
        loop_subset_lattice(t, DEFAULT_LIMITS) for t in ts]


@pytest.mark.parametrize("length", range(2, 11))
def test_lattices_match_the_loop_kernel_at_each_length(length):
    ts = drawn_tuples(5, length, seed=length)
    lattices = list(subset_lattices(iter(ts), DEFAULT_LIMITS))
    assert lattices == [loop_subset_lattice(t, DEFAULT_LIMITS) for t in ts]
    assert [(sum(freq), freq[-1]) for _, freq, _ in lattices] == [(t.d, 1) for t in ts]


@pytest.mark.parametrize(
    "items, message",
    [
        ([ExponentTuple((2, 3, 5)), ExponentTuple((2, 3, 5, 7))],
         r"one length, got \(2, 3, 5, 7\) after tuples of length 3"),
        (drawn_tuples(CHUNK, 4) + [ExponentTuple((2, 3))],
         r"one length, got \(2, 3\) after tuples of length 4"),
        ([ExponentTuple((2, 3, 5)), (2, 3, 5)], "takes an ExponentTuple, got tuple"),
        ([[2, 3, 5, 7]], "takes an ExponentTuple, got list"),
    ],
    ids=["mixed-lengths", "mixed-lengths-in-the-second-chunk", "a-plain-tuple", "a-plain-list"],
)
def test_lattices_refuse_what_is_not_one_length_of_exponent_tuples(items, message):
    with pytest.raises(InvalidInputError, match=message):
        list(subset_lattices(items, DEFAULT_LIMITS))


def test_lattices_cap_the_length_before_allocating():
    # 17 entries against a cap of 16: each table would hold 2^17 entries,
    # over 1 MB, so the peak of a check made after allocating shows
    limits = Limits(subset_cap=16)
    ts = [ExponentTuple(tuple(range(2, 19)))] * 3
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cap of 16"):
            next(subset_lattices(ts, limits))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_lattices_build_one_chunk_at_a_time(monkeypatch):
    # after the first table, at most one chunk of tuples has been read and
    # built, so what the generator holds does not grow with its input
    lcm_calls, read = [], []
    _planted_lcm(monkeypatch, lambda m, e, r: lcm_calls.append((m, e)) or r)
    ts = drawn_tuples(3 * CHUNK + 1, 4)
    tables = subset_lattices((read.append(t) or t for t in ts), DEFAULT_LIMITS)
    assert lcm_calls == [] and read == []  # a generator: nothing runs before the first table
    first = next(tables)
    assert len(read) == CHUNK
    assert len(lcm_calls) == CHUNK * (2**4 - 1)  # one lcm per nonempty subset
    assert sum(1 for _ in tables) == 3 * CHUNK
    assert first == loop_subset_lattice(ts[0], DEFAULT_LIMITS)


@pytest.mark.parametrize("length", [2, 3, 4, 10, 11, 12])
def test_lattice_chunks_hold_2048_subsets_or_one_tuple(monkeypatch, length):
    # max(1, 2048 >> L) tuples a chunk, the first one full too, though its
    # first tuple is read alone to learn the length
    size, sizes = max(1, 2048 >> length), []
    honest = topology._lattice_chunk
    monkeypatch.setattr(topology, "_lattice_chunk",
                        lambda rows: sizes.append(len(rows)) or honest(rows))
    ts = drawn_tuples(2 * size + 1, length, seed=length)
    assert sum(1 for _ in subset_lattices(ts, DEFAULT_LIMITS)) == len(ts)
    assert sizes == [size, size, 1]


def test_lattices_hold_a_few_tables_of_long_tuples():
    # at length 10 a chunk is two tuples, not 128: consuming the tables of
    # 130 tuples peaks within a few times the peak of building one table
    ts = drawn_tuples(130, 10, seed=10)
    tracemalloc.start()
    try:
        subset_lattice(ts[0], DEFAULT_LIMITS)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert sum(1 for _ in subset_lattices(ts, DEFAULT_LIMITS)) == 130
        many = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert many < 4 * one


# ------------------------------------------------------------ kappa


def test_kappa_reference_values():
    assert kappa(make_tuple([2, 2, 2])) == 0
    assert kappa(make_tuple([2, 3, 5, 7])) == 0
    assert kappa(make_tuple([2, 2, 2, 2])) == 1  # 1 - 4 + 12 - 16 + 8


def test_kappa_pairs_closed_form():
    for p in range(2, 51):
        for q in range(2, 51):
            assert kappa(make_tuple([p, q])) == math.gcd(p, q) - 1


def test_kappa_triple_closed_form():
    # independent three-term expansion: 2 - sum of pair gcds + product/lcm
    for entries in combinations_with_replacement(range(2, 12), 3):
        a, b, c = entries
        expected = (
            2
            - (math.gcd(a, b) + math.gcd(a, c) + math.gcd(b, c))
            + (a * b * c) // math.lcm(a, b, c)
        )
        assert kappa(make_tuple(entries)) == expected


def test_kappa_respects_length_cap():
    # also right after a call under the default cap
    t = make_tuple([2, 3, 5, 7])
    assert kappa(t) == kappa(t) == 0
    with pytest.raises(CapacityError, match="cap of 3"):
        kappa(t, Limits(subset_cap=3))


@settings(deadline=None)
@given(small_tuples)
def test_kappa_permutation_invariant(t):
    for p in set(permutations(t.entries)):
        assert kappa(ExponentTuple(p)) == kappa(t)


@given(
    st.lists(st.integers(min_value=2, max_value=12), min_size=2, max_size=5).filter(
        lambda xs: math.prod(x - 1 for x in xs) <= 20_000
    )
)
def test_kappa_matches_brieskorn_pham_count(entries):
    # the alternating subset sum against the eigenvalue count it is derived from
    assert kappa(ExponentTuple(tuple(entries))) == brieskorn_pham_kappa(entries)


def test_sphere_tuples_have_zero_kappa():
    for entries in combinations_with_replacement(range(2, 13), 4):
        t = ExponentTuple(entries)
        if evaluate_criterion(t).is_sphere:
            assert kappa(t) == 0, entries


# ----------------------------------------------------------- chi_s1


def test_chi_s1_reference_values():
    assert chi_s1(make_tuple([4, 5, 9, 19])) == 3
    assert chi_s1(make_tuple([2, 2])) == 2  # equals gcd(2, 2)
    assert chi_s1(make_tuple([2, 2, 2, 2])) == 4  # 3 + kappa


def test_chi_s1_of_pairs_is_gcd():
    for p in range(2, 20):
        for q in range(2, 20):
            assert chi_s1(make_tuple([p, q])) == math.gcd(p, q)


# -------------------------------------------------------- subtuples


def _index_sets(length, min_size):
    # every set of at least `min_size` entry positions, smallest sets first
    return [idx for size in range(min_size, length + 1) for idx in combinations(range(length), size)]


def test_pairwise_coprime_detection():
    assert pairwise_coprime(make_tuple([4, 5, 9, 19]))
    assert not pairwise_coprime(make_tuple([2, 4, 6, 12]))
    assert noncoprime_pair(make_tuple([2, 3, 4])) == (0, 2)


def test_coprime_subtuples_are_rational_homology_spheres():
    # pairwise coprime entries force kappa = 0 on every subtuple of length >= 3
    for entries in [(2, 3, 5, 7), (4, 5, 9, 19), (3, 7, 8, 11, 13)]:
        t = make_tuple(entries)
        assert pairwise_coprime(t)
        for indices in _index_sets(t.length, 3):
            assert kappa(t.subtuple(indices)) == 0


# ---------------------------------------------- subtuple positivity


def test_subtuple_positivity_reference_tuple():
    # verify-paper item 7 reads these from the one table of each sphere
    t = make_tuple([4, 5, 9, 19])
    kap = subset_lattice(t, DEFAULT_LIMITS)[2]
    triples = list(combinations(range(4), 3))
    assert all(kap[sum(1 << i for i in idx)] == 0 for idx in triples)
    assert all(chi_s1(t.subtuple(idx)) > 0 for idx in _index_sets(4, 2))


def test_subtuple_positivity_all_small_spheres():
    # every subtuple's table kappa against the oracle, and n + (-1)^(n-1) kappa > 0
    for entries in combinations_with_replacement(range(2, 11), 4):
        t = ExponentTuple(entries)
        if not evaluate_criterion(t).is_sphere:
            continue
        kap = subset_lattice(t, DEFAULT_LIMITS)[2]
        for indices in _index_sets(4, 2):
            k, n = kap[sum(1 << i for i in indices)], len(indices) - 1
            assert k == alternating_kappa(t.subtuple(indices).entries), (entries, indices)
            if len(indices) == 3:
                assert k == 0, (entries, indices)
            assert n + (-1) ** (n - 1) * k > 0, (entries, indices)
