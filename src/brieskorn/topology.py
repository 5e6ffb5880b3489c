"""Exponent tuples, their gcd graph, the sphere criterion and homology rank.

A Brieskorn manifold is represented throughout by its exponent tuple
a = (a_0, ..., a_n) with every a_j >= 2. The graph Gamma(a) has one vertex
per exponent and an edge wherever a pair shares a factor, and the classical
criterion reads the homeomorphism type of the manifold off that graph:

  (i)  Gamma(a) has at least two isolated points, or
  (ii) Gamma(a) has an isolated point and the connected component of even
       exponents has odd size > 1 with every pair sharing exactly the
       factor 2.

For tuples of length >= 4 either condition is equivalent to the manifold
being a topological sphere. For length 3 the same graph conditions detect
an integral homology 3-sphere and no homeomorphism claim is made.

The graph is held as one integer bit mask per entry position (bit j of
entry i set iff gcd(a_i, a_j) >= 2); the verdict and the components are
read off those masks. `gcd_masks` is the same graph over a range of
values, which `certify` and `verify` read one sorted prefix at a time
instead of taking each tuple's gcds.

The subset lattice holds, for every subset J of entry positions, the lcm
of its entries, its Reeb frequency and its homology rank kappa (Milnor-Orlik),
all from one lcm and one product per subset and two fast Moebius transforms
("Fourier meets Moebius", Bjorklund et al. 2007). Its Python loops run once
per entry position, each over a whole list: the tables double once per
entry, and each transform step pairs the even entries of a table with the
odd ones, subtracts one from the other and lays the results out as halves,
still O(L 2^L) for L entries. `subset_lattices` builds the tables of many
tuples of one length a chunk at a time, each of those loops running once
per chunk over every table in it; `subset_lattice` is the same kernel on a
chunk of one tuple. `kappa`, `chi_s1` and the Reeb strata of `reeb` all
read the tables; a caller that needs several of these for one tuple
builds its table once and reads them all from it, so nothing here is
cached.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, combinations, islice
from operator import floordiv, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CapacityError,
    InvalidInputError,
    UnsupportedLengthError,
)
from .limits import DEFAULT_LIMITS, Limits


class _ExponentTupleFields(NamedTuple):
    entries: tuple[int, ...]


class ExponentTuple(_ExponentTupleFields):
    """Ordered tuple of integer exponents, all >= 2, length >= 2.

    A named tuple of one field, so it equals the plain tuple `(entries,)`.
    The checks run in `__new__`, and `_make` (which `_replace` calls) goes
    through it too.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...]):
        # a list or range would make the tuple unequal to its tuple-built twin
        # and unhashable; `make_tuple` takes any iterable. An ExponentTuple is
        # a tuple too, of one field, and is refused as well.
        if not isinstance(entries, tuple) or isinstance(entries, ExponentTuple):
            raise InvalidInputError(f"the entries of an exponent tuple must be a tuple, "
                                    f"got {type(entries).__name__}")
        if len(entries) < 2:
            raise InvalidInputError(
                f"an exponent tuple needs at least 2 entries, got {len(entries)}"
            )
        for i, e in enumerate(entries):
            if not isinstance(e, int) or isinstance(e, bool):
                raise InvalidInputError(f"entry at index {i} is not an integer: {e!r}")
            if e < 2:
                raise InvalidInputError(f"entry at index {i} must be >= 2, got {e}")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def _make(cls, iterable) -> "ExponentTuple":
        return cls(*iterable)

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        """Complex codimension parameter: the tuple has n + 1 entries."""
        return len(self.entries) - 1

    @property
    def dimension(self) -> int:
        """Real dimension 2n - 1 of the manifold."""
        return 2 * self.n - 1

    @property
    def d(self) -> int:
        """lcm of the entries: the common period of the circle action."""
        return math.lcm(*self.entries)

    def canonical(self) -> "ExponentTuple":
        """Entries sorted ascending; the form used for deduplication."""
        return ExponentTuple(tuple(sorted(self.entries)))

    def subtuple(self, indices: Sequence[int]) -> "ExponentTuple":
        """The entries at `indices`, in that order, as a validated tuple."""
        entries = self.entries
        return ExponentTuple(tuple([entries[i] for i in indices]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def make_tuple(entries: Iterable[int]) -> ExponentTuple:
    """Validate and build an exponent tuple."""
    return ExponentTuple(tuple(entries))


def _adjacency(entries: Sequence[int]) -> list[int]:
    """Gamma(a) as one bit mask per position: bit j of entry i is set iff
    gcd(a_i, a_j) >= 2."""
    L = len(entries)
    adj = [0] * L
    for i in range(L):
        for j in range(i + 1, L):
            if math.gcd(entries[i], entries[j]) >= 2:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def gcd_masks(max_value: int) -> list[int]:
    """Gamma on the values 2..max_value, one bit mask per value and indexed
    by it: bit y of entry x is set iff gcd(x, y) >= 2, so each value is
    adjacent to itself. One gcd per pair of values."""
    shares = [0] * (max_value + 1)
    for x in range(2, max_value + 1):
        for y in range(x, max_value + 1):
            if math.gcd(x, y) >= 2:
                shares[x] |= 1 << y
                shares[y] |= 1 << x
    return shares


def _bits(mask: int) -> list[int]:
    # the positions of the set bits, ascending
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _component(adj: Sequence[int], start: int) -> int:
    # the component of position `start`, flooded one position at a time
    comp = frontier = 1 << start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~comp
        comp |= new
        frontier |= new
    return comp


def _even_component(entries: Sequence[int], adj: Sequence[int]) -> int:
    # the mask of the component of the even entries, 0 when there is none or
    # it holds an odd entry. All even entries share the factor 2, so they are
    # one component, and it is exactly them unless one has an odd neighbour.
    evens = reach = 0
    for i, e in enumerate(entries):
        if not e & 1:
            evens |= 1 << i
            reach |= adj[i]
    return evens if evens and not reach & ~evens else 0


def _components(adj: Sequence[int]) -> tuple[frozenset[int], ...]:
    # the components of the graph, ordered by their smallest position
    components = []
    seen = 0
    for start in range(len(adj)):
        if not seen >> start & 1:
            comp = _component(adj, start)
            seen |= comp
            components.append(frozenset(_bits(comp)))
    return tuple(components)


class SphereKind(Enum):
    SPHERE_BY_I = "SPHERE_BY_I"
    SPHERE_BY_II = "SPHERE_BY_II"
    NOT_SPHERE = "NOT_SPHERE"
    HOMOLOGY_SPHERE_CONDITIONS_HOLD = "HOMOLOGY_SPHERE_CONDITIONS_HOLD"
    HOMOLOGY_SPHERE_CONDITIONS_FAIL = "HOMOLOGY_SPHERE_CONDITIONS_FAIL"


SPHERE_KINDS = frozenset({SphereKind.SPHERE_BY_I, SphereKind.SPHERE_BY_II})


class SphereVerdict(NamedTuple):
    """The criterion's verdict on Gamma(a), with the parts of the graph it reads.

    Vertices are entry indices. `components` are ordered by their smallest
    index. `even_component` is the connected component consisting of the
    even entries. It is empty when there is no even entry, and also when the
    component containing the even entries picks up an odd vertex (such a
    component does not consist of even numbers; no pair across the parity
    line can have gcd exactly 2, so the sphere condition (ii) fails there
    regardless).
    """

    kind: SphereKind
    isolated_points: tuple[int, ...]
    components: tuple[frozenset[int], ...]
    even_component: frozenset[int]
    even_component_pairwise_gcd2: bool

    @property
    def is_sphere(self) -> bool:
        return self.kind in SPHERE_KINDS


def _verdict(
    entries: Sequence[int], adj: Sequence[int]
) -> tuple[SphereKind, tuple[int, ...], list[int], bool]:
    # The kind, the isolated points, the even component's indices (ascending)
    # and its pairwise-gcd-2 test, from the adjacency masks of a tuple of
    # length >= 3, as a plain tuple.
    isolated = tuple([i for i, m in enumerate(adj) if not m])
    ec = _bits(_even_component(entries, adj))
    pairwise_gcd2 = True
    for i, j in combinations(ec, 2):
        if math.gcd(entries[i], entries[j]) != 2:
            pairwise_gcd2 = False
            break
    condition_ii = (
        len(isolated) >= 1 and len(ec) > 1 and len(ec) % 2 == 1 and pairwise_gcd2
    )
    condition_i = len(isolated) >= 2

    if len(entries) == 3:
        kind = (
            SphereKind.HOMOLOGY_SPHERE_CONDITIONS_HOLD
            if (condition_i or condition_ii)
            else SphereKind.HOMOLOGY_SPHERE_CONDITIONS_FAIL
        )
    elif condition_ii:
        kind = SphereKind.SPHERE_BY_II
    elif condition_i:
        kind = SphereKind.SPHERE_BY_I
    else:
        kind = SphereKind.NOT_SPHERE
    return kind, isolated, ec, pairwise_gcd2


def _criterion_adjacency(a: ExponentTuple) -> list[int]:
    # the adjacency masks of a tuple the criterion applies to
    if a.length < 3:
        raise UnsupportedLengthError(
            f"the sphere criterion needs at least 3 entries, got {a.length}"
        )
    return _adjacency(a.entries)


def sphere_kind(a: ExponentTuple) -> SphereKind:
    """The kind `evaluate_criterion(a)` reports, without the components."""
    return _verdict(a.entries, _criterion_adjacency(a))[0]


def evaluate_criterion(a: ExponentTuple) -> SphereVerdict:
    """Apply the graph criterion to a tuple of length >= 3.

    The verdict carries the components, isolated points and even component
    it was read from. Condition (ii) is checked first so a tuple satisfying
    both conditions is reported through its even-component structure.
    Length-3 tuples receive the HOMOLOGY_SPHERE_* kinds: the graph
    conditions there detect an integral homology 3-sphere, not a
    homeomorphism type. A caller that reads only the kind calls
    `sphere_kind`, which builds no components.
    """
    adj = _criterion_adjacency(a)
    kind, isolated, ec, pairwise_gcd2 = _verdict(a.entries, adj)
    return SphereVerdict(kind, isolated, _components(adj), frozenset(ec), pairwise_gcd2)


def _require_exponent_tuple(a) -> None:
    # the readers of the lattice refuse anything else before reading its fields
    if not isinstance(a, ExponentTuple):
        raise InvalidInputError(f"the subset lattice takes an ExponentTuple, "
                                f"got {type(a).__name__}")


def _capped_length(a: ExponentTuple, limits: Limits) -> int:
    # the length of a tuple whose lattice may be built: each table has 2^L
    # entries, so the cap is applied before any is allocated
    _require_exponent_tuple(a)
    if a.length > limits.subset_cap:
        raise CapacityError(f"the subset lattice walks 2^{a.length} subsets, exceeding the "
                            f"length cap of {limits.subset_cap}")
    return a.length


# table entries per chunk of `subset_lattices`, so that one chunk bounds
# what the generator holds whatever the length: 128 tuples of length 4,
# where chunks of 64-256 build fastest
_CHUNK_SUBSETS = 2048


def _lattice_chunk(
    rows: Sequence[tuple[int, ...]]
) -> list[tuple[list[int], list[int], list[int]]]:
    """The `subset_lattice` tables of K entry tuples of one length L, in order.

    Each step runs over the whole chunk. The doubling appends, for each
    position, the subsets holding it as a second half of every table at
    once, with entry J of tuple t's table at index t + K*J: one column of
    entries, repeated. The kernel checks nothing of what it computes: the
    tests compare its tables with the loop kernel of `tests/oracles.py`,
    which checks that each lcm divides its product and that the quotient
    of a singleton is 1 and of a pair its gcd.

    Reversing a table maps each subset to its complement, so the subset
    transform of kappa is the superset transform of kappa reversed, and
    freq and the reversed kappa take the same steps as one list of 2K
    tables. One transpose lays that list out table by table, so the parity
    of an index is bit 0 of J, and each step transforms every table at
    once. After the L steps the tables lie side by side again, entry J of
    table s at index s + 2K*J: the freq of tuple t is table 2t and its
    reversed kappa table 2K - 1 - 2t, so each is one slice.
    """
    K, L = len(rows), len(rows[0])
    lcm, prod = [1] * K, [1] * K
    n = 1
    # doubling: the new upper half adds the column, so bit j stands for entry j
    for col in zip(*rows):
        col *= n
        lcm += [*map(math.lcm, lcm, col)]
        prod += [*map(mul, prod, col)]
        n += n
    kap = [*map(floordiv, prod, lcm)]
    x = [*map(floordiv, lcm[-K:] * n, lcm), *reversed(kap)]
    if K > 1:  # for one tuple the list is already laid out table by table
        x = [*chain.from_iterable([x[t::K] for t in range(K)])]
    for _ in range(L):  # superset transform
        even, odd = x[0::2], x[1::2]
        x = [*map(sub, even, odd), *odd]
    if K == 1:  # a lone table needs no slicing by tuple
        return [(lcm, x[0::2], x[::-2])]
    return [(lcm[t::K], x[2 * t::2 * K], x[-1 - 2 * t::-2 * K]) for t in range(K)]


def subset_lattice(a: ExponentTuple, limits: Limits) -> tuple[list[int], list[int], list[int]]:
    """lcm[J], freq[J] and kappa[J] for every subset J of entry positions.

    For 0 < x <= d let J(x) = {j : a_j | x}. Since d // lcm[J] of them have
    J(x) containing J, the superset Moebius transform of these counts is
    freq[J] = #{x : J(x) = J}, and the entries sum to d. It vanishes unless J
    is closed (every a_j dividing lcm(J) is in J), as J(x) is; x = d alone
    has every position, so the top entry is 1. kappa is the subset Moebius
    transform of the quotients prod // lcm. Each table has 2^L entries, so
    the length is capped before any is allocated.

    The tables are built by doubling: for each entry e the subsets holding
    it are appended as a second half, so bit j of J stands for entries[j].
    Each Moebius step transforms position 0, the even entries of a table
    against the odd ones, and puts the two results one after the other as
    halves, which moves every position down by one and position 0 to the
    top; after L steps each position has been at bit 0 once and the order
    is restored. Every loop runs once per position, over a whole list. This
    is the kernel of `subset_lattices` on a chunk of one tuple; it refuses
    only what it may not build, and its second route is the loop kernel of
    the tests (`tests/oracles.loop_subset_lattice`).
    """
    _capped_length(a, limits)
    return _lattice_chunk((a.entries,))[0]


def subset_lattices(
    tuples: Iterable[ExponentTuple], limits: Limits
) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """The `subset_lattice` table of each of `tuples`, in order.

    The tuples must all have one length L. They are read and built a chunk
    at a time, each step of the kernel running over the whole chunk, so
    nothing is held beyond one chunk's tables. A chunk is
    max(1, _CHUNK_SUBSETS >> L) tuples, about 2^11 table entries in all:
    128 tuples of length 4, one tuple from length 11 on. The first tuple is
    read alone, to learn L and cap it before any table is allocated; a
    tuple of another length, or anything but an `ExponentTuple`, is refused
    when its chunk is read.
    """
    it = iter(tuples)
    chunk = list(islice(it, 1))
    if not chunk:
        return
    length = _capped_length(chunk[0], limits)
    size = max(1, _CHUNK_SUBSETS >> length)
    chunk += islice(it, size - 1)
    while chunk:
        for a in chunk:
            _require_exponent_tuple(a)
            if a.length != length:
                raise InvalidInputError(f"subset_lattices takes tuples of one length, "
                                        f"got {a} after tuples of length {length}")
        yield from _lattice_chunk([a.entries for a in chunk])
        chunk = list(islice(it, size))


def kappa(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> int:
    """Rank of the middle-degree homology of the manifold of `a`.

    The top entry of the subset lattice, so the length is capped.
    """
    return subset_lattice(a, limits)[2][-1]


def _chi_s1(m: int, k: int) -> int:
    # chi_S1 = n + (-1)^(n-1) kappa for a tuple of m = n + 1 entries
    return m - 1 - k if m & 1 else m - 1 + k


def chi_s1(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> int:
    """Circle-equivariant Euler characteristic: n + (-1)^(n-1) * kappa(a)."""
    k = kappa(a, limits)  # first: it refuses what is not an ExponentTuple
    return _chi_s1(a.length, k)


def pairwise_coprime(a: ExponentTuple) -> bool:
    return noncoprime_pair(a) is None


def noncoprime_pair(a: ExponentTuple) -> tuple[int, int] | None:
    """First index pair (by lexicographic order) sharing a factor, if any."""
    for i, j in combinations(range(a.length), 2):
        if math.gcd(a.entries[i], a.entries[j]) >= 2:
            return (i, j)
    return None
