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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    BrieskornError,
    CapacityError,
    InvalidInputError,
    PreconditionError,
    UnsupportedLengthError,
)
from .limits import DEFAULT_LIMITS, Limits


@dataclass(frozen=True)
class ExponentTuple:
    """Ordered tuple of integer exponents, all >= 2, length >= 2."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise InvalidInputError(
                f"an exponent tuple needs at least 2 entries, got {len(self.entries)}"
            )
        for i, e in enumerate(self.entries):
            if not isinstance(e, int) or isinstance(e, bool):
                raise InvalidInputError(f"entry at index {i} is not an integer: {e!r}")
            if e < 2:
                raise InvalidInputError(f"entry at index {i} must be >= 2, got {e}")

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
        return ExponentTuple(tuple(self.entries[i] for i in indices))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def make_tuple(entries: Iterable[int]) -> ExponentTuple:
    """Validate and build an exponent tuple."""
    return ExponentTuple(tuple(entries))


@dataclass(frozen=True)
class DivisorGraph:
    """Gamma(a): vertices are entry indices, edges join pairs with gcd >= 2.

    `even_component` is the connected component consisting of the even
    entries. It is empty when there is no even entry, and also when the
    component containing the even entries picks up an odd vertex (such a
    component does not consist of even numbers; no pair across the parity
    line can have gcd exactly 2, so the sphere condition (ii) fails there
    regardless).
    """

    exponents: ExponentTuple
    edges: tuple[tuple[int, int], ...]
    components: tuple[frozenset[int], ...]
    even_component: frozenset[int]
    isolated_points: tuple[int, ...]


def build_graph(a: ExponentTuple) -> DivisorGraph:
    """Construct Gamma(a) with components, isolated points and Gamma^2(a)."""
    entries = a.entries
    L = a.length
    adjacency: dict[int, set[int]] = {i: set() for i in range(L)}
    edges = []
    for i, j in combinations(range(L), 2):
        if math.gcd(entries[i], entries[j]) >= 2:
            edges.append((i, j))
            adjacency[i].add(j)
            adjacency[j].add(i)

    components = []
    seen: set[int] = set()
    for start in range(L):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(frozenset(comp))

    evens = {i for i in range(L) if entries[i] % 2 == 0}
    even_component: frozenset[int] = frozenset()
    if evens:
        # All even entries share the factor 2, hence live in one component.
        comp = next(c for c in components if evens & c)
        if not evens <= comp:
            raise BrieskornError(f"even entries of {a} span more than one component")
        if all(entries[i] % 2 == 0 for i in comp):
            even_component = comp

    isolated = tuple(i for i in range(L) if not adjacency[i])
    return DivisorGraph(a, tuple(edges), tuple(components), even_component, isolated)


class SphereKind(Enum):
    SPHERE_BY_I = "SPHERE_BY_I"
    SPHERE_BY_II = "SPHERE_BY_II"
    NOT_SPHERE = "NOT_SPHERE"
    HOMOLOGY_SPHERE_CONDITIONS_HOLD = "HOMOLOGY_SPHERE_CONDITIONS_HOLD"
    HOMOLOGY_SPHERE_CONDITIONS_FAIL = "HOMOLOGY_SPHERE_CONDITIONS_FAIL"


SPHERE_KINDS = frozenset({SphereKind.SPHERE_BY_I, SphereKind.SPHERE_BY_II})


@dataclass(frozen=True)
class SphereVerdict:
    kind: SphereKind
    isolated_points: tuple[int, ...]
    even_component_size: int
    even_component_pairwise_gcd2: bool

    @property
    def is_sphere(self) -> bool:
        return self.kind in SPHERE_KINDS


def evaluate_criterion(a: ExponentTuple) -> SphereVerdict:
    """Apply the graph criterion to a tuple of length >= 3.

    Condition (ii) is checked first so a tuple satisfying both conditions is
    reported through its even-component structure. Length-3 tuples receive
    the HOMOLOGY_SPHERE_* kinds: the graph conditions there detect an
    integral homology 3-sphere, not a homeomorphism type.
    """
    if a.length < 3:
        raise UnsupportedLengthError(
            f"the sphere criterion needs at least 3 entries, got {a.length}"
        )
    graph = build_graph(a)
    entries = a.entries
    ec = sorted(graph.even_component)
    pairwise_gcd2 = all(
        math.gcd(entries[i], entries[j]) == 2 for i, j in combinations(ec, 2)
    )
    condition_ii = (
        len(graph.isolated_points) >= 1
        and len(ec) > 1
        and len(ec) % 2 == 1
        and pairwise_gcd2
    )
    condition_i = len(graph.isolated_points) >= 2

    if a.length == 3:
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
    return SphereVerdict(kind, graph.isolated_points, len(ec), pairwise_gcd2)


# Bounded so a long-lived process cannot grow it without limit. `mean_euler`
# reads kappa from its subset lattice and does not call this, so the
# reproduction suite asks for ~1k distinct tuples, far below 2**16.
@lru_cache(maxsize=2**16)
def _kappa_sorted(entries: tuple[int, ...]) -> int:
    # Alternating sum over all subsets of product/lcm quotients. The quotient
    # is an integer for every subset (the lcm divides the product); the pair
    # layer reproduces the pairwise gcds.
    L = len(entries)
    total = 0
    for k in range(L + 1):
        sign = (-1) ** (L - k)
        for subset in combinations(entries, k):
            # the empty subset has product 1 and lcm 1
            quotient, rem = divmod(math.prod(subset), math.lcm(*subset))
            if rem or (k == 1 and quotient != 1) or (
                k == 2 and quotient != math.gcd(subset[0], subset[1])
            ):
                raise BrieskornError(f"product/lcm quotient check fails on {subset}")
            total += sign * quotient
    return total


def kappa(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> int:
    """Rank of the middle-degree homology of the manifold of `a`.

    Computed by the full 2^L subset expansion, so the length is capped.
    """
    if a.length > limits.subset_cap:
        raise CapacityError(
            f"homology rank enumerates 2^{a.length} subsets, exceeding the "
            f"length cap of {limits.subset_cap}"
        )
    return _kappa_sorted(tuple(sorted(a.entries)))


def chi_s1(a: ExponentTuple, limits: Limits = DEFAULT_LIMITS) -> int:
    """Circle-equivariant Euler characteristic: n + (-1)^(n-1) * kappa(a)."""
    n = a.n
    return n + (-1) ** (n - 1) * kappa(a, limits)


def invariant_subtuples(
    a: ExponentTuple, min_length: int = 2
) -> list[tuple[tuple[int, ...], ExponentTuple]]:
    """All subtuples with at least `min_length` entries, with their index sets.

    Enumeration order is deterministic: by size ascending, then
    index-lexicographic within each size.
    """
    if not 2 <= min_length <= a.length:
        raise InvalidInputError(
            f"min_length must be in [2, {a.length}], got {min_length}"
        )
    out = []
    for size in range(min_length, a.length + 1):
        for indices in combinations(range(a.length), size):
            out.append((indices, a.subtuple(indices)))
    return out


def pairwise_coprime(a: ExponentTuple) -> bool:
    return noncoprime_pair(a) is None


def noncoprime_pair(a: ExponentTuple) -> tuple[int, int] | None:
    """First index pair (by lexicographic order) sharing a factor, if any."""
    for i, j in combinations(range(a.length), 2):
        if math.gcd(a.entries[i], a.entries[j]) >= 2:
            return (i, j)
    return None


@dataclass(frozen=True)
class SubtupleCheck:
    indices: tuple[int, ...]
    subtuple: ExponentTuple
    kappa: int
    chi_s1: int


@dataclass(frozen=True)
class SubtuplePositivityReport:
    """Outcome of checking every invariant submanifold of a sphere 4-tuple.

    For a sphere 4-tuple, every length-3 subtuple must have vanishing
    homology rank and every subtuple of length >= 2 must have positive
    equivariant Euler characteristic. Any violation would falsify the
    positivity statement and is listed explicitly.
    """

    exponents: ExponentTuple
    checks: tuple[SubtupleCheck, ...]
    falsifications: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.falsifications


def check_subtuple_positivity(
    a: ExponentTuple, limits: Limits = DEFAULT_LIMITS
) -> SubtuplePositivityReport:
    """Verify kappa = 0 on all triples and chi^{S1} > 0 on all subtuples."""
    if a.length != 4:
        raise PreconditionError(
            f"subtuple positivity check applies to 4-tuples, got length {a.length}"
        )
    verdict = evaluate_criterion(a)
    if not verdict.is_sphere:
        raise PreconditionError(f"{a} is not a sphere tuple (verdict {verdict.kind.value})")

    checks = []
    falsifications = []
    for indices, b in invariant_subtuples(a, min_length=2):
        k = kappa(b, limits)
        chi = chi_s1(b, limits)
        checks.append(SubtupleCheck(indices, b, k, chi))
        if len(indices) == 3 and k != 0:
            falsifications.append(f"kappa{b} = {k}, expected 0")
        if chi <= 0:
            falsifications.append(f"chi_s1{b} = {chi}, expected > 0")
    return SubtuplePositivityReport(a, tuple(checks), tuple(falsifications))
