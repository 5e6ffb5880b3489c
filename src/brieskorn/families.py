"""Two parametric families of sphere tuples and their exact verifications.

The first family is (m, m+1, 2m+1, 4m+3): always a sphere tuple with the
two middle entries isolated, pairwise coprime exactly when 3 does not
divide m, in which case its mean Euler characteristic has the closed form

    (21m^2 + 17m + 3) / (16m^4 - 8m^3 - 50m^2 - 34m - 6).

The second family consists of consecutive Fermat numbers F_l = 2^(2^l) + 1,
pairwise coprime by the recursion F_l = F_0 * ... * F_{l-1} + 2.

Each check of the first family is made in one place, which the `family`
command and `verify-paper` share: the closed form's agreement with the
general algorithm and its strict decrease in `closed_form_checks`, g'h - h'g
in `derivative_combination`, and the denominator's root location by the
dominance check in `exactarith`. The Fermat functions only compute:
verify-paper item 9 checks the product recursion on F_0, ..., F_7 and the
closed form of each report row against the general algorithm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import CapacityError, InvalidInputError, PreconditionError
from .exactarith import IntPolynomial
from .limits import DEFAULT_LIMITS, Limits
from .reeb import _chi_m, connected_sum_chi, mean_euler_coprime
from .topology import ExponentTuple, SphereKind, sphere_kind, subset_lattices

# Closed form numerator/denominator for the (m, m+1, 2m+1, 4m+3) family,
# coefficients ascending.
CHI_NUMERATOR = IntPolynomial((3, 17, 21))
CHI_DENOMINATOR = IntPolynomial((-6, -34, -50, -8, 16))

# g'h - h'g for the closed form above; negative for m >= 1, which makes the
# closed form strictly decreasing there.
DERIVATIVE_COMBINATION_COEFFS = (0, 48, 208, 80, -648, -672)


class FamilyRow(NamedTuple):
    parameter: int
    exponents: ExponentTuple
    kind: SphereKind
    pairwise_coprime: bool
    chi_m: Fraction | None
    closed_form: Fraction | None
    agrees: bool | None


def sigma_m_tuple(m: int) -> ExponentTuple:
    """The 4-tuple (m, m+1, 2m+1, 4m+3)."""
    if m < 2:
        raise InvalidInputError(f"family parameter must be >= 2, got {m}")
    return ExponentTuple((m, m + 1, 2 * m + 1, 4 * m + 3))


def sigma_m_closed_form(m: int) -> Fraction:
    """Closed-form mean Euler characteristic of the m-family tuple.

    Only valid for gcd(m, 3) = 1: the derivation rests on the entries being
    pairwise coprime, and 3 | m is exactly when m and 4m+3 share a factor.

    The value is the literal polynomial quotient g(m)/h(m). Its denominator
    identity carries a hidden absolute value: h has all roots inside the
    disc of radius 3 (see `dominance_check`), so h(m) > 0 and the quotient
    equals the invariant for every valid m >= 4, but at m = 2 the sign
    flips and the quotient differs from the true invariant.
    """
    if m < 2:
        raise InvalidInputError(f"family parameter must be >= 2, got {m}")
    if math.gcd(m, 3) != 1:
        raise PreconditionError(
            f"closed form requires gcd(m, 3) = 1; m = {m} is divisible by 3"
        )
    return Fraction(CHI_NUMERATOR.evaluate(m), CHI_DENOMINATOR.evaluate(m))


def sigma_family_rows(
    m_low: int, m_high: int, limits: Limits = DEFAULT_LIMITS
) -> list[FamilyRow]:
    """One row per m in [m_low, m_high], all via the general algorithm,
    whose lattice tables are built in chunks (`subset_lattices`).

    Rows with 3 | m carry no closed form: the derivation assumption fails
    there and the general algorithm is the only authority.
    """
    if m_low < 2 or m_high < m_low:
        raise InvalidInputError(f"need 2 <= m_low <= m_high, got [{m_low}, {m_high}]")
    tuples = [sigma_m_tuple(m) for m in range(m_low, m_high + 1)]
    rows = []
    for m, a, lattice in zip(range(m_low, m_high + 1), tuples, subset_lattices(tuples, limits)):
        value = _chi_m(a, lattice)
        coprime = math.gcd(m, 3) == 1
        closed = sigma_m_closed_form(m) if coprime else None
        agrees = (value == closed) if closed is not None else None
        rows.append(FamilyRow(m, a, sphere_kind(a), coprime, value, closed, agrees))
    return rows


def closed_form_checks(rows: Sequence[FamilyRow]) -> tuple[bool, bool]:
    """(agreement, strictly decreasing) over the rows with gcd(m, 3) = 1:
    the general algorithm equals the closed form on each of them, and the
    values decrease strictly along them."""
    coprime_rows = [r for r in rows if r.pairwise_coprime]
    agreement = all(r.agrees for r in coprime_rows)
    decreasing = all(
        coprime_rows[i + 1].chi_m < coprime_rows[i].chi_m
        for i in range(len(coprime_rows) - 1)
    )
    return agreement, decreasing


def derivative_combination() -> IntPolynomial:
    """g'h - h'g for the closed form, by exact polynomial algebra."""
    g, h = CHI_NUMERATOR, CHI_DENOMINATOR
    return g.derivative() * h - h.derivative() * g


def fermat_number(ell: int, limits: Limits = DEFAULT_LIMITS) -> int:
    """F_ell = 2^(2^ell) + 1."""
    if ell < 0:
        raise InvalidInputError(f"Fermat index must be >= 0, got {ell}")
    if ell > limits.fermat_cap:
        raise CapacityError(
            f"Fermat index {ell} exceeds the cap of {limits.fermat_cap} "
            "(sizes grow doubly exponentially)"
        )
    return 2 ** (2**ell) + 1


def fermat_tuple(ell: int, n: int, limits: Limits = DEFAULT_LIMITS) -> ExponentTuple:
    """The (n+1)-tuple (F_ell, ..., F_{ell+n}) of consecutive Fermat numbers.

    Only those n+1 numbers are computed. The product recursion
    F_k = F_0 * ... * F_{k-1} + 2, which makes the entries pairwise coprime,
    is checked by verify-paper item 9, not here.
    """
    if ell < 0:
        raise InvalidInputError(f"Fermat index must be >= 0, got {ell}")
    if n < 2:
        raise InvalidInputError(f"Fermat tuple needs n >= 2, got {n}")
    if ell + n > limits.fermat_cap:
        raise CapacityError(
            f"Fermat tuple reaches index {ell + n}, exceeding the cap of "
            f"{limits.fermat_cap}"
        )
    return ExponentTuple(tuple([fermat_number(k, limits) for k in range(ell, ell + n + 1)]))


class FermatRow(NamedTuple):
    ell: int
    exponents: ExponentTuple
    chi_m: Fraction
    signed_chi: Fraction
    ratio: Fraction
    ratio_error: Fraction
    in_interval: bool
    self_sum: Fraction
    self_sum_sign_negative: bool


class FermatAsymptoticsReport(NamedTuple):
    """Asymptotics of the Fermat family at fixed n.

    The signed invariant behaves like 1/(2x^3) with x = 2^(2^ell), so the
    exact ratio signed_chi * 2x^3 tends to 1; the report checks that
    |ratio - 1| decreases strictly and that from the first index where the
    signed invariant enters (0, 1/4) it stays there, making the signed
    self-connected-sum value negative.
    """

    rows: tuple[FermatRow, ...]
    ratio_error_strictly_decreasing: bool
    first_in_interval: int | None
    in_interval_from_first_on: bool
    self_sum_negative_whenever_below_quarter: bool

    @property
    def passed(self) -> bool:
        return (
            self.ratio_error_strictly_decreasing
            and self.first_in_interval is not None
            and self.in_interval_from_first_on
            and self.self_sum_negative_whenever_below_quarter
        )


def fermat_asymptotics_report(
    ells: Sequence[int], n: int, limits: Limits = DEFAULT_LIMITS
) -> FermatAsymptoticsReport:
    """Exact asymptotic verification over the given Fermat indices.

    Each row's chi_m is the closed form for pairwise coprime tuples
    (`mean_euler_coprime`); no subset lattice is built. Verify-paper item 9
    compares it with the general algorithm.
    """
    if not ells:
        raise InvalidInputError("need at least one Fermat index")
    if list(ells) != sorted(set(ells)):
        raise InvalidInputError("Fermat indices must be strictly increasing")
    sign = (-1) ** (n + 1)
    quarter = Fraction(1, 4)
    rows = []
    for ell in ells:
        t = fermat_tuple(ell, n, limits)
        chi = mean_euler_coprime(t)
        x = 2 ** (2**ell)
        signed = sign * chi
        ratio = signed * 2 * x**3
        self_sum = connected_sum_chi([chi, chi], n)
        rows.append(
            FermatRow(
                ell=ell,
                exponents=t,
                chi_m=chi,
                signed_chi=signed,
                ratio=ratio,
                ratio_error=abs(ratio - 1),
                in_interval=Fraction(0) < signed < quarter,
                self_sum=self_sum,
                self_sum_sign_negative=sign * self_sum < 0,
            )
        )

    decreasing = all(
        rows[i + 1].ratio_error < rows[i].ratio_error for i in range(len(rows) - 1)
    )
    first = next((r.ell for r in rows if r.in_interval), None)
    from_first_on = first is None or all(
        r.in_interval for r in rows if r.ell >= first
    )
    below_quarter_negative = all(
        r.self_sum_sign_negative for r in rows if r.signed_chi < quarter
    )
    return FermatAsymptoticsReport(
        tuple(rows), decreasing, first, from_first_on, below_quarter_negative
    )
