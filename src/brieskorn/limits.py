"""Configurable enumeration caps.

The subset lattices and the Fermat towers are guarded by caps, set by flag
or environment, so that absurd inputs fail fast with a `CapacityError`
instead of hanging; the sphere search has the fixed `certify.SEARCH_BUDGET`
and the pair search the fixed `certify.PAIR_BUDGET`.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import InvalidInputError

# Environment variable spellings match the CLI flags, upper-cased, BK_ prefix.
_ENV_VARS = {
    "subset_cap": "BK_CAP_SUBSETS",
    "fermat_cap": "BK_CAP_FERMAT",
}


class _LimitsFields(NamedTuple):
    subset_cap: int
    fermat_cap: int


class Limits(_LimitsFields):
    """Caps applied by the enumeration-heavy operations.

    subset_cap: maximum tuple length L for operations that walk all 2^L
        subsets (homology rank, period lattice). Memory doubles with each
        entry: `invariants --strata --json` on 19 entries peaks near 1 GB,
        on 20 entries above 2 GB, so 20 is refused by default.
    fermat_cap: largest Fermat index ever materialized (sizes grow doubly
        exponentially).

    Each cap is an int >= 0, not a bool. The checks run in `__new__`, and
    `_make` (which `_replace` calls) goes through it too.
    """

    __slots__ = ()

    def __new__(cls, subset_cap: int = 19, fermat_cap: int = 12):
        for name, value in (("subset_cap", subset_cap), ("fermat_cap", fermat_cap)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidInputError(f"limit {name} must be an integer, got {value!r}")
            if value < 0:
                raise InvalidInputError(f"limit {name} must be nonnegative, got {value}")
        return tuple.__new__(cls, (subset_cap, fermat_cap))

    @classmethod
    def _make(cls, iterable) -> "Limits":
        values = tuple(iterable)
        if len(values) != len(cls._fields):  # no default stands in for a missing field
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def with_overrides(self, **kwargs) -> "Limits":
        """Return a copy with the given fields replaced (None values ignored)."""
        return self._replace(**{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_LIMITS = Limits()


def limits_from_env(base: Limits = DEFAULT_LIMITS) -> Limits:
    """Read BK_* environment overrides on top of `base`."""
    overrides = {}
    for field, var in _ENV_VARS.items():
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            overrides[field] = int(raw)
        except ValueError:
            raise InvalidInputError(f"{var} must be an integer, got {raw!r}") from None
    return base.with_overrides(**overrides)
