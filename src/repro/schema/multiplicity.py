"""Multiplicities: the five symbols ``0 1 ? + *`` as count intervals."""

from __future__ import annotations

import enum

from repro.util.intervals import INF, Interval


class Multiplicity(enum.Enum):
    """How many occurrences an atom admits."""

    ZERO = "0"
    ONE = "1"
    OPTIONAL = "?"
    PLUS = "+"
    STAR = "*"

    @property
    def interval(self) -> Interval:
        # Keyed by symbol: hashing a str skips the Python-level
        # ``Enum.__hash__``, and this lookup sits in the path learner's
        # inner loops.
        return _INTERVALS[self._value_]

    @property
    def min(self) -> int:
        return self.interval.lo

    @property
    def required(self) -> bool:
        """At least one occurrence is forced."""
        return self.interval.lo >= 1

    def admits(self, count: int) -> bool:
        return count in self.interval

    @classmethod
    def from_counts(cls, lo: int, hi: int) -> "Multiplicity":
        """Tightest multiplicity covering observed count range ``[lo, hi]``.

        This is the inference primitive: observed min/max occurrence counts
        map onto the unique minimal symbol that admits them all.
        """
        if hi == 0:
            return cls.ZERO
        if lo >= 1:
            return cls.ONE if hi == 1 else cls.PLUS
        return cls.OPTIONAL if hi == 1 else cls.STAR

    def __str__(self) -> str:
        return self.value


_INTERVALS = {
    Multiplicity.ZERO.value: Interval(0, 0),
    Multiplicity.ONE.value: Interval(1, 1),
    Multiplicity.OPTIONAL.value: Interval(0, 1),
    Multiplicity.PLUS.value: Interval(1, INF),
    Multiplicity.STAR.value: Interval(0, INF),
}
