"""Height sequences, similarity types, and rank-one subgroups of the rationals.

A torsion-free abelian group of rank one embeds, up to isomorphism, as a
subgroup of the rationals containing the integers. Such a subgroup is
pinned down by the height of 1 at each prime: the largest r with 1/p^r in
the group. This module works with the computable fragment of eventually
constant height sequences, which is closed under every operation below and
contains all the named examples (the integers, Z[1/p], the full rationals,
pseudo-integer groups).

Two sequences are similar when they carry infinity at exactly the same
primes and their finite entries differ at only finitely many primes. A
similarity class is called a type; types classify rank-one torsion-free
groups up to abstract isomorphism.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .arith import (
    DEFAULT_PRIME_BOUND,
    Height,
    INFINITY,
    InfinityType,
    PrimeMap,
    PrimeSet,
    factorize,
    is_height,
)
from .errors import DomainError


def _is_infinite(h: Height) -> bool:
    return isinstance(h, InfinityType)


class HeightSequence(PrimeMap):
    """An eventually constant sequence of heights, one entry per prime.

    Stored as a single default plus finitely many exceptions; an entry that
    repeats the default is dropped at construction, so equal data means
    equal sequences.

    >>> h = HeightSequence(0, {2: 3, 5: INFINITY})
    >>> h.height_at(2), h.height_at(3), h.height_at(5)
    (3, 0, inf)
    """

    __slots__ = ()
    _is_value = staticmethod(is_height)
    _label = "height"
    _domain = "a non-negative integer or inf"

    # Defined here, not inherited, so that perfbench/tracing.py can time the
    # construction of height sequences on their own.
    def __init__(self, default: Height = 0, exceptions: Mapping[int, Height] | None = None):
        PrimeMap.__init__(self, default, exceptions)

    height_at = PrimeMap.value_at

    def infinite_exception_primes(self) -> frozenset[int]:
        return frozenset(p for p, v in self._exceptions.items() if _is_infinite(v))

    def finite_exception_primes(self) -> frozenset[int]:
        return frozenset(p for p, v in self._exceptions.items() if not _is_infinite(v))

    def all_finite(self) -> bool:
        """True iff no entry, default included, is infinite."""
        return PrimeSet.where(self, _is_infinite).is_empty


def similar(s: HeightSequence, t: HeightSequence) -> bool:
    """Whether two height sequences lie in the same similarity class.

    Requires infinity at exactly the same primes, and a finite total
    difference over the finite entries. With eventually constant data that
    difference is finite exactly when the finite defaults are equal, so
    two sequences are similar iff their types are equal.
    """
    return type_of(s) == type_of(t)


class TypeClass:
    """Canonical form of a similarity class of height sequences.

    Finite deviations from a finite default carry no invariant content and
    are erased; only the default and the set of primes of infinite height
    survive. That set is finite under a finite default (the off-default
    ``infinite_primes``) and cofinite under an infinite one (all but the
    ``finite_primes``).
    """

    __slots__ = ("_default", "_infinite")

    def __init__(
        self,
        default: Height = 0,
        infinite_primes: Iterable[int] = (),
        finite_primes: Iterable[int] = (),
    ):
        if not is_height(default):
            raise DomainError("type default must be a non-negative integer or inf")
        cofinite = _is_infinite(default)
        if frozenset(infinite_primes if cofinite else finite_primes):
            kind = "infinite" if cofinite else "finite"
            raise DomainError(f"{kind} default cannot list {kind} primes")
        self._default = default
        listed = finite_primes if cofinite else infinite_primes
        self._infinite = PrimeSet(listed, complement=cofinite)

    @classmethod
    def _of(cls, default: Height, infinite: PrimeSet) -> "TypeClass":
        """Wrap an already validated locus without checking it again."""
        type_class = cls.__new__(cls)
        type_class._default = default
        type_class._infinite = infinite
        return type_class

    @property
    def default(self) -> Height:
        return self._default

    @property
    def infinite_primes(self) -> frozenset[int]:
        return frozenset() if self._infinite.is_cofinite else self._infinite.listed_primes

    @property
    def finite_primes(self) -> frozenset[int]:
        return self._infinite.listed_primes if self._infinite.is_cofinite else frozenset()

    def canonical_heights(self) -> HeightSequence:
        """The distinguished representative sequence of this class.

        Finite positions under an infinite default are normalized to 0;
        any finite value there would be similar.
        """
        marker = 0 if self._infinite.is_cofinite else INFINITY
        listed = self._infinite.listed_primes
        return HeightSequence(self._default, dict.fromkeys(listed, marker))

    def __eq__(self, other):
        if not isinstance(other, TypeClass):
            return NotImplemented
        return self._default == other._default and self._infinite == other._infinite

    def __hash__(self):
        return hash((self._default, self._infinite))

    def __repr__(self):
        return f"TypeClass({self})"

    def __str__(self):
        return str(self.canonical_heights())


def type_of(s: HeightSequence) -> TypeClass:
    """The similarity class of s, as canonical data.

    type_of(s) == type_of(t) exactly when similar(s, t).
    """
    return TypeClass._of(s.default, PrimeSet.where(s, _is_infinite))


class LocalIso(Enum):
    """Isomorphism class of a rank-one group localized at a prime."""

    LOCAL_INTEGERS = "Z_(p)"
    RATIONALS = "Q"


class RankOneGroup:
    """The subgroup of the rationals cut out by a height sequence.

    Membership is the divisibility condition: q belongs iff for every
    prime p the p-adic valuation of q is at least -height(p). All heights
    are non-negative, so the group always contains the integers.
    """

    __slots__ = ("_heights",)

    def __init__(self, heights: HeightSequence):
        self._heights = heights

    @property
    def heights(self) -> HeightSequence:
        return self._heights

    @classmethod
    def integers(cls) -> "RankOneGroup":
        return cls(HeightSequence(0))

    @classmethod
    def rationals(cls) -> "RankOneGroup":
        return cls(HeightSequence(INFINITY))

    def member(self, q: Fraction | int, prime_bound: int = DEFAULT_PRIME_BOUND) -> bool:
        """Exact membership test; factors the denominator of q.

        >>> RankOneGroup(HeightSequence(0, {2: 3})).member(Fraction(1, 8))
        True
        """
        q = Fraction(q)
        if q.denominator == 1:
            return True
        for p, e in factorize(q.denominator, prime_bound).items():
            if e > self._heights.height_at(p):
                return False
        return True

    def height(self, p: int) -> Height:
        """Height of 1 at p: the largest r with 1/p^r in the group."""
        return self._heights.height_at(p)

    def is_pseudo_integers(self) -> bool:
        """True iff the group contains no Z[1/p], i.e. every height is finite."""
        return self._heights.all_finite()

    def localize(self, p: int) -> LocalIso:
        """Isomorphism class after tensoring with the p-local integers."""
        if isinstance(self._heights.height_at(p), InfinityType):
            return LocalIso.RATIONALS
        return LocalIso.LOCAL_INTEGERS

    def type_class(self) -> TypeClass:
        """The abstract isomorphism class of this group."""
        return type_of(self._heights)

    def intersect(self, other: "RankOneGroup") -> "RankOneGroup":
        """Pointwise minimum of heights: members of both groups."""
        return RankOneGroup(_pointwise(self._heights, other._heights, min))

    def join(self, other: "RankOneGroup") -> "RankOneGroup":
        """Pointwise maximum of heights: the subgroup generated by both."""
        return RankOneGroup(_pointwise(self._heights, other._heights, max))

    def __eq__(self, other):
        if not isinstance(other, RankOneGroup):
            return NotImplemented
        return self._heights == other._heights

    def __hash__(self):
        return hash(("RankOneGroup", self._heights))

    def __repr__(self):
        return f"RankOneGroup({self._heights!r})"


def _pointwise(a: HeightSequence, b: HeightSequence, combine) -> HeightSequence:
    default = combine(a.default, b.default)
    entries: dict[int, Height] = {}
    for p in set(a.support) | set(b.support):
        entries[p] = combine(a.height_at(p), b.height_at(p))
    return HeightSequence(default, entries)

