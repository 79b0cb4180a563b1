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

from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction

from .arith import (
    DEFAULT_PRIME_BOUND,
    Height,
    INFINITY,
    InfinityType,
    PrimeMap,
    _Value,
    _marked,
    _require_instance,
    _require_int,
    _require_rational,
    _split,
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

    def all_finite(self) -> bool:
        """True iff no entry, default included, is infinite."""
        return not any(map(_is_infinite, (self._default, *self._exceptions.values())))


def similar(s: HeightSequence, t: HeightSequence) -> bool:
    """Whether two height sequences lie in the same similarity class.

    Requires infinity at exactly the same primes, and a finite total
    difference over the finite entries. With eventually constant data that
    difference is finite exactly when the finite defaults are equal, so
    two sequences are similar iff their types are equal.
    """
    return type_of(s) == type_of(t)


class TypeClass(PrimeMap):
    """Canonical form of a similarity class of height sequences.

    Finite deviations from a finite default carry no invariant content and
    are erased; only the default and the set of primes of infinite height
    survive. That set is finite under a finite default (the off-default
    ``infinite_primes``, stored as height inf) and cofinite under an
    infinite one (all but the ``finite_primes``, stored as height 0).

    >>> TypeClass(INFINITY, finite_primes={7, 3})
    TypeClass({default:inf, 3:0, 7:0})
    """

    __slots__ = ()
    _is_value = staticmethod(is_height)
    _label = "type"
    _domain = "a non-negative integer or inf"

    def __init__(
        self,
        default: Height = 0,
        infinite_primes: Iterable[int] = (),
        finite_primes: Iterable[int] = (),
    ):
        _require_instance("infinite primes", infinite_primes, Iterable)
        _require_instance("finite primes", finite_primes, Iterable)
        cofinite = _is_infinite(default)
        if cofinite:
            exceptions = _marked("finite primes", finite_primes, 0)
        else:
            exceptions = _marked("infinite primes", infinite_primes, INFINITY)
        PrimeMap.__init__(self, default, exceptions)
        if list(infinite_primes if cofinite else finite_primes):
            kind = "infinite" if cofinite else "finite"
            raise DomainError(f"{kind} default cannot list {kind} primes")

    @property
    def infinite_primes(self) -> frozenset[int]:
        return frozenset() if _is_infinite(self._default) else frozenset(self._exceptions)

    @property
    def finite_primes(self) -> frozenset[int]:
        return frozenset(self._exceptions) if _is_infinite(self._default) else frozenset()

    def canonical_heights(self) -> HeightSequence:
        """The distinguished representative sequence of this class.

        Finite positions under an infinite default are normalized to 0;
        any finite value there would be similar.
        """
        return HeightSequence._of(self._default, self._exceptions)


def type_of(s: HeightSequence) -> TypeClass:
    """The similarity class of s, as canonical data.

    type_of(s) == type_of(t) exactly when similar(s, t).
    """
    cofinite = _is_infinite(_require_instance("heights", s, HeightSequence)._default)
    marker = 0 if cofinite else INFINITY
    return TypeClass._of(
        s._default,
        {p: marker for p, v in s._exceptions.items() if _is_infinite(v) != cofinite},
    )


class LocalIso(Enum):
    """Isomorphism class of a rank-one group localized at a prime."""

    LOCAL_INTEGERS = "Z_(p)"
    RATIONALS = "Q"


class RankOneGroup(_Value):
    """The subgroup of the rationals cut out by a height sequence.

    Membership is the divisibility condition: q belongs iff for every
    prime p the p-adic valuation of q is at least -height(p). All heights
    are non-negative, so the group always contains the integers.
    """

    __slots__ = ("_heights",)

    def __init__(self, heights: HeightSequence):
        self._heights = _require_instance("heights", heights, HeightSequence)

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
        """Exact membership test. Only the primes of the support are divided
        out of the denominator of q; what is left is factored only under a
        finite default d > 0, where prime_bound bounds the trial division.

        >>> RankOneGroup(HeightSequence(0, {2: 3})).member(Fraction(1, 8))
        True
        """
        heights = self._heights
        _require_int("prime bound", prime_bound)
        factors, rest = _split_over(
            _require_rational("rational", q).denominator, heights, heights._exceptions, prime_bound
        )
        # Every prime of the rest has the default height, 0 or inf.
        return (rest == 1 or _is_infinite(heights._default)) and all(
            e <= heights._at(p) for p, e in factors.items()
        )

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

    def intersect(self, other: "RankOneGroup") -> "RankOneGroup":
        """Pointwise minimum of heights: members of both groups."""
        other = _require_instance("other group", other, RankOneGroup)
        return RankOneGroup(_pointwise(self._heights, other._heights, min))

    def join(self, other: "RankOneGroup") -> "RankOneGroup":
        """Pointwise maximum of heights: the subgroup generated by both."""
        other = _require_instance("other group", other, RankOneGroup)
        return RankOneGroup(_pointwise(self._heights, other._heights, max))

    def _key(self) -> HeightSequence:
        return self._heights

    def __repr__(self):
        return f"RankOneGroup({self._heights!r})"


def _split_over(
    n: int, heights: HeightSequence, primes: Iterable[int], prime_bound: int
) -> tuple[dict[int, int], int]:
    """The exponent of each of the given primes in n >= 1 where it is
    positive, and the rest of n. The primes must include every exception
    of the heights. The rest is factored too, leaving 1, only under a
    finite default d > 0: under 0 or inf every prime of the rest has that
    height, so the rest alone settles what it contributes."""
    factors: dict[int, int] = {}
    for p in primes:
        e, n = _split(n, p)
        if e:
            factors[p] = e
    default = heights._default
    if n > 1 and not _is_infinite(default) and default > 0:
        factors.update(factorize(n, prime_bound))
        n = 1
    return factors, n


def _pointwise(a: HeightSequence, b: PrimeMap, combine) -> HeightSequence:
    default = combine(a._default, b._default)
    entries: dict[int, Height] = {}
    for p in sorted({*a._exceptions, *b._exceptions}):
        value = combine(a._at(p), b._at(p))
        if value != default:
            entries[p] = value
    return HeightSequence._of(default, entries)

