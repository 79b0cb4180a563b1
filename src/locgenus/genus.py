"""Genus descriptors and classification rules for spheres and projective spaces.

Two classification problems are covered, both reduced to exact arithmetic
on finite data.

Rationalization genus of an odd sphere: a member is determined by a
connecting homomorphism from the rationals to Q/Z, its complete invariant
being the similarity type of the kernel. The two homotopy groups that can
vary sit in an exact sequence whose ends are read off the kernel heights:
the type of the kernel in degree n, and a sum of full Pruefer groups in
degree n-1 at exactly the primes of infinite height.

Postnikov genus of an odd sphere: members are classified by one pointed
natural number per prime. The per-prime invariant is recovered from a
cohomological fingerprint, modelled here by its arithmetic content: in the
model with invariant k at p, the obstruction operation on m times the
fundamental class (the cup square at p = 2, a first Steenrod power at odd
primes) vanishes exactly when p^k divides m. Projective spaces feed the
same machinery through degree sequences: a fiberwise degree p^k at the
prime p scales the invariant of the sphere cover by the complex dimension.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .arith import (
    NatPlus,
    PAdicApprox,
    PrimeMap,
    PrimeSet,
    STAR,
    StarType,
    InfinityType,
    is_nat_plus,
    is_prime,
    padic_decompose,
)
from .connecting import ConnectingHom
from .errors import DomainError, EnumerationLimitError, FingerprintCapError
from .rankone import HeightSequence, TypeClass, type_of

#: Fingerprint searches give up past this exponent; bounded probing cannot
#: tell a larger invariant from the base point.
DEFAULT_FINGERPRINT_CAP = 64

#: Enumerations refuse to materialize more descriptors than this.
ENUMERATION_LIMIT = 10**6


def _require_odd_dimension(n: int) -> None:
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise DomainError(f"dimension must be an odd integer >= 3, got {n!r}")


class TorsionShape(PrimeSet):
    """A direct sum of full Pruefer groups, one per prime in a stored set.

    The set is either an explicit finite set of primes or the complement
    of one, mirroring the infinite-height locus of an eventually constant
    height sequence.
    """

    __slots__ = ()

    @classmethod
    def from_heights(cls, heights: HeightSequence) -> "TorsionShape":
        """The primes where the height is infinite."""
        return cls.where(heights, lambda h: isinstance(h, InfinityType))


class RationalGenusElement:
    """A member of the extended rationalization genus of an odd sphere.

    Carries the odd dimension and the connecting homomorphism of the
    defining fibration over the rationalized sphere.
    """

    __slots__ = ("_dimension", "_hom")

    def __init__(self, dimension: int, hom: ConnectingHom):
        _require_odd_dimension(dimension)
        self._dimension = dimension
        self._hom = hom

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def hom(self) -> ConnectingHom:
        return self._hom

    def homotopy_groups(self) -> tuple[TypeClass, TorsionShape]:
        """The two variable homotopy groups, as (type in degree n, torsion
        below).

        Degree n is the kernel type. Degree n-1 collects a full Pruefer
        group at each prime of infinite kernel height: the image of a
        divisible group in the Pruefer part is zero or everything, so the
        cokernel is supported exactly where the summand was dropped.
        """
        kernel_heights = self._hom.kernel().heights
        return type_of(kernel_heights), TorsionShape.from_heights(kernel_heights)

    def is_n_minus_1_connected(self) -> bool:
        """True iff the homomorphism is surjective.

        Equivalent to the kernel being a group of pseudo-integers: every
        height finite, no Pruefer summand dropped.
        """
        return self._hom.kernel().is_pseudo_integers()

    def classify(self) -> TypeClass:
        """Complete invariant: two members agree iff their classes do."""
        return self._hom.double_coset_class()

    def __repr__(self):
        return f"RationalGenusElement(dimension={self._dimension}, hom={self._hom!r})"


class PostnikovGenusDescriptor(PrimeMap):
    """One pointed natural number per prime, eventually equal to a default.

    The complete invariant for the Postnikov genus of an odd sphere; the
    standard sphere is the all-zero descriptor. Descriptors of different
    dimensions are never equal.
    """

    __slots__ = ("_dimension",)
    _is_value = staticmethod(is_nat_plus)
    _label = "descriptor"
    _domain = "a non-negative integer or *"

    def __init__(
        self,
        dimension: int,
        default: NatPlus = 0,
        exceptions: Mapping[int, NatPlus] | None = None,
    ):
        _require_odd_dimension(dimension)
        PrimeMap.__init__(self, default, exceptions)
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def is_standard(self) -> bool:
        return self._default == 0 and not self._exceptions

    entry_at = PrimeMap.value_at

    def _key(self) -> tuple:
        return (self._dimension, *super()._key())

    def __repr__(self):
        return f"PostnikovGenusDescriptor(dimension={self._dimension}, {self})"


class FakeSphereModel:
    """Symbolic model of a genus member, with its cohomology oracle.

    No cell structure is modelled; the space is its descriptor plus the
    derived divisibility oracle for the per-prime obstruction operation.
    """

    __slots__ = ("_descriptor",)

    def __init__(self, descriptor: PostnikovGenusDescriptor):
        self._descriptor = descriptor

    @property
    def descriptor(self) -> PostnikovGenusDescriptor:
        return self._descriptor

    @property
    def dimension(self) -> int:
        return self._descriptor.dimension

    def operation_vanishes(self, p: int, m: int) -> bool:
        """Whether the obstruction operation kills m times the generator.

        In the model with invariant k at p this happens exactly when p^k
        divides m; in the base-point model the operation is identically
        zero.
        """
        entry = self._descriptor.entry_at(p)
        if isinstance(entry, StarType):
            return True
        return m % p**entry == 0

    def vanishes_identically(self, p: int) -> bool:
        """True iff the operation at p is zero on every multiple of the
        generator, i.e. the model carries the base point there."""
        return isinstance(self._descriptor.entry_at(p), StarType)

    def fingerprint(self, p: int, cap: int = DEFAULT_FINGERPRINT_CAP) -> NatPlus:
        """Recover the per-prime invariant from oracle probes.

        Linear search for the least k with the operation vanishing on p^k
        times the generator. The base point is reported only when the
        operation vanishes identically; a finite invariant beyond the cap
        is indistinguishable from it by bounded probing and raises instead.
        """
        if self.vanishes_identically(p):
            return STAR
        for k in range(cap + 1):
            if self.operation_vanishes(p, p**k):
                return k
        raise FingerprintCapError(
            f"fingerprint at {p} did not stabilize within cap {cap}"
        )

    def classify(self, cap: int = DEFAULT_FINGERPRINT_CAP) -> PostnikovGenusDescriptor:
        """Rebuild the descriptor from fingerprints alone.

        Probes every exceptional prime plus the smallest unexceptional one
        (which reveals the default). The sign action on the classifying
        data is trivial, so no further quotient is taken.
        """
        support = set(self._descriptor.support)
        default = self.fingerprint(_smallest_prime_outside(support), cap)
        entries = {p: self.fingerprint(p, cap) for p in support}
        return PostnikovGenusDescriptor(self.dimension, default, entries)

    def restrict_to_prime(self, p: int) -> "FakeSphereModel":
        """The single-prime model carrying this model's invariant at p."""
        return build_fake_sphere(self.dimension, p, self._descriptor.entry_at(p))

    def __eq__(self, other):
        if not isinstance(other, FakeSphereModel):
            return NotImplemented
        return self._descriptor == other._descriptor

    def __hash__(self):
        return hash(("FakeSphereModel", self._descriptor))

    def __repr__(self):
        return f"FakeSphereModel({self._descriptor!r})"


def _smallest_prime_outside(support: set[int]) -> int:
    p = 2
    while p in support or not is_prime(p):
        p += 1
    return p


def classify_postnikov_genus(
    model: FakeSphereModel, cap: int = DEFAULT_FINGERPRINT_CAP
) -> PostnikovGenusDescriptor:
    return model.classify(cap)


def build_fake_sphere(dimension: int, p: int, k: NatPlus) -> FakeSphereModel:
    """The single-prime genus member with invariant k at p.

    Invariant 0 is the fiberwise completed sphere at p; the base point is
    the product of the completed connected cover with the integral
    Eilenberg-MacLane space. Every other prime carries the base point.
    """
    return FakeSphereModel(PostnikovGenusDescriptor(dimension, STAR, {p: k}))


def assemble_global(dimension: int, descriptor: PostnikovGenusDescriptor) -> FakeSphereModel:
    """Glue single-prime members along the diagonal into one model.

    The restriction at each prime p is the single-prime member with the
    descriptor's entry there; the all-zero descriptor models the standard
    sphere.
    """
    if descriptor.dimension != dimension:
        raise DomainError(
            f"descriptor dimension {descriptor.dimension} does not match {dimension}"
        )
    return FakeSphereModel(descriptor)


def classifying_map_class(dimension: int, p: int, z: PAdicApprox) -> NatPlus:
    """The genus invariant carried by a p-adic classifying parameter.

    A nonzero p-adic integer is p^k times a unit; units act invisibly on
    the classifying data, so only k survives. The exact zero is the base
    point. Negation changes the unit only, so z and -z land in the same
    class.
    """
    _require_odd_dimension(dimension)
    if z.prime != p:
        raise DomainError(f"p-adic parameter lives at {z.prime}, not {p}")
    decomposition = padic_decompose(z)
    if isinstance(decomposition, StarType):
        return STAR
    return decomposition[0]


def cp_fake_descriptor(n: int, degree_exponents: Mapping[int, int]) -> PostnikovGenusDescriptor:
    """Descriptor of the sphere cover of a fake complex projective space.

    Choosing the fiberwise degree p^k at the prime p induces degree p^{nk}
    on the (2n+1)-sphere cover, so the covering fake sphere carries the
    entry n*k at p. Distinct exponent sequences give distinct classes.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"complex dimension must be a positive integer, got {n!r}")
    entries: dict[int, int] = {}
    for p, k in degree_exponents.items():
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise DomainError(f"degree exponent at {p} must be a non-negative integer")
        entries[p] = n * k
    return PostnikovGenusDescriptor(2 * n + 1, 0, entries)


def enumerate_postnikov_genus(
    dimension: int, prime_bound: int, entry_bound: int
) -> list[PostnikovGenusDescriptor]:
    """All descriptors supported on primes <= prime_bound with entries in
    {*, 0..entry_bound} and default 0 elsewhere.

    Returns (entry_bound + 2) ** (number of primes) descriptors in
    lexicographic order, integers before the base point at each prime.
    """
    _require_odd_dimension(dimension)
    if prime_bound < 2:
        raise DomainError(f"prime bound must be at least 2, got {prime_bound}")
    if entry_bound < 0:
        raise DomainError(f"entry bound must be non-negative, got {entry_bound}")
    # Size the enumeration prime by prime, so an oversized request is
    # refused after a few primes, before anything is allocated.
    primes: list[int] = []
    count = 1
    for p in range(2, prime_bound + 1):
        if is_prime(p):
            primes.append(p)
            count *= entry_bound + 2
            if count > ENUMERATION_LIMIT:
                raise EnumerationLimitError(
                    f"enumeration would produce more than {ENUMERATION_LIMIT} "
                    f"descriptors (limit passed at prime {p})"
                )
    values: list[NatPlus] = list(range(entry_bound + 1)) + [STAR]
    return [
        PostnikovGenusDescriptor(dimension, 0, dict(zip(primes, combo)))
        for combo in itertools.product(values, repeat=len(primes))
    ]


@dataclass(frozen=True)
class Neisendorfer:
    """Marker for the nullification-plus-completion functor."""


@dataclass(frozen=True)
class PostnikovSection:
    """Marker for the Postnikov section functor at the stored level."""

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise DomainError(f"Postnikov level must be >= 1, got {self.level}")


class VerdictKind(Enum):
    SINGLETON = "singleton"
    SINGLETON_AMONG_FINITE = "singleton-among-finite-complexes"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"


@dataclass(frozen=True)
class GenusVerdict:
    kind: VerdictKind
    space: str
    witness: str | None = None
    reason: str = ""


_SPHERE_TAG = re.compile(r"^S(\d+)$")
_CP_TAG = re.compile(r"^CP(\d+)$")
_PRODUCT_TAGS = {"S2XS5": "S2xS5", "CP2XS3": "CP2xS3"}

#: Catalogued failures of uniqueness: for these (space, section level)
#: pairs a second finite complex shares the genus.
_KNOWN_COUNTEREXAMPLES = {
    ("S2xS5", 2): "CP2xS3",
    ("CP2xS3", 2): "S2xS5",
}


@dataclass(frozen=True)
class FiniteComplexDescriptor:
    """A catalogued finite complex with the metadata the verdicts need.

    The catalogue is closed: spheres S<n> (n >= 2), complex projective
    spaces CP<n> (n >= 1), and the two products S2xS5 and CP2xS3. All are
    simply connected finite complexes; stored per space are whether the
    second homotopy group is finite and the level above which rational
    homotopy vanishes. Descriptors are equal when their tags are.
    """

    tag: str
    pi2_finite: bool = field(compare=False)
    rational_vanishing_level: int = field(compare=False)

    @classmethod
    def from_tag(cls, tag: str) -> "FiniteComplexDescriptor":
        text = tag.strip().upper()
        if text in _PRODUCT_TAGS:
            # Both products have an infinite second homotopy group and no
            # rational homotopy above degree 5.
            return cls(_PRODUCT_TAGS[text], pi2_finite=False, rational_vanishing_level=5)
        match = _SPHERE_TAG.match(text)
        if match:
            n = int(match.group(1))
            if n < 2:
                raise DomainError(f"sphere {tag} is not simply connected")
            level = n if n % 2 == 1 else 2 * n - 1
            return cls(f"S{n}", pi2_finite=(n != 2), rational_vanishing_level=level)
        match = _CP_TAG.match(text)
        if match:
            n = int(match.group(1))
            if n < 1:
                raise DomainError(f"unknown complex tag {tag!r}")
            return cls(f"CP{n}", pi2_finite=False, rational_vanishing_level=2 * n + 1)
        raise DomainError(f"unknown complex tag {tag!r}")


def finite_complex_genus_verdict(
    complex_descriptor: FiniteComplexDescriptor,
    functor: Neisendorfer | PostnikovSection,
) -> GenusVerdict:
    """Apply the genus triviality rules to a catalogued finite complex.

    Under the Neisendorfer functor a simply connected finite complex with
    finite second homotopy group is alone in its genus. Under a Postnikov
    section it is additionally required that rational homotopy vanishes
    above the section level, and the conclusion is uniqueness among finite
    complexes only. When the hypotheses fail, a catalogued counterexample
    is reported if one is known for that (space, level) pair.
    """
    tag = complex_descriptor.tag
    if isinstance(functor, Neisendorfer):
        if complex_descriptor.pi2_finite:
            return GenusVerdict(
                VerdictKind.SINGLETON,
                tag,
                reason="simply connected finite complex with finite second homotopy group",
            )
        return GenusVerdict(
            VerdictKind.HYPOTHESES_NOT_MET,
            tag,
            reason="second homotopy group is infinite",
        )
    if isinstance(functor, PostnikovSection):
        witness = _KNOWN_COUNTEREXAMPLES.get((tag, functor.level))
        if not complex_descriptor.pi2_finite:
            return GenusVerdict(
                VerdictKind.HYPOTHESES_NOT_MET,
                tag,
                witness=witness,
                reason="second homotopy group is infinite",
            )
        if complex_descriptor.rational_vanishing_level > functor.level:
            return GenusVerdict(
                VerdictKind.HYPOTHESES_NOT_MET,
                tag,
                witness=witness,
                reason=(
                    "rational homotopy survives above level "
                    f"{functor.level}"
                ),
            )
        return GenusVerdict(
            VerdictKind.SINGLETON_AMONG_FINITE,
            tag,
            reason=(
                "finite second homotopy group, rational homotopy vanishes "
                f"above level {functor.level}"
            ),
        )
    raise DomainError(f"unknown genus functor {functor!r}")
