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
from collections.abc import Iterable, Iterator, Mapping
from enum import Enum

from .arith import (
    NatPlus,
    PAdicApprox,
    PrimeMap,
    STAR,
    StarType,
    InfinityType,
    _Record,
    _Value,
    _decimal,
    _is_int,
    _marked,
    _require_instance,
    _require_int,
    _require_prime,
    _shown,
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
    if _require_int("dimension", n) < 3 or n % 2 == 0:
        raise DomainError(f"dimension must be an odd integer >= 3, got {_shown(n)}")


def _require_cap(cap: int) -> None:
    if _require_int("fingerprint cap", cap) < 0:
        raise DomainError(f"fingerprint cap must be a non-negative integer, got {_shown(cap)}")


def _divides(p: int, entry: NatPlus, m: int) -> bool:
    """Whether p^entry divides m, the base point dividing everything."""
    if isinstance(entry, StarType):
        return True
    # p^entry > |m| once entry exceeds the bit length of m, so only
    # m = 0 is divisible; no such power is built.
    if entry > m.bit_length():
        return m == 0
    return m % p**entry == 0


def _probe(entry: NatPlus, j: int) -> bool:
    """The probe at p^j: whether p^entry divides p^j, read off the exponents."""
    return isinstance(entry, StarType) or entry <= j


class TorsionShape(PrimeMap):
    """A direct sum of full Pruefer groups, one per prime in a stored set.

    A map of booleans: the default ``complement`` says whether unlisted
    primes belong, and each listed prime maps to the opposite. So the set
    is either an explicit finite set of primes or the complement of one,
    mirroring the infinite-height locus of an eventually constant height
    sequence.

    >>> TorsionShape({7, 3}, complement=True)
    TorsionShape(all_except 3,7)
    """

    __slots__ = ()
    _is_value = staticmethod(lambda value: type(value) is bool)
    _label = "torsion"
    _domain = "true or false"

    def __init__(self, primes: Iterable[int] = (), *, complement: bool = False):
        _require_instance("primes", primes, Iterable)
        PrimeMap.__init__(self, complement, _marked("primes", primes, not complement))

    @classmethod
    def from_heights(cls, heights: HeightSequence) -> "TorsionShape":
        """The primes where the height is infinite, as listed by their type."""
        return cls._of_type(type_of(heights))

    @classmethod
    def _of_type(cls, kind: TypeClass) -> "TorsionShape":
        """The primes of infinite height in a type's sequences."""
        cofinite = isinstance(kind._default, InfinityType)
        return cls._of(cofinite, dict.fromkeys(kind._exceptions, not cofinite))

    @property
    def is_empty(self) -> bool:
        return not self._default and not self._exceptions

    @property
    def is_cofinite(self) -> bool:
        return self._default

    @property
    def listed_primes(self) -> frozenset[int]:
        """The stored finite set: included primes, or excluded if cofinite."""
        return frozenset(self._exceptions)

    contains = PrimeMap.value_at

    def __str__(self):
        """``none``, ``2,3``, ``all`` or ``all_except 2,3``."""
        primes = ",".join(map(str, self._exceptions))
        if self._default:
            return f"all_except {primes}" if primes else "all"
        return primes or "none"


class RationalGenusElement(_Record):
    """A member of the extended rationalization genus of an odd sphere.

    Carries the odd dimension and the connecting homomorphism of the
    defining fibration over the rationalized sphere. Two elements are equal
    when their dimensions and homomorphisms are.
    """

    __slots__ = ("dimension", "hom")

    def __init__(self, dimension: int, hom: ConnectingHom):
        _require_odd_dimension(dimension)
        self._set(dimension, _require_instance("hom", hom, ConnectingHom))

    def homotopy_groups(self) -> tuple[TypeClass, TorsionShape]:
        """The two variable homotopy groups, as (type in degree n, torsion
        below).

        Degree n is the kernel type. Degree n-1 collects a full Pruefer
        group at each prime of infinite kernel height: the image of a
        divisible group in the Pruefer part is zero or everything, so the
        cokernel is supported exactly where the summand was dropped. Both
        are read off the type of the hom's kernel heights, which the kernel
        shares (see ``ConnectingHom.double_coset_class``): nothing is factored.
        """
        kind = self.hom.double_coset_class()
        return kind, TorsionShape._of_type(kind)

    def is_n_minus_1_connected(self) -> bool:
        """True iff the homomorphism is surjective.

        Equivalent to the kernel being a group of pseudo-integers: every
        height finite, no Pruefer summand dropped. Shifting a height by v_p(r)
        keeps it finite or infinite, so the hom's kernel heights answer.
        """
        return self.hom.kernel_heights.all_finite()

    def classify(self) -> TypeClass:
        """Complete invariant: two members agree iff their classes do."""
        return self.hom.double_coset_class()


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

    @classmethod
    def _of(
        cls, dimension: int, default: NatPlus, exceptions: dict[int, NatPlus]
    ) -> "PostnikovGenusDescriptor":
        """Wrap already validated data without checking it again: an odd
        dimension >= 3, and pointed naturals other than the default at
        primes in ascending order."""
        descriptor = cls.__new__(cls)
        descriptor._default, descriptor._exceptions = default, exceptions
        descriptor._dimension = dimension
        return descriptor

    entry_at = PrimeMap.value_at

    def _key(self) -> tuple:
        return (self._dimension, *super()._key())

    def __repr__(self):
        return f"PostnikovGenusDescriptor(dimension={self._dimension}, {self})"


class FakeSphereModel(_Value):
    """Symbolic model of a genus member, with its cohomology oracle.

    No cell structure is modelled; the space is its descriptor plus the
    derived divisibility oracle for the per-prime obstruction operation.
    """

    __slots__ = ("_descriptor",)

    def __init__(self, descriptor: PostnikovGenusDescriptor):
        self._descriptor = _require_instance("descriptor", descriptor, PostnikovGenusDescriptor)

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
        return _divides(p, entry, _require_int("multiple m", m))

    def vanishes_identically(self, p: int) -> bool:
        """True iff the operation at p is zero on every multiple of the
        generator, i.e. the model carries the base point there."""
        return isinstance(self._descriptor.entry_at(p), StarType)

    def fingerprint(self, p: int, cap: int = DEFAULT_FINGERPRINT_CAP) -> NatPlus:
        """Recover the per-prime invariant from oracle probes.

        The least k with the operation vanishing on p^k times the generator.
        The operation vanishes on p^(k+1) times it whenever it vanishes on
        p^k, so the search gallops through k = 0, 1, 3, 7, ... (capped at
        ``cap``) and then bisects: an answer k takes at most
        2*ceil(log2(k+1)) + 1 probes, a refusal ceil(log2(cap+1)) + 1. Each
        probe compares exponents, and no power of p is built. The base point
        is reported only when the operation vanishes identically; a finite
        invariant beyond the cap is indistinguishable from it by bounded
        probing, so the search raises exactly when the probe at p^cap does
        not vanish. A cap must be an integer >= 0; p is proven prime once.
        """
        _require_cap(cap)
        _require_prime(p)
        return self._fingerprint(p, cap)

    def _fingerprint(self, p: int, cap: int) -> NatPlus:
        """``fingerprint`` for a proven prime and a checked cap, probing
        through the descriptor's ``_at``."""
        entry = self._descriptor._at(p)
        if isinstance(entry, StarType):
            return STAR
        # The probe at p^low fails (low = -1: none made yet); gallop until
        # the probe at p^high vanishes, then bisect between the two.
        low, high = -1, 0
        while not _probe(entry, high):
            if high == cap:
                raise FingerprintCapError(
                    f"fingerprint at {p} did not stabilize within cap {cap}"
                )
            low, high = high, 2 * high + 1 if 2 * high < cap else cap
        while high - low > 1:
            mid = (low + high) // 2
            if _probe(entry, mid):
                high = mid
            else:
                low = mid
        return high

    def classify(self, cap: int = DEFAULT_FINGERPRINT_CAP) -> PostnikovGenusDescriptor:
        """Rebuild the descriptor from fingerprints alone.

        Probes every exceptional prime plus the smallest unexceptional one
        (which reveals the default), each prime proven once: the support at
        construction, the other by ``_smallest_prime_outside``. The sign
        action on the classifying data is trivial, so no further quotient
        is taken.
        """
        _require_cap(cap)
        support = self._descriptor._exceptions
        default = self._fingerprint(_smallest_prime_outside(support), cap)
        entries = {p: entry for p in support if (entry := self._fingerprint(p, cap)) != default}
        return PostnikovGenusDescriptor._of(self._descriptor._dimension, default, entries)

    def restrict_to_prime(self, p: int) -> "FakeSphereModel":
        """The single-prime model carrying this model's invariant at p."""
        return build_fake_sphere(self.dimension, p, self._descriptor.entry_at(p))

    def _key(self) -> PostnikovGenusDescriptor:
        return self._descriptor

    def __repr__(self):
        return f"FakeSphereModel({self._descriptor!r})"


def _smallest_prime_outside(support: Mapping[int, object]) -> int:
    if 2 not in support:
        return 2
    p = 3
    while p in support or not is_prime(p):
        p += 2
    return p


def classify_postnikov_genus(
    model: FakeSphereModel, cap: int = DEFAULT_FINGERPRINT_CAP
) -> PostnikovGenusDescriptor:
    return _require_instance("model", model, FakeSphereModel).classify(cap)


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
    model = FakeSphereModel(descriptor)
    if descriptor.dimension != _require_int("dimension", dimension):
        raise DomainError(
            f"descriptor dimension {_shown(descriptor.dimension)} "
            f"does not match {_shown(dimension)}"
        )
    return model


def classifying_map_class(dimension: int, p: int, z: PAdicApprox) -> NatPlus:
    """The genus invariant carried by a p-adic classifying parameter.

    A nonzero p-adic integer is p^k times a unit; units act invisibly on
    the classifying data, so only k survives. The exact zero is the base
    point. Negation changes the unit only, so z and -z land in the same
    class.
    """
    _require_odd_dimension(dimension)
    if _require_instance("p-adic parameter", z, PAdicApprox).prime != _require_int("prime", p):
        raise DomainError(f"p-adic parameter lives at {z.prime}, not {_shown(p)}")
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
    if _require_int("complex dimension", n) < 1:
        raise DomainError(f"complex dimension must be a positive integer, got {_shown(n)}")
    entries: dict[int, int] = {}
    for p, k in _require_instance("degree exponents", degree_exponents, Mapping).items():
        if not (_is_int(k) and k >= 0):
            raise DomainError(f"degree exponent at {_shown(p)} must be a non-negative integer")
        entries[p] = n * k
    return PostnikovGenusDescriptor(2 * n + 1, 0, entries)


def _postnikov_choices(dimension: int, prime_bound: int, entry_bound: int) -> list[int]:
    """The checked set-up of an enumeration: the primes <= prime_bound, each
    of which takes 0 (the default), 1..entry_bound or the base point.
    Raises before anything is built."""
    _require_odd_dimension(dimension)
    if _require_int("prime bound", prime_bound) < 2:
        raise DomainError(f"prime bound must be at least 2, got {_shown(prime_bound)}")
    if _require_int("entry bound", entry_bound) < 0:
        raise DomainError(f"entry bound must be non-negative, got {_shown(entry_bound)}")
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
    return primes


def iter_postnikov_genus(
    dimension: int, prime_bound: int, entry_bound: int
) -> Iterator[PostnikovGenusDescriptor]:
    """All descriptors supported on primes <= prime_bound with entries in
    {*, 0..entry_bound} and default 0 elsewhere, one at a time.

    Arguments and the size guard are checked at the call, before the
    first descriptor. The iterator yields (entry_bound + 2) ** (number of
    primes) descriptors in lexicographic order, the last prime varying
    fastest and integers before the base point at each prime. The CLI
    prints the same enumeration from ``_postnikov_genus_blocks``, which
    builds no descriptor objects: the texts of the last few primes are
    joined once, and each block of up to 1,024 lines is one ``str.join``
    of them behind a shared prefix.
    """
    *heads, last = _postnikov_choices(dimension, prime_bound, entry_bound)

    def choices(p: int) -> Iterator[tuple]:
        # What each choice adds at p: nothing for the default 0, else one
        # (p, value) pair.
        values = zip(itertools.repeat(p), range(1, entry_bound + 1))
        return itertools.chain([()], zip(values), [((p, STAR),)])

    # Alone, the last prime has up to a million choices, read once lazily.
    # After other primes it has at most a thousand, listed once for reuse.
    tails = list(choices(last)) if heads else choices(last)
    make = PostnikovGenusDescriptor._of
    return (
        make(dimension, 0, dict(itertools.chain(*head, tail)))
        for head in itertools.product(*map(choices, heads))
        for tail in tails
    )


#: Lines in a block of ``_postnikov_genus_blocks``, at most.
_BLOCK = 1024


def _postnikov_genus_blocks(
    dimension: int, prime_bound: int, entry_bound: int, separator: str
) -> tuple[int, Iterator[str]]:
    """The number of descriptors of ``iter_postnikov_genus`` and their
    canonical texts in the same order, as blocks of at most ``_BLOCK``
    texts joined by ``separator``. Joined by ``separator`` in turn, the
    blocks give ``separator.join(map(str, iter_postnikov_genus(...)))``.
    Refuses at the call as ``iter_postnikov_genus`` does."""
    primes = _postnikov_choices(dimension, prime_bound, entry_bound)
    star = entry_bound + 1
    choices = star + 1

    def texts(p: int, chunk: range) -> list[str]:
        # What each choice adds at p: nothing for the default 0, else ", p:v".
        return [f", {p}:{i if i < star else '*'}" if i else "" for i in chunk]

    # Lines run in lexicographic order, the last prime varying fastest. The
    # tail is the last primes whose choices fit in a block together, or
    # else the last prime alone. The primes before it give one prefix P
    # per block: P + ("}" + separator + P).join(tail texts) + "}".
    split = len(primes) - 1
    while split and choices ** (len(primes) - split + 1) <= _BLOCK:
        split -= 1
    heads = [texts(p, range(choices)) for p in primes[:split]]
    first, *rest = primes[split:]
    rest_texts = [texts(p, range(choices)) for p in rest]

    def tails(chunk: range) -> list[str]:
        return list(map("".join, itertools.product(texts(first, chunk), *rest_texts)))

    # A prime with more choices than a block (up to a million, alone) is
    # read a block of choices at a time; tails that fit are built once.
    chunks = [range(i, min(i + _BLOCK, choices)) for i in range(0, choices, _BLOCK)]
    built = [tails(chunks[0])] if len(chunks) == 1 else None

    def blocks() -> Iterator[str]:
        for prefix in map("".join, itertools.product(["{default:0"], *heads)):
            lead = "}" + separator + prefix
            for tail in built or map(tails, chunks):
                yield prefix + lead.join(tail) + "}"

    return choices ** len(primes), blocks()


def enumerate_postnikov_genus(
    dimension: int, prime_bound: int, entry_bound: int
) -> list[PostnikovGenusDescriptor]:
    """The descriptors of ``iter_postnikov_genus``, as a list."""
    return list(iter_postnikov_genus(dimension, prime_bound, entry_bound))


class Neisendorfer(_Record):
    """Marker for the nullification-plus-completion functor."""

    __slots__ = ()


class PostnikovSection(_Record):
    """Marker for the Postnikov section functor at the stored level."""

    __slots__ = ("level",)

    def __init__(self, level: int):
        if not (_is_int(level) and level >= 1):
            raise DomainError(f"Postnikov level must be >= 1, got {_shown(level)}")
        self._set(level)


class VerdictKind(Enum):
    """What the genus rules conclude about a catalogued complex."""

    SINGLETON = "singleton"
    SINGLETON_AMONG_FINITE = "singleton-among-finite-complexes"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"


class GenusVerdict(_Record):
    """The ``VerdictKind`` for a catalogued space, a known second member or None, and why."""

    __slots__ = ("kind", "space", "witness", "reason")

    def __init__(self, kind: VerdictKind, space: str, witness=None, reason=""):
        self._set(kind, space, witness, reason)


#: Catalogued failures of uniqueness: for these (space, section level)
#: pairs a second finite complex shares the genus.
_KNOWN_COUNTEREXAMPLES = {
    ("S2xS5", 2): "CP2xS3",
    ("CP2xS3", 2): "S2xS5",
}


class FiniteComplexDescriptor(_Record):
    """A catalogued finite complex, read from its tag (as by ``from_tag``).

    The catalogue holds the finite products of spheres S<n> (n >= 2) and
    complex projective spaces CP<n> (n >= 1), their tags joined by ``x``
    (as in S2xS5, in any case). All are simply connected finite complexes.
    The tag fixes, and the reader derives, whether the second homotopy
    group is finite (the sum of the factors') and the level above which
    rational homotopy vanishes (the largest of the factors'). The canonical
    tag lists the CP factors and then the spheres, each in ascending order;
    descriptors are equal when their canonical tags are.
    """

    __slots__ = ("tag", "pi2_finite", "rational_vanishing_level")

    def __init__(self, tag: str):
        text = _require_instance("complex tag", tag, str).strip()
        # str.upper maps some non-ASCII letters to ASCII ones (long s to S).
        factors = text.upper().split("X") if text.isascii() else [""]
        pi2_finite, level, spaces = True, 0, []
        for factor in factors:
            kind = factor.rstrip("0123456789")
            digits = factor[len(kind):]
            # A factor is S or CP and then digits; -1 stands for any other text.
            n = _decimal(digits) if kind in ("S", "CP") and digits else -1
            if n is None:  # past the interpreter's digit limit
                raise DomainError(f"complex tag dimension of {len(digits)} digits is too long")
            if kind == "S" and 0 <= n < 2:  # a single tag is quoted as given
                shown = _shown(tag) if len(factors) == 1 else f"S{n}"
                raise DomainError(f"sphere {shown} is not simply connected")
            if n < 1:  # CP0, or not a factor
                raise DomainError(f"unknown complex tag {_shown(tag, repr)}")
            # pi_2 is infinite for S2 and every CP<n>. Rational homotopy sits
            # in degree n of an odd sphere, n and 2n - 1 of an even one, and
            # 2 and 2n + 1 of CP<n>.
            pi2_finite &= kind == "S" and n != 2
            level = max(level, 2 * n + 1 if kind == "CP" else n if n % 2 else 2 * n - 1)
            spaces.append((kind, n))
        # "CP" sorts before "S", and each kind's dimensions ascend.
        self._set("x".join(f"{kind}{n}" for kind, n in sorted(spaces)), pi2_finite, level)

    @classmethod
    def from_tag(cls, tag: str) -> "FiniteComplexDescriptor":
        return cls(tag)


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
    _require_instance("complex descriptor", complex_descriptor, FiniteComplexDescriptor)
    if isinstance(functor, Neisendorfer):
        witness = None
    elif isinstance(functor, PostnikovSection):
        witness = _KNOWN_COUNTEREXAMPLES.get((complex_descriptor.tag, functor.level))
    else:
        raise DomainError(f"unknown genus functor {_shown(functor, repr)}")
    if not complex_descriptor.pi2_finite:
        kind, reason = VerdictKind.HYPOTHESES_NOT_MET, "second homotopy group is infinite"
    elif isinstance(functor, Neisendorfer):
        kind = VerdictKind.SINGLETON
        reason = "simply connected finite complex with finite second homotopy group"
    elif complex_descriptor.rational_vanishing_level > functor.level:
        kind = VerdictKind.HYPOTHESES_NOT_MET
        reason = f"rational homotopy survives above level {_shown(functor.level)}"
    else:
        kind = VerdictKind.SINGLETON_AMONG_FINITE
        reason = (
            "finite second homotopy group, rational homotopy vanishes "
            f"above level {_shown(functor.level)}"
        )
    return GenusVerdict(kind, complex_descriptor.tag, witness, reason)
