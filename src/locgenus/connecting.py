"""The computable fragment of homomorphisms from the rationals to Q/Z.

Q/Z splits as the direct sum over primes of its p-primary Pruefer parts, so
a homomorphism out of the rationals can be described componentwise. The
fragment represented here is generated by three pieces of finite data: a
height sequence naming the intended kernel, a nonzero rational acting by
pre-composition, and finitely many unit twists acting on individual
p-primary components. That is enough to carry at least one representative
of every double coset whose kernel type is eventually constant, which is
all the genus computations consume. Homomorphisms needing infinitely much
twist data are out of reach by design.

The splitting of Q/Z is made explicit: the p-component of a rational q is
the unique class a/p^e (partial fraction decomposition), and the standard
map determined by a kernel with heights k sends q to the sum over primes
with finite k_p of the class of p^{k_p} times the p-component. With that
choice evaluation is exact, additive, and vanishes precisely on the kernel
group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .arith import (
    DEFAULT_PRIME_BOUND,
    INFINITY,
    InfinityType,
    factorize,
    is_prime,
    mod_one,
    valuation,
)
from .errors import DomainError
from .rankone import HeightSequence, RankOneGroup, TypeClass, type_of


def p_primary_parts(
    q: Fraction | int, prime_bound: int = DEFAULT_PRIME_BOUND
) -> dict[int, Fraction]:
    """Split q mod 1 into p-primary components a_p / p^{e_p}.

    The components are the unique fractions in [0, 1) with prime-power
    denominators summing to q modulo 1. Primes absent from the
    denominator of q are omitted.

    >>> p_primary_parts(Fraction(5, 6))
    {2: Fraction(1, 2), 3: Fraction(1, 3)}
    """
    q = Fraction(q)
    d = q.denominator
    if d == 1:
        return {}
    parts: dict[int, Fraction] = {}
    for p, e in factorize(d, prime_bound).items():
        dp = p**e
        cofactor = d // dp
        a = (q.numerator * pow(cofactor, -1, dp)) % dp
        parts[p] = Fraction(a, dp)
    return parts


class QmodZElement:
    """An element of Q/Z, held as its canonical representative in [0, 1)."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int = 0):
        self._value = mod_one(Fraction(value))

    @property
    def value(self) -> Fraction:
        return self._value

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    def p_component(self, p: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> Fraction:
        """The p-primary part of this class, as a fraction in [0, 1)."""
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        return p_primary_parts(self._value, prime_bound).get(p, Fraction(0))

    def __add__(self, other):
        if not isinstance(other, QmodZElement):
            return NotImplemented
        return QmodZElement(self._value + other._value)

    def __neg__(self):
        return QmodZElement(-self._value)

    def __eq__(self, other):
        if not isinstance(other, QmodZElement):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(("QmodZ", self._value))

    def __repr__(self):
        return f"QmodZElement({self._value!r})"

    def __str__(self):
        return str(self._value)


def _validated_twists(
    twists: Mapping[int, tuple[int, int]] | None,
) -> dict[int, tuple[int, int]]:
    cleaned: dict[int, tuple[int, int]] = {}
    for p, (mod_exp, unit) in sorted((twists or {}).items()):
        if not is_prime(p):
            raise DomainError(f"twist prime {p} is not prime")
        if mod_exp < 1:
            raise DomainError(f"twist modulus exponent at {p} must be >= 1")
        unit %= p**mod_exp
        if unit % p == 0:
            raise DomainError(f"twist residue at {p} is not a unit mod {p}^{mod_exp}")
        cleaned[p] = (mod_exp, unit)
    return cleaned


class ConnectingHom:
    """A homomorphism from the rationals to Q/Z in the represented fragment.

    Evaluation first multiplies the argument by ``precompose``, applies the
    standard quotient map determined by ``kernel_heights`` (dropping the
    p-component wherever the height is infinite), and finally multiplies
    each twisted p-component by its unit residue. Multiplication by an
    integer prime to p is an automorphism of the Pruefer group at p, so
    twists never change where the map vanishes.
    """

    __slots__ = ("_kernel_heights", "_precompose", "_twists")

    def __init__(
        self,
        kernel_heights: HeightSequence,
        precompose: Fraction | int = 1,
        twists: Mapping[int, tuple[int, int]] | None = None,
    ):
        precompose = Fraction(precompose)
        if precompose == 0:
            raise DomainError("precompose must be a nonzero rational")
        self._kernel_heights = kernel_heights
        self._precompose = precompose
        self._twists = _validated_twists(twists)

    @property
    def kernel_heights(self) -> HeightSequence:
        return self._kernel_heights

    @property
    def precompose(self) -> Fraction:
        return self._precompose

    @property
    def twists(self) -> dict[int, tuple[int, int]]:
        return dict(self._twists)

    def evaluate(
        self, q: Fraction | int, prime_bound: int = DEFAULT_PRIME_BOUND
    ) -> QmodZElement:
        """Apply the homomorphism to a rational, exactly.

        >>> ConnectingHom(HeightSequence(0, {2: 1})).evaluate(Fraction(1, 4))
        QmodZElement(Fraction(1, 2))
        """
        r = self._precompose * Fraction(q)
        total = Fraction(0)
        for p, part in p_primary_parts(r, prime_bound).items():
            k = self._kernel_heights.height_at(p)
            if isinstance(k, InfinityType):
                continue
            component = mod_one(p**k * part)
            if component == 0:
                continue
            twist = self._twists.get(p)
            if twist is not None:
                component = mod_one(twist[1] * component)
            total += component
        return QmodZElement(total)

    def kernel(self) -> RankOneGroup:
        """The rank-one group on which this homomorphism vanishes.

        Pre-composition by r shifts the height at p by the valuation of r;
        twists change nothing. A shift that would push a finite height
        below zero is re-embedded at zero, replacing the literal kernel
        subgroup by the isomorphic copy containing the integers, so the
        returned membership predicate matches the vanishing locus exactly
        whenever precompose is an integer (in particular for the standard
        homomorphisms), and up to isomorphism otherwise.
        """
        base = self._kernel_heights
        shifted: dict[int, object] = {}
        affected = set(base.support)
        affected.update(factorize(self._precompose.numerator))
        affected.update(factorize(self._precompose.denominator))
        for p in affected:
            k = base.height_at(p)
            if isinstance(k, InfinityType):
                shifted[p] = INFINITY
            else:
                shifted[p] = max(0, k + valuation(self._precompose, p))
        return RankOneGroup(HeightSequence(base.default, shifted))

    def double_coset_class(self) -> TypeClass:
        """The complete invariant under rational pre-composition and twists."""
        return type_of(self.kernel().heights)

    def with_twist(self, p: int, mod_exp: int, unit: int) -> "ConnectingHom":
        """A copy with the twist at p replaced by (mod_exp, unit)."""
        twists = self.twists
        twists[p] = (mod_exp, unit)
        return ConnectingHom(self._kernel_heights, self._precompose, twists)

    def precomposed_by(self, r: Fraction | int) -> "ConnectingHom":
        """A copy pre-composed with multiplication by a nonzero rational."""
        return ConnectingHom(
            self._kernel_heights, self._precompose * Fraction(r), self._twists
        )

    def __eq__(self, other):
        if not isinstance(other, ConnectingHom):
            return NotImplemented
        return (
            self._kernel_heights == other._kernel_heights
            and self._precompose == other._precompose
            and self._twists == other._twists
        )

    def __hash__(self):
        return hash(
            (self._kernel_heights, self._precompose, tuple(self._twists.items()))
        )

    def __repr__(self):
        return (
            f"ConnectingHom({self._kernel_heights!r}, precompose={self._precompose!r}, "
            f"twists={self._twists!r})"
        )


def beta(group: RankOneGroup) -> ConnectingHom:
    """The standard homomorphism whose kernel is the given group."""
    return ConnectingHom(group.heights)
