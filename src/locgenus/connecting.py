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

from collections.abc import Mapping
from fractions import Fraction

from .arith import (
    DEFAULT_PRIME_BOUND,
    INFINITY,
    InfinityType,
    PrimeMap,
    _Value,
    _is_int,
    _require_instance,
    _require_int,
    _require_precision,
    _require_prime,
    _require_rational,
    _split,
    factorize,
    mod_one,
)
from .errors import DomainError
from .rankone import HeightSequence, RankOneGroup, TypeClass, _pointwise, _split_over, type_of


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
    q = _require_rational("rational", q)
    return {p: _part(q, p**e) for p, e in factorize(q.denominator, prime_bound).items()}


def _part(q: Fraction, d: int) -> Fraction:
    """The part a/d of q mod 1 at a divisor d of the denominator of q that
    is prime to the cofactor (0 when d = 1). The parts at the prime powers
    exactly dividing the denominator are its p-primary parts; parts at
    coprime divisors add up to the part at their product."""
    a = q.numerator * pow(q.denominator // d, -1, d) % d
    return Fraction(a, d)


class QmodZElement(_Value):
    """An element of Q/Z, held as its canonical representative in [0, 1)."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int = 0):
        self._value = mod_one(value)

    @property
    def value(self) -> Fraction:
        return self._value

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    def p_component(self, p: int) -> Fraction:
        """The p-primary part of this class, as a fraction in [0, 1)."""
        _require_prime(p)
        return _part(self._value, p ** _split(self._value.denominator, p)[0])

    def __add__(self, other):
        if not isinstance(other, QmodZElement):
            return NotImplemented
        return QmodZElement(self._value + other._value)

    def __neg__(self):
        return QmodZElement(-self._value)

    def _key(self) -> Fraction:
        return self._value

    def __repr__(self):
        return f"QmodZElement({self._value!r})"

    def __str__(self):
        return str(self._value)


def _validated_twists(
    twists: Mapping[int, tuple[int, int]] | None, kernel_heights: HeightSequence
) -> dict[int, tuple[int, int]]:
    if twists is None:
        return {}
    try:
        items = sorted(_require_instance("twists", twists, Mapping).items())
    except TypeError:  # keys that cannot be ordered
        raise DomainError("twists must have integer keys") from None
    cleaned: dict[int, tuple[int, int]] = {}
    for p, twist in items:
        if not _is_int(p):  # before _require_prime, whose refusal names no argument
            raise DomainError("twists must have integer keys")
        _require_prime(p)
        if not (isinstance(twist, tuple) and len(twist) == 2):
            raise DomainError(f"twist at {p} must be a pair (mod_exp, unit)")
        mod_exp, unit = twist
        _require_precision(p, mod_exp)
        unit = _require_int("twist unit", unit) % p**mod_exp
        if unit % p == 0:
            raise DomainError(f"twist residue at {p} is not a unit mod {p}^{mod_exp}")
        # Residue 1 is the identity, and evaluation never reads a twist
        # where the height is infinite: drop both so equal maps compare equal.
        if unit != 1 and not isinstance(kernel_heights._at(p), InfinityType):
            cleaned[p] = (mod_exp, unit)
    return cleaned


class ConnectingHom(_Value):
    """A homomorphism from the rationals to Q/Z in the represented fragment.

    Evaluation first multiplies the argument by ``precompose``, applies the
    standard quotient map determined by ``kernel_heights`` (dropping the
    p-component wherever the height is infinite), and finally multiplies
    each twisted p-component by its unit residue. Multiplication by an
    integer prime to p is an automorphism of the Pruefer group at p, so
    twists never change where the map vanishes.

    Two homomorphisms compare equal exactly when they are the same map.
    """

    __slots__ = ("_kernel_heights", "_precompose", "_twists")

    def __init__(
        self,
        kernel_heights: HeightSequence,
        precompose: Fraction | int = 1,
        twists: Mapping[int, tuple[int, int]] | None = None,
    ):
        precompose = _require_rational("precompose", precompose)
        if precompose == 0:
            raise DomainError("precompose must be a nonzero rational")
        self._kernel_heights = _require_instance("kernel heights", kernel_heights, HeightSequence)
        self._precompose = precompose
        self._twists = _validated_twists(twists, kernel_heights)

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
        """Apply the homomorphism to a rational, exactly. Only the primes of
        the kernel heights' support and of the twists are divided out of
        the denominator; what is left is factored only under a finite
        default d > 0, where prime_bound bounds the trial division.

        >>> ConnectingHom(HeightSequence(0, {2: 1})).evaluate(Fraction(1, 4))
        QmodZElement(Fraction(1, 2))
        """
        r = self._precompose * _require_rational("rational", q)
        _require_int("prime bound", prime_bound)
        heights = self._kernel_heights
        factors, rest = _split_over(
            r.denominator, heights, heights._exceptions.keys() | self._twists.keys(), prime_bound
        )
        # The primes of the rest carry the default height and no twist:
        # under 0 the map keeps their parts, whose sum is the part at the
        # rest, and under inf it drops them. Under d > 0 the rest is 1.
        total = Fraction(0) if isinstance(heights._default, InfinityType) else _part(r, rest)
        for p, e in factors.items():
            k = heights._at(p)
            # p^k * a/p^e vanishes mod 1 once k >= e, so p^k is built only below e.
            if k >= e:
                continue
            component = mod_one(p**k * _part(r, p**e))
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
        homomorphisms), and up to isomorphism otherwise. Off the support an
        infinite height never moves and a shift below 0 is floored away, so
        the numerator's rest is factored unless the default is inf, and the
        denominator's only under a finite default d > 0.
        """
        heights, r = self._kernel_heights, self._precompose
        support = heights._exceptions
        shifts, rest = _split_over(abs(r.numerator), heights, support, DEFAULT_PRIME_BOUND)
        if rest > 1 and heights._default == 0:
            shifts.update(factorize(rest))
        down, _ = _split_over(r.denominator, heights, support, DEFAULT_PRIME_BOUND)
        shifts.update((p, -e) for p, e in down.items())
        return RankOneGroup(_pointwise(
            heights,
            PrimeMap._of(0, dict(sorted(shifts.items()))),
            lambda k, s: k if isinstance(k, InfinityType) else max(0, k + s),
        ))

    def double_coset_class(self) -> TypeClass:
        """The complete invariant under rational pre-composition and twists:
        the type of the kernel heights, read without factoring. The kernel's
        height at p is h_p shifted by v_p(r) and floored at 0, which keeps the
        default and leaves infinite heights infinite and finite ones finite."""
        return type_of(self._kernel_heights)

    def with_twist(self, p: int, mod_exp: int, unit: int) -> "ConnectingHom":
        """A copy with the twist at p replaced by (mod_exp, unit)."""
        twists = self.twists
        # Checked before it keys the copy: Fraction(3) would replace the twist at 3.
        twists[_require_int("prime", p)] = (mod_exp, unit)
        return ConnectingHom(self._kernel_heights, self._precompose, twists)

    def precomposed_by(self, r: Fraction | int) -> "ConnectingHom":
        """A copy pre-composed with multiplication by a nonzero rational."""
        return ConnectingHom(
            self._kernel_heights, self._precompose * _require_rational("rational", r), self._twists
        )

    def _key(self) -> tuple:
        # The p-part is zero at infinite height, else q -> c_p * q with
        # c_p = p^{k_p} * r * t_p (t_p = 1 untwisted): one map per c_p.
        heights, r = self._kernel_heights, self._precompose
        if not isinstance(heights.default, InfinityType):
            # c_p = p^d * r at almost every prime, so r is an invariant.
            return heights, r, tuple((p, unit) for p, (_, unit) in self._twists.items())
        # Finitely many finite heights, each with c_p = p^e * (a unit).
        parts = []
        for p, k in heights._exceptions.items():
            e_num, num = _split(r.numerator, p)
            e_den, den = _split(r.denominator, p)
            unit = self._twists.get(p, (1, 1))[1]
            parts.append((p, k + e_num - e_den, Fraction(num * unit, den)))
        return INFINITY, tuple(parts)

    def __repr__(self):
        return (
            f"ConnectingHom({self._kernel_heights!r}, precompose={self._precompose!r}, "
            f"twists={self._twists!r})"
        )


def beta(group: RankOneGroup) -> ConnectingHom:
    """The standard homomorphism whose kernel is the given group."""
    return ConnectingHom(_require_instance("group", group, RankOneGroup).heights)
