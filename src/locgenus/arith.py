"""Exact arithmetic substrate: rationals, valuations, primes, p-adic units.

Rationals are ``fractions.Fraction`` throughout (always reduced, positive
denominator, 0 represented as 0/1). Heights take values in the non-negative
integers extended by the ``INFINITY`` sentinel; the natural numbers with a
disjoint base point are modelled by ints plus the ``STAR`` sentinel.

Everything here is immutable and pure, so values may be shared freely
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import DomainError, FactorBoundError, PrecisionError

#: Trial division gives exact factorizations up to this prime by default.
DEFAULT_PRIME_BOUND = 10**6

#: Default number of p-adic digits carried by a PAdicApprox.
DEFAULT_PRECISION = 32


class _Sentinel:
    """A singleton value, equal only to itself and printed as ``_text``."""

    __slots__ = ()
    _text: str

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(("locgenus", self._text))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return self._text


class InfinityType(_Sentinel):
    """Singleton sentinel for an infinite height.

    Compares strictly greater than every int, so ``min``/``max`` combine
    heights without special cases:

    >>> min(3, INFINITY), max(3, INFINITY)
    (3, inf)
    """

    __slots__ = ()
    _text = "inf"

    def __lt__(self, other):
        if isinstance(other, (int, InfinityType)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, InfinityType):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, InfinityType):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, InfinityType)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, InfinityType)):
            return self
        return NotImplemented

    __radd__ = __add__


class StarType(_Sentinel):
    """Singleton base point adjoined to the natural numbers."""

    __slots__ = ()
    _text = "*"


INFINITY = InfinityType()
STAR = StarType()

#: A height entry: a non-negative integer or INFINITY.
Height = Union[int, InfinityType]

#: An element of the pointed naturals: a non-negative integer or STAR.
NatPlus = Union[int, StarType]


def is_height(value: object) -> bool:
    """True iff value is a legal height entry (int >= 0 or INFINITY)."""
    if isinstance(value, InfinityType):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_nat_plus(value: object) -> bool:
    """True iff value is a legal pointed natural (int >= 0 or STAR)."""
    if isinstance(value, StarType):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, via the sieve of Eratosthenes.

    >>> primes_up_to(10)
    [2, 3, 5, 7]
    """
    if bound < 2:
        raise DomainError(f"prime bound must be at least 2, got {bound}")
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def factorize(n: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> dict[int, int]:
    """Exact prime factorization of |n| by trial division.

    Divisors are only probed up to prime_bound; if the remaining cofactor
    cannot be certified prime the factorization is refused rather than
    guessed at.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    factors: dict[int, int] = {}

    def strip(m: int, d: int) -> int:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors[d] = e
        return m

    n = strip(n, 2)
    n = strip(n, 3)
    d = 5
    while d * d <= n and d <= prime_bound:
        n = strip(n, d)
        n = strip(n, d + 2)
        d += 6
    if n > 1:
        # Either the loop passed sqrt(n), certifying n prime, or every
        # prime factor of n exceeds prime_bound, which still certifies
        # primality as long as n <= prime_bound**2.
        if d * d > n or n <= prime_bound * prime_bound:
            factors[n] = factors.get(n, 0) + 1
        else:
            raise FactorBoundError(
                f"cannot factor {n} with trial division up to {prime_bound}"
            )
    return dict(sorted(factors.items()))


def valuation(q: Fraction | int, p: int) -> int | InfinityType:
    """The exponent of p in q, or INFINITY for q = 0.

    Additive in q: valuation(a*b, p) = valuation(a, p) + valuation(b, p).

    >>> valuation(12, 2)
    2
    >>> valuation(Fraction(3, 8), 2)
    -3
    """
    _require_prime(p)
    q = Fraction(q)
    if q == 0:
        return INFINITY
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def mod_one(q: Fraction | int) -> Fraction:
    """Canonical representative of q in [0, 1), i.e. its class mod 1.

    >>> mod_one(Fraction(7, 4))
    Fraction(3, 4)
    >>> mod_one(Fraction(-1, 3))
    Fraction(2, 3)
    """
    return Fraction(q) % 1


@dataclass(frozen=True)
class PAdicApprox:
    """A p-adic integer known to ``precision`` base-p digits.

    A finite residue cannot distinguish the exact zero from an element of
    valuation >= precision, so exact zeros carry an explicit flag.
    """

    prime: int
    precision: int = DEFAULT_PRECISION
    residue: int = 0
    exactly_zero: bool = False

    def __post_init__(self):
        _require_prime(self.prime)
        if self.precision < 1:
            raise DomainError(f"precision must be positive, got {self.precision}")
        if not 0 <= self.residue < self.modulus:
            raise DomainError(
                f"residue {self.residue} outside [0, {self.prime}^{self.precision})"
            )
        if self.exactly_zero and self.residue != 0:
            raise DomainError("an exact zero must have residue 0")

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    @property
    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    @classmethod
    def from_int(cls, n: int, prime: int, precision: int = DEFAULT_PRECISION) -> "PAdicApprox":
        """Image of an ordinary integer, flagged exact when n = 0."""
        return cls(prime, precision, n % prime**precision, exactly_zero=(n == 0))

    @classmethod
    def zero(cls, prime: int, precision: int = DEFAULT_PRECISION) -> "PAdicApprox":
        return cls(prime, precision, 0, exactly_zero=True)

    def __neg__(self) -> "PAdicApprox":
        return PAdicApprox(
            self.prime, self.precision, (-self.residue) % self.modulus, self.exactly_zero
        )


def padic_decompose(z: PAdicApprox) -> tuple[int, PAdicApprox] | StarType:
    """Split a p-adic integer as p^k * unit, or STAR for the exact zero.

    The returned unit keeps the digits that survive dividing by p^k, so its
    precision is z.precision - k.

    >>> padic_decompose(PAdicApprox(2, 8, 12))
    (2, PAdicApprox(prime=2, precision=6, residue=3, exactly_zero=False))
    """
    if z.exactly_zero:
        return STAR
    if z.residue == 0:
        raise PrecisionError(
            f"residue is 0 mod {z.prime}^{z.precision}: "
            "valuation is not determined at this precision"
        )
    k = 0
    u = z.residue
    while u % z.prime == 0:
        u //= z.prime
        k += 1
    return k, PAdicApprox(z.prime, z.precision - k, u)


class PrimeMap:
    """A value at every prime: a default plus finitely many exceptions.

    Subclasses fix the legal values (``_is_value``, described by
    ``_domain`` in errors) and the ``_label`` that names them. Exceptions
    that repeat the default are dropped and the rest kept in ascending
    prime order, so equal data gives equal maps; maps of different classes
    are never equal.
    """

    __slots__ = ("_default", "_exceptions")

    def __init__(self, default, exceptions: Mapping[int, object] | None = None):
        is_value = self._is_value
        if not is_value(default):
            raise DomainError(f"{self._label} default must be {self._domain}")
        cleaned = {}
        for p, value in sorted((exceptions or {}).items()):
            if not is_prime(p):
                raise DomainError(f"{self._label} key {p} is not prime")
            if not is_value(value):
                raise DomainError(f"{self._label} entry at {p} must be {self._domain}")
            if value != default:
                cleaned[p] = value
        self._default = default
        self._exceptions = cleaned

    @property
    def default(self):
        return self._default

    @property
    def exceptions(self) -> dict:
        return dict(self._exceptions)

    @property
    def support(self) -> tuple[int, ...]:
        """The primes carrying an explicit exception, ascending."""
        return tuple(self._exceptions)

    def value_at(self, p: int):
        _require_prime(p)
        return self._exceptions.get(p, self._default)

    def _key(self) -> tuple:
        return self._default, tuple(self._exceptions.items())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        parts = [f"default:{self._default}"]
        parts += [f"{p}:{v}" for p, v in self._exceptions.items()]
        return "{" + ", ".join(parts) + "}"


class PrimeSet:
    """A finite or cofinite set of primes.

    Stored as a finite set of listed primes, which are the members or,
    for a cofinite set, the only non-members.
    """

    __slots__ = ("_primes", "_complement")

    def __init__(self, primes: Iterable[int] = (), *, complement: bool = False):
        prime_set = frozenset(primes)
        for p in prime_set:
            _require_prime(p)
        self._primes = prime_set
        self._complement = complement

    @classmethod
    def where(cls, values: PrimeMap, predicate: Callable[[object], bool]) -> "PrimeSet":
        """The primes at which the value of ``values`` satisfies ``predicate``."""
        cofinite = predicate(values._default)
        # The keys of a PrimeMap are already proven prime.
        shape = cls.__new__(cls)
        shape._primes = frozenset(
            [p for p, v in values._exceptions.items() if predicate(v) != cofinite]
        )
        shape._complement = cofinite
        return shape

    @property
    def is_empty(self) -> bool:
        return not self._complement and not self._primes

    @property
    def is_cofinite(self) -> bool:
        return self._complement

    @property
    def listed_primes(self) -> frozenset[int]:
        """The stored finite set: included primes, or excluded if cofinite."""
        return self._primes

    def contains(self, p: int) -> bool:
        _require_prime(p)
        return (p in self._primes) != self._complement

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._primes == other._primes and self._complement == other._complement

    def __hash__(self):
        return hash((self._primes, self._complement))

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        """``none``, ``2,3``, ``all`` or ``all_except 2,3``."""
        primes = ",".join(str(p) for p in sorted(self._primes))
        if self._complement:
            return f"all_except {primes}" if primes else "all"
        return primes or "none"
