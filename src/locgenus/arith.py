"""Exact arithmetic substrate: rationals, valuations, primes, p-adic units.

Rationals are ``fractions.Fraction`` throughout (always reduced, positive
denominator, 0 represented as 0/1). Heights take values in the non-negative
integers extended by the ``INFINITY`` sentinel; the natural numbers with a
disjoint base point are modelled by ints plus the ``STAR`` sentinel.

Everything here is immutable and pure, so values may be shared freely
between threads.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import DomainError, FactorBoundError, PrecisionError, ResourceError

#: Trial division gives exact factorizations up to this prime by default.
DEFAULT_PRIME_BOUND = 10**6

#: Default number of p-adic digits carried by a PAdicApprox.
DEFAULT_PRECISION = 32

#: A PAdicApprox refuses a modulus p^precision of more than about this
#: many bits (precision times the bit length of p).
PRECISION_BIT_LIMIT = 1 << 16


class _Value:
    """Equal to a value of the same class with an equal ``_key()``, and
    hashed by that key, so equal values hash equally."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce_ex__(self, protocol):
        # Protocols 0 and 1 refuse slotted objects: give them protocol 2's reduction.
        return object.__reduce_ex__(self, max(protocol, 2))


class _Record(_Value):
    """A read-only value whose fields are its class's ``__slots__``, stored
    by ``_set``, compared by all of them unless ``_key`` says otherwise."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple):
        self._set(*state)

    _key = __getstate__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _Sentinel(_Value):
    """The module-level singleton ``_name``, equal only to itself and printed as ``_text``."""

    __slots__ = ()
    _text: str
    _name: str

    def _key(self) -> str:
        return self._text

    def __reduce__(self):
        return self._name

    def __repr__(self):
        return self._text


@functools.total_ordering
class InfinityType(_Sentinel):
    """Singleton sentinel for an infinite height.

    Compares strictly greater than every int, so ``min``/``max`` combine
    heights without special cases:

    >>> min(3, INFINITY), max(3, INFINITY)
    (3, inf)
    """

    __slots__ = ()
    _text, _name = "inf", "INFINITY"

    def __lt__(self, other):
        if isinstance(other, (int, InfinityType)):
            return False
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, InfinityType)):
            return self
        return NotImplemented

    __radd__ = __add__


class StarType(_Sentinel):
    """Singleton base point adjoined to the natural numbers."""

    __slots__ = ()
    _text, _name = "*", "STAR"


INFINITY = InfinityType()
STAR = StarType()

#: A height entry: a non-negative integer or INFINITY.
Height = int | InfinityType

#: An element of the pointed naturals: a non-negative integer or STAR.
NatPlus = int | StarType


#: The interpreter's digit limit of ``int()`` and ``str()``, read at each
#: call since it can be set at run time; 0 (none) where there is no limit.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal(text: str) -> int | None:
    """The one reader of numbers in text: an optional leading '-' and ASCII
    digits, read as an int; None for anything else (``int()`` also takes
    other scripts' digits, '+', '_' and spaces) and past the digit limit.
    A text longer than the limit is refused by its length before any
    character is read: as in ``int()``, leading zeros count and the sign
    does not."""
    digits = text.removeprefix("-")
    # 640 is the smallest nonzero limit, so a short text pays one comparison.
    if len(digits) > 640 and len(digits) > _digit_limit() > 0:
        return None
    return int(text) if digits.isascii() and digits.isdigit() else None


def _shown(value: object, show=str) -> str:
    """``show(value)`` for a message; a text longer than 64 characters by
    its first 64 and its length. Past the interpreter's digit limit, where
    ``str`` and ``repr`` refuse, an int's sign and number of digits, or the
    type of any other value."""
    if isinstance(value, str) and len(value) > 64:
        return f"{show(value[:64])}... ({len(value)} characters)"
    try:
        return show(value)
    except ValueError:
        if not _is_int(value):
            return f"a {type(value).__name__} past the digit limit"
        size = abs(value)
        digits = math.floor(math.log10(size)) + 1
        # The float logarithm may be one off near a power of ten.
        if size < 10 ** (digits - 1):
            digits -= 1
        elif size >= 10**digits:
            digits += 1
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


# One checker per kind of argument (a flag is an instance of bool), called
# where an argument enters the library: each hands it back or raises DomainError.


def _is_int(value: object) -> bool:
    """An integer is an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value: object) -> int:
    # An exact int skips the call.
    if type(value) is int or _is_int(value):
        return value
    raise DomainError(f"{name} must be an integer, got {type(value).__name__}")


def _require_rational(name: str, value: object) -> Fraction:
    """A rational is a Fraction, handed back as it is, or an int, made one;
    a string is refused before ``Fraction`` could parse it."""
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise DomainError(f"{name} must be an int or a Fraction, got {type(value).__name__}")


def _require_instance(name: str, value: object, cls: type):
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _marked(name: str, primes: Iterable, marker) -> dict:
    """Each of the primes, ascending, mapped to marker: the exceptions of a
    map given by a set of primes. Entries that are not integers, or cannot
    be ordered, are refused, naming the argument."""
    try:
        primes = sorted(primes)
        if all(map(_is_int, primes)):
            return dict.fromkeys(primes, marker)
    except TypeError:  # entries that cannot be ordered
        pass
    raise DomainError(f"{name} must be integers")


def is_height(value: object) -> bool:
    """True iff value is a legal height entry (int >= 0 or INFINITY)."""
    return isinstance(value, InfinityType) or (_is_int(value) and value >= 0)


def is_nat_plus(value: object) -> bool:
    """True iff value is a legal pointed natural (int >= 0 or STAR)."""
    return isinstance(value, StarType) or (_is_int(value) and value >= 0)


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    # An exact int skips the checker: this runs on every prime proven.
    if (n if type(n) is int else _require_int("primality candidate", n)) < 2:
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
        raise DomainError(f"{_shown(p)} is not prime")


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, via the sieve of Eratosthenes.

    >>> primes_up_to(10)
    [2, 3, 5, 7]
    """
    if _require_int("prime bound", bound) < 2:
        raise DomainError(f"prime bound must be at least 2, got {_shown(bound)}")
    try:
        sieve = bytearray([1]) * (bound + 1)
    except (OverflowError, MemoryError):
        raise ResourceError(f"cannot allocate a sieve up to {_shown(bound)}") from None
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def _split(n: int, p: int) -> tuple[int, int]:
    """Split n = p^e * m with m prime to p, for n != 0 and p > 1.

    >>> _split(-360, 2)
    (3, -45)
    """
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def factorize(n: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> dict[int, int]:
    """Exact prime factorization of |n| by trial division.

    Divisors are only probed up to prime_bound; if the remaining cofactor
    cannot be certified prime the factorization is refused rather than
    guessed at.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    _require_int("prime bound", prime_bound)
    if _require_int("n", n) == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    factors: dict[int, int] = {}
    for d in (2, 3):
        if n % d == 0:
            factors[d], n = _split(n, d)
    d = 5
    while d * d <= n and d <= prime_bound:
        if n % d == 0:
            factors[d], n = _split(n, d)
        if n % (d + 2) == 0:
            factors[d + 2], n = _split(n, d + 2)
        d += 6
    if n > 1:
        # All primes below d are stripped, so d * d > n alone certifies n prime.
        if d * d > n:
            factors[n] = factors.get(n, 0) + 1
        else:
            raise FactorBoundError(
                f"cannot factor {_shown(n)} with trial division up to {_shown(prime_bound)}"
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
    q = _require_rational("rational", q)
    if q == 0:
        return INFINITY
    return _split(q.numerator, p)[0] - _split(q.denominator, p)[0]


def mod_one(q: Fraction | int) -> Fraction:
    """Canonical representative of q in [0, 1), i.e. its class mod 1.

    >>> mod_one(Fraction(7, 4))
    Fraction(3, 4)
    >>> mod_one(Fraction(-1, 3))
    Fraction(2, 3)
    """
    return _require_rational("rational", q) % 1


class PAdicApprox(_Record):
    """A p-adic integer known to ``precision`` base-p digits.

    A finite residue cannot distinguish the exact zero from an element of
    valuation >= precision, so exact zeros carry an explicit flag.
    """

    __slots__ = ("prime", "precision", "residue", "exactly_zero")

    def __init__(self, prime: int, precision=DEFAULT_PRECISION, residue=0, exactly_zero=False):
        _require_prime(prime)
        _require_precision(prime, precision)
        if not 0 <= _require_int("residue", residue) < prime**precision:
            raise DomainError(f"residue {_shown(residue)} outside [0, {prime}^{precision})")
        if _require_instance("exactly_zero", exactly_zero, bool) and residue != 0:
            raise DomainError("an exact zero must have residue 0")
        self._set(prime, precision, residue, exactly_zero)

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    @classmethod
    def _of(cls, prime: int, precision: int, residue: int, exactly_zero: bool = False):
        """Wrap already validated data without checking it again: a proven
        prime, a checked precision, a residue in [0, prime**precision), and
        residue 0 if exactly_zero."""
        return object.__new__(cls)._set(prime, precision, residue, exactly_zero)

    @classmethod
    def from_int(cls, n: int, prime: int, precision: int = DEFAULT_PRECISION) -> "PAdicApprox":
        """Image of an ordinary integer, flagged exact when n = 0."""
        _require_int("n", n)
        _require_prime(prime)
        _require_precision(prime, precision)
        return cls._of(prime, precision, n % prime**precision, n == 0)

    @classmethod
    def zero(cls, prime: int, precision: int = DEFAULT_PRECISION) -> "PAdicApprox":
        return cls(prime, precision, 0, exactly_zero=True)

    def __neg__(self) -> "PAdicApprox":
        return PAdicApprox._of(
            self.prime, self.precision, (-self.residue) % self.modulus, self.exactly_zero
        )


def _require_precision(prime: int, precision: int) -> None:
    """Check a precision before any power prime**precision is built."""
    if _require_int("precision", precision) < 1:
        raise DomainError(f"precision must be positive, got {_shown(precision)}")
    if precision * prime.bit_length() > PRECISION_BIT_LIMIT:
        raise ResourceError(
            f"precision {_shown(precision)} at {prime} exceeds the p-adic size cap of "
            f"{PRECISION_BIT_LIMIT} bits (precision times the bit length of the prime)"
        )


def padic_decompose(z: PAdicApprox) -> tuple[int, PAdicApprox] | StarType:
    """Split a p-adic integer as p^k * unit, or STAR for the exact zero.

    The returned unit keeps the digits that survive dividing by p^k, so its
    precision is z.precision - k.

    >>> padic_decompose(PAdicApprox(2, 8, 12))
    (2, PAdicApprox(prime=2, precision=6, residue=3, exactly_zero=False))
    """
    if _require_instance("p-adic integer", z, PAdicApprox).exactly_zero:
        return STAR
    if z.residue == 0:
        raise PrecisionError(
            f"residue is 0 mod {z.prime}^{z.precision}: "
            "valuation is not determined at this precision"
        )
    k, u = _split(z.residue, z.prime)
    # 0 < residue < prime**precision, so k < precision and u < prime**(precision - k).
    return k, PAdicApprox._of(z.prime, z.precision - k, u)


class PrimeMap(_Value):
    """A value at every prime: a default plus finitely many exceptions.

    Subclasses fix the legal values (``_is_value``, described by
    ``_domain`` in errors) and the ``_label`` that names them. Exceptions
    that repeat the default are dropped and the rest kept in ascending
    prime order, so equal data gives equal maps; maps of different classes
    are never equal.

    A prime is proven where it enters: the constructor, the public readers
    (``value_at`` and its aliases) and the CLI grammar. ``_at`` and ``_of``
    take only primes the caller has proven: from ``factorize``, a support,
    or a checked argument.
    """

    __slots__ = ("_default", "_exceptions")

    def __init__(self, default, exceptions: Mapping[int, object] | None = None):
        is_value = self._is_value
        if not is_value(default):
            raise DomainError(f"{self._label} default must be {self._domain}")
        # A dict is a Mapping: it skips the slower check through the ABC.
        if exceptions is not None and not isinstance(exceptions, dict):
            _require_instance(f"{self._label} exceptions", exceptions, Mapping)
        try:
            items = sorted((exceptions or {}).items())
        except TypeError:  # keys that cannot be ordered
            raise DomainError(f"{self._label} exceptions must have integer keys") from None
        cleaned = {}
        for p, value in items:
            # Before is_prime, whose refusal names no argument; an exact int
            # skips the call.
            if type(p) is not int and not _is_int(p):
                raise DomainError(f"{self._label} exceptions must have integer keys")
            if not is_prime(p):
                raise DomainError(f"{self._label} key {_shown(p)} is not prime")
            if not is_value(value):
                raise DomainError(f"{self._label} entry at {p} must be {self._domain}")
            if value != default:
                cleaned[p] = value
        self._default = default
        self._exceptions = cleaned

    @classmethod
    def _of(cls, default, exceptions: dict):
        """Wrap already validated data without checking it again: a legal
        default, and legal values other than it at primes in ascending
        order."""
        prime_map = cls.__new__(cls)
        prime_map._default = default
        prime_map._exceptions = exceptions
        return prime_map

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
        return self._at(p)

    def _at(self, p: int):
        return self._exceptions.get(p, self._default)

    def _key(self) -> tuple:
        return self._default, tuple(self._exceptions.items())

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        entries = "".join([f", {p}:{v}" for p, v in self._exceptions.items()])
        return f"{{default:{self._default}{entries}}}"
