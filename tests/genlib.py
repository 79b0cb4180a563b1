"""Seeded random builders shared by the module and acceptance tests."""

from fractions import Fraction
from random import Random

from locgenus import (
    INFINITY,
    STAR,
    ConnectingHom,
    HeightSequence,
    InfinityType,
    PostnikovGenusDescriptor,
    RankOneGroup,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def random_height(rng: Random, max_finite: int = 12, infinite_weight: float = 0.25):
    if rng.random() < infinite_weight:
        return INFINITY
    return rng.randint(0, max_finite)


def random_height_sequence(
    rng: Random,
    max_finite: int = 12,
    infinite_weight: float = 0.25,
    infinite_default_weight: float = 0.15,
) -> HeightSequence:
    if rng.random() < infinite_default_weight:
        default = INFINITY
    else:
        default = rng.randint(0, 3)
    exceptions = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 4)):
        exceptions[p] = random_height(rng, max_finite, infinite_weight)
    return HeightSequence(default, exceptions)


def random_finite_height_sequence(rng: Random, max_finite: int = 12) -> HeightSequence:
    default = rng.randint(0, 3)
    exceptions = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 4)):
        exceptions[p] = rng.randint(0, max_finite)
    return HeightSequence(default, exceptions)


def random_rational(rng: Random, num_bound: int = 40, exp_bound: int = 3) -> Fraction:
    """A rational whose denominator is smooth over the small primes."""
    denominator = 1
    for p in rng.sample(SMALL_PRIMES[:6], rng.randint(0, 3)):
        denominator *= p ** rng.randint(1, exp_bound)
    numerator = rng.randint(-num_bound, num_bound)
    return Fraction(numerator, denominator)


def random_probe_for(rng: Random, heights: HeightSequence) -> Fraction:
    """A rational engineered to straddle the membership boundary of the
    group with the given heights."""
    denominator = 1
    pool = set(heights.support) | set(rng.sample(SMALL_PRIMES[:6], 2))
    for p in sorted(pool):
        if rng.random() < 0.5:
            continue
        k = heights.height_at(p)
        ceiling = 6 if isinstance(k, InfinityType) else k + 2
        e = rng.randint(0, ceiling)
        denominator *= p**e
    return Fraction(rng.randint(-30, 30), denominator) if denominator > 1 else Fraction(
        rng.randint(-30, 30)
    )


def random_member_of(rng: Random, group: RankOneGroup) -> Fraction:
    """A random element of the group, built from admissible denominators."""
    heights = group.heights
    denominator = 1
    for p in sorted(set(heights.support) | set(rng.sample(SMALL_PRIMES[:6], 2))):
        k = heights.height_at(p)
        ceiling = 6 if isinstance(k, InfinityType) else k
        if ceiling > 0 and rng.random() < 0.6:
            denominator *= p ** rng.randint(0, ceiling)
    return Fraction(rng.randint(-30, 30), denominator)


def random_unit_rational(rng: Random, exp_bound: int = 2) -> Fraction:
    """A nonzero rational built from small primes, of either sign."""
    value = Fraction(rng.choice([1, -1]))
    for p in SMALL_PRIMES[:5]:
        if rng.random() < 0.4:
            value *= Fraction(p) ** rng.randint(-exp_bound, exp_bound)
    return value


def random_twists(rng: Random, max_twists: int = 3) -> dict:
    twists = {}
    for p in rng.sample(SMALL_PRIMES[:6], rng.randint(0, max_twists)):
        mod_exp = rng.randint(1, 4)
        unit = rng.choice([u for u in range(1, p**mod_exp) if u % p != 0])
        twists[p] = (mod_exp, unit)
    return twists


def random_hom(rng: Random, heights: HeightSequence | None = None) -> ConnectingHom:
    if heights is None:
        heights = random_height_sequence(rng)
    return ConnectingHom(heights, random_unit_rational(rng), random_twists(rng))


def random_nat_plus(rng: Random, max_finite: int = 8, star_weight: float = 0.25):
    if rng.random() < star_weight:
        return STAR
    return rng.randint(0, max_finite)


def random_descriptor(rng: Random, dimension: int = 3) -> PostnikovGenusDescriptor:
    default = random_nat_plus(rng, max_finite=3)
    exceptions = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 4)):
        exceptions[p] = random_nat_plus(rng)
    return PostnikovGenusDescriptor(dimension, default, exceptions)


def count_proofs(monkeypatch) -> list:
    """From now on, record every prime that ``arith.is_prime`` is asked to
    prove, in call order."""
    import locgenus.arith

    proven = []
    prove = locgenus.arith.is_prime

    def counting(n):
        proven.append(n)
        return prove(n)

    monkeypatch.setattr(locgenus.arith, "is_prime", counting)
    return proven
