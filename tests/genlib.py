"""Seeded random builders and the helpers shared by the module, CLI and
acceptance tests."""

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
from locgenus.cli import main

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


#: Primes near 10^6: proven in a millisecond, so they may carry heights and
#: twists, but a product of two is past the default factor bound.
BIG_PRIMES = (1000003, 1000033)
#: Far past the default factor bound and too large to prove by trial
#: division, so it appears in denominators only.
MERSENNE_61 = 2**61 - 1
#: The primes of every denominator ``random_known_rational`` builds.
KNOWN_PRIMES = (*SMALL_PRIMES[:6], *BIG_PRIMES, MERSENNE_61)


def random_known_hom(rng: Random, default) -> ConnectingHom:
    """A hom with the given default height, and heights and twists over the
    small primes and those near 10^6, pre-composed by a fraction."""
    exceptions = {
        p: random_height(rng, max_finite=3)
        for p in rng.sample((*SMALL_PRIMES[:6], *BIG_PRIMES), rng.randint(0, 3))
    }
    twists = random_twists(rng)
    if rng.random() < 0.3:
        p = rng.choice(BIG_PRIMES)
        twists[p] = (rng.randint(1, 2), rng.randint(2, p - 1))
    return ConnectingHom(HeightSequence(default, exceptions), random_unit_rational(rng), twists)


def random_known_rational(rng: Random, heights: HeightSequence, split=()) -> Fraction:
    """A rational whose denominator is a product of ``KNOWN_PRIMES``. Under
    a finite default d > 0, where the primes off the support and ``split``
    are factored by trial division under the default bound, those keep to
    the small primes and at most one prime near 10^6."""
    kept = {*heights.support, *split}
    factored = not isinstance(heights.default, InfinityType) and heights.default > 0
    room = 1
    denominator = 1
    for p in KNOWN_PRIMES:
        e = rng.choice((0, 0, 1, 2, 3))
        if factored and p > SMALL_PRIMES[5] and p not in kept:
            e = 0 if p == MERSENNE_61 else min(e, room)
            room -= e
        denominator *= p**e
    return Fraction(rng.randint(-30, 30), denominator)


def known_factors(n: int) -> dict[int, int]:
    """The factorization of n >= 1, whose primes are all in ``KNOWN_PRIMES``."""
    factors = {}
    for p in KNOWN_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors[p] = e
    assert n == 1
    return factors


def known_primary_parts(q: Fraction) -> dict[int, Fraction]:
    """The p-primary parts of q mod 1 from the known factors of its
    denominator d: at p^e, a/p^e with a = n * (d / p^e)^-1 mod p^e, by the
    Chinese remainder theorem."""
    parts = {}
    for p, e in known_factors(q.denominator).items():
        pe = p**e
        parts[p] = Fraction(q.numerator * pow(q.denominator // pe, -1, pe) % pe, pe)
    return parts


def forbid_factorize(monkeypatch) -> None:
    """From now on, make ``factorize`` raise wherever rankone and connecting
    call it."""
    import locgenus.connecting
    import locgenus.rankone

    def refuse(n, prime_bound=None):
        raise AssertionError(f"factorize({n}, {prime_bound}) was called")

    for module in (locgenus.rankone, locgenus.connecting):
        monkeypatch.setattr(module, "factorize", refuse)


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


def run_cli(capsys, *argv):
    """Run the CLI in-process: its exit code, stdout and stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
