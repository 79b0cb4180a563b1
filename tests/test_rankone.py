from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    DomainError,
    HeightSequence,
    InfinityType,
    LocalIso,
    RankOneGroup,
    TypeClass,
    similar,
    type_of,
)

from genlib import (
    SMALL_PRIMES,
    count_proofs,
    forbid_factorize,
    known_factors,
    random_height_sequence,
    random_known_hom,
    random_known_rational,
    random_member_of,
    random_probe_for,
)


def oracle_member(q, heights):
    """Generator check: q is a member iff clearing each prime's maximal
    divisibility leaves no trace of that prime in the denominator."""
    q = Fraction(q)
    d = q.denominator
    p = 2
    while d > 1:
        if d % p == 0:
            k = heights.height_at(p)
            if isinstance(k, InfinityType):
                while d % p == 0:
                    d //= p
            else:
                scaled = q * p**k
                if scaled.denominator % p == 0:
                    return False
                while d % p == 0:
                    d //= p
        p += 1
    return True


def heights_strategy(max_prime_count=4):
    height_values = st.one_of(st.integers(0, 12), st.just(INFINITY))
    defaults = st.one_of(st.integers(0, 3), st.just(INFINITY))
    exceptions = st.dictionaries(
        st.sampled_from(SMALL_PRIMES), height_values, max_size=max_prime_count
    )
    return st.builds(HeightSequence, defaults, exceptions)


class TestHeightSequence:
    def test_normalizes_default_entries_away(self):
        assert HeightSequence(0, {2: 0, 3: 5}) == HeightSequence(0, {3: 5})

    def test_validation(self):
        with pytest.raises(DomainError):
            HeightSequence(0, {4: 1})
        with pytest.raises(DomainError):
            HeightSequence(0, {2: -1})
        with pytest.raises(DomainError):
            HeightSequence(-2)
        with pytest.raises(DomainError):
            HeightSequence(0, {2: True})

    def test_lookup_and_support(self):
        h = HeightSequence(1, {2: 3, 7: INFINITY})
        assert h.height_at(2) == 3
        assert h.height_at(5) == 1
        assert h.height_at(7) == INFINITY
        assert h.support == (2, 7)

    def test_lookup_requires_prime(self):
        with pytest.raises(DomainError):
            HeightSequence(0).height_at(6)

    def test_hashable(self):
        assert len({HeightSequence(0, {2: 3}), HeightSequence(0, {2: 3})}) == 1


class TestSimilar:
    def test_finite_deviation_is_similar(self):
        assert similar(HeightSequence(0), HeightSequence(0, {2: 3}))

    def test_default_shift_is_dissimilar(self):
        assert not similar(HeightSequence(0), HeightSequence(1))

    def test_infinity_position_mismatch_is_dissimilar(self):
        assert not similar(HeightSequence(0, {2: INFINITY}), HeightSequence(0))

    def test_matching_infinities_with_finite_noise(self):
        s = HeightSequence(0, {2: INFINITY, 3: 7})
        t = HeightSequence(0, {2: INFINITY, 11: 1})
        assert similar(s, t)

    def test_infinite_default_cases(self):
        assert similar(HeightSequence(INFINITY, {2: 4}), HeightSequence(INFINITY, {2: 9}))
        assert not similar(HeightSequence(INFINITY, {2: 4}), HeightSequence(INFINITY))
        assert not similar(HeightSequence(INFINITY), HeightSequence(0))

    @given(heights_strategy())
    def test_reflexive(self, s):
        assert similar(s, s)

    @given(heights_strategy(), heights_strategy())
    def test_symmetric(self, s, t):
        assert similar(s, t) == similar(t, s)

    def test_transitive_over_seeded_triples(self):
        rng = Random(42)
        for _ in range(500):
            s = random_height_sequence(rng)
            t = random_height_sequence(rng) if rng.random() < 0.5 else _perturb(rng, s)
            u = random_height_sequence(rng) if rng.random() < 0.5 else _perturb(rng, t)
            if similar(s, t) and similar(t, u):
                assert similar(s, u)


def _perturb(rng, s):
    """A sequence similar to s: finitely many finite entries changed."""
    exceptions = s.exceptions
    for p in rng.sample(SMALL_PRIMES, rng.randint(1, 3)):
        if not isinstance(s.height_at(p), InfinityType):
            exceptions[p] = rng.randint(0, 12)
    return HeightSequence(s.default, exceptions)


class TestTypeOf:
    def test_finite_deviations_erased(self):
        assert type_of(HeightSequence(0, {3: 5, 7: 1})) == TypeClass(0)

    def test_infinity_positions_kept(self):
        got = type_of(HeightSequence(0, {2: INFINITY}))
        assert got == TypeClass(0, infinite_primes={2})
        assert similar(got.canonical_heights(), HeightSequence(0, {2: INFINITY}))

    def test_infinite_default_normalizes_finite_marker(self):
        got = type_of(HeightSequence(INFINITY, {2: 4}))
        assert got == TypeClass(INFINITY, finite_primes={2})
        assert got.canonical_heights() == HeightSequence(INFINITY, {2: 0})

    def test_typeclass_validation(self):
        with pytest.raises(DomainError):
            TypeClass(0, finite_primes={2})
        with pytest.raises(DomainError):
            TypeClass(INFINITY, infinite_primes={2})
        with pytest.raises(DomainError):
            TypeClass(0, infinite_primes={4})

    @given(heights_strategy(), heights_strategy())
    def test_equal_types_iff_similar(self, s, t):
        assert (type_of(s) == type_of(t)) == similar(s, t)

    def test_equal_types_iff_similar_near_misses(self):
        near_misses = [
            (HeightSequence(0), HeightSequence(1)),
            (HeightSequence(2, {2: 5}), HeightSequence(3, {2: 5})),
            (HeightSequence(0, {2: INFINITY}), HeightSequence(0, {3: INFINITY})),
            (HeightSequence(0, {2: INFINITY}), HeightSequence(0, {2: 11})),
            (HeightSequence(INFINITY, {2: 1}), HeightSequence(INFINITY, {3: 1})),
        ]
        for s, t in near_misses:
            assert not similar(s, t)
            assert type_of(s) != type_of(t)

    @given(heights_strategy())
    def test_canonical_representative_is_in_the_class(self, s):
        assert similar(type_of(s).canonical_heights(), s)
        assert type_of(type_of(s).canonical_heights()) == type_of(s)


class TestMember:
    def test_examples(self):
        A = RankOneGroup(HeightSequence(0, {2: 3}))
        assert oracle_member(Fraction(1, 8), A.heights)
        assert A.member(Fraction(1, 8))
        assert not A.member(Fraction(1, 16))
        assert RankOneGroup.integers().member(1)
        assert RankOneGroup(HeightSequence(INFINITY)).member(Fraction(22, 7))
        assert not RankOneGroup.integers().member(Fraction(1, 3))

    def test_against_oracle(self):
        rng = Random(99)
        for _ in range(300):
            heights = random_height_sequence(rng)
            group = RankOneGroup(heights)
            q = random_probe_for(rng, heights)
            assert group.member(q) == oracle_member(q, heights)

    def test_group_closure(self):
        rng = Random(4242)
        for _ in range(1000):
            group = RankOneGroup(random_height_sequence(rng))
            a = random_member_of(rng, group)
            b = random_member_of(rng, group)
            assert group.member(a) and group.member(b)
            assert group.member(a + b)
            assert group.member(-a)


class TestHeight:
    def test_examples(self):
        assert RankOneGroup(HeightSequence(0, {2: 3})).height(2) == 3
        assert RankOneGroup.integers().height(13) == 0
        assert RankOneGroup(HeightSequence(0, {5: INFINITY})).height(5) == INFINITY

    def test_agrees_with_membership_probes(self):
        rng = Random(57)
        primes = [p for p in SMALL_PRIMES if p <= 50]
        for _ in range(40):
            group = RankOneGroup(random_height_sequence(rng))
            for p in primes:
                probed = max(
                    (r for r in range(21) if group.member(Fraction(1, p**r))),
                    default=0,
                )
                k = group.height(p)
                if isinstance(k, InfinityType):
                    assert probed == 20
                else:
                    assert probed == k


class TestPseudoIntegersAndLocalization:
    def test_examples(self):
        assert RankOneGroup.integers().is_pseudo_integers()
        assert not RankOneGroup(HeightSequence(0, {2: INFINITY})).is_pseudo_integers()
        assert RankOneGroup(HeightSequence(0, {3: 7, 11: 2})).is_pseudo_integers()
        assert not RankOneGroup(HeightSequence(INFINITY)).is_pseudo_integers()

    def test_localize_examples(self):
        assert RankOneGroup.integers().localize(2) == LocalIso.LOCAL_INTEGERS
        assert (
            RankOneGroup(HeightSequence(0, {3: INFINITY})).localize(3)
            == LocalIso.RATIONALS
        )
        assert (
            RankOneGroup(HeightSequence(0, {5: 9})).localize(5)
            == LocalIso.LOCAL_INTEGERS
        )

    def test_pseudo_iff_everywhere_local_integers(self):
        rng = Random(31337)
        for _ in range(200):
            group = RankOneGroup(random_height_sequence(rng))
            support_primes = set(group.heights.support) | {2, 3, 53}
            everywhere_local = all(
                group.localize(p) == LocalIso.LOCAL_INTEGERS for p in support_primes
            ) and not isinstance(group.heights.default, InfinityType)
            assert group.is_pseudo_integers() == everywhere_local


class TestLattice:
    def test_examples(self):
        a = RankOneGroup(HeightSequence(0, {2: 3}))
        b = RankOneGroup(HeightSequence(0, {2: 1}))
        assert a.intersect(b) == b
        c = RankOneGroup(HeightSequence(0, {3: INFINITY}))
        assert a.join(c) == RankOneGroup(HeightSequence(0, {2: 3, 3: INFINITY}))
        assert a.intersect(RankOneGroup.integers()) == RankOneGroup.integers()

    def test_membership_laws(self):
        rng = Random(2718)
        for _ in range(200):
            a = RankOneGroup(random_height_sequence(rng))
            b = RankOneGroup(random_height_sequence(rng))
            meet, join = a.intersect(b), a.join(b)
            q = random_probe_for(rng, join.heights)
            assert meet.member(q) == (a.member(q) and b.member(q))
            assert (a.member(q) or b.member(q)) <= join.member(q)


#: Two primes near 10^6, where each proof by trial division is costly.
P, Q = 999983, 999979


def test_member_and_lattice_prove_no_prime_again(monkeypatch):
    a = RankOneGroup(HeightSequence(0, {P: 1, Q: 2}))
    b = RankOneGroup(HeightSequence(0, {Q: INFINITY}))
    meet = RankOneGroup(HeightSequence(0, {Q: 2}))
    join = RankOneGroup(HeightSequence(0, {P: 1, Q: INFINITY}))
    q = Fraction(1, P * Q)
    proven = count_proofs(monkeypatch)
    assert a.member(q) and not b.member(q)
    assert a.intersect(b) == meet and a.join(b) == join
    assert proven == []


def member_by_known_factors(q, heights):
    """Membership from the definition, over the known factors of the
    denominator of q, with no factor bound."""
    factors = known_factors(Fraction(q).denominator)
    return all(e <= heights.exceptions.get(p, heights.default) for p, e in factors.items())


@given(st.integers(0, 2**32), st.sampled_from([0, INFINITY, 1, 2]))
def test_member_matches_known_factors(seed, default):
    rng = Random(seed)
    heights = random_known_hom(rng, default).kernel_heights
    group = RankOneGroup(heights)
    for _ in range(3):
        q = random_known_rational(rng, heights)
        assert group.member(q) == member_by_known_factors(q, heights)


@given(st.integers(0, 2**32), st.sampled_from([0, INFINITY]), st.integers(-10**7, 10**7))
def test_member_under_default_0_or_inf_never_factors(seed, default, prime_bound):
    rng = Random(seed)
    heights = random_known_hom(rng, default).kernel_heights
    q = random_known_rational(rng, heights)
    with pytest.MonkeyPatch.context() as patch:
        forbid_factorize(patch)
        member = RankOneGroup(heights).member(q, prime_bound)
    assert member == member_by_known_factors(q, heights)


@given(heights_strategy(), heights_strategy())
def test_lattice_matches_the_public_constructor(a, b):
    for op, combine in [(RankOneGroup.intersect, min), (RankOneGroup.join, max)]:
        result = op(RankOneGroup(a), RankOneGroup(b)).heights
        expected = HeightSequence(
            combine(a.default, b.default),
            {p: combine(a.height_at(p), b.height_at(p)) for p in {*a.support, *b.support}},
        )
        assert result == expected and hash(result) == hash(expected)
        assert str(result) == str(expected)
