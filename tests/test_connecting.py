import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    ConnectingHom,
    DomainError,
    FactorBoundError,
    HeightSequence,
    QmodZElement,
    RankOneGroup,
    ResourceError,
    beta,
    factorize,
    mod_one,
    p_primary_parts,
    type_of,
    valuation,
)

from genlib import (
    count_proofs,
    forbid_factorize,
    known_primary_parts,
    random_height_sequence,
    random_hom,
    random_known_hom,
    random_known_rational,
    random_probe_for,
    random_rational,
    random_twists,
    random_unit_rational,
)


class TestPPrimaryParts:
    def test_example(self):
        assert p_primary_parts(Fraction(5, 6)) == {2: Fraction(1, 2), 3: Fraction(1, 3)}

    def test_integers_have_no_parts(self):
        assert p_primary_parts(Fraction(7)) == {}

    def test_parts_recompose_mod_one(self):
        rng = Random(11)
        for _ in range(300):
            q = random_rational(rng)
            parts = p_primary_parts(q)
            assert mod_one(sum(parts.values(), Fraction(0))) == mod_one(q)
            for p, part in parts.items():
                assert 0 < part < 1
                d = part.denominator
                while d % p == 0:
                    d //= p
                assert d == 1


class TestQmodZElement:
    def test_canonicalizes(self):
        assert QmodZElement(Fraction(7, 4)).value == Fraction(3, 4)
        assert QmodZElement(Fraction(-1, 3)) == QmodZElement(Fraction(2, 3))
        assert str(QmodZElement(Fraction(7, 4))) == "3/4" and str(QmodZElement(2)) == "0"

    def test_addition_wraps(self):
        total = QmodZElement(Fraction(3, 4)) + QmodZElement(Fraction(1, 2))
        assert total.value == Fraction(1, 4)
        assert (-QmodZElement(Fraction(1, 3))).value == Fraction(2, 3)

    def test_p_component(self):
        x = QmodZElement(Fraction(5, 6))
        assert x.p_component(2) == Fraction(1, 2)
        assert x.p_component(3) == Fraction(1, 3)
        assert x.p_component(5) == 0


class TestEvaluate:
    def test_identity_on_two_part_for_integer_heights(self):
        d = beta(RankOneGroup.integers())
        assert d.evaluate(Fraction(1, 2)) == QmodZElement(Fraction(1, 2))
        assert d.evaluate(Fraction(3, 4)) == QmodZElement(Fraction(3, 4))

    def test_kernel_elements_vanish(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: 1})))
        assert d.evaluate(Fraction(1, 2)).is_zero

    def test_scaling_by_height(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: 1})))
        assert d.evaluate(Fraction(1, 4)) == QmodZElement(Fraction(1, 2))

    def test_infinite_height_drops_component(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: INFINITY})))
        assert d.evaluate(Fraction(1, 4)).is_zero
        assert d.evaluate(Fraction(1, 4) + Fraction(1, 3)) == QmodZElement(Fraction(1, 3))

    def test_integers_vanish_when_kernel_contains_them(self):
        # With a fractional precompose the vanishing locus need not
        # contain the integers, so restrict to integer precompositions.
        rng = Random(5)
        for _ in range(100):
            d = ConnectingHom(
                random_height_sequence(rng),
                rng.choice([1, -1]) * rng.randint(1, 40),
                random_twists(rng),
            )
            assert d.evaluate(rng.randint(-50, 50)).is_zero

    def test_additive(self):
        rng = Random(17)
        for _ in range(300):
            d = random_hom(rng)
            a, b = random_rational(rng), random_rational(rng)
            assert d.evaluate(a + b) == d.evaluate(a) + d.evaluate(b)

    def test_twist_scales_component(self):
        base = beta(RankOneGroup.integers())
        twisted = base.with_twist(2, 3, 3)
        assert twisted.evaluate(Fraction(1, 8)) == QmodZElement(Fraction(3, 8))
        # A unit multiple never kills a nonzero component.
        assert not twisted.evaluate(Fraction(1, 16)).is_zero


class TestConstructionValidation:
    def test_precompose_must_be_nonzero(self):
        with pytest.raises(DomainError):
            ConnectingHom(HeightSequence(0), 0)

    def test_twist_validation(self):
        with pytest.raises(DomainError):
            ConnectingHom(HeightSequence(0), twists={2: (0, 1)})
        with pytest.raises(DomainError):
            ConnectingHom(HeightSequence(0), twists={2: (3, 6)})
        with pytest.raises(DomainError):
            ConnectingHom(HeightSequence(0), twists={9: (1, 2)})

    def test_twist_residue_normalized(self):
        d = ConnectingHom(HeightSequence(0), twists={2: (3, 11)})
        assert d.twists == {2: (3, 3)}


class TestKernel:
    def test_beta_roundtrip_on_data(self):
        rng = Random(23)
        for _ in range(100):
            A = RankOneGroup(random_height_sequence(rng))
            assert beta(A).kernel() == A

    def test_membership_matches_vanishing(self):
        rng = Random(29)
        for _ in range(150):
            heights = random_height_sequence(rng)
            d = ConnectingHom(heights, twists=random_twists(rng))
            kernel = d.kernel()
            for _ in range(20):
                q = random_probe_for(rng, heights)
                assert kernel.member(q) == d.evaluate(q).is_zero

    def test_integer_precompose_shifts_heights(self):
        d = ConnectingHom(HeightSequence(0), 2)
        kernel = d.kernel()
        assert kernel.heights == HeightSequence(0, {2: 1})
        assert kernel.member(Fraction(1, 2))
        assert not kernel.member(Fraction(1, 4))
        assert not kernel.member(Fraction(1, 3))
        # The shifted heights still describe exactly the vanishing locus.
        rng = Random(37)
        for _ in range(200):
            q = random_rational(rng)
            assert kernel.member(q) == d.evaluate(q).is_zero

    def test_twists_leave_kernel_alone(self):
        rng = Random(41)
        for _ in range(100):
            heights = random_height_sequence(rng)
            plain = ConnectingHom(heights)
            twisted = ConnectingHom(heights, twists=random_twists(rng))
            assert plain.kernel() == twisted.kernel()
            q = random_probe_for(rng, heights)
            assert plain.evaluate(q).is_zero == twisted.evaluate(q).is_zero

    def test_fractional_precompose_reembeds_at_zero(self):
        # The vanishing locus of the map q -> class(q/3) is 3Z, which does
        # not contain the integers; the reported kernel is the isomorphic
        # re-embedding, so vanishing implies membership but not conversely.
        d = ConnectingHom(HeightSequence(0), Fraction(1, 3))
        kernel = d.kernel()
        assert kernel == RankOneGroup.integers()
        assert d.evaluate(3).is_zero and kernel.member(3)
        assert kernel.member(1) and not d.evaluate(1).is_zero

    def test_mixed_precompose_shift(self):
        d = ConnectingHom(HeightSequence(0, {2: 1, 5: INFINITY}), Fraction(6, 5))
        assert d.kernel().heights == HeightSequence(0, {2: 2, 3: 1, 5: INFINITY})


class TestDoubleCoset:
    def test_beta_realizes_type(self):
        rng = Random(43)
        for _ in range(100):
            A = RankOneGroup(random_height_sequence(rng))
            assert beta(A).double_coset_class() == type_of(A.heights)

    def test_precompose_invariance(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: 3, 7: INFINITY})))
        assert d.precomposed_by(Fraction(3, 5)).double_coset_class() == d.double_coset_class()

    def test_twist_invariance(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: 3})))
        assert d.with_twist(7, 2, 10).double_coset_class() == d.double_coset_class()

    def test_random_perturbations(self):
        rng = Random(47)
        for _ in range(100):
            d = beta(RankOneGroup(random_height_sequence(rng)))
            perturbed = ConnectingHom(
                d.kernel_heights, random_unit_rational(rng), random_twists(rng)
            )
            assert perturbed.double_coset_class() == d.double_coset_class()


class TestSurjectivityCriterion:
    def test_finite_height_hits_all_p_power_classes(self):
        d = ConnectingHom(HeightSequence(0, {2: 3}), twists={2: (4, 7)})
        for r in range(1, 11):
            component = d.evaluate(Fraction(1, 2 ** (r + 3))).p_component(2)
            assert component.denominator == 2**r

    def test_infinite_height_misses_everything(self):
        d = beta(RankOneGroup(HeightSequence(0, {2: INFINITY})))
        for s in range(1, 11):
            assert d.evaluate(Fraction(1, 2**s)).p_component(2) == 0

    def test_random_homs(self):
        rng = Random(53)
        for _ in range(60):
            heights = random_height_sequence(rng, max_finite=6)
            d = ConnectingHom(heights, twists=random_twists(rng))
            for p in [2, 3, 5]:
                k = heights.height_at(p)
                if k == INFINITY:
                    assert all(
                        d.evaluate(Fraction(1, p**s)).p_component(p) == 0
                        for s in range(1, 7)
                    )
                else:
                    for r in range(1, 4):
                        component = d.evaluate(Fraction(1, p ** (r + k))).p_component(p)
                        assert component.denominator == p**r


def evaluate_applying_every_twist(heights, precompose, twists, q, parts=p_primary_parts):
    """Evaluation by the splitting of Q/Z, multiplying each finite-height
    p-component by the residue of whatever twist was given at p, identities
    included. ``parts`` splits a rational into its p-primary parts."""
    total = Fraction(0)
    for p, part in parts(Fraction(precompose) * q).items():
        k = heights.exceptions.get(p, heights.default)
        if k == INFINITY:
            continue
        mod_exp, unit = twists.get(p, (1, 1))
        total += mod_one(unit % p**mod_exp * p**k * part)
    return mod_one(total)


class TestTwistCanonicalForm:
    def test_identity_twist_is_dropped(self):
        plain = ConnectingHom(HeightSequence(0, {2: 3}))
        for twisted in [plain.with_twist(2, 1, 1), plain.with_twist(2, 3, 9)]:
            assert twisted == plain and hash(twisted) == hash(plain)
            assert twisted.twists == {}

    def test_twist_at_infinite_height_is_dropped(self):
        heights = HeightSequence(0, {5: INFINITY})
        twisted = ConnectingHom(heights, twists={5: (2, 7)})
        assert twisted == ConnectingHom(heights)
        assert hash(twisted) == hash(ConnectingHom(heights))
        cofinite = HeightSequence(INFINITY, {3: 1})
        kept = ConnectingHom(cofinite, twists={3: (2, 2), 7: (1, 3)})
        assert kept.twists == {3: (2, 2)}

    def test_unit_congruent_to_one_is_not_the_identity(self):
        # 5 is 1 mod 2 but sends 1/8 to 5/8.
        twisted = ConnectingHom(HeightSequence(0), twists={2: (3, 5)})
        assert twisted.twists == {2: (3, 5)}
        assert twisted.evaluate(Fraction(1, 8)) == QmodZElement(Fraction(5, 8))
        assert twisted != ConnectingHom(HeightSequence(0))

    def test_dropping_keeps_every_value(self):
        rng = Random(59)
        for _ in range(150):
            heights = random_height_sequence(rng)
            twists = random_twists(rng)
            for p in rng.sample([2, 3, 5, 7, 11, 13], 2):
                twists.setdefault(p, (rng.randint(1, 3), 1 + p ** rng.randint(1, 3)))
            precompose = random_unit_rational(rng)
            d = ConnectingHom(heights, precompose, twists)
            for p, twist in d.twists.items():
                assert twist[1] != 1 and heights.height_at(p) != INFINITY
            for _ in range(10):
                q = random_probe_for(rng, heights)
                expected = evaluate_applying_every_twist(heights, precompose, twists, q)
                assert d.evaluate(q).value == expected


class TestTwistModulusCap:
    def test_cap_just_above_the_limit(self):
        accepted = ConnectingHom(HeightSequence(0), twists={2: (32768, 3)})
        assert accepted.twists == {2: (32768, 3)}
        with pytest.raises(ResourceError):
            ConnectingHom(HeightSequence(0), twists={2: (32769, 3)})

    def test_non_positive_exponent_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ConnectingHom(HeightSequence(0), twists={2: (0, 1)})


#: Two primes near 10^6, where each proof by trial division is costly.
P, Q = 999983, 999979


def test_evaluate_and_kernel_prove_no_prime_again(monkeypatch):
    heights = HeightSequence(0, {P: 1})
    plain = ConnectingHom(heights)
    scaled = ConnectingHom(heights, P)
    q = Fraction(1, P * Q)
    value = QmodZElement(p_primary_parts(q)[Q])
    kernel = RankOneGroup(HeightSequence(0, {P: 2}))
    proven = count_proofs(monkeypatch)
    assert plain.evaluate(q) == value
    assert scaled.kernel() == kernel
    assert proven == []


def test_twist_at_a_support_prime_is_proven_once(monkeypatch):
    heights = HeightSequence(0, {P: 1})
    proven = count_proofs(monkeypatch)
    assert ConnectingHom(heights, twists={P: (1, 2)}).twists == {P: (1, 2)}
    assert proven == [P]


def test_evaluate_refuses_an_unproven_cofactor():
    # Under a negative bound no trial division runs; 25 must not pass as prime.
    with pytest.raises(FactorBoundError):
        ConnectingHom(HeightSequence(1)).evaluate(Fraction(1, 25), prime_bound=-5)


def test_evaluate_divides_out_a_support_prime_under_any_bound():
    d = ConnectingHom(HeightSequence(0, {5: 2}))
    assert d.evaluate(Fraction(1, 25), prime_bound=-5).is_zero


def kernel_heights_by_valuation(d):
    """The kernel heights from the definition: at each prime of the base
    support or of the precompose r, the base height shifted by the
    valuation of r and floored at 0, infinite heights kept."""
    base, r = d.kernel_heights, d.precompose
    primes = {*base.support, *factorize(r.numerator), *factorize(r.denominator)}
    entries = {}
    for p in primes:
        k = base.height_at(p)
        entries[p] = k if k == INFINITY else max(0, k + valuation(r, p))
    return HeightSequence(base.default, entries)


@given(st.integers(0, 2**32), st.sampled_from([53, 59, 61, 1009]), st.integers(-3, 3))
def test_kernel_matches_the_valuation_reference(seed, outside, e):
    # random_hom precomposes by fractions over the small primes; the extra
    # factor is a prime outside every support.
    d = random_hom(Random(seed))
    d = d.precomposed_by(Fraction(outside) ** e)
    kernel = d.kernel().heights
    expected = kernel_heights_by_valuation(d)
    assert kernel == expected and hash(kernel) == hash(expected)
    assert str(kernel) == str(expected)


#: A prime past the default factor bound.
M61 = 2**61 - 1


@pytest.mark.parametrize(
    "base, precompose",
    [
        (HeightSequence(INFINITY, {2: 1}), Fraction(1, M61)),
        (HeightSequence(INFINITY, {2: 1}), Fraction(M61)),
        (HeightSequence(0, {2: 1}), Fraction(1, M61)),
    ],
    ids=["inf-denominator", "inf-numerator", "0-denominator"],
)
def test_kernel_factors_only_what_its_default_makes_matter(monkeypatch, base, precompose):
    # Under inf the rest of the numerator changes nothing, and under 0 the
    # rest of the denominator is floored away.
    d = ConnectingHom(base, precompose)
    forbid_factorize(monkeypatch)
    assert d.kernel().heights == base


@pytest.mark.parametrize(
    "heights, precompose",
    [(HeightSequence(0), Fraction(M61)), (HeightSequence(1), Fraction(1, M61))],
    ids=["numerator-under-0", "denominator-under-1"],
)
def test_kernel_still_factors_a_rest_that_matters(heights, precompose):
    # Under 0 the height at 2^61 - 1 rises to 1; under 1 it falls to 0.
    with pytest.raises(FactorBoundError):
        ConnectingHom(heights, precompose).kernel()


def test_evaluate_builds_no_power_of_a_stored_height():
    # 2**(10**12) would not fit in memory; p^k * a/p^e vanishes for k >= e.
    d = ConnectingHom(HeightSequence(0, {2: 10**12}))
    assert d.evaluate(Fraction(1, 2)).is_zero
    # 1/6 = 1/2 + 2/3 mod 1, and the height at 3 is 0.
    assert d.evaluate(Fraction(1, 6)) == QmodZElement(Fraction(2, 3))


def test_p_component_reads_only_the_p_part_of_the_denominator():
    # The cofactor 2^61 - 1 is prime and past the default factor bound.
    value = QmodZElement(Fraction(1, 2 * (2**61 - 1)))
    assert value.p_component(2) == Fraction(1, 2)
    assert value.p_component(3) == 0
    with pytest.raises(FactorBoundError):
        p_primary_parts(value.value)


@given(
    st.integers(-10**4, 10**4),
    st.integers(1, 10**4),
    st.sampled_from([2, 3, 5, 7, 11, 13, 97]),
)
def test_p_component_is_the_p_primary_part(numerator, denominator, p):
    value = QmodZElement(Fraction(numerator, denominator))
    assert value.p_component(p) == p_primary_parts(value.value).get(p, 0)


@given(st.integers(0, 2**32))
def test_evaluate_matches_the_splitting_reference(seed):
    rng = Random(seed)
    d = random_hom(rng, random_height_sequence(rng, max_finite=6))
    for _ in range(5):
        q = random_rational(rng, exp_bound=8)
        expected = evaluate_applying_every_twist(d.kernel_heights, d.precompose, d.twists, q)
        assert d.evaluate(q).value == expected


def evaluate_by_known_factors(d, q):
    return evaluate_applying_every_twist(
        d.kernel_heights, d.precompose, d.twists, q, known_primary_parts
    )


@given(st.integers(0, 2**32), st.sampled_from([0, INFINITY, 1, 2]))
def test_evaluate_matches_known_factors(seed, default):
    rng = Random(seed)
    d = random_known_hom(rng, default)
    for _ in range(3):
        q = random_known_rational(rng, d.kernel_heights, d.twists)
        assert d.evaluate(q).value == evaluate_by_known_factors(d, q)


@given(st.integers(0, 2**32), st.sampled_from([0, INFINITY]), st.integers(-10**7, 10**7))
def test_evaluate_under_default_0_or_inf_never_factors(seed, default, prime_bound):
    rng = Random(seed)
    d = random_known_hom(rng, default)
    q = random_known_rational(rng, d.kernel_heights, d.twists)
    with pytest.MonkeyPatch.context() as patch:
        forbid_factorize(patch)
        value = d.evaluate(q, prime_bound)
    assert value.value == evaluate_by_known_factors(d, q)


#: Hom data over 2, 3 and 5 from a small space, where different data
#: often gives the same map.
oracle_heights = st.builds(
    HeightSequence,
    st.sampled_from([0, 1, INFINITY, INFINITY]),
    st.dictionaries(st.sampled_from([2, 3, 5]), st.sampled_from([0, 1, 2, INFINITY]), max_size=3),
)
oracle_precomposes = st.builds(
    Fraction, st.sampled_from([1, -1, 2, 3, -4, 6]), st.sampled_from([1, 2, 3, 4])
)
oracle_twists = st.dictionaries(
    st.sampled_from([3, 5]),
    st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 4, 7, 11, 13])),
    min_size=1,
    max_size=2,
)


@st.composite
def hom_families(draw):
    """Two to six homs built from two heights, two precomposes and two twist
    maps, so that many pairs share part of their data."""
    pools = [
        draw(st.lists(part, min_size=2, max_size=2))
        for part in (oracle_heights, oracle_precomposes, oracle_twists)
    ]
    choices = st.tuples(*map(st.sampled_from, pools))
    return [ConnectingHom(*data) for data in draw(st.lists(choices, min_size=2, max_size=6))]


def probe_values(d):
    """The values of d on n/p^j for n in 1 and 2, j <= 20, and p over the
    primes of the hom data plus two outside it. The p-part of a hom is
    q -> c*q. On this data c has valuation at most 4, and two unit parts
    differ by a fraction with numerator below 2^13, so two distinct c
    already differ on 1/p^17."""
    return [
        d.evaluate(Fraction(n, p**j)) for p in (2, 3, 5, 53, 59) for j in range(21) for n in (1, 2)
    ]


@given(hom_families())
def test_homs_are_equal_exactly_when_they_are_the_same_map(homs):
    values = [probe_values(d) for d in homs]
    for (a, a_values), (b, b_values) in itertools.combinations(zip(homs, values), 2):
        assert (a == b) == (a_values == b_values), (a, b)
        if a == b:
            assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "a, b",
    [
        # The same twist residue under two moduli.
        (
            ConnectingHom(HeightSequence(0), twists={2: (3, 3)}),
            ConnectingHom(HeightSequence(0), twists={2: (4, 3)}),
        ),
        # Both are the zero map.
        (ConnectingHom(HeightSequence(INFINITY)), ConnectingHom(HeightSequence(INFINITY), 2)),
        # Both multiply the 3-part by 2.
        (
            ConnectingHom(HeightSequence(INFINITY, {3: 0}), 2),
            ConnectingHom(HeightSequence(INFINITY, {3: 0}), twists={3: (1, 2)}),
        ),
    ],
    ids=["twist-modulus", "zero-map", "precompose-or-twist"],
)
def test_the_same_map_from_different_data_compares_equal(a, b):
    assert a == b and hash(a) == hash(b)
    assert probe_values(a) == probe_values(b)


def test_equality_builds_no_power_of_a_stored_height():
    # 2^(10^12) would not fit in memory; equal maps need only the exponent.
    a = ConnectingHom(HeightSequence(INFINITY, {2: 10**12}), Fraction(3, 4), {2: (5, 7)})
    b = ConnectingHom(HeightSequence(INFINITY, {2: 10**12 - 2}), 3, {2: (5, 7)})
    assert a == b and hash(a) == hash(b)
    assert a != ConnectingHom(HeightSequence(INFINITY, {2: 10**12}), 3, {2: (5, 7)})
