from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    STAR,
    ConnectingHom,
    DomainError,
    EnumerationLimitError,
    FactorBoundError,
    FakeSphereModel,
    FingerprintCapError,
    FiniteComplexDescriptor,
    HeightSequence,
    Neisendorfer,
    PAdicApprox,
    PostnikovGenusDescriptor,
    PostnikovSection,
    RankOneGroup,
    RationalGenusElement,
    TorsionShape,
    TypeClass,
    VerdictKind,
    assemble_global,
    beta,
    build_fake_sphere,
    classify_postnikov_genus,
    classifying_map_class,
    cp_fake_descriptor,
    enumerate_postnikov_genus,
    finite_complex_genus_verdict,
    genus,
    type_of,
)

from genlib import BIG_PRIMES, SMALL_PRIMES, forbid_factorize, known_factors, random_hom


class TestTorsionShape:
    def test_from_finite_default(self):
        shape = TorsionShape.from_heights(HeightSequence(0, {2: INFINITY, 3: 4}))
        assert shape == TorsionShape({2})
        assert shape.contains(2) and not shape.contains(3)
        assert not shape.is_empty

    def test_from_infinite_default(self):
        shape = TorsionShape.from_heights(HeightSequence(INFINITY, {3: 4}))
        assert shape == TorsionShape({3}, complement=True)
        assert shape.contains(2) and not shape.contains(3)
        assert shape.is_cofinite

    def test_empty(self):
        assert TorsionShape.from_heights(HeightSequence(0, {3: 4})).is_empty

    def test_validation(self):
        with pytest.raises(DomainError):
            TorsionShape({6})


class TestRationalGenusElement:
    def test_dimension_must_be_odd(self):
        hom = beta(RankOneGroup.integers())
        with pytest.raises(DomainError):
            RationalGenusElement(4, hom)
        with pytest.raises(DomainError):
            RationalGenusElement(1, hom)

    def test_standard_sphere_data(self):
        element = RationalGenusElement(3, beta(RankOneGroup.integers()))
        pi_n, torsion = element.homotopy_groups()
        assert pi_n == TypeClass(0)
        assert torsion.is_empty
        assert element.is_n_minus_1_connected()

    def test_zero_map_splits(self):
        element = RationalGenusElement(3, ConnectingHom(HeightSequence(INFINITY)))
        pi_n, torsion = element.homotopy_groups()
        assert pi_n == TypeClass(INFINITY)
        assert torsion == TorsionShape((), complement=True)
        assert not element.is_n_minus_1_connected()

    def test_inverted_prime(self):
        element = RationalGenusElement(
            5, beta(RankOneGroup(HeightSequence(0, {2: INFINITY})))
        )
        pi_n, torsion = element.homotopy_groups()
        assert pi_n == TypeClass(0, infinite_primes={2})
        assert torsion == TorsionShape({2})
        assert not element.is_n_minus_1_connected()

    def test_pseudo_integer_heights_are_connected(self):
        element = RationalGenusElement(
            3, beta(RankOneGroup(HeightSequence(0, {3: 2})))
        )
        assert element.is_n_minus_1_connected()
        # Surjectivity witnessed by evaluation probes.
        hom = element.hom
        for r in range(1, 4):
            assert hom.evaluate(Fraction(1, 3 ** (r + 2))).p_component(3).denominator == 3**r

    def test_elements_compare_as_the_member_they_name(self):
        hom = ConnectingHom(HeightSequence(0, {2: 1}))
        same = RationalGenusElement(3, hom.precomposed_by(1))
        assert RationalGenusElement(3, hom) == same and len({RationalGenusElement(3, hom), same}) == 1
        assert RationalGenusElement(5, hom) != same
        assert RationalGenusElement(3, hom.precomposed_by(3)) != same

    def test_classify_matches_kernel_type(self):
        rng = Random(61)
        for _ in range(100):
            hom = random_hom(rng)
            element = RationalGenusElement(3, hom)
            assert element.classify() == type_of(hom.kernel().heights)

    def test_exact_sequence_consistency(self):
        rng = Random(67)
        primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
        for _ in range(60):
            hom = random_hom(rng)
            _, torsion = RationalGenusElement(3, hom).homotopy_groups()
            kernel_heights = hom.kernel().heights
            for p in primes:
                finite_height = kernel_heights.height_at(p) != INFINITY
                assert finite_height == (not torsion.contains(p))
            # Torsion primes are exactly where evaluation misses the
            # p-primary classes.
            for p in set(kernel_heights.support) | {2, 3}:
                k = kernel_heights.height_at(p)
                if torsion.contains(p):
                    assert all(
                        hom.evaluate(Fraction(1, p**s)).p_component(p) == 0
                        for s in range(1, 4)
                    )
                else:
                    hit = hom.evaluate(Fraction(1, p ** (k + 1))).p_component(p)
                    assert hit != 0


def kernel_invariants_by_valuation(hom):
    """The type, torsion and finiteness of the kernel heights, built from
    the definition: at each prime of the base support or of the precompose
    r, the base height shifted by v_p(r) and floored at 0, infinite heights
    kept. The valuations are read off ``known_factors``, since every test
    builds r from the known primes, so nothing is factored."""
    base, r = hom.kernel_heights, hom.precompose
    up, down = known_factors(abs(r.numerator)), known_factors(r.denominator)
    entries = {}
    for p in {*base.support, *up, *down}:
        k = base.height_at(p)
        entries[p] = k if k == INFINITY else max(0, k + up.get(p, 0) - down.get(p, 0))
    kernel = HeightSequence(base.default, entries)
    infinite = {p for p in kernel.support if kernel.height_at(p) == INFINITY}
    if kernel.default == INFINITY:
        finite = set(kernel.support) - infinite
        torsion = TorsionShape(finite, complement=True)
        return TypeClass(INFINITY, finite_primes=finite), torsion, False
    return TypeClass(kernel.default, infinite), TorsionShape(infinite), not infinite


def rational_invariants(hom):
    """What the four entry points answer for hom, in the oracle's order."""
    element = RationalGenusElement(3, hom)
    kind, torsion = element.homotopy_groups()
    assert element.classify() == hom.double_coset_class() == kind
    return kind, torsion, element.is_n_minus_1_connected()


#: Powers of small primes and of the primes near 10^6, exponents -3..3.
prime_powers = st.tuples(st.sampled_from([*SMALL_PRIMES[:6], *BIG_PRIMES]), st.integers(-3, 3))


@given(st.integers(0, 2**32), st.lists(prime_powers, max_size=3))
def test_rational_invariants_match_the_kernel_by_valuation(seed, powers):
    hom = random_hom(Random(seed))
    for p, e in powers:
        hom = hom.precomposed_by(Fraction(p) ** e)
    assert rational_invariants(hom) == kernel_invariants_by_valuation(hom)


def test_rational_invariants_build_no_kernel_and_never_factor(monkeypatch):
    rng = Random(73)
    # Each hom is pre-composed by 1000003/1000033 or by its inverse.
    ratios = [Fraction(*rng.sample(BIG_PRIMES, 2)) for _ in range(40)]
    homs = [random_hom(rng).precomposed_by(r) for r in ratios]
    homs.append(ConnectingHom(HeightSequence(1), BIG_PRIMES[0] * BIG_PRIMES[1]))
    expected = list(map(kernel_invariants_by_valuation, homs))

    def refuse(self):
        raise AssertionError("ConnectingHom.kernel was called")

    forbid_factorize(monkeypatch)
    monkeypatch.setattr(ConnectingHom, "kernel", refuse)
    assert list(map(rational_invariants, homs)) == expected


def test_rational_invariants_past_the_factor_bound():
    # The product of the two primes near 10^6 cannot be factored under the
    # default bound, and under default 1 only the kernel needs it factored.
    hom = ConnectingHom(HeightSequence(1), 1000003 * 1000033)
    element = RationalGenusElement(3, hom)
    assert element.classify() == TypeClass(1)
    assert element.homotopy_groups() == (TypeClass(1), TorsionShape())
    assert element.is_n_minus_1_connected() is True
    assert hom.double_coset_class() == TypeClass(1)
    with pytest.raises(FactorBoundError):
        hom.kernel()


class TestPostnikovDescriptor:
    def test_normalization_and_lookup(self):
        d = PostnikovGenusDescriptor(3, STAR, {2: 3, 5: STAR})
        assert d.exceptions == {2: 3}
        assert d.entry_at(2) == 3
        assert d.entry_at(7) == STAR

    def test_validation(self):
        with pytest.raises(DomainError):
            PostnikovGenusDescriptor(4, 0)
        with pytest.raises(DomainError):
            PostnikovGenusDescriptor(3, -1)
        with pytest.raises(DomainError):
            PostnikovGenusDescriptor(3, 0, {6: 1})
        with pytest.raises(DomainError):
            PostnikovGenusDescriptor(3, 0, {2: INFINITY})

    def test_standard(self):
        assert PostnikovGenusDescriptor(3, 0).is_standard
        assert not PostnikovGenusDescriptor(3, 0, {2: 1}).is_standard


class TestFakeSpheres:
    def test_single_prime_descriptor(self):
        model = build_fake_sphere(5, 2, 3)
        assert model.descriptor == PostnikovGenusDescriptor(5, STAR, {2: 3})

    def test_completed_sphere_at_p(self):
        model = build_fake_sphere(3, 3, 0)
        assert model.descriptor == PostnikovGenusDescriptor(3, STAR, {3: 0})
        assert model.fingerprint(3) == 0

    def test_base_point_is_product_model(self):
        model = build_fake_sphere(3, 3, STAR)
        assert model.descriptor == PostnikovGenusDescriptor(3, STAR)
        assert model.vanishes_identically(3)
        assert model.fingerprint(3) == STAR

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            build_fake_sphere(4, 2, 1)
        with pytest.raises(DomainError):
            build_fake_sphere(1, 2, 1)

    def test_assemble_global_dimension_mismatch(self):
        with pytest.raises(DomainError):
            assemble_global(5, PostnikovGenusDescriptor(3, 0))

    def test_restriction_matches_single_prime_construction(self):
        descriptor = PostnikovGenusDescriptor(3, 0, {2: 1, 5: 2, 7: STAR})
        model = assemble_global(3, descriptor)
        for p in (2, 3, 5, 7):
            assert model.restrict_to_prime(p) == build_fake_sphere(
                3, p, descriptor.entry_at(p)
            )


class TestFingerprint:
    def test_divisibility_oracle(self):
        model = build_fake_sphere(3, 2, 3)
        assert not model.operation_vanishes(2, 4)
        assert model.operation_vanishes(2, 8)
        assert model.operation_vanishes(2, 24)
        assert not model.operation_vanishes(2, 12)

    def test_examples(self):
        n = 5
        assert build_fake_sphere(n, 2, 0).fingerprint(2) == 0
        assert build_fake_sphere(n, 2, 3).fingerprint(2) == 3
        assert build_fake_sphere(n, 5, 2).fingerprint(5) == 2

    def test_cap_error(self):
        model = assemble_global(3, PostnikovGenusDescriptor(3, 0, {2: 80}))
        with pytest.raises(FingerprintCapError):
            model.fingerprint(2)
        assert model.fingerprint(2, cap=100) == 80

    def test_classification_roundtrip(self):
        for n in (3, 5, 7):
            for p in (2, 3, 5):
                for k in [STAR] + list(range(6)):
                    model = build_fake_sphere(n, p, k)
                    assert classify_postnikov_genus(model) == model.descriptor

    def test_classify_standard_sphere(self):
        model = assemble_global(3, PostnikovGenusDescriptor(3, 0))
        assert model.classify() == PostnikovGenusDescriptor(3, 0)

    def test_classify_product_model(self):
        model = assemble_global(3, PostnikovGenusDescriptor(3, STAR))
        assert model.classify() == PostnikovGenusDescriptor(3, STAR)

    def test_classify_mixed(self):
        descriptor = PostnikovGenusDescriptor(7, 0, {2: 1, 5: 2, 11: STAR})
        assert assemble_global(7, descriptor).classify() == descriptor


def linear_fingerprint(model, p, cap):
    """The least k <= cap whose public probe vanishes, or None for a refusal."""
    if model.vanishes_identically(p):
        return STAR
    for k in range(cap + 1):
        if model.operation_vanishes(p, p**k):
            return k
    return None


def ceil_log2(n):
    return (n - 1).bit_length()


def count_probes(monkeypatch):
    """Record the exponent j of every probe (at p^j) the fingerprint search makes."""
    probes = []
    exponent_probe = genus._probe

    def probe(entry, j):
        probes.append(j)
        return exponent_probe(entry, j)

    monkeypatch.setattr(genus, "_probe", probe)
    return probes


def test_a_probe_by_exponents_is_the_divisibility_rule():
    for p in (2, 3, 97):
        for entry in [*range(73), STAR]:
            for j in range(71):
                assert genus._probe(entry, j) == genus._divides(p, entry, p**j), (p, entry, j)


@given(
    st.sampled_from([2, 3, 5, 97]),
    st.integers(0, 70),
    st.data(),
)
def test_galloping_fingerprint_matches_the_linear_search(p, cap, data):
    entry = data.draw(st.one_of(st.integers(0, cap + 5), st.just(STAR)))
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {p: entry}))
    expected = linear_fingerprint(model, p, cap)
    with pytest.MonkeyPatch.context() as monkeypatch:
        probes = count_probes(monkeypatch)
        if expected is None:
            with pytest.raises(FingerprintCapError, match=f"at {p} .* cap {cap}$"):
                model.fingerprint(p, cap)
        else:
            assert model.fingerprint(p, cap) == expected
    if expected is None:
        assert len(probes) <= ceil_log2(cap + 1) + 1
        assert max(probes) == cap
    elif expected != STAR:
        assert len(probes) <= 2 * ceil_log2(expected + 1) + 1
        assert max(probes) <= min(cap, 2 * expected + 1)


@given(
    st.integers(0, 70),
    st.one_of(st.integers(0, 72), st.just(STAR)),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), st.one_of(st.integers(0, 72), st.just(STAR))),
)
def test_classify_matches_the_linear_search(cap, default, entries):
    descriptor = PostnikovGenusDescriptor(5, default, entries)
    model = FakeSphereModel(descriptor)
    # The default is read at the smallest prime off the support, then the
    # support in ascending order; the first refusal is the one raised.
    first = next(p for p in (2, 3, 5, 7, 11, 13) if p not in descriptor.support)
    for p in (first, *descriptor.support):
        if linear_fingerprint(model, p, cap) is None:
            with pytest.raises(FingerprintCapError, match=f"at {p} "):
                model.classify(cap)
            return
    assert model.classify(cap) == descriptor


def test_classify_proves_each_prime_once(monkeypatch):
    calls = []
    is_prime = genus.is_prime
    monkeypatch.setattr(genus, "is_prime", lambda n: calls.append(n) or is_prime(n))
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {2: 40, 3: 7, 5: STAR}))
    assert model.classify() == model.descriptor
    # Only the search for the prime that reveals the default tests numbers,
    # odd ones only, each once; the support was proven when the descriptor
    # was built.
    assert calls == [7]


def test_huge_cap_answers_at_once(monkeypatch):
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {2: 5}))
    probes = count_probes(monkeypatch)
    assert model.fingerprint(2, cap=10**18) == 5
    assert probes == [0, 1, 3, 7, 5, 4]


@pytest.mark.parametrize("cap", [-1, True, False, 1.5, None, "3", Fraction(3)])
def test_bad_caps_are_refused_before_any_probe(monkeypatch, cap):
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {2: 70}))
    probes = count_probes(monkeypatch)
    for call in (
        lambda: model.fingerprint(3, cap),
        lambda: model.fingerprint(3, cap=cap),
        lambda: model.classify(cap),
        lambda: classify_postnikov_genus(model, cap),
    ):
        with pytest.raises(DomainError, match="fingerprint cap"):
            call()
    assert probes == []


def test_a_cap_of_zero_is_valid():
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {2: 1}))
    assert model.fingerprint(3, cap=0) == 0
    with pytest.raises(FingerprintCapError):
        model.fingerprint(2, cap=0)


def test_operation_vanishes_still_proves_its_prime():
    with pytest.raises(DomainError, match="4 is not prime"):
        build_fake_sphere(3, 2, 1).operation_vanishes(4, 8)


class TestClassifyingMapClass:
    def test_valuation_class(self):
        assert classifying_map_class(3, 2, PAdicApprox.from_int(12, 2)) == 2

    def test_zero_is_base_point(self):
        assert classifying_map_class(3, 2, PAdicApprox.zero(2)) == STAR

    def test_negative_one_is_a_unit(self):
        assert classifying_map_class(3, 2, PAdicApprox.from_int(-1, 2)) == 0

    def test_sign_action_is_trivial(self):
        rng = Random(71)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11])
            z = PAdicApprox.from_int(rng.randint(1, 10**6), p)
            assert classifying_map_class(3, p, z) == classifying_map_class(3, p, -z)

    def test_validation(self):
        with pytest.raises(DomainError):
            classifying_map_class(4, 2, PAdicApprox.from_int(1, 2))
        with pytest.raises(DomainError):
            classifying_map_class(3, 3, PAdicApprox.from_int(1, 2))


class TestCpDescriptors:
    def test_examples(self):
        assert cp_fake_descriptor(1, {3: 1}) == PostnikovGenusDescriptor(3, 0, {3: 1})
        assert cp_fake_descriptor(3, {}) == PostnikovGenusDescriptor(7, 0)
        assert cp_fake_descriptor(2, {3: 2}) == PostnikovGenusDescriptor(5, 0, {3: 4})

    def test_zero_exponents_are_standard(self):
        assert cp_fake_descriptor(2, {2: 0, 3: 0}).is_standard

    def test_pullback_fingerprint_compatibility(self):
        for n in (1, 2, 3, 4):
            for p in (2, 3, 5, 7, 11, 13):
                for k in range(6):
                    descriptor = cp_fake_descriptor(n, {p: k})
                    model = assemble_global(2 * n + 1, descriptor)
                    assert model.fingerprint(p) == n * k

    def test_distinct_exponents_distinct_classes(self):
        classes = {cp_fake_descriptor(2, {3: k}) for k in range(8)}
        assert len(classes) == 8

    def test_validation(self):
        with pytest.raises(DomainError):
            cp_fake_descriptor(0, {2: 1})
        with pytest.raises(DomainError):
            cp_fake_descriptor(2, {4: 1})
        with pytest.raises(DomainError):
            cp_fake_descriptor(2, {2: -1})


class TestEnumerate:
    def test_smallest_case(self):
        descriptors = enumerate_postnikov_genus(3, 2, 0)
        assert descriptors == [
            PostnikovGenusDescriptor(3, 0),
            PostnikovGenusDescriptor(3, 0, {2: STAR}),
        ]

    def test_nine_descriptors(self):
        descriptors = enumerate_postnikov_genus(3, 3, 1)
        assert len(descriptors) == 9
        assert len(set(descriptors)) == 9
        assert descriptors[0].is_standard

    def test_two_hundred_fifty_six(self):
        assert len(enumerate_postnikov_genus(3, 10, 2)) == 256

    def test_count_formula(self):
        for prime_bound, entry_bound, prime_count in [(2, 3, 1), (5, 1, 3), (7, 2, 4)]:
            descriptors = enumerate_postnikov_genus(3, prime_bound, entry_bound)
            assert len(descriptors) == (entry_bound + 2) ** prime_count

    def test_deterministic_order(self):
        assert enumerate_postnikov_genus(3, 5, 1) == enumerate_postnikov_genus(3, 5, 1)

    def test_guard(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_postnikov_genus(3, 100, 9)

    def test_validation(self):
        with pytest.raises(DomainError):
            enumerate_postnikov_genus(3, 1, 2)
        with pytest.raises(DomainError):
            enumerate_postnikov_genus(3, 5, -1)


class TestFiniteComplexCatalogue:
    def test_sphere_metadata(self):
        s3 = FiniteComplexDescriptor.from_tag("S3")
        assert s3.pi2_finite and s3.rational_vanishing_level == 3
        s2 = FiniteComplexDescriptor.from_tag("S2")
        assert not s2.pi2_finite and s2.rational_vanishing_level == 3
        s4 = FiniteComplexDescriptor.from_tag("S4")
        assert s4.pi2_finite and s4.rational_vanishing_level == 7

    def test_projective_metadata(self):
        cp2 = FiniteComplexDescriptor.from_tag("CP2")
        assert not cp2.pi2_finite and cp2.rational_vanishing_level == 5

    def test_products(self):
        assert FiniteComplexDescriptor.from_tag("S2xS5").tag == "S2xS5"
        assert FiniteComplexDescriptor.from_tag("cp2xs3").tag == "CP2xS3"

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            FiniteComplexDescriptor.from_tag("T4")
        with pytest.raises(DomainError):
            FiniteComplexDescriptor.from_tag("S1")


#: A catalogued factor: a sphere S2..S12 or a projective space CP1..CP6.
FACTOR = st.one_of(
    st.tuples(st.just("S"), st.integers(2, 12)), st.tuples(st.just("CP"), st.integers(1, 6))
)


def rational_degrees(kind, n):
    """The degrees in which a factor has rational homotopy: the generators
    of its minimal model. An odd sphere has one, an even sphere a second
    that kills the square of the first, and CP<n> a second that kills the
    (n + 1)st power of the first."""
    if kind == "CP":
        return {2, 2 * n + 1}
    return {n} if n % 2 else {n, 2 * n - 1}


def spelled(factors, draw):
    """The factors joined by x in a random order, each in a random case."""
    case = st.sampled_from([str.upper, str.lower])
    return "".join(draw(case)(f"x{kind}{n}") for kind, n in draw(st.permutations(factors)))[1:]


@given(st.lists(FACTOR, min_size=1, max_size=4), st.data())
def test_a_product_has_the_invariants_of_its_factors(factors, data):
    descriptor = FiniteComplexDescriptor.from_tag(spelled(factors, data.draw))
    degrees = set().union(*(rational_degrees(kind, n) for kind, n in factors))
    # pi_2 is finitely generated, so it is finite exactly when it has no
    # rational part; the rational homotopy of a product is the factors' sum.
    assert descriptor.pi2_finite == (2 not in degrees)
    assert descriptor.rational_vanishing_level == max(degrees)
    # The projective spaces come first, then the spheres, each ascending.
    canonical = sorted(factors, key=lambda factor: (factor[0] != "CP", factor[1]))
    assert descriptor.tag == "x".join(f"{kind}{n}" for kind, n in canonical)
    assert FiniteComplexDescriptor.from_tag(descriptor.tag) == descriptor


@given(st.lists(FACTOR, min_size=1, max_size=4), st.data())
def test_a_product_is_the_same_in_every_spelling(factors, data):
    first, second = (FiniteComplexDescriptor.from_tag(spelled(factors, data.draw)) for _ in "ab")
    assert first == second and first.tag == second.tag
    for functor in [Neisendorfer(), *map(PostnikovSection, range(1, 13))]:
        assert finite_complex_genus_verdict(first, functor) == finite_complex_genus_verdict(
            second, functor
        )


class TestVerdicts:
    def test_neisendorfer_singleton(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("S3"), Neisendorfer()
        )
        assert verdict.kind == VerdictKind.SINGLETON
        assert verdict.witness is None

    def test_postnikov_singleton_among_finite(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("S3"), PostnikovSection(3)
        )
        assert verdict.kind == VerdictKind.SINGLETON_AMONG_FINITE

    def test_split_counterexample(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("S2xS5"), PostnikovSection(2)
        )
        assert verdict.kind == VerdictKind.HYPOTHESES_NOT_MET
        assert verdict.witness == "CP2xS3"

    def test_split_counterexample_is_symmetric(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("CP2xS3"), PostnikovSection(2)
        )
        assert verdict.kind == VerdictKind.HYPOTHESES_NOT_MET
        assert verdict.witness == "S2xS5"

    def test_low_section_on_sphere_fails_hypotheses(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("S5"), PostnikovSection(2)
        )
        assert verdict.kind == VerdictKind.HYPOTHESES_NOT_MET
        assert verdict.witness is None

    def test_unknown_functor_is_refused(self):
        with pytest.raises(DomainError, match="unknown genus functor 'neisendorfer'"):
            finite_complex_genus_verdict(FiniteComplexDescriptor.from_tag("S3"), "neisendorfer")

    def test_neisendorfer_needs_finite_pi2(self):
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("CP2"), Neisendorfer()
        )
        assert verdict.kind == VerdictKind.HYPOTHESES_NOT_MET

    def test_standard_sphere_is_the_unique_finite_complex(self):
        model = assemble_global(3, PostnikovGenusDescriptor(3, 0))
        assert model.classify().is_standard
        verdict = finite_complex_genus_verdict(
            FiniteComplexDescriptor.from_tag("S3"), PostnikovSection(3)
        )
        assert verdict.kind == VerdictKind.SINGLETON_AMONG_FINITE
