"""The shared per-prime types: equality, hashing and text forms.

HeightSequence, TypeClass, TorsionShape and PostnikovGenusDescriptor all
share one default-plus-exceptions representation, PrimeMap. A type stores
its canonical heights and a torsion shape is a map of booleans. These tests
pin the contracts the sharing must keep: equal values hash equally, values
of different kinds never compare equal, and the printed forms are
unchanged.
"""

import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    STAR,
    ConnectingHom,
    DomainError,
    FakeSphereModel,
    FiniteComplexDescriptor,
    HeightSequence,
    Neisendorfer,
    PAdicApprox,
    PostnikovGenusDescriptor,
    PostnikovSection,
    QmodZElement,
    RankOneGroup,
    RationalGenusElement,
    TorsionShape,
    TypeClass,
    finite_complex_genus_verdict,
    type_of,
)
from locgenus.arith import _Value

from genlib import SMALL_PRIMES, random_height_sequence, random_rational

naturals = st.integers(0, 6)
heights = st.one_of(naturals, st.just(INFINITY))
nat_plus = st.one_of(naturals, st.just(STAR))
natural_entries = st.dictionaries(st.sampled_from(SMALL_PRIMES), naturals, max_size=5)
prime_sets = st.frozensets(st.sampled_from(SMALL_PRIMES), max_size=5)


def old_torsion_text(shape):
    """The torsion line the command line printed before TorsionShape had a
    text form of its own."""
    primes = ",".join(str(p) for p in sorted(shape.listed_primes))
    if shape.is_cofinite:
        return f"all_except {primes}" if primes else "all"
    return primes if primes else "none"


class TestEqualMapsHashEqually:
    @given(heights, st.dictionaries(st.sampled_from(SMALL_PRIMES), heights, max_size=5))
    def test_height_sequences(self, default, exceptions):
        padded = dict(reversed(list(exceptions.items())))
        padded.update({p: default for p in SMALL_PRIMES if p not in exceptions})
        a, b = HeightSequence(default, exceptions), HeightSequence(default, padded)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)

    @given(
        st.sampled_from([3, 5, 7]),
        nat_plus,
        st.dictionaries(st.sampled_from(SMALL_PRIMES), nat_plus, max_size=5),
    )
    def test_descriptors(self, dimension, default, exceptions):
        padded = dict(reversed(list(exceptions.items())))
        padded.update({p: default for p in SMALL_PRIMES[:6] if p not in exceptions})
        a = PostnikovGenusDescriptor(dimension, default, exceptions)
        b = PostnikovGenusDescriptor(dimension, default, padded)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)

    def test_equal_types_hash_equally(self):
        rng = Random(101)
        types = [type_of(random_height_sequence(rng)) for _ in range(120)]
        equal_pairs = 0
        for a in types:
            for b in types:
                if a == b:
                    equal_pairs += 1
                    assert hash(a) == hash(b)
        assert equal_pairs > len(types)


class TestKindsStayApart:
    @given(naturals, natural_entries)
    def test_heights_never_equal_descriptors(self, default, exceptions):
        h = HeightSequence(default, exceptions)
        d = PostnikovGenusDescriptor(3, default, exceptions)
        assert str(h) == str(d)
        assert h != d and d != h
        assert len({h, d}) == 2

    @given(nat_plus, st.dictionaries(st.sampled_from(SMALL_PRIMES), nat_plus, max_size=5))
    def test_dimension_separates_descriptors(self, default, exceptions):
        d3 = PostnikovGenusDescriptor(3, default, exceptions)
        d5 = PostnikovGenusDescriptor(5, default, exceptions)
        assert str(d3) == str(d5)
        assert d3 != d5

    def test_torsion_shape_is_not_a_type(self):
        assert TorsionShape({2}) != TypeClass(0, infinite_primes={2})


class TestTorsionText:
    def test_named_cases(self):
        cases = {
            TorsionShape(): "none",
            TorsionShape({5, 2}): "2,5",
            TorsionShape((), complement=True): "all",
            TorsionShape({7, 3}, complement=True): "all_except 3,7",
        }
        for shape, text in cases.items():
            assert str(shape) == text == old_torsion_text(shape)

    @given(prime_sets, st.booleans())
    def test_matches_old_command_line_text(self, primes, complement):
        shape = TorsionShape(primes, complement=complement)
        assert str(shape) == old_torsion_text(shape)

    def test_from_heights_matches_type(self):
        rng = Random(103)
        for _ in range(300):
            h = random_height_sequence(rng)
            shape = TorsionShape.from_heights(h)
            t = type_of(h)
            assert shape.listed_primes == t.infinite_primes | t.finite_primes
            assert shape.is_cofinite == (t.default == INFINITY)


def value_types(cls=_Value):
    """Every concrete value type: the leaves below ``_Value``."""
    below = cls.__subclasses__()
    return {leaf for sub in below for leaf in value_types(sub)} if below else {cls}


def small_values(rng):
    """One value of each type, drawn from a small space so that equal
    values built apart are common."""
    pick = rng.choice
    heights = HeightSequence(
        pick([0, 1, INFINITY]),
        {p: pick([0, 1, INFINITY]) for p in rng.sample([2, 3, 5], rng.randint(0, 2))},
    )
    descriptor = PostnikovGenusDescriptor(
        3, pick([0, STAR]), {p: pick([0, 1, STAR]) for p in rng.sample([2, 3], rng.randint(0, 2))}
    )
    twists = {p: (rng.randint(1, 2), pick([1, 5, 7])) for p in rng.sample([2, 3], rng.randint(0, 1))}
    hom = ConnectingHom(heights, pick([1, 2, Fraction(1, 2)]), twists)
    complex_descriptor = FiniteComplexDescriptor.from_tag(pick(["S3", "CP2", "S2xS5"]))
    functor = pick([Neisendorfer(), PostnikovSection(pick([2, 3]))])
    return [
        heights,
        type_of(heights),
        TorsionShape.from_heights(heights),
        RankOneGroup(heights),
        hom,
        RationalGenusElement(pick([3, 5]), hom),
        descriptor,
        FakeSphereModel(descriptor),
        QmodZElement(Fraction(rng.randint(-4, 4), 4)),
        pick([INFINITY, STAR]),
        PAdicApprox.from_int(rng.randint(-2, 2), pick([2, 3]), 2),
        functor,
        complex_descriptor,
        finite_complex_genus_verdict(complex_descriptor, functor),
    ]


class TestQmodZHashContract:
    def test_equal_implies_equal_hash(self):
        rng = Random(107)
        values = [random_rational(rng) for _ in range(150)]
        values += [Fraction(k, 2) for k in range(-4, 5)] + [0, 1, -3]
        elements = [QmodZElement(v) for v in values]
        samples = elements + values
        for _ in range(40):
            samples += small_values(rng)
        assert value_types() <= {type(x) for x in samples}
        equal_apart = set()
        for x in samples:
            for y in samples:
                if x == y:
                    assert hash(x) == hash(y), (x, y)
                    if x is not y:
                        equal_apart.add(type(x))
        # The sentinels are singletons: nothing else equals them.
        assert value_types() - {type(INFINITY), type(STAR)} <= equal_apart

    def test_height_sequence_never_equals_type_with_the_same_data(self):
        t = TypeClass(0, infinite_primes={2})
        h = HeightSequence(0, {2: INFINITY})
        assert str(h) == str(t) and h == t.canonical_heights()
        assert h != t and t != h
        assert len({h, t}) == 2

    def test_elements_do_not_equal_plain_numbers(self):
        assert QmodZElement(0) != 0
        assert QmodZElement(Fraction(1, 2)) != Fraction(3, 2)
        assert QmodZElement(Fraction(1, 2)) == QmodZElement(Fraction(3, 2))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_value_type_pickles(protocol):
    rng = Random(113)
    seen = set()
    for _ in range(20):
        for value in small_values(rng):
            twin = pickle.loads(pickle.dumps(value, protocol))
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value), (value, protocol)
            seen.add(type(value))
    assert value_types() <= seen


def locus_by_hand(h):
    """(cofinite, listed primes) of the infinite-height locus of h, read
    entry by entry."""
    cofinite = h.default == INFINITY
    listed = {p for p in h.support if (h.height_at(p) == INFINITY) != cofinite}
    return cofinite, listed


class TestTrustedConstructionMatchesValidated:
    def test_type_of_equals_constructed_type(self):
        rng = Random(109)
        for _ in range(300):
            h = random_height_sequence(rng)
            cofinite, listed = locus_by_hand(h)
            if cofinite:
                built = TypeClass(h.default, finite_primes=listed)
            else:
                built = TypeClass(h.default, infinite_primes=listed)
            got = type_of(h)
            assert got == built and hash(got) == hash(built)
            assert repr(got) == repr(built)
            canonical = got.canonical_heights()
            validated = HeightSequence(built.default, built.exceptions)
            assert canonical == validated and hash(canonical) == hash(validated)

    def test_from_heights_equals_constructed_shape(self):
        rng = Random(113)
        for _ in range(300):
            h = random_height_sequence(rng)
            cofinite, listed = locus_by_hand(h)
            built = TorsionShape(listed, complement=cofinite)
            got = TorsionShape.from_heights(h)
            assert got == built and hash(got) == hash(built)
            assert str(got) == str(built)

    @given(prime_sets, st.sampled_from([0, 1, 2, "", "x", None]))
    def test_complement_must_be_a_bool(self, primes, complement):
        # A flag is a bool: a merely truthy or falsy value is refused, not read.
        with pytest.raises(DomainError):
            TorsionShape(primes, complement=complement)
        for flag in (False, True):
            assert TorsionShape(primes, complement=flag).is_cofinite is flag


class TestTypeAndShapeForms:
    def test_type_is_not_its_height_sequence(self):
        t = TypeClass(0, infinite_primes={2})
        h = HeightSequence(0, {2: INFINITY})
        assert str(t) == str(h)
        assert t != h and h != t
        assert len({t, h}) == 2

    def test_pinned_reprs(self):
        assert repr(type_of(HeightSequence(INFINITY, {3: 5}))) == "TypeClass({default:inf, 3:0})"
        assert repr(TorsionShape({7, 3}, complement=True)) == "TorsionShape(all_except 3,7)"
        assert repr(FakeSphereModel(PostnikovGenusDescriptor(3, 0, {2: 5}))) == (
            "FakeSphereModel(PostnikovGenusDescriptor(dimension=3, {default:0, 2:5}))"
        )

    def test_contains_proves_its_argument_prime(self):
        with pytest.raises(DomainError):
            TorsionShape({2}).contains(4)
