"""The shared per-prime types: equality, hashing and text forms.

HeightSequence and PostnikovGenusDescriptor share one default-plus-
exceptions representation, and TorsionShape and the infinite-height locus
of a TypeClass share one finite-or-cofinite prime set. These tests pin the
contracts the sharing must keep: equal values hash equally, values of
different kinds never compare equal, and the printed forms are unchanged.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    STAR,
    HeightSequence,
    PostnikovGenusDescriptor,
    QmodZElement,
    TorsionShape,
    TypeClass,
    type_of,
)

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


class TestQmodZHashContract:
    def test_equal_implies_equal_hash(self):
        rng = Random(107)
        values = [random_rational(rng) for _ in range(150)]
        values += [Fraction(k, 2) for k in range(-4, 5)] + [0, 1, -3]
        elements = [QmodZElement(v) for v in values]
        samples = elements + values
        for x in samples:
            for y in samples:
                if x == y:
                    assert hash(x) == hash(y), (x, y)

    def test_elements_do_not_equal_plain_numbers(self):
        assert QmodZElement(0) != 0
        assert QmodZElement(Fraction(1, 2)) != Fraction(3, 2)
        assert QmodZElement(Fraction(1, 2)) == QmodZElement(Fraction(3, 2))
