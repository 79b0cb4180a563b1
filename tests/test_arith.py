import math
import operator
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY,
    STAR,
    DomainError,
    FactorBoundError,
    PAdicApprox,
    PrecisionError,
    factorize,
    is_prime,
    mod_one,
    padic_decompose,
    primes_up_to,
    valuation,
)
from locgenus import arith

from genlib import count_proofs


def oracle_factor(n):
    """Factor by smallest-divisor search, independent of the library."""
    factors = []
    d = 2
    while n > 1:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors


class TestValuation:
    def test_twelve_at_two(self):
        assert oracle_factor(12).count(2) == 2
        assert valuation(12, 2) == 2

    def test_units(self):
        for p in (2, 3, 5, 7, 11):
            assert valuation(Fraction(1), p) == 0

    def test_denominator_factorization(self):
        assert oracle_factor(8).count(2) == 3
        assert valuation(Fraction(3, 8), 2) == -3

    def test_zero_has_infinite_valuation(self):
        assert valuation(Fraction(0), 5) == INFINITY
        assert valuation(0, 2) == INFINITY

    def test_rejects_non_prime(self):
        with pytest.raises(DomainError):
            valuation(12, 4)
        with pytest.raises(DomainError):
            valuation(12, 1)

    def test_additive_over_seeded_pairs(self):
        rng = Random(1001)
        for _ in range(1000):
            a = Fraction(rng.randint(1, 500) * rng.choice([1, -1]), rng.randint(1, 500))
            b = Fraction(rng.randint(1, 500) * rng.choice([1, -1]), rng.randint(1, 500))
            for p in (2, 3, 5, 7):
                assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)

    @given(
        st.fractions(max_denominator=10**6).filter(lambda q: q != 0),
        st.fractions(max_denominator=10**6).filter(lambda q: q != 0),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_additive_property(self, a, b, p):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestPrimes:
    def test_examples(self):
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_trial_division_oracle(self):
        def oracle_is_prime(n):
            return n >= 2 and all(n % d for d in range(2, n))

        assert primes_up_to(200) == [n for n in range(2, 201) if oracle_is_prime(n)]

    def test_rejects_small_bound(self):
        with pytest.raises(DomainError):
            primes_up_to(1)

    def test_is_prime_matches_sieve(self):
        sieve = set(primes_up_to(500))
        for n in range(500):
            assert is_prime(n) == (n in sieve)


class TestFactorize:
    def test_exact(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}

    def test_matches_oracle(self):
        rng = Random(7)
        for _ in range(200):
            n = rng.randint(2, 10**6)
            expected = {}
            for p in oracle_factor(n):
                expected[p] = expected.get(p, 0) + 1
            assert factorize(n) == expected

    def test_large_prime_certified_by_square_root(self):
        # Trial division passes sqrt(101) before hitting the bound.
        assert factorize(101, prime_bound=10) == {101: 1}

    def test_cofactor_below_bound_squared_is_prime(self):
        assert factorize(4 * 9973, prime_bound=150) == {2: 2, 9973: 1}

    def test_bound_exceeded(self):
        with pytest.raises(FactorBoundError):
            factorize(10007 * 10009, prime_bound=100)
        with pytest.raises(FactorBoundError):
            factorize(9973, prime_bound=50)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)


class TestModOne:
    def test_examples(self):
        assert mod_one(Fraction(7, 4)) == Fraction(3, 4)
        assert mod_one(Fraction(-1, 3)) == Fraction(2, 3)
        assert mod_one(Fraction(5)) == 0

    @given(st.fractions(max_denominator=10**4))
    def test_idempotent_and_in_range(self, q):
        reduced = mod_one(q)
        assert 0 <= reduced < 1
        assert mod_one(reduced) == reduced

    @given(st.fractions(max_denominator=10**4), st.integers(-100, 100))
    def test_integer_shift_invariance(self, q, m):
        assert mod_one(q + m) == mod_one(q)


class TestPAdicApprox:
    def test_validation(self):
        with pytest.raises(DomainError):
            PAdicApprox(4, 8, 1)
        with pytest.raises(DomainError):
            PAdicApprox(2, 0, 0)
        with pytest.raises(DomainError):
            PAdicApprox(2, 3, 8)
        with pytest.raises(DomainError):
            PAdicApprox(2, 3, 1, exactly_zero=True)

    def test_from_int_wraps_and_flags_zero(self):
        z = PAdicApprox.from_int(-1, 2, 4)
        assert z.residue == 15 and not z.exactly_zero
        assert PAdicApprox.from_int(0, 3).exactly_zero

    def test_prime_is_proven_once(self, monkeypatch):
        proofs = count_proofs(monkeypatch)
        z = PAdicApprox.from_int(12 * 1000003**2, 1000003, 12)
        k, unit = padic_decompose(-z)
        assert proofs == [1000003]
        assert (k, unit) == (2, PAdicApprox(1000003, 10, 1000003**10 - 12))

    def test_negation_preserves_zero_flag(self):
        z = PAdicApprox.from_int(12, 2, 8)
        assert (-z).residue == (256 - 12) % 256
        assert (-PAdicApprox.zero(2)).exactly_zero


class TestPadicDecompose:
    def test_example_twelve(self):
        k, unit = padic_decompose(PAdicApprox(2, 8, 12))
        assert k == 2
        assert unit == PAdicApprox(2, 6, 3)

    def test_exact_zero_is_base_point(self):
        assert padic_decompose(PAdicApprox.zero(5)) == STAR

    def test_unit_case(self):
        k, unit = padic_decompose(PAdicApprox(5, 4, 7))
        assert k == 0
        assert unit.residue == 7 and unit.precision == 4

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionError):
            padic_decompose(PAdicApprox(2, 3, 0, exactly_zero=False))

    def test_roundtrip_over_seeded_inputs(self):
        rng = Random(31)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            precision = rng.randint(2, 24)
            k = rng.randint(0, precision - 1)
            unit = rng.randint(1, p ** (precision - k) - 1)
            if unit % p == 0:
                unit += 1
            z = PAdicApprox(p, precision, (p**k * unit) % p**precision)
            got_k, got_unit = padic_decompose(z)
            assert got_k == k
            assert got_unit.precision == precision - k
            assert got_unit.residue == unit % p ** (precision - k)


class TestSentinels:
    def test_infinity_ordering(self):
        assert INFINITY > 10**9
        assert not INFINITY > INFINITY
        assert INFINITY >= INFINITY
        assert 3 < INFINITY
        assert min(3, INFINITY) == 3
        assert max(3, INFINITY) == INFINITY
        assert min(INFINITY, INFINITY) == INFINITY

    def test_infinity_addition(self):
        assert INFINITY + 5 == INFINITY
        assert 5 + INFINITY == INFINITY
        assert INFINITY + INFINITY == INFINITY
        for add in (lambda: INFINITY + "x", lambda: "x" + INFINITY, lambda: INFINITY + 1.5):
            with pytest.raises(TypeError):
                add()

    def test_copies_stay_equal(self):
        import copy

        assert copy.deepcopy(INFINITY) == INFINITY
        assert copy.deepcopy(STAR) == STAR
        assert STAR != INFINITY

    def test_copies_and_pickles_are_the_singletons(self):
        import copy
        import pickle

        for sentinel in (INFINITY, STAR):
            assert copy.copy(sentinel) is sentinel and copy.deepcopy(sentinel) is sentinel
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(sentinel, protocol)) is sentinel

    def test_reprs(self):
        assert repr(INFINITY) == "inf"
        assert repr(STAR) == "*"


@pytest.mark.parametrize("n, bound", [(25, -5), (35, -6)])
def test_negative_bound_certifies_no_composite(n, bound):
    with pytest.raises(FactorBoundError):
        factorize(n, bound)


@given(st.integers(1, 80), st.integers(1, 80), st.integers(-12, 89))
def test_factorize_is_exact_or_refused(a, b, bound):
    # A product of two small factors is often composite past 2 and 3.
    n = a * b
    try:
        factors = factorize(n, bound)
    except FactorBoundError:
        return
    assert all(oracle_factor(p) == [p] for p in factors)
    assert math.prod(p**e for p, e in factors.items()) == n


#: INFINITY is above every int (bools included), equal only to itself, and
#: unordered against everything else.
COMPARANDS = [0, 3, -2, True, False, 10**30, INFINITY, Fraction(1, 2), 2.5, "x", None, STAR]
COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def expected_comparison(op, left, right):
    """The value of op(left, right) under the rule, or TypeError."""
    if not all(isinstance(v, int) or v is INFINITY for v in (left, right)):
        if op in (operator.eq, operator.ne):
            return op(left is INFINITY and right is INFINITY, True)
        return TypeError

    def rank(v):
        return (1, 0) if v is INFINITY else (0, v)

    return op(rank(left), rank(right))


@pytest.mark.parametrize("other", COMPARANDS, ids=repr)
def test_infinity_orders_above_every_int_and_nothing_else(other):
    for op in COMPARISONS:
        for left, right in [(INFINITY, other), (other, INFINITY)]:
            expected = expected_comparison(op, left, right)
            if expected is TypeError:
                with pytest.raises(TypeError):
                    op(left, right)
            else:
                assert op(left, right) is expected, (op, left, right)
    if isinstance(other, int) or other is INFINITY:
        assert min(INFINITY, other) == min(other, INFINITY) == other
        assert max(INFINITY, other) is max(other, INFINITY) is INFINITY
        assert sorted([INFINITY, other]) == sorted([other, INFINITY]) == [other, INFINITY]
    else:
        for combine in (min, max, sorted):
            with pytest.raises(TypeError):
                combine([INFINITY, other])


@pytest.fixture
def digit_limit_640():
    """The interpreter's smallest digit limit, restored afterwards."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def decimal_oracle(text):
    """``arith._decimal`` by ``int()`` itself: ASCII digits after an optional
    '-', or None where ``int()`` refuses past the digit limit."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


#: Either side of the limit of 640, with and without a sign; leading zeros,
#: which count as digits; and texts past 640 characters that are no number.
TEXTS_AT_640 = [
    *(sign + "7" * k for sign in ("", "-") for k in (639, 640, 641)),
    "0" * 640, "0" * 641, "-" + "0" * 641, "0" * 639 + "1", "0" * 640 + "1",
    "x" * 641, "7" * 640 + "x", "x" + "7" * 640, "-" * 641, "+" + "7" * 640,
    " " + "7" * 640, "\u0663" * 641, "7_" * 321, "--" + "7" * 640,
]


@pytest.mark.parametrize("text", TEXTS_AT_640, ids=lambda t: f"{t[:3]}..{len(t)}")
def test_decimal_refuses_past_the_limit_as_int_does(digit_limit_640, text):
    assert arith._decimal(text) == decimal_oracle(text)


def test_the_oracle_sees_the_limit(digit_limit_640):
    assert [decimal_oracle("7" * k) for k in (640, 641)] == [int("7" * 640), None]


def test_decimal_reads_any_length_without_a_limit(digit_limit_640):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert arith._decimal("7" * 5000) == int("7" * 5000)
        assert arith._decimal("-" + "0" * 4999 + "1") == -1
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k", [639, 640, 641, 700, 1000, 1024, 2048, 4299, 4300, 4301, 9999])
def test_shown_counts_digits_exactly_past_the_limit(digit_limit_640, k):
    """Either side of each power of ten, where a float logarithm rounds:
    it is one too high at 10**k - 1, and one too low at 10**1024."""
    for n, digits in [(10**k - 1, k), (10**k, k + 1), (10**k + 1, k + 1)]:
        if digits <= 640:
            assert (arith._shown(n), arith._shown(-n)) == (str(n), str(-n))
        else:
            assert arith._shown(n) == f"an integer of {digits} digits"
            assert arith._shown(-n) == f"a negative integer of {digits} digits"


def test_shown_counts_digits_as_str_does_up_to_twice_the_limit(digit_limit_640):
    values = [sign * (10**k + d) for k in range(640, 1281) for d in (-1, 0, 1) for sign in (1, -1)]
    sys.set_int_max_str_digits(0)
    texts = [str(n) for n in values]
    sys.set_int_max_str_digits(640)
    for n, text in zip(values, texts):
        digits = len(text.lstrip("-"))
        shown = f"{'a negative' if n < 0 else 'an'} integer of {digits} digits"
        assert arith._shown(n) == (text if digits <= 640 else shown)


def test_shown_prints_other_values_as_str(digit_limit_640):
    assert arith._shown(4) == "4"
    assert arith._shown("x") == "x"
    assert arith._shown(Fraction(10**700)) == "a Fraction past the digit limit"


def test_shown_cuts_a_long_text_to_its_start_and_length():
    assert arith._shown("x" * 64, repr) == repr("x" * 64)
    assert arith._shown("x" * 65, repr) == repr("x" * 64) + "... (65 characters)"
    assert arith._shown("y" * 100_000) == "y" * 64 + "... (100000 characters)"
