"""One input contract for every public entry point, held by one table.

Every callable in ``locgenus.__all__`` and every public method of the
classes there takes arguments of four kinds:

- an integer is an ``int``, never a ``bool``;
- a rational is an ``int`` or a ``Fraction``, never a ``bool``, ``float``,
  ``Decimal`` or ``str``;
- an object is an instance of its named class;
- a flag is a ``bool``.

``ENTRY_POINTS`` gives each entry point a call that answers and, for each
parameter, the values of the wrong kind. Put in place of the good one,
each must raise a ``DomainError`` at once: never an ``AttributeError``
or a ``TypeError``, and never an answer. ``EXEMPT`` names the public
callables that keep Python's own protocol, and why. A public callable in
neither fails the test, so each new entry point joins the table.
``NAMED_CASES`` holds the calls of defects T1 and S1 (see ROADMAP.md and
CHANGES.md), entries of the wrong kind inside a collection argument, and
every other wrong-kind call a test pins, with the message it pins; each
must raise a ``DomainError`` too. This file is the one home of those
refusals: a test elsewhere checks a wrong-kind argument only when it
checks more than the refusal. ``RANGE_CASES`` holds each range refusal
given an int past the interpreter's digit limit, which must still be a
refusal (a ``DomainError`` or a ``ResourceError``) that names the int by
its digits. Every parameter given such an int must answer or raise a
``LocgenusError`` at once.
"""

import contextlib
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import locgenus
from locgenus import (
    INFINITY,
    STAR,
    ConnectingHom,
    DomainError,
    FakeSphereModel,
    FiniteComplexDescriptor,
    HeightSequence,
    InfinityType,
    LocgenusError,
    Neisendorfer,
    PAdicApprox,
    PostnikovGenusDescriptor,
    PostnikovSection,
    QmodZElement,
    RankOneGroup,
    RationalGenusElement,
    StarType,
    TorsionShape,
    TypeClass,
    assemble_global,
    beta,
    build_fake_sphere,
    classify_postnikov_genus,
    classifying_map_class,
    cp_fake_descriptor,
    enumerate_postnikov_genus,
    factorize,
    finite_complex_genus_verdict,
    is_prime,
    iter_postnikov_genus,
    mod_one,
    p_primary_parts,
    padic_decompose,
    primes_up_to,
    similar,
    type_of,
    valuation,
)
from locgenus import genus

#: The wrong values tried for every parameter, less those of its kind.
#: "1e-10000000" is a rational that ``Fraction`` takes seconds to parse.
CATALOGUE = (1.5, True, None, "1/2", "1e-10000000")


def wrong(sibling, *legal):
    """The catalogue less the legal values, and an object of a sibling class."""
    return (*(value for value in CATALOGUE if not any(value is ok for ok in legal)), sibling)


INT = wrong(Fraction(3))
RATIONAL = wrong(Decimal("0.5"))
FLAG = wrong(1, True)
TEXT = wrong(b"S3", "1/2", "1e-10000000")
HEIGHT = wrong(STAR)
NAT_PLUS = wrong(INFINITY)
H = HeightSequence(0, {2: 1})
HEIGHTS = wrong(TypeClass(0))
# A string is iterable, and its characters are refused as primes; so are
# entries that cannot be hashed or ordered.
PRIMES = (*wrong(H), [[2]], [2, "x"])
OPTIONAL_MAPPING = (*wrong([(2, 1)], None), {2: 1, "x": 1})

GROUP = RankOneGroup(H)
HOM = ConnectingHom(H, 1, {3: (1, 2)})
DESCRIPTOR = PostnikovGenusDescriptor(3, 0, {2: 1})
MODEL = FakeSphereModel(DESCRIPTOR)
Z = PAdicApprox(2, 8, 12)
S3 = FiniteComplexDescriptor.from_tag("S3")
KIND = TypeClass(0, {2})
SHAPE = TorsionShape({2})
ELEMENT = RationalGenusElement(3, HOM)

#: Each public entry point: the callable and, by parameter name, a good
#: argument with the wrong values for it.
ENTRY_POINTS = {
    # arith
    "is_prime": (is_prime, {"n": (7, INT)}),
    "factorize": (factorize, {"n": (12, INT), "prime_bound": (100, INT)}),
    "primes_up_to": (primes_up_to, {"bound": (10, INT)}),
    "valuation": (valuation, {"q": (Fraction(3, 8), RATIONAL), "p": (2, INT)}),
    "mod_one": (mod_one, {"q": (Fraction(7, 4), RATIONAL)}),
    "padic_decompose": (padic_decompose, {"z": (Z, wrong(DESCRIPTOR))}),
    "PAdicApprox": (PAdicApprox, {
        "prime": (2, INT), "precision": (8, INT), "residue": (12, INT),
        "exactly_zero": (False, FLAG),
    }),
    "PAdicApprox.from_int": (PAdicApprox.from_int, {
        "n": (12, INT), "prime": (2, INT), "precision": (8, INT),
    }),
    "PAdicApprox.zero": (PAdicApprox.zero, {"prime": (2, INT), "precision": (8, INT)}),
    "InfinityType": (InfinityType, {}),
    "StarType": (StarType, {}),
    # rankone
    "HeightSequence": (HeightSequence, {
        "default": (0, HEIGHT), "exceptions": ({2: 1}, OPTIONAL_MAPPING),
    }),
    "HeightSequence.all_finite": (H.all_finite, {}),
    "HeightSequence.height_at": (H.height_at, {"p": (2, INT)}),
    "HeightSequence.value_at": (H.value_at, {"p": (2, INT)}),
    "TypeClass": (TypeClass, {
        "default": (0, HEIGHT), "infinite_primes": ({2}, PRIMES), "finite_primes": ((), PRIMES),
    }),
    "TypeClass.canonical_heights": (KIND.canonical_heights, {}),
    "TypeClass.value_at": (KIND.value_at, {"p": (2, INT)}),
    "similar": (similar, {"s": (H, HEIGHTS), "t": (H, HEIGHTS)}),
    "type_of": (type_of, {"s": (H, HEIGHTS)}),
    "RankOneGroup": (RankOneGroup, {"heights": (H, HEIGHTS)}),
    "RankOneGroup.integers": (RankOneGroup.integers, {}),
    "RankOneGroup.rationals": (RankOneGroup.rationals, {}),
    "RankOneGroup.member": (GROUP.member, {
        "q": (Fraction(1, 2), RATIONAL), "prime_bound": (100, INT),
    }),
    "RankOneGroup.height": (GROUP.height, {"p": (2, INT)}),
    "RankOneGroup.is_pseudo_integers": (GROUP.is_pseudo_integers, {}),
    "RankOneGroup.localize": (GROUP.localize, {"p": (2, INT)}),
    "RankOneGroup.intersect": (GROUP.intersect, {"other": (GROUP, wrong(H))}),
    "RankOneGroup.join": (GROUP.join, {"other": (GROUP, wrong(H))}),
    # connecting
    "p_primary_parts": (p_primary_parts, {
        "q": (Fraction(5, 6), RATIONAL), "prime_bound": (100, INT),
    }),
    "QmodZElement": (QmodZElement, {"value": (Fraction(1, 2), RATIONAL)}),
    "QmodZElement.p_component": (QmodZElement(Fraction(1, 6)).p_component, {"p": (2, INT)}),
    "ConnectingHom": (ConnectingHom, {
        "kernel_heights": (H, HEIGHTS), "precompose": (2, RATIONAL),
        "twists": ({3: (1, 2)}, (*wrong([(3, (1, 2))], None), {3: (1, 2), "x": (1, 2)})),
    }),
    "ConnectingHom.evaluate": (HOM.evaluate, {
        "q": (Fraction(1, 4), RATIONAL), "prime_bound": (100, INT),
    }),
    "ConnectingHom.kernel": (HOM.kernel, {}),
    "ConnectingHom.double_coset_class": (HOM.double_coset_class, {}),
    "ConnectingHom.with_twist": (HOM.with_twist, {
        "p": (5, INT), "mod_exp": (1, INT), "unit": (2, INT),
    }),
    "ConnectingHom.precomposed_by": (HOM.precomposed_by, {"r": (3, RATIONAL)}),
    "beta": (beta, {"group": (GROUP, wrong(H))}),
    # genus
    "TorsionShape": (TorsionShape, {"primes": ({2}, PRIMES), "complement": (False, FLAG)}),
    "TorsionShape.contains": (SHAPE.contains, {"p": (2, INT)}),
    "TorsionShape.value_at": (SHAPE.value_at, {"p": (2, INT)}),
    "TorsionShape.from_heights": (TorsionShape.from_heights, {"heights": (H, HEIGHTS)}),
    "RationalGenusElement": (RationalGenusElement, {
        "dimension": (3, INT), "hom": (HOM, wrong(GROUP)),
    }),
    "RationalGenusElement.homotopy_groups": (ELEMENT.homotopy_groups, {}),
    "RationalGenusElement.is_n_minus_1_connected": (ELEMENT.is_n_minus_1_connected, {}),
    "RationalGenusElement.classify": (ELEMENT.classify, {}),
    "PostnikovGenusDescriptor": (PostnikovGenusDescriptor, {
        "dimension": (3, INT), "default": (0, NAT_PLUS), "exceptions": ({2: 1}, OPTIONAL_MAPPING),
    }),
    "PostnikovGenusDescriptor.entry_at": (DESCRIPTOR.entry_at, {"p": (2, INT)}),
    "PostnikovGenusDescriptor.value_at": (DESCRIPTOR.value_at, {"p": (2, INT)}),
    "FakeSphereModel": (FakeSphereModel, {"descriptor": (DESCRIPTOR, wrong(H))}),
    "FakeSphereModel.operation_vanishes": (MODEL.operation_vanishes, {
        "p": (2, INT), "m": (4, INT),
    }),
    "FakeSphereModel.vanishes_identically": (MODEL.vanishes_identically, {"p": (2, INT)}),
    "FakeSphereModel.fingerprint": (MODEL.fingerprint, {"p": (2, INT), "cap": (8, INT)}),
    "FakeSphereModel.classify": (MODEL.classify, {"cap": (8, INT)}),
    "FakeSphereModel.restrict_to_prime": (MODEL.restrict_to_prime, {"p": (2, INT)}),
    "classify_postnikov_genus": (classify_postnikov_genus, {
        "model": (MODEL, wrong(DESCRIPTOR)), "cap": (8, INT),
    }),
    "build_fake_sphere": (build_fake_sphere, {
        "dimension": (3, INT), "p": (2, INT), "k": (1, NAT_PLUS),
    }),
    "assemble_global": (assemble_global, {
        "dimension": (3, INT), "descriptor": (DESCRIPTOR, wrong(H)),
    }),
    "classifying_map_class": (classifying_map_class, {
        "dimension": (3, INT), "p": (2, INT), "z": (Z, wrong(DESCRIPTOR)),
    }),
    "cp_fake_descriptor": (cp_fake_descriptor, {
        "n": (2, INT), "degree_exponents": ({3: 2}, wrong([(3, 2)])),
    }),
    "iter_postnikov_genus": (iter_postnikov_genus, {
        "dimension": (3, INT), "prime_bound": (3, INT), "entry_bound": (1, INT),
    }),
    "enumerate_postnikov_genus": (enumerate_postnikov_genus, {
        "dimension": (3, INT), "prime_bound": (3, INT), "entry_bound": (1, INT),
    }),
    "Neisendorfer": (Neisendorfer, {}),
    "PostnikovSection": (PostnikovSection, {"level": (2, INT)}),
    "FiniteComplexDescriptor": (FiniteComplexDescriptor, {
        "tag": ("S3", TEXT), "pi2_finite": (True, FLAG),
        "rational_vanishing_level": (3, INT),
    }),
    # Strings are the right kind for a tag; one naming no complex is an
    # unknown tag (a named case below).
    "FiniteComplexDescriptor.from_tag": (FiniteComplexDescriptor.from_tag, {"tag": ("S3", TEXT)}),
    "finite_complex_genus_verdict": (finite_complex_genus_verdict, {
        "complex_descriptor": (S3, wrong(Neisendorfer())),
        "functor": (Neisendorfer(), wrong(S3)),
    }),
}

ENUM = "an Enum looks a member up by value and raises ValueError for any other, as every Enum does"

#: Public callables that keep Python's own protocol, and why. An exempt
#: class exempts its methods.
EXEMPT = {
    "LocalIso": ENUM,
    "VerdictKind": ENUM,
    "GenusVerdict": (
        "a result record: only finite_complex_genus_verdict builds one, from "
        "checked values, and no entry point takes one as an argument"
    ),
    # Returning NotImplemented lets Python try the other operand and raise
    # its own TypeError when neither side knows the operation.
    "QmodZElement.__add__": "an operator returns NotImplemented for a non-element",
    "InfinityType.__lt__": "a comparison returns NotImplemented for a non-height",
    **{
        name: "an exception takes any message, as Python's exceptions do"
        for name in locgenus.__all__
        if isinstance(getattr(locgenus, name), type)
        and issubclass(getattr(locgenus, name), LocgenusError)
    },
}


def public_callables():
    """Each callable in ``locgenus.__all__`` and each public method of the
    classes there, as ``name`` or ``Class.method``."""
    for name in locgenus.__all__:
        obj = getattr(locgenus, name)
        if not callable(obj):
            continue
        yield name
        if isinstance(obj, type):
            yield from (
                f"{name}.{attr}"
                for attr in dir(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            )


def test_every_public_callable_is_in_the_table():
    surface = set(public_callables())
    missing = {
        name for name in surface - ENTRY_POINTS.keys() - EXEMPT.keys()
        if name.split(".")[0] not in EXEMPT
    }
    assert not missing, f"public callables missing from the contract table: {sorted(missing)}"
    stale = ENTRY_POINTS.keys() - surface
    assert not stale, f"table rows that name no public callable: {sorted(stale)}"


def good_arguments(params):
    return {name: good for name, (good, _) in params.items()}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_good_arguments_are_answered(name):
    call, params = ENTRY_POINTS[name]
    call(**good_arguments(params))


def refused_at_once(call, error=DomainError):
    start = time.perf_counter()
    with pytest.raises(error) as refusal:
        call()
    assert time.perf_counter() - start < 1
    return refusal


@pytest.mark.parametrize(
    "name, param, value",
    [
        pytest.param(name, param, value, id=f"{name}-{param}-{value!r}")
        for name, (_, params) in ENTRY_POINTS.items()
        for param, (_, wrong_values) in params.items()
        for value in wrong_values
    ],
)
def test_a_wrong_argument_is_refused(name, param, value):
    call, params = ENTRY_POINTS[name]
    arguments = {**good_arguments(params), param: value}
    refused_at_once(lambda: call(**arguments))


#: Each named call, with a fragment of the message it must raise (or None).
NAMED_CASES = {
    # T1: an AttributeError escaped.
    "padic_decompose-int": (lambda: padic_decompose(5), "p-adic integer must be"),
    "similar-ints": (lambda: similar(1, 2), "heights must be"),
    "type_of-int": (lambda: type_of(5), "heights must be"),
    "beta-int": (lambda: beta(5), "group must be"),
    "member-of-int-group": (lambda: RankOneGroup(5).member(1), "heights must be"),
    "classify-int-hom": (lambda: RationalGenusElement(3, 5).classify(), "hom must be"),
    "verdict-int": (
        lambda: finite_complex_genus_verdict(5, Neisendorfer()), "complex descriptor must be"
    ),
    "from_tag-int": (lambda: FiniteComplexDescriptor.from_tag(5), "complex tag must be"),
    # T1: built from a value of the wrong kind.
    "hom-int": (lambda: ConnectingHom(5), "kernel heights must be"),
    "element-int": (lambda: RationalGenusElement(3, 5), "hom must be"),
    # T1: answered from a float.
    "valuation-float": (lambda: valuation(1.5, 2), "must be an int or a Fraction"),
    "member-float": (lambda: GROUP.member(1.5), "must be an int or a Fraction"),
    "qmodz-float": (lambda: QmodZElement(0.5), "must be an int or a Fraction"),
    "mod_one-float": (lambda: mod_one(0.5), "must be an int or a Fraction"),
    "parts-float": (lambda: p_primary_parts(0.5), "must be an int or a Fraction"),
    "evaluate-float": (lambda: HOM.evaluate(1.5), "must be an int or a Fraction"),
    "member-float-bound": (lambda: GROUP.member(1, prime_bound=2.5), "prime bound must be"),
    # T1: a wrong value stored.
    "precompose-float": (lambda: ConnectingHom(H, 0.5), "precompose must be"),
    "twist-unit-float": (
        lambda: ConnectingHom(HeightSequence(0), twists={2: (1, 1.5)}), "twist unit must be"
    ),
    "exactly_zero-str": (
        lambda: PAdicApprox(2, 3, 0, exactly_zero="no"), "exactly_zero must be a bool"
    ),
    "factorize-bool-bound": (lambda: factorize(35, True), "prime bound must be an integer"),
    "factorize-float-bound": (lambda: factorize(35, 2.5), "prime bound must be an integer"),
    # S1: a string parsed by Fraction.
    "member-str": (lambda: GROUP.member("1/2"), "must be an int or a Fraction"),
    "qmodz-arabic-indic": (lambda: QmodZElement("١/٣"), "must be an int or a Fraction"),
    "qmodz-exponent": (lambda: QmodZElement("1e-10000000"), "must be an int or a Fraction"),
    # Seen answering or escaping besides.
    "complement-str": (lambda: TorsionShape((), complement="x"), "true or false"),
    "height-pairs": (lambda: HeightSequence(0, [(2, 1)]), "exceptions must be a Mapping"),
    "torsion-int": (lambda: TorsionShape(5), "primes must be an Iterable, got int"),
    "intersect-int": (lambda: RankOneGroup.integers().intersect(5), "other group must be"),
    "with_twist-float-unit": (
        lambda: ConnectingHom(HeightSequence(0)).with_twist(3, 1, 2.0), "twist unit must be"
    ),
    "with_twist-str-prime": (lambda: HOM.with_twist("x", 1, 2), "must be an integer"),
    "twist-not-a-pair": (lambda: ConnectingHom(H, 1, {3: 2}), "must be a pair"),
    "precomposed_by-str": (
        lambda: ConnectingHom(HeightSequence(0)).precomposed_by("2"),
        "must be an int or a Fraction",
    ),
    "complex-record": (lambda: FiniteComplexDescriptor("x", "no", 1.5), "pi2_finite must be"),
    "from_tag-unknown": (lambda: FiniteComplexDescriptor.from_tag("1/2"), "unknown complex tag"),
    "from_tag-factor-S1": (
        lambda: FiniteComplexDescriptor.from_tag("S3xS1"), "sphere S1 is not simply connected"
    ),
    **{
        f"from_tag-unknown-{tag}": (
            lambda tag=tag: FiniteComplexDescriptor.from_tag(tag), "unknown complex tag"
        )
        for tag in ("S2x", "xS2", "S2xxS5", "CP0xS3", "\u017f2x\u017f5")
    },
    # An entry of the wrong kind inside a collection: refused, naming the argument.
    "height-mixed-keys": (
        lambda: HeightSequence(0, {2: 1, "x": 1}), "height exceptions must have integer keys"
    ),
    "descriptor-mixed-keys": (
        lambda: PostnikovGenusDescriptor(3, 0, {"x": 1, 2: 1}),
        "descriptor exceptions must have integer keys",
    ),
    "twists-mixed-keys": (
        lambda: ConnectingHom(H, 1, {3: (1, 2), "x": (1, 2)}), "twists must have integer keys"
    ),
    "type-unhashable-prime": (lambda: TypeClass(0, [[2]]), "infinite primes must be integers"),
    "type-mixed-primes": (lambda: TypeClass(0, [2, "x"]), "infinite primes must be integers"),
    "type-unhashable-finite-prime": (
        lambda: TypeClass(INFINITY, (), [[2]]), "finite primes must be integers"
    ),
    "type-unhashable-unlisted": (
        lambda: TypeClass(0, (), [[2]]), "finite default cannot list finite primes"
    ),
    "torsion-unhashable-prime": (lambda: TorsionShape([[2]]), "primes must be integers"),
    "torsion-mixed-primes": (lambda: TorsionShape([2, None]), "primes must be integers"),
    # A key that can be ordered but is not an integer: refused before the
    # primality test, whose refusal names no argument.
    "descriptor-bool-key": (
        lambda: PostnikovGenusDescriptor(3, 0, {True: 1}),
        "descriptor exceptions must have integer keys",
    ),
    "twists-str-key": (
        lambda: ConnectingHom(HeightSequence(0), twists={"x": (1, 1)}),
        "twists must have integer keys",
    ),
    "twists-bool-key": (
        lambda: ConnectingHom(H, 1, {True: (1, 2)}), "twists must have integer keys"
    ),
    "type-float-prime": (lambda: TypeClass(0, [2.5]), "infinite primes must be integers"),
    "type-bool-finite-prime": (
        lambda: TypeClass(INFINITY, (), [True]), "finite primes must be integers"
    ),
    "torsion-bool-prime": (lambda: TorsionShape({True}), "primes must be integers"),
    # A refusal names the kind it got, so an int past the digit limit is not printed.
    "group-huge-int": (lambda: RankOneGroup(10**5000), "got int"),
    "is_prime-huge-fraction": (lambda: is_prime(Fraction(10**5000)), "got Fraction"),
    # Wrong kinds at the other entry points, some with the message they pin.
    "is_prime-float": (lambda: is_prime(7.5), None),
    "is_prime-bool": (lambda: is_prime(True), None),
    "height-key": (
        lambda: HeightSequence(0, {7.5: 1}), "height exceptions must have integer keys"
    ),
    "torsion-key": (lambda: TorsionShape({7.5}), "primes must be integers"),
    "precision": (lambda: PAdicApprox(2, 1.5, 1), None),
    "twist": (lambda: ConnectingHom(HeightSequence(0), twists={2: (1.5, 3)}), None),
    "factorize-float": (lambda: factorize(7.5), None),
    "factorize-bool": (lambda: factorize(True), None),
    "primes_up_to-float": (lambda: primes_up_to(7.5), None),
    "primes_up_to-bool": (lambda: primes_up_to(True), None),
    "residue": (lambda: PAdicApprox(2, 3, 1.5), None),
    "from_int": (lambda: PAdicApprox.from_int(1.5, 2), None),
    "classify-int": (lambda: classify_postnikov_genus(5), "model must be"),
    "classifying-map-int": (lambda: classifying_map_class(3, 2, 5), "p-adic parameter must be"),
    "cp-list": (lambda: cp_fake_descriptor(2, [1]), "degree exponents must be"),
    "postnikov-level-bool": (lambda: PostnikovSection(True), None),
    **{
        f"{kind}-{bounds}": (
            lambda enumerate_=enumerate_, bounds=bounds: enumerate_(3, *bounds),
            f"{name} must be an integer",
        )
        for bounds, name in [
            ((2.5, 1), "prime bound"), ((3, 2.5), "entry bound"), ((True, 1), "prime bound"),
            ((3, True), "entry bound"), ((3, False), "entry bound"), ((None, 1), "prime bound"),
            ((3, "1"), "entry bound"), ((Fraction(3), 1), "prime bound"),
        ]
        for kind, enumerate_ in [
            ("iter", iter_postnikov_genus),
            ("list", enumerate_postnikov_genus),
            ("blocks", lambda *args: genus._postnikov_genus_blocks(*args, "\n")),
        ]
    },
    **{
        f"operation_vanishes-{m!r}": (
            lambda m=m: build_fake_sphere(3, 2, 1).operation_vanishes(2, m), "multiple m"
        )
        for m in (1.5, Fraction(1, 2), Fraction(4), "4", None, True)
    },
    **{
        f"{name}-{descriptor!r}": (
            lambda build=build, descriptor=descriptor: build(descriptor), "descriptor must be"
        )
        for descriptor in (5, None, "{default:0}", HeightSequence(0))
        for name, build in [
            ("assemble_global", lambda descriptor: assemble_global(3, descriptor)),
            ("FakeSphereModel", FakeSphereModel),
        ]
    },
    **{
        f"cp-dimension-{n!r}": (lambda n=n: cp_fake_descriptor(n, {2: 1}), "complex dimension")
        for n in (True, 1.0, None)
    },
    **{
        f"postnikov-level-{level!r}": (
            lambda level=level: PostnikovSection(level), "Postnikov level must be >= 1"
        )
        for level in (2.5, "3", None)
    },
}


@pytest.mark.parametrize("case", NAMED_CASES)
def test_a_named_case_is_refused(case):
    call, message = NAMED_CASES[case]
    refusal = refused_at_once(call)
    if message is not None:
        assert message in str(refusal.value)


@pytest.mark.parametrize("value", (*CATALOGUE, Decimal("0.5")), ids=repr)
def test_exempt_operators_keep_the_protocol(value):
    assert QmodZElement(1).__add__(value) is NotImplemented
    assert INFINITY.__lt__(value) is (False if value is True else NotImplemented)


BIG = 10**5000  # 5,001 digits, past the interpreter's default limit of 4,300
NEGATIVE_BIG = -BIG
# BIG is even: an odd int this large would start trial division (D3).
PAST_THE_LIMIT = {"big": BIG, "-big": NEGATIVE_BIG, "Fraction(big)": Fraction(BIG)}

#: Each range refusal, called with an int past the digit limit, and the text
#: that names it there.
RANGE_CASES = {
    "dimension": (lambda: PostnikovGenusDescriptor(2 * BIG), "got an integer of 5001 digits"),
    "dimension-negative": (
        lambda: RationalGenusElement(NEGATIVE_BIG, HOM), "got a negative integer of 5001 digits"
    ),
    "prime-bound": (lambda: primes_up_to(NEGATIVE_BIG), "got a negative integer of 5001 digits"),
    "precision": (lambda: PAdicApprox(2, NEGATIVE_BIG), "got a negative integer of 5001 digits"),
    "precision-cap": (lambda: PAdicApprox(2, BIG), "precision an integer of 5001 digits at 2"),
    "residue": (lambda: PAdicApprox(2, 3, BIG), "residue an integer of 5001 digits"),
    "not-prime": (lambda: PAdicApprox(BIG), "an integer of 5001 digits is not prime"),
    "key-not-prime": (lambda: HeightSequence(0, {BIG: 1}), "key an integer of 5001 digits"),
    "fingerprint-cap": (
        lambda: MODEL.fingerprint(2, NEGATIVE_BIG), "got a negative integer of 5001 digits"
    ),
    "classify-cap": (lambda: MODEL.classify(NEGATIVE_BIG), "got a negative integer of 5001 digits"),
    "complex-dimension": (
        lambda: cp_fake_descriptor(NEGATIVE_BIG, {}), "got a negative integer of 5001 digits"
    ),
    "degree-exponent-key": (
        lambda: cp_fake_descriptor(1, {BIG: -1}), "degree exponent at an integer of 5001 digits"
    ),
    "enumeration-prime-bound": (
        lambda: iter_postnikov_genus(3, NEGATIVE_BIG, 1), "got a negative integer of 5001 digits"
    ),
    "enumeration-entry-bound": (
        lambda: enumerate_postnikov_genus(3, 3, NEGATIVE_BIG),
        "got a negative integer of 5001 digits",
    ),
    "assembled-dimension": (
        lambda: assemble_global(BIG, DESCRIPTOR), "does not match an integer of 5001 digits"
    ),
    "classifying-prime": (
        lambda: classifying_map_class(3, BIG, Z), "not an integer of 5001 digits"
    ),
    "postnikov-level": (
        lambda: PostnikovSection(NEGATIVE_BIG), "got a negative integer of 5001 digits"
    ),
    "postnikov-level-fraction": (
        lambda: PostnikovSection(Fraction(BIG)), "got a Fraction past the digit limit"
    ),
    "factor-bound": (
        lambda: factorize(11**4900, 10), "cannot factor an integer of 5103 digits"
    ),
    "sieve-bound": (
        lambda: primes_up_to(BIG), "cannot allocate a sieve up to an integer of 5001 digits"
    ),
    "verdict-functor": (
        lambda: finite_complex_genus_verdict(S3, BIG),
        "unknown genus functor an integer of 5001 digits",
    ),
}

default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the texts assume the interpreter's default digit limit",
)


@default_digit_limit
@pytest.mark.parametrize("case", RANGE_CASES)
def test_a_range_refusal_names_an_int_past_the_digit_limit(case):
    call, message = RANGE_CASES[case]
    assert message in str(refused_at_once(call, LocgenusError).value)


@default_digit_limit
@pytest.mark.parametrize("vanishing_level", [3, 2 * BIG], ids=["vanishes", "survives"])
def test_a_verdict_names_a_level_past_the_digit_limit_by_its_digits(vanishing_level):
    space = FiniteComplexDescriptor("S", True, vanishing_level)
    verdict = finite_complex_genus_verdict(space, PostnikovSection(BIG))
    assert verdict.reason.endswith("above level an integer of 5001 digits")


@default_digit_limit
def test_a_complex_tag_names_a_factor_past_the_digit_limit_by_its_digits():
    refusal = refused_at_once(lambda: FiniteComplexDescriptor.from_tag("S2xS" + "7" * 5000))
    assert "complex tag dimension of 5000 digits is too long" in str(refusal.value)


@pytest.mark.parametrize(
    "name, param, value",
    [
        pytest.param(name, param, value, id=f"{name}-{param}-{label}")
        for name, (_, params) in ENTRY_POINTS.items()
        for param in params
        for label, value in PAST_THE_LIMIT.items()
    ],
)
def test_an_int_past_the_digit_limit_is_answered_or_refused(name, param, value):
    call, params = ENTRY_POINTS[name]
    arguments = {**good_arguments(params), param: value}
    start = time.perf_counter()
    with contextlib.suppress(LocgenusError):
        call(**arguments)
    assert time.perf_counter() - start < 1
