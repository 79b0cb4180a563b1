"""The contract of the read-only records: the p-adic parameter, the two
functor markers, the catalogued complex, the verdict and the rational
genus element.

Each record prints as ``Name(field=value, ...)``, refuses to have a field
assigned or deleted, survives ``copy`` and ``pickle`` as an equal value
with an equal hash, and compares by its fields (a catalogued complex by
its tag alone). A ``python -S`` process that imports the CLI loads none
of the standard library's run-time class machinery.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from locgenus import (
    INFINITY,
    ConnectingHom,
    DomainError,
    FiniteComplexDescriptor,
    GenusVerdict,
    HeightSequence,
    Neisendorfer,
    PAdicApprox,
    PostnikovSection,
    RankOneGroup,
    RationalGenusElement,
    VerdictKind,
    beta,
    finite_complex_genus_verdict,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def verdict(tag, functor):
    return finite_complex_genus_verdict(FiniteComplexDescriptor.from_tag(tag), functor)


#: Each record with the text it prints, as it did when the records were dataclasses.
PRINTED = [
    (PAdicApprox.from_int(12, 2, 8), "PAdicApprox(prime=2, precision=8, residue=12, exactly_zero=False)"),
    (PAdicApprox(5, 3, 7), "PAdicApprox(prime=5, precision=3, residue=7, exactly_zero=False)"),
    (PAdicApprox.zero(3, 2), "PAdicApprox(prime=3, precision=2, residue=0, exactly_zero=True)"),
    (Neisendorfer(), "Neisendorfer()"),
    (PostnikovSection(3), "PostnikovSection(level=3)"),
    (
        FiniteComplexDescriptor.from_tag("S2xS5"),
        "FiniteComplexDescriptor(tag='S2xS5', pi2_finite=False, rational_vanishing_level=5)",
    ),
    (
        FiniteComplexDescriptor.from_tag("s3"),
        "FiniteComplexDescriptor(tag='S3', pi2_finite=True, rational_vanishing_level=3)",
    ),
    (
        FiniteComplexDescriptor(" cp1xS4xs2 "),
        "FiniteComplexDescriptor(tag='CP1xS2xS4', pi2_finite=False, rational_vanishing_level=7)",
    ),
    (
        verdict("S3", Neisendorfer()),
        "GenusVerdict(kind=<VerdictKind.SINGLETON: 'singleton'>, space='S3', witness=None, "
        "reason='simply connected finite complex with finite second homotopy group')",
    ),
    (
        verdict("S2xS5", PostnikovSection(2)),
        "GenusVerdict(kind=<VerdictKind.HYPOTHESES_NOT_MET: 'hypotheses-not-met'>, "
        "space='S2xS5', witness='CP2xS3', reason='second homotopy group is infinite')",
    ),
    (
        RationalGenusElement(
            3, ConnectingHom(HeightSequence(0, {2: INFINITY}), Fraction(1, 2), {3: (2, 5)})
        ),
        "RationalGenusElement(dimension=3, hom=ConnectingHom(HeightSequence({default:0, 2:inf}), "
        "precompose=Fraction(1, 2), twists={3: (2, 5)}))",
    ),
    (
        RationalGenusElement(5, beta(RankOneGroup.integers())),
        "RationalGenusElement(dimension=5, hom=ConnectingHom(HeightSequence({default:0}), "
        "precompose=Fraction(1, 1), twists={}))",
    ),
]
RECORDS = [record for record, _ in PRINTED]


def record_id(record):
    return type(record).__name__


@pytest.mark.parametrize(("record", "text"), PRINTED, ids=[record_id(r) for r in RECORDS])
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


#: A field of each record that has one.
FIELD = {
    PAdicApprox: "residue",
    PostnikovSection: "level",
    FiniteComplexDescriptor: "tag",
    GenusVerdict: "kind",
    RationalGenusElement: "hom",
}


@pytest.mark.parametrize("record", [r for r in RECORDS if type(r) in FIELD], ids=record_id)
def test_fields_are_read_only(record):
    name = FIELD[type(record)]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_no_field_can_be_added():
    with pytest.raises(AttributeError):
        Neisendorfer().level = 2


#: Every pickle protocol; every value type of the package supports them all.
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy]
    + [
        lambda record, protocol=protocol: pickle.loads(pickle.dumps(record, protocol))
        for protocol in PROTOCOLS
    ],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS],
)
@pytest.mark.parametrize("record", RECORDS, ids=record_id)
def test_copies_are_equal_with_equal_hashes(record, round_trip):
    twin = round_trip(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert repr(twin) == repr(record)


def test_complexes_compare_by_tag_alone():
    spaced = FiniteComplexDescriptor(" s5xs2 ")
    assert spaced.tag == "S2xS5"
    for twin in (FiniteComplexDescriptor("S2xS5"), FiniteComplexDescriptor.from_tag("S2xS5")):
        assert spaced == twin and hash(spaced) == hash(twin) and len({spaced, twin}) == 1
    assert spaced != FiniteComplexDescriptor("S5")
    with pytest.raises(TypeError):  # the invariants follow from the tag
        FiniteComplexDescriptor("S3", False, 9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteComplexDescriptor("S3", False, 9),
        lambda: FiniteComplexDescriptor("not a tag", True, 3),
        lambda: FiniteComplexDescriptor("S3", pi2_finite=False),
        lambda: FiniteComplexDescriptor("S3", rational_vanishing_level=9),
        lambda: FiniteComplexDescriptor.from_tag("S3", False, 9),
    ],
    ids=["both", "unread-tag", "pi2_finite", "rational_vanishing_level", "from_tag"],
)
def test_the_invariants_are_not_arguments(build):
    # Either would set a value the tag fixes, or skip reading the tag.
    with pytest.raises(TypeError):
        build()


def test_records_compare_by_fields():
    assert Neisendorfer() == Neisendorfer() and hash(Neisendorfer()) == hash(Neisendorfer())
    assert PostnikovSection(2) == PostnikovSection(2) != PostnikovSection(3)
    assert PAdicApprox(5, 3, 7) != PAdicApprox(5, 4, 7)
    assert PAdicApprox.from_int(0, 5, 3) != PAdicApprox(5, 3, 0)
    same = GenusVerdict(VerdictKind.SINGLETON, "S3", None, "why")
    assert same == GenusVerdict(VerdictKind.SINGLETON, "S3", None, "why")
    assert same != GenusVerdict(VerdictKind.SINGLETON, "S3", None, "other")
    assert Neisendorfer() != PostnikovSection(1)


def test_verdict_defaults():
    bare = GenusVerdict(VerdictKind.SINGLETON, "S3")
    assert (bare.witness, bare.reason) == (None, "")


@pytest.mark.parametrize("level", [0, -1])
def test_postnikov_level_is_checked(level):
    with pytest.raises(DomainError):
        PostnikovSection(level)


def test_cli_import_loads_no_class_machinery():
    # dataclasses pulls in inspect, ast and dis; typing is heavy on its own.
    heavy = ["dataclasses", "inspect", "ast", "dis", "typing"]
    probe = f"import locgenus.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
