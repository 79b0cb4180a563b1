"""The streamed Postnikov-genus enumeration.

``iter_postnikov_genus`` checks its arguments at the call and then builds
descriptors lazily, without re-validating them; the CLI prints the same
lines from precomputed per-prime text fragments, building no descriptors.
These tests hold the streamed descriptors to the validating constructor,
the text lines to the descriptors, the CLI output to fixed digests, and
the CLI's memory to a bound that a materialized enumeration exceeds.
"""

import hashlib
import os
import sys
import tracemalloc

import pytest

from locgenus import (
    STAR,
    DomainError,
    EnumerationLimitError,
    PostnikovGenusDescriptor,
    enumerate_postnikov_genus,
    iter_postnikov_genus,
    primes_up_to,
)
from locgenus.cli import main
from locgenus.genus import _iter_postnikov_genus_text


@pytest.mark.parametrize("prime_bound, entry_bound", [(2, 0), (7, 1), (11, 2), (5, 6)])
def test_streamed_descriptors_match_validated_ones(prime_bound, entry_bound):
    dim = 2 * prime_bound + 1
    primes = primes_up_to(prime_bound)
    streamed = list(iter_postnikov_genus(dim, prime_bound, entry_bound))
    assert len(streamed) == (entry_bound + 2) ** len(primes)
    for d in streamed:
        validated = PostnikovGenusDescriptor(dim, 0, d.exceptions)
        assert d == validated and hash(d) == hash(validated)
        assert str(d) == str(validated) and d.dimension == dim
        assert list(d.support) == sorted(d.support)
        assert all(v == STAR or 0 < v <= entry_bound for v in d.exceptions.values())
    assert len(set(streamed)) == len(streamed)
    assert streamed == enumerate_postnikov_genus(dim, prime_bound, entry_bound)


def test_iterator_is_lazy():
    descriptors = iter_postnikov_genus(3, 17, 2)
    assert iter(descriptors) is descriptors
    assert str(next(descriptors)) == "{default:0}"
    assert str(next(descriptors)) == "{default:0, 17:1}"


@pytest.mark.parametrize(
    "prime_bound, entry_bound", [(11, 0), (2, 0), (2, 3), (3, 2), (7, 1), (13, 2), (5, 6)]
)
def test_text_iterator_matches_descriptors(prime_bound, entry_bound):
    args = (2 * prime_bound + 1, prime_bound, entry_bound)
    assert list(_iter_postnikov_genus_text(*args)) == list(map(str, iter_postnikov_genus(*args)))


@pytest.mark.parametrize(
    "args",
    [(3, 1000000, 0), (3, 2, 1000000000), (4, 7, 1), (3, 1, 1), (3, 7, -1)],
)
def test_text_iterator_refuses_as_descriptors_do(args):
    refusals = []
    for enumeration in (iter_postnikov_genus, _iter_postnikov_genus_text):
        with pytest.raises(Exception) as caught:
            enumeration(*args)
        refusals.append((type(caught.value), str(caught.value)))
    assert refusals[0] == refusals[1]
    assert issubclass(refusals[0][0], (DomainError, EnumerationLimitError))


@pytest.mark.parametrize(
    "args, error",
    [
        ((3, 1000000, 0), EnumerationLimitError),
        ((3, 2, 1000000000), EnumerationLimitError),
        ((4, 7, 1), DomainError),
        ((3, 1, 1), DomainError),
        ((3, 7, -1), DomainError),
    ],
)
def test_refusals_come_at_the_call(args, error):
    with pytest.raises(error):
        iter_postnikov_genus(*args)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--dim", "3", "--primes", "1000000", "--max", "0"], 4),
        (["--dim", "3", "--primes", "1000000", "--max", "0", "--json"], 4),
        (["--dim", "4", "--primes", "7", "--max", "1"], 3),
        (["--dim", "3", "--primes", "7", "--max", "-1"], 3),
        (["--dim", "3", "--primes", "1", "--max", "1"], 3),
    ],
)
def test_refused_enumeration_prints_nothing(capsys, argv, code):
    assert main(["genus", "postnikov", "enumerate", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--dim", "3", "--primes", "7", "--max", "1"],
            "8e6a9476763d85b1033071be9ed6b9dec5adbc2670ce5744d00c92d211fcbf90",
        ),
        (
            ["--dim", "5", "--primes", "11", "--max", "2", "--json"],
            "3d323a5824b6e5d584cbdd84e57c2d3f550ee2cc150e1e06ab6cad9a50f75c18",
        ),
        (
            ["--dim", "7", "--primes", "13", "--max", "2"],
            "fe7f9a72b1c359d3ffad0c2fd89446c2cfba336cabd9c884809b1905c3e4d502",
        ),
    ],
)
def test_output_bytes_are_unchanged(capsys, argv, digest):
    """Digests of the output of the materializing implementation."""
    assert main(["genus", "postnikov", "enumerate", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def enumeration_peak(*argv):
    """Exit code and peak traced allocation of an enumeration printed to
    the null device."""
    saved = sys.stdout
    with open(os.devnull, "w", encoding="utf-8") as sink:
        sys.stdout = sink
        tracemalloc.start()
        try:
            code = main(["genus", "postnikov", "enumerate", "--dim", "3", "--max", "2", *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sys.stdout = saved
    return code, peak


def test_streamed_output_memory_is_bounded():
    """16,384 lines in under 1 MB; holding them all took about 9 MB."""
    code, peak = enumeration_peak("--primes", "17")
    assert code == 0
    assert peak < 1 << 20, peak


def test_streamed_json_memory_is_bounded():
    """65,536 descriptors as one JSON object in under 2 MB; holding them
    all took about 14 MB."""
    code, peak = enumeration_peak("--primes", "19", "--json")
    assert code == 0
    assert peak < 2 << 20, peak


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--dim", "3", "--primes", "7", "--max", "1"],
            "8e6a9476763d85b1033071be9ed6b9dec5adbc2670ce5744d00c92d211fcbf90",
        ),
        (
            ["--dim", "5", "--primes", "11", "--max", "2", "--json"],
            "3d323a5824b6e5d584cbdd84e57c2d3f550ee2cc150e1e06ab6cad9a50f75c18",
        ),
    ],
)
def test_cli_enumeration_builds_no_descriptors(capsys, monkeypatch, argv, digest):
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI enumeration built a descriptor")

    monkeypatch.setattr(PostnikovGenusDescriptor, "_of", classmethod(refuse))
    monkeypatch.setattr(PostnikovGenusDescriptor, "__init__", refuse)
    assert main(["genus", "postnikov", "enumerate", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
