"""The streamed Postnikov-genus enumeration.

``iter_postnikov_genus`` checks its arguments at the call and then builds
descriptors lazily, without re-validating them; the CLI prints the same
lines in blocks joined from precomputed per-prime text fragments,
building no descriptors. These tests hold the streamed descriptors to the
validating constructor, the text lines to the descriptors, the CLI output
to fixed digests, its writes to one per block and its memory to a bound
that a materialized enumeration exceeds.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from locgenus.genus import _postnikov_genus_blocks


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
    count, blocks = _postnikov_genus_blocks(*args, "\n")
    lines = "\n".join(blocks).split("\n")
    assert lines == list(map(str, iter_postnikov_genus(*args)))
    assert count == len(lines)


@pytest.mark.parametrize(
    "args",
    [(3, 1000000, 0), (3, 2, 1000000000), (4, 7, 1), (3, 1, 1), (3, 7, -1)],
)
def test_text_iterator_refuses_as_descriptors_do(args):
    refusals = []
    text_blocks = lambda *args: _postnikov_genus_blocks(*args, "\n")
    for enumeration in (iter_postnikov_genus, text_blocks):
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


def test_descriptor_iterator_memory_is_bounded():
    """Up to its first descriptor, the iterator over 10^5 choices at the one
    prime 2 allocates under 1 MB: the choices are read as a range. Listing
    them first took about 16 MB."""
    tracemalloc.start()
    try:
        first = next(iter_postnikov_genus(3, 2, 99998))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(first) == "{default:0}"
    assert peak < 1 << 20, peak


def enumeration_peak(*argv):
    """Exit code and peak traced allocation of an enumeration printed to
    the null device."""
    saved = sys.stdout
    with open(os.devnull, "w", encoding="utf-8") as sink:
        sys.stdout = sink
        tracemalloc.start()
        try:
            code = main(["genus", "postnikov", "enumerate", "--dim", "3", *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sys.stdout = saved
    return code, peak


def test_streamed_output_memory_is_bounded():
    """16,384 lines in under 1 MB; holding them all took about 9 MB."""
    code, peak = enumeration_peak("--primes", "17", "--max", "2")
    assert code == 0
    assert peak < 1 << 20, peak


def test_streamed_json_memory_is_bounded():
    """65,536 descriptors as one JSON object in under 2 MB; holding them
    all took about 14 MB."""
    code, peak = enumeration_peak("--primes", "19", "--max", "2", "--json")
    assert code == 0
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_lone_prime_memory_is_bounded(flag):
    """10^6 lines at the one prime 2 in under 1 MB: its million choices
    are read a block at a time. Holding their texts took about 130 MB."""
    code, peak = enumeration_peak("--primes", "2", "--max", "999998", *flag)
    assert code == 0
    assert peak < 1 << 20, peak


class _CountingSink:
    """A stdout that counts its writes and the lines written."""

    def __init__(self):
        self.writes = self.lines = 0

    def write(self, text):
        self.writes += 1
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_lines_are_written_in_blocks(monkeypatch, flag):
    """262,144 descriptors in at most one write per 64 of them."""
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "23", "--max", "2"]
    assert main(argv + flag) == 0
    assert sink.lines == (1 if flag else 4**9 + 1)
    assert sink.writes <= 4**9 // 64, sink.writes


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=60)
@given(st.integers(2, 31), st.integers(0, 6))
@example(11, 2)  # 4^5: every prime in one block of exactly _BLOCK lines
@example(13, 2)  # 4^6: blocks of exactly _BLOCK lines, one per choice at 2
@example(29, 0)  # 2^10: one block of exactly _BLOCK lines
@example(31, 0)  # 2^11: two blocks
@example(7, 5)  # 7^4: one block of 7^3 lines per choice at 2
@example(2, 6)  # one prime
@example(2, 2500)  # one prime with more choices than a block: three blocks
def test_cli_lines_match_descriptors(prime_bound, entry_bound):
    count = (entry_bound + 2) ** len(primes_up_to(prime_bound))
    assume(count <= 1 << 14)  # keeps each example fast; the digests cover 10^6
    dim = 2 * prime_bound + 1
    texts = list(map(str, iter_postnikov_genus(dim, prime_bound, entry_bound)))
    argv = ["genus", "postnikov", "enumerate", "--dim", str(dim),
            "--primes", str(prime_bound), "--max", str(entry_bound)]
    assert cli_output(argv).split("\n") == [*texts, f"count: {count}", ""]
    payload = json.dumps({"descriptors": texts, "count": count}) + "\n"
    assert cli_output(argv + ["--json"]) == payload


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
