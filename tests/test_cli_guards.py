"""Oversized command-line input ends in one error line, never a traceback.

An enumeration far over the size limit is refused before anything is
allocated, and a decimal too long for the interpreter to convert is a
parse error at its position.
"""

import sys
import time

import pytest

from locgenus.cli import main

LONG = "7" * 5000

#: The interpreter refuses to convert decimals longer than this (0: no limit).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize(
    "primes, entries",
    [("1000000", "0"), ("2", "1000000000"), (str(10**18), "1")],
)
def test_oversized_enumeration_exits_4(capsys, primes, entries):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "genus", "postnikov", "enumerate", "--dim", "3", "--primes", primes, "--max", entries,
    )
    assert (code, out) == (4, "")
    assert_one_error_line(err)
    assert "1000000" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(LONG), reason="the interpreter converts decimals of any length"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("type", "canon", "{default:" + LONG + "}"),
        ("type", "canon", "{default:0, " + LONG + ":1}"),
        ("group", "pseudo", "{default:0, 2:" + LONG + "}"),
    ],
)
def test_overlong_decimal_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "position" in err
