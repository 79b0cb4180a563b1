"""Oversized command-line input ends in one error line, never a traceback.

An enumeration far over the size limit is refused before anything is
allocated, and a decimal too long for the interpreter to convert is a
parse error at its position, or a domain error in a complex tag. An
answer with an integer too long for the interpreter to print is refused
before any output. A fingerprint entry or a p-adic precision too large
to build its power is refused by its cap, and a reader that stops early
ends the output quietly. A refused text, however long, is echoed by at
most its first 64 characters and its length.
"""

import os
import subprocess
import sys
import time

import pytest

import locgenus
from locgenus import DEFAULT_FINGERPRINT_CAP, FingerprintCapError, PostnikovGenusDescriptor
from locgenus.genus import FakeSphereModel

from genlib import run_cli

LONG = "7" * 5000

#: The interpreter refuses to convert decimals longer than this (0: no limit).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(LONG), reason="the interpreter converts decimals of any length"
)
@pytest.mark.parametrize("tag", ["S" + LONG, "CP" + LONG], ids=["sphere", "cp"])
def test_overlong_complex_tag_exits_3(capsys, tag):
    code, out, err = run_cli(capsys, "verdict", tag, "--functor", "neisendorfer")
    assert (code, out) == (3, "")
    assert_one_error_line(err)


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(LONG), reason="the interpreter converts decimals of any length"
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "n, exponents",
    [
        ("9" * DIGIT_LIMIT, "{default:0, 3:2}"),  # n*k and 2n+1 pass the limit
        ("9" * DIGIT_LIMIT, "{default:0}"),  # only the dimension 2n+1 does
        ("2", "{default:0, 3:" + "9" * DIGIT_LIMIT + "}"),  # only n*k does
    ],
    ids=["both", "dimension", "entry"],
)
def test_unprintable_cp_answer_exits_4(capsys, n, exponents, json_flag):
    code, out, err = run_cli(capsys, "genus", "cp", "--n", n, exponents, *json_flag)
    assert (code, out) == (4, "")
    assert_one_error_line(err)
    assert str(DIGIT_LIMIT) in err


def locgenus_env():
    """The environment for ``python -m locgenus`` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(locgenus.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def close_after_reading(argv, first):
    """Read the opening bytes of a ``python -m locgenus`` run, close the
    pipe and return the exit code and stderr."""
    with subprocess.Popen(
        [sys.executable, "-m", "locgenus", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=locgenus_env(),
    ) as proc:
        try:
            assert proc.stdout.read(len(first)) == first
            proc.stdout.close()
            err = proc.stderr.read()
            return proc.wait(timeout=60), err
        finally:
            proc.kill()


def test_closed_pipe_ends_quietly():
    # 4^6 = 4,096 lines, more than a pipe holds, so the writer meets the
    # closed pipe while it is still printing.
    argv = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "13", "--max", "2"]
    assert close_after_reading(argv, b"{default:0}\n") == (141, b"")


def test_closed_pipe_ends_quietly_under_json():
    # 4^7 = 16,384 descriptors, streamed as several pieces of one object.
    argv = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "17", "--max", "2", "--json"]
    assert close_after_reading(argv, b'{"descriptors": ["{default:0}", ') == (141, b"")


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource limits")
def test_huge_fingerprint_entry_exits_4():
    # A power 2**entry must not be built. Should it be, the process runs
    # out of its 512 MB of address space or is killed at the timeout,
    # instead of filling the machine's memory.
    proc = subprocess.run(
        [sys.executable, "-m", "locgenus", "genus", "postnikov", "fingerprint",
         "{default:0, 2:100000000000}", "--dim", "3"],
        capture_output=True, text=True, env=locgenus_env(), preexec_fn=_limit_memory,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert_one_error_line(proc.stderr)
    assert f"cap {DEFAULT_FINGERPRINT_CAP}" in proc.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource limits")
def test_huge_exponent_rational_exits_2():
    # Read as a float-style decimal, 1e100000000 would build 10**(10**8);
    # should it be, the process is killed at the timeout.
    proc = subprocess.run(
        [sys.executable, "-m", "locgenus", "group", "member", "1e100000000", "{default:0}"],
        capture_output=True, text=True, env=locgenus_env(), preexec_fn=_limit_memory,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert_one_error_line(proc.stderr)
    assert "invalid rational" in proc.stderr


@pytest.mark.parametrize("entry", [0, 1, 63, 64, 65, 66, 99, 1000])
@pytest.mark.parametrize("p", [2, 3, 97])
def test_fingerprint_probes_agree_with_divisibility(p, entry):
    model = FakeSphereModel(PostnikovGenusDescriptor(3, 0, {p: entry}))
    for k in range(DEFAULT_FINGERPRINT_CAP + 1):
        for m in (p**k, -(p**k), 3 * p**k, 0):
            expected = m == 0 or (entry <= k + 2 and m % p**entry == 0)
            assert model.operation_vanishes(p, m) == expected
    if entry <= DEFAULT_FINGERPRINT_CAP:
        assert model.fingerprint(p) == entry
    else:
        with pytest.raises(FingerprintCapError):
            model.fingerprint(p)


@pytest.mark.parametrize("value", ["12", "zero"])
def test_padic_precision_cap(capsys, value):
    # 2 has bit length 2: precision 32768 is exactly the 65,536-bit cap.
    assert run_cli(capsys, "padic", "class", "2", value, "--precision", "32768") == (
        0, "2\n" if value == "12" else "*\n", ""
    )
    code, out, err = run_cli(capsys, "padic", "class", "2", value, "--precision", "32769")
    assert (code, out) == (4, "")
    assert_one_error_line(err)
    assert "65536" in err


def test_negative_prime_bound_refuses_an_unproven_cofactor(capsys):
    # 1/25 is a member; with no trial division 25 cannot be proven prime.
    code, out, err = run_cli(
        capsys, "group", "member", "1/25", "{default:1}", "--prime-bound", "-5"
    )
    assert (code, out) == (4, "")
    assert_one_error_line(err)


def test_a_support_prime_needs_no_prime_bound(capsys):
    # 5 is divided out of 25 as a support prime; nothing is left to factor.
    assert run_cli(
        capsys, "group", "member", "1/25", "{default:0, 5:2}", "--prime-bound", "-5"
    ) == (0, "true\n", "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("type", "canon", "{default:\u0663}"), 2),  # ARABIC-INDIC DIGIT THREE
        (("type", "canon", "{default:\u00b2}"), 2),  # SUPERSCRIPT TWO
        (("verdict", "S\u0663", "--functor", "neisendorfer"), 3),
    ],
    ids=["arabic-indic", "superscript", "sphere-tag"],
)
def test_non_ascii_digits_are_refused(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (expected, "")
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "tag",
    ["ſ3", "ſ2xſ5", "cр2", "Ｓ３"],
    ids=["long-s", "long-s-product", "cyrillic-er", "fullwidth"],
)
def test_non_ascii_complex_tag_is_unknown(capsys, tag):
    # str.upper maps LATIN SMALL LETTER LONG S to S.
    code, out, err = run_cli(capsys, "verdict", tag, "--functor", "neisendorfer")
    assert (code, out) == (3, "")
    assert_one_error_line(err)
    assert "unknown complex tag" in err


@pytest.mark.parametrize(
    "functor",
    ["postniKov:2", "postnikov:٣", "neisendorﬀer", "postnikov:²"],
    ids=["kelvin-sign", "arabic-indic", "ff-ligature", "superscript"],
)
def test_non_ascii_functor_is_unknown(capsys, functor):
    # str.lower maps KELVIN SIGN to k, and int() reads Arabic-Indic digits.
    code, out, err = run_cli(capsys, "verdict", "S3", "--functor", functor)
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "unknown functor" in err


@pytest.mark.parametrize(
    "tag, functor, space",
    [("s3", "neisendorfer", "S3"), (" S3 ", " Neisendorfer ", "S3"),
     ("s2xs5", "postnikov:2", "S2xS5"), ("cp2", "POSTNIKOV:3", "CP2")],
)
def test_ascii_tags_and_functors_still_fold_case(capsys, tag, functor, space):
    code, out, err = run_cli(capsys, "verdict", tag, "--functor", functor)
    assert (code, err) == (0, "")
    assert f"space: {space}\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("padic", "class", "2", "١٢"),  # ARABIC-INDIC ONE TWO
        ("padic", "class", "٢", "12"),
        ("padic", "class", "2", "12", "--precision", "٣٢"),
        ("padic", "class", "2", "+12"),
        ("padic", "class", "2", "1_2"),
        ("padic", "class", "2", " 12"),
        ("genus", "postnikov", "enumerate", "--dim", "٣", "--primes", "2", "--max", "0"),
        ("genus", "postnikov", "enumerate", "--dim", "3", "--primes", "+2", "--max", "0"),
        ("genus", "postnikov", "enumerate", "--dim", "3", "--primes", "2", "--max", "0_0"),
        ("genus", "cp", "{default:0, 3:2}", "--n", "２"),  # FULLWIDTH DIGIT TWO
        ("group", "member", "1/8", "{default:0, 2:3}", "--prime-bound", "١٠٠"),
        ("genus", "rational", "{default:0}", "--dim", "-"),
        ("genus", "rational", "{default:0}", "--dim", "3 "),
        *(("group", "member", rational, "{default:0, 2:3}")
          for rational in ["1e100000000", "١/٨", "+1/8", " 1/8", "1_0/3", "1.5", "1e5", "1/-8"]),
    ],
)
def test_command_line_integers_are_ascii(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("genus", "postnikov", "enumerate", "--dim", "٣", "--primes", "2", "--max", "0"),
         "argument --dim: invalid int value: '٣'"),
        (("group", "member", "1/8", "{default:0}", "--prime-bound", "+9"),
         "argument --prime-bound: invalid int value: '+9'"),
        (("padic", "class", "2", "12", "--precision", "1_0"),
         "argument --precision: invalid int value: '1_0'"),
    ],
)
def test_option_integer_wording_is_kept(capsys, argv, expected):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert expected in err


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(LONG), reason="the interpreter converts decimals of any length"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "postnikov", "enumerate", "--dim", LONG, "--primes", "2", "--max", "0"),
        ("padic", "class", "2", LONG),
        ("padic", "class", "2", "-" + LONG),
    ],
)
def test_overlong_command_line_integer_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("padic", "class", "2", "-1"), "0\n"),
        (("padic", "class", "3", "-18", "--precision", "8"), "2\n"),
        (("padic", "class", "2", "0012"), "2\n"),
        (("genus", "postnikov", "enumerate", "--dim", "03", "--primes", "2", "--max", "0"),
         "{default:0}\n{default:0, 2:*}\ncount: 2\n"),
        (("group", "member", "--", "-1/8", "{default:0, 2:3}"), "true\n"),
        (("group", "member", "-0", "{default:0}"), "true\n"),
        (("group", "member", "1/08", "{default:0, 2:3}"), "true\n"),
        (("group", "member", "1/016", "{default:0, 2:3}"), "false\n"),
        (("group", "member", "7", "{default:0}"), "true\n"),
    ],
)
def test_ascii_command_line_integers_still_work(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("level", ["1_0", "+2", " 3", "", "-", "2.0"])
def test_postnikov_level_is_ascii_digits(capsys, level):
    code, out, err = run_cli(capsys, "verdict", "S3", "--functor", "postnikov:" + level)
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "invalid Postnikov level" in err


def test_postnikov_level_still_answers(capsys):
    code, out, err = run_cli(capsys, "verdict", "S3", "--functor", "postnikov:2")
    assert (code, err) == (0, "")
    assert "reason: rational homotopy survives above level 2\n" in out


@pytest.mark.parametrize(
    "argv, code, refusal",
    [
        (["verdict", "T" * 100_000, "--functor", "neisendorfer"], 3, "unknown complex tag 'TTT"),
        (["verdict", " " * 100_000 + "S1", "--functor", "neisendorfer"], 3, "not simply connected"),
        (["type", "canon", "{" + "a" * 20_000 + ":0}"], 2, "unexpected word 'aaa"),
        (["group", "member", "x" * 20_000, "{default:0}"], 2, "invalid rational 'xxx"),
        (["padic", "class", "2", "x" * 20_000], 2, "invalid integer 'xxx"),
        (["verdict", "S3", "--functor", "x" * 20_000], 2, "unknown functor 'xxx"),
        (["verdict", "S3", "--functor", "postnikov:" + "x" * 20_000], 2, "invalid Postnikov"),
    ],
    ids=["tag", "spaced-sphere", "word", "rational", "padic-value", "functor", "level"],
)
def test_a_long_refused_text_is_shown_by_its_start_and_length(capsys, argv, code, refusal):
    returned, out, err = run_cli(capsys, *argv)
    assert (returned, out) == (code, "")
    assert_one_error_line(err)
    assert refusal in err and "characters)" in err
    assert len(err.encode()) < 200
