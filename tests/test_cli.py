import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from locgenus import (
    INFINITY, STAR, HeightSequence, ParseError, PostnikovGenusDescriptor, errors,
)
from locgenus.cli import (
    _COMMANDS, _parser, _read_argv, main, parse_degree_exponents, parse_descriptor, parse_heights,
)

from genlib import SMALL_PRIMES, count_proofs, random_descriptor, random_height_sequence, run_cli
from test_cli_guards import assert_one_error_line, locgenus_env


class TestParsing:
    def test_heights_examples(self):
        assert parse_heights("{default:0, 2:3}") == HeightSequence(0, {2: 3})
        assert parse_heights("{default:inf, 2:0}") == HeightSequence(INFINITY, {2: 0})
        assert parse_heights(" { default : 0 , 2 : inf } ") == HeightSequence(
            0, {2: INFINITY}
        )

    def test_descriptor_examples(self):
        assert parse_descriptor("{default:*, 2:4}", 3) == PostnikovGenusDescriptor(
            3, STAR, {2: 4}
        )
        assert parse_descriptor("{default:0}", 5) == PostnikovGenusDescriptor(5, 0)

    def test_non_prime_key(self):
        with pytest.raises(ParseError) as excinfo:
            parse_heights("{default:0, 4:1}")
        assert "4 is not prime" in str(excinfo.value)
        assert excinfo.value.position == 12

    def test_context_mismatch(self):
        with pytest.raises(ParseError) as excinfo:
            parse_heights("{default:*, 2:3}")
        assert "Postnikov" in str(excinfo.value)
        with pytest.raises(ParseError) as excinfo:
            parse_descriptor("{default:inf}", 3)
        assert "height" in str(excinfo.value)

    def test_duplicate_primes(self):
        with pytest.raises(ParseError) as excinfo:
            parse_heights("{default:0, 2:1, 2:3}")
        assert "duplicate prime 2" in str(excinfo.value)

    def test_primes_must_increase(self):
        with pytest.raises(ParseError) as excinfo:
            parse_heights("{default:0, 3:1, 2:3}")
        assert "strictly increasing" in str(excinfo.value)

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(ParseError) as excinfo:
            parse_heights("{default 0}")
        assert excinfo.value.position == 9
        with pytest.raises(ParseError):
            parse_heights("{default:0,}")
        with pytest.raises(ParseError):
            parse_heights("{default:0} extra")
        with pytest.raises(ParseError):
            parse_heights("default:0")
        with pytest.raises(ParseError):
            parse_heights("{defaults:0}")
        with pytest.raises(ParseError):
            parse_heights("{default:0, 2:3")

    def test_degree_exponents(self):
        assert parse_degree_exponents("{default:0, 3:2}") == {3: 2}
        with pytest.raises(ParseError):
            parse_degree_exponents("{default:1, 3:2}")
        with pytest.raises(ParseError):
            parse_degree_exponents("{default:0, 3:*}")


class TestRoundtrip:
    def test_seeded_heights_roundtrip(self):
        rng = Random(83)
        for _ in range(500):
            h = random_height_sequence(rng)
            assert parse_heights(str(h)) == h

    def test_seeded_descriptor_roundtrip(self):
        rng = Random(89)
        for _ in range(500):
            d = random_descriptor(rng)
            assert parse_descriptor(str(d), d.dimension) == d

    @given(
        st.one_of(st.integers(0, 20), st.just(INFINITY)),
        st.dictionaries(
            st.sampled_from(SMALL_PRIMES),
            st.one_of(st.integers(0, 20), st.just(INFINITY)),
            max_size=5,
        ),
    )
    def test_heights_roundtrip_property(self, default, exceptions):
        h = HeightSequence(default, exceptions)
        assert parse_heights(str(h)) == h

    @given(
        st.one_of(st.integers(0, 20), st.just(STAR)),
        st.dictionaries(
            st.sampled_from(SMALL_PRIMES),
            st.one_of(st.integers(0, 20), st.just(STAR)),
            max_size=5,
        ),
    )
    def test_descriptor_roundtrip_property(self, default, exceptions):
        d = PostnikovGenusDescriptor(3, default, exceptions)
        assert parse_descriptor(str(d), 3) == d


class TestCommands:
    def test_padic_class_example(self, capsys):
        code, out, err = run_cli(capsys, "padic", "class", "2", "12")
        assert (code, out, err) == (0, "2\n", "")

    def test_type_similar_example(self, capsys):
        code, out, err = run_cli(
            capsys, "type", "similar", "{default:0}", "{default:0,2:3}"
        )
        assert (code, out, err) == (0, "true\n", "")

    def test_enumerate_example(self, capsys):
        code, out, err = run_cli(
            capsys,
            "genus", "postnikov", "enumerate", "--dim", "3", "--primes", "3", "--max", "1",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[-1] == "count: 9"
        assert lines[0] == "{default:0}"
        assert lines[-2] == "{default:0, 2:*, 3:*}"

    def test_type_canon(self, capsys):
        code, out, _ = run_cli(capsys, "type", "canon", "{default:0, 2:inf, 3:5}")
        assert code == 0
        assert out == "{default:0, 2:inf}\n"

    def test_group_member(self, capsys):
        code, out, _ = run_cli(capsys, "group", "member", "1/8", "{default:0, 2:3}")
        assert (code, out) == (0, "true\n")
        code, out, _ = run_cli(capsys, "group", "member", "1/16", "{default:0, 2:3}")
        assert (code, out) == (0, "false\n")

    def test_group_pseudo(self, capsys):
        code, out, _ = run_cli(capsys, "group", "pseudo", "{default:0, 3:7}")
        assert (code, out) == (0, "true\n")
        code, out, _ = run_cli(capsys, "group", "pseudo", "{default:0, 2:inf}")
        assert (code, out) == (0, "false\n")

    def test_genus_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "genus", "rational", "{default:0, 2:inf}", "--dim", "3"
        )
        assert code == 0
        assert out == (
            "type: {default:0, 2:inf}\n"
            "pi_n: {default:0, 2:inf}\n"
            "torsion_primes: 2\n"
            "connected: false\n"
        )

    def test_genus_rational_connected(self, capsys):
        code, out, _ = run_cli(
            capsys, "genus", "rational", "{default:0, 3:2}", "--dim", "5"
        )
        assert code == 0
        assert "torsion_primes: none\n" in out
        assert "connected: true\n" in out

    def test_genus_fingerprint(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "genus", "postnikov", "fingerprint", "{default:*, 2:3}", "--dim", "3",
        )
        assert (code, out) == (0, "{default:*, 2:3}\n")

    def test_genus_cp(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "cp", "--n", "2", "{default:0, 3:2}")
        assert (code, out) == (0, "{default:0, 3:4}\n")

    def test_padic_zero_and_units(self, capsys):
        code, out, _ = run_cli(capsys, "padic", "class", "2", "zero")
        assert (code, out) == (0, "*\n")
        code, out, _ = run_cli(capsys, "padic", "class", "2", "-1")
        assert (code, out) == (0, "0\n")

    def test_verdict_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "S2xS5", "--functor", "postnikov:2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: hypotheses-not-met"
        assert lines[1] == "space: S2xS5"
        assert lines[-1] == "witness: CP2xS3"

    def test_verdict_singleton(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "S3", "--functor", "neisendorfer")
        assert code == 0
        assert out.splitlines()[0] == "verdict: singleton"

    def test_verdict_on_a_product(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "S3xS5", "--functor", "postnikov:5")
        assert code == 0
        assert out.splitlines()[0] == "verdict: singleton-among-finite-complexes"
        code, out, _ = run_cli(capsys, "verdict", "S5xS2", "--functor", "postnikov:2")
        assert code == 0
        lines = out.splitlines()
        assert (lines[1], lines[-1]) == ("space: S2xS5", "witness: CP2xS3")
        code, _, err = run_cli(capsys, "verdict", "S3xS1", "--functor", "postnikov:5")
        assert (code, err) == (3, "error: sphere S1 is not simply connected\n")


class TestJsonOutput:
    def test_padic(self, capsys):
        code, out, _ = run_cli(capsys, "padic", "class", "2", "12", "--json")
        assert code == 0
        assert json.loads(out) == {"class": 2}

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "genus", "postnikov", "enumerate",
            "--dim", "3", "--primes", "2", "--max", "0", "--json",
        )
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["descriptors"] == ["{default:0}", "{default:0, 2:*}"]

    def test_genus_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "genus", "rational", "{default:inf}", "--dim", "3", "--json"
        )
        payload = json.loads(out)
        assert payload["connected"] is False
        assert payload["torsion_primes"] == {"cofinite": True, "primes": []}

    def test_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "verdict", "S2xS5", "--functor", "postnikov:2", "--json"
        )
        assert json.loads(out)["witness"] == "CP2xS3"

    @pytest.mark.parametrize(
        "argv",
        [
            ["type", "canon", "{default:0, 3:inf}"],
            ["padic", "class", "2", "zero"],
            ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "5", "--max", "1"],
            ["verdict", "S3", "--functor", "postnikov:2"],
            ["group", "member", "1/4", "{default:0, 2:1}"],
        ],
    )
    def test_flag_before_the_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert run_cli(capsys, "--json", *argv) == (code, out, err)
        assert code == 0 and json.loads(out) != run_cli(capsys, *argv)[1]


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run_cli(capsys, "type", "canon", "{default:0, 4:1}")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_domain_error_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "genus", "rational", "{default:0}", "--dim", "4"
        )
        assert code == 3
        assert err.startswith("error: ")

    def test_precision_error_is_3(self, capsys):
        code, _, err = run_cli(capsys, "padic", "class", "2", "1024", "--precision", "5")
        assert code == 3
        assert "precision" in err

    def test_resource_guard_is_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "genus", "postnikov", "enumerate",
            "--dim", "3", "--primes", "100", "--max", "9",
        )
        assert code == 4
        assert err.startswith("error: ")

    def test_fingerprint_cap_is_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "genus", "postnikov", "fingerprint", "{default:0, 2:80}", "--dim", "3",
        )
        assert code == 4
        assert "cap" in err

    def test_factor_bound_is_4(self, capsys):
        # Only a finite default d > 0 factors the denominator (10009^2).
        code, _, err = run_cli(
            capsys,
            "group", "member", "1/100180081", "{default:1}", "--prime-bound", "100",
        )
        assert code == 4

    @pytest.mark.parametrize("denominator", ["100180081", "2305843009213693951"])
    def test_default_0_needs_no_factor_bound(self, capsys, denominator):
        # The denominator (10009^2, or the prime 2^61 - 1) has no prime of
        # the support, so under default 0 it is no member whatever it is.
        assert run_cli(
            capsys,
            "group", "member", f"1/{denominator}", "{default:0}", "--prime-bound", "100",
        ) == (0, "false\n", "")

    def test_bad_rational_is_2(self, capsys):
        code, _, err = run_cli(capsys, "group", "member", "x/y", "{default:0}")
        assert code == 2

    def test_unknown_functor_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "verdict", "S3", "--functor", "plus")
        assert code == 2

    def test_unknown_tag_is_3(self, capsys):
        code, _, _ = run_cli(capsys, "verdict", "T4", "--functor", "neisendorfer")
        assert code == 3


@pytest.mark.parametrize("value, answer", [("12", "0"), ("zero", "*"), ("-1000003", "1")])
def test_padic_class_proves_its_prime_once(capsys, monkeypatch, value, answer):
    proofs = count_proofs(monkeypatch)
    assert run_cli(capsys, "padic", "class", "1000003", value) == (0, answer + "\n", "")
    assert proofs == [1000003]


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys):
        args = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "7", "--max", "1"]
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second


def built_parsers(monkeypatch) -> list:
    """The prog of each ``argparse.ArgumentParser`` built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_parser_is_built_once(capsys, monkeypatch):
    """The tree is built on first use and then kept: a second pass over the
    same argv builds no parser."""
    _parser.cache_clear()
    built = built_parsers(monkeypatch)
    argvs = (["type", "canon", "{default:0}"], ["genus", "--json"], ["verdict", "--help"])
    for argv in argvs:
        main(argv)
    assert built != []
    built.clear()
    for argv in argvs:
        main(argv)
    capsys.readouterr()
    assert built == []
    assert _parser.cache_info().misses == 1


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    # One process runs an argparse error, a --json command, a plain command
    # and --help in turn; each must read as it does in a process of its own.
    monkeypatch.setenv("COLUMNS", "80")
    env = {**locgenus_env(), "COLUMNS": "80"}
    for argv in (
        ["genus", "postnikov", "enumerate", "--dim", "3", "--max", "1"],
        ["genus", "rational", "{default:0, 2:inf}", "--dim", "3", "--json"],
        ["type", "canon", "{default:0, 2:inf, 3:5}"],
        ["genus", "postnikov", "--help"],
    ):
        in_process = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "locgenus", *argv], capture_output=True, text=True, env=env
        )
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize(
    "argv", [["padic", "class", "--", "3", "--"], ["group", "member", "--", "-1/2", "--"]]
)
def test_a_second_double_dash_is_a_parse_error(capsys, argv):
    # Python 3.11's argparse gives the last positional as [], not as '--'.
    refusal = "'--' may be given only once" if sys.version_info[:2] == (3, 11) else ""
    fresh = subprocess.run(
        [sys.executable, "-m", "locgenus", *argv], capture_output=True, text=True,
        env=locgenus_env(),
    )
    for code, out, err in (run_cli(capsys, *argv), (fresh.returncode, fresh.stdout, fresh.stderr)):
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert refusal in err


#: The commands of the README.
README_COMMANDS = [
    ["type", "canon", "{default:0, 2:inf, 3:5}"],
    ["type", "similar", "{default:0}", "{default:0,2:3}"],
    ["group", "member", "1/8", "{default:0, 2:3}"],
    ["group", "pseudo", "{default:0, 3:7}"],
    ["genus", "rational", "{default:0, 2:inf}", "--dim", "3"],
    ["genus", "postnikov", "fingerprint", "{default:*, 2:3}", "--dim", "3"],
    ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "3", "--max", "1"],
    ["genus", "cp", "--n", "2", "{default:0, 3:2}"],
    ["padic", "class", "2", "12"],
    ["padic", "class", "2", "zero"],
    ["verdict", "S2xS5", "--functor", "postnikov:2"],
    ["verdict", "S3xS5", "--functor", "postnikov:5"],
]


def test_the_readme_commands_are_the_readme_block():
    """``README_COMMANDS`` is the README's block of ``locgenus`` commands,
    each line read as a shell would, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    (block,) = [block for block in blocks if block.startswith("locgenus ")]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert argvs == [["locgenus", *argv] for argv in README_COMMANDS]


def json_forms(argv):
    """argv, and argv with --json put before the command words or in any
    later place that does not part an option from its value."""
    paths = [path.split() for path, *_ in _COMMANDS]
    words = next(len(path) for path in paths if argv[:len(path)] == path)
    places = [0, *(i for i in range(words, len(argv) + 1) if not argv[i - 1].startswith("--"))]
    return [argv, *([*argv[:i], "--json", *argv[i:]] for i in places)]


@pytest.mark.parametrize("argv", README_COMMANDS)
def test_a_valid_command_builds_no_tree(capsys, monkeypatch, argv):
    """A README command, with or without --json, is read without building
    any argparse parser."""
    _parser.cache_clear()
    built = built_parsers(monkeypatch)
    for form in json_forms(argv):
        assert main(form) == 0, form
    capsys.readouterr()
    assert built == []
    assert _parser.cache_info().currsize == 0


def test_only_errors_and_help_reach_the_tree(capsys, monkeypatch):
    """A command is read from its ``_COMMANDS`` entry alone; the root
    parser's parse_args runs once for an argparse error or help, and where
    the words name no command."""
    root = _parser()
    calls = []
    parse_args = root.parse_args
    monkeypatch.setattr(root, "parse_args", lambda argv: calls.append(argv) or parse_args(argv))
    for argv in README_COMMANDS:
        for form in (argv, ["--json", *argv], [*argv, "--json"]):
            assert main(form) == 0
    assert calls == []
    tree = {  # each argv, and its exit code
        ("genus", "rational", "{default:0, 2:inf}"): 2,
        ("verdict", "--help"): 0,
        ("genus", "--json", "postnikov", "fingerprint", "{default:*, 2:3}", "--dim", "3"): 2,
    }
    assert {argv: main(list(argv)) for argv in tree} == tree
    capsys.readouterr()
    assert calls == [list(argv) for argv in tree]


def test_threads_parse_independently(capsys):
    """One thread's read of a valid argv never turns another thread's
    argparse error, printed through the tree, into anything but exit 2."""
    failures = []

    def work(argv, code):
        try:
            for _ in range(500):
                assert main(argv) == code
        except Exception as exc:
            failures.append((argv, exc))

    cases = [(["verdict", "S3", "--functor", "neisendorfer"], 0), (["verdict", "S3"], 2)]
    threads = [threading.Thread(target=work, args=cases[i % 2]) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


#: Commands of every leaf, two with ``--`` before a negative number, and
#: the words that mutate them: flags of every kind, their abbreviations and
#: near misses, and words out of place.
ARGV_BASES = [
    ["type", "canon", "{default:0, 2:inf, 3:5}"],
    ["type", "similar", "{default:0}", "{default:0, 2:3}"],
    ["group", "member", "1/8", "{default:0, 2:3}", "--prime-bound", "100"],
    ["group", "member", "--prime-bound", "100", "--", "-1/2", "{default:0, 2:1}"],
    ["group", "pseudo", "{default:0, 3:7}"],
    ["genus", "rational", "{default:0, 2:inf}", "--dim", "3"],
    ["genus", "postnikov", "fingerprint", "{default:*, 2:3}", "--dim", "3"],
    ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "3", "--max", "1"],
    ["genus", "cp", "{default:0, 3:2}", "--n", "2"],
    ["padic", "class", "2", "12", "--precision", "8"],
    ["padic", "class", "--", "3", "-12"],
    ["verdict", "S2xS5", "--functor", "postnikov:2"],
]
ARGV_WORDS = [
    "--json", "--json", "--json", "-h", "--help", "--he", "--js", "--prime-b", "--bogus",
    "-1/2", "--dim", "3", "--json=1", "--=x", "-hx", "genus", "postnikov", "x",
]


def argv_corpus(seed, size):
    """Seeded mutations of ``ARGV_BASES``: words inserted anywhere, a tail
    cut, a word deleted, neighbours swapped, ``--`` put first. A second
    ``--`` is never added, which keeps the pinned digest: Python 3.11's
    argparse can pass it to a positional as an empty list, a namespace that
    ``main`` now refuses (``test_a_second_double_dash_is_a_parse_error``)."""
    rng = Random(seed)
    for _ in range(size):
        argv = list(rng.choice(ARGV_BASES))
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
            edit = rng.choice(["insert", "insert", "insert", "cut", "delete", "swap", "--"])
            at = rng.randrange(len(argv) + 1)
            if edit == "insert":
                argv.insert(at, rng.choice(ARGV_WORDS))
            elif edit == "cut":
                del argv[at:]
            elif edit == "--":
                argv[:0] = ["--"] * ("--" not in argv)
            elif at < len(argv) - (edit == "swap"):
                if edit == "delete":
                    del argv[at]
                else:
                    argv[at], argv[at + 1] = argv[at + 1], argv[at]
        yield argv


def test_read_argv_matches_the_tree(capsys):
    """Where the reader answers, it gives the tree's namespace, and it
    never prints."""
    answered = 0
    for argv in argv_corpus(20261019, 6000):
        namespace = _read_argv(argv)
        assert capsys.readouterr() == ("", ""), argv
        if namespace is not None:
            answered += 1
            assert vars(namespace) == vars(_parser().parse_args(argv)), argv
    assert answered > 1500


@pytest.mark.parametrize("word", ["-h x", "-hx y"])
def test_a_leaf_reads_help_lookalikes_as_the_tree_does(capsys, word):
    """The tree's leaves keep -h, so a value such as '-h x' is refused as
    an explicit argument, not read as a positional; the reader declines it."""
    assert _read_argv(["type", "canon", word]) is None
    code, out, err = run_cli(capsys, "type", "canon", word)
    assert (code, out) == (2, "") and "ignored explicit argument" in err


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse's usage and help texts vary by version"
)
def test_mutated_commands_are_pinned(capsys, monkeypatch):
    """The exit code, stdout and stderr of every argv of the corpus, hashed.
    The digest was taken from the implementation that parsed every command
    with the whole argparse tree."""
    monkeypatch.setenv("COLUMNS", "80")
    hasher = hashlib.sha256()
    for argv in argv_corpus(20261019, 6000):
        code, out, err = run_cli(capsys, *argv)
        hasher.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert hasher.hexdigest() == (
        "b2c994c34f27a34b9d62ef41658aee70dd1fc4451d90208e1460e221e636e4ee"
    )


@pytest.mark.parametrize("path", [path for path, *_ in _COMMANDS])
def test_every_command_has_help(capsys, path):
    code, out, _ = run_cli(capsys, *path.split(), "--help")
    assert code == 0
    assert out.startswith(f"usage: locgenus {path} ")


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.ParseError, 2),
        (errors.DomainError, 3),
        (errors.PrecisionError, 3),
        (errors.ResourceError, 4),
        (errors.FactorBoundError, 4),
        (errors.EnumerationLimitError, 4),
        (errors.FingerprintCapError, 4),
    ],
)
def test_error_classes_carry_exit_codes(error, code):
    assert error.exit_code == code


class _HashSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hasher = hashlib.sha256()

    def write(self, text):
        self.hasher.update(text.encode())
        return len(text)

    def flush(self):
        pass


#: Catalogued, malformed and non-ASCII complex tags (long s and an Arabic
#: digit upper- and int-convert to ASCII ones; an em space strips away), and
#: a dimension past the interpreter's digit limit.
VERDICT_TAGS = [
    *(f"S{n}" for n in range(12)), *(f"CP{n}" for n in range(8)),
    "S2xS5", "cp2xs3", " s03 ", "\u2003CP2", "\u017f3", "S\u0663", "X3", "S" + "9" * 5000,
]
VERDICT_FUNCTORS = [
    "neisendorfer", " NEISENDORFER ", "\u2003neisendorfer", "nei\u017fendorfer",
    *(f"postnikov:{level}" for level in (1, 2, 3, 4, 5, 7, 9, 11, 13, 15)),
    " Postnikov:5 ", "postnikov:0", "postnikov:x", "postnikov:\u0663", "postnikov", "plus",
]
PADIC_PRIMES = ["2", "3", "5", "7", "65537", "4", "1", "0"]
PADIC_VALUES = [
    "zero", " ZERO ", "Zero", "0", "-0", "1", "-1", "12", "-12", "1024",
    "3_0", "+3", "\u0663", "abc", "9" * 5000, "98765432109876543210",
]
PADIC_PRECISIONS = ["1", "4", "32", "0", "70000"]
#: Entries up to and past the default cap of 64, a default past it too,
#: each at a prime of its own dimension.
FINGERPRINT_ENTRIES = [*map(str, range(71)), "99", "*"]
FINGERPRINT_DEFAULTS = ["0", "1", "2", "*", "65"]
FINGERPRINT_PLACES = [("3", 2), ("5", 3), ("9", 97)]

GOLDEN_GRIDS = {
    "verdict": [
        ["verdict", tag, "--functor", functor, *flag]
        for tag in VERDICT_TAGS for functor in VERDICT_FUNCTORS for flag in ([], ["--json"])
    ],
    "padic class": [
        ["padic", "class", prime, value, "--precision", precision, *flag]
        for prime in PADIC_PRIMES for value in PADIC_VALUES
        for precision in PADIC_PRECISIONS for flag in ([], ["--json"])
    ],
    "genus postnikov fingerprint": [
        ["genus", "postnikov", "fingerprint", f"{{default:{default}, {p}:{entry}}}",
         "--dim", dim, *flag]
        for dim, p in FINGERPRINT_PLACES for default in FINGERPRINT_DEFAULTS
        for entry in FINGERPRINT_ENTRIES for flag in ([], ["--json"])
    ],
}


@pytest.mark.parametrize(
    "grid, digest",
    [
        ("verdict", "bca506f63bc06ec1da1751da635d32349d0e4acb8b4d1bbe491ca4bd121f44f3"),
        ("padic class", "6e670dbd6342febc5f09bfc7eca00fd30bb1724f940205f96ca0b9f0c4ee3b84"),
        ("genus postnikov fingerprint",
         "dbe8dd4b9b18ee6c4ecf92c5f50a9402ce5e3c17b052269f2210d5a04f6ffa23"),
    ],
    ids=["verdict", "padic class", "genus postnikov fingerprint"],
)
def test_golden_outputs(capsys, grid, digest):
    """The exit code, stdout and stderr of every argv of the grid, hashed.
    The digests were taken from the implementation that wrote the verdict
    rules once per functor, read ``zero`` through ``PAdicApprox.zero`` and
    searched fingerprints linearly, one public probe per exponent. The
    ``padic class`` digest was taken again once a refused text longer than
    64 characters came to be shown by its start and length: that changed
    only the error line of the 80 argv with the 5,000-digit value."""
    hasher = hashlib.sha256()
    for argv in GOLDEN_GRIDS[grid]:
        code, out, err = run_cli(capsys, *argv)
        hasher.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert hasher.hexdigest() == digest


def test_largest_json_enumeration_is_unchanged(monkeypatch):
    """The 10^6-descriptor enumeration under --json, hashed as written."""
    sink = _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "5", "--max", "98", "--json"]
    assert main(argv) == 0
    assert sink.hasher.hexdigest() == (
        "d99ed457197e0229e668b96c2ee39f09f126128775c3fbe36b509991ce6f54dd"
    )


#: Pieces of descriptor text: the grammar's tokens, near-miss words,
#: numbers (leading zeros, primes, composites, one past the interpreter's
#: digit limit) and characters that ``int()``, ``str.isspace`` or
#: ``str.isalpha`` read differently from ASCII (superscript two, an
#: Arabic-Indic three, long s, a full-width space, a full-width S).
PARSE_PIECES = [
    "{", "}", ":", ",", "*", "inf", "default", "Inf", "DEFAULT", "defaults", "infinity",
    "-", "+", ".", "/", "_", "x", "²", "٣", "ſ", "　", "Ｓ", "\t", "\n",
]
ASCII_DIGITS = set("0123456789")
PARSE_CONTEXTS = {
    "heights": parse_heights,
    "descriptor": lambda text: parse_descriptor(text, 3),
    "exponents": parse_degree_exponents,
}


def _parse_number(rng):
    roll = rng.random()
    if roll < 0.01:
        return "9" * 4301
    if roll < 0.1:
        return "0" + str(rng.randint(0, 99))
    if roll < 0.5:
        return str(rng.choice(SMALL_PRIMES + [97, 997, 65537]))
    return str(rng.randint(0, 60))


def _near_valid_tokens(rng):
    """The tokens of a well-formed descriptor, then up to three token edits."""
    value = lambda: rng.choice(["inf", "*", "0", None]) or _parse_number(rng)
    tokens = ["{", "default", ":", value()]
    for p in sorted(rng.sample(SMALL_PRIMES, rng.randint(0, 4))):
        tokens += [",", str(p), ":", value()]
    tokens.append("}")
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        at = rng.randrange(len(tokens) + 1)
        edit = rng.choice(["insert", "delete", "replace", "swap", "append"])
        piece = rng.choice([rng.choice(PARSE_PIECES), _parse_number(rng)])
        if edit == "insert":
            tokens.insert(at, piece)
        elif at < len(tokens):
            if edit == "append":  # no glue, as in "3²"; never a digit
                tokens[at] += rng.choice(PARSE_PIECES)
            elif edit == "delete":
                del tokens[at]
            elif edit == "replace":
                tokens[at] = piece
            elif at + 1 < len(tokens):
                tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    return tokens


def parse_corpus(seed, size):
    """Seeded descriptor texts, near-valid and junk. Numbers are never
    glued together, so no key grows into a prime too large to test."""
    rng = Random(seed)
    for _ in range(size):
        if rng.random() < 0.75:
            tokens = _near_valid_tokens(rng)
        else:
            tokens = [rng.choice([rng.choice(PARSE_PIECES), _parse_number(rng)])
                      for _ in range(rng.randint(0, 12))]
        text = ""
        for token in tokens:
            glue = rng.choice(["", "", " ", "  ", "　"])
            if text[-1:] in ASCII_DIGITS and token[:1] in ASCII_DIGITS:
                glue = " "
            text += glue + token
        yield text


def parse_outcome(parse, text):
    try:
        return ["value", str(parse(text))]
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the corpus's long numbers assume the interpreter's default digit limit",
)
def test_parse_outcomes_are_pinned():
    """The outcome of every text of a seeded corpus in each grammar context
    (the value, or the exception's class, message and position), hashed.
    The digest was taken from the tokenizer that ran ``int()`` on each digit
    run and parsed with ``peek``/``advance`` closures."""
    hasher = hashlib.sha256()
    for text in parse_corpus(20261019, 20000):
        for context, parse in PARSE_CONTEXTS.items():
            hasher.update(json.dumps([context, text, parse_outcome(parse, text)]).encode() + b"\n")
    assert hasher.hexdigest() == (
        "c518dbcc331b074d5d45860fb022b132f70de8d0cea8c4bb1f2ee6ac7cae7004"
    )
