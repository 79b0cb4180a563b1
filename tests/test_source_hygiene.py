"""Static hygiene of the package source, checked with the standard library.

No linter is part of the toolchain, so three of its checks run here: every
module uses each name it imports, ``locgenus.__all__`` lists exactly the
names the package ``__init__`` imports, and every function, method and
class the package defines is named somewhere besides its definition. The
first two catch imports left behind when code is deleted, the third code
that nothing calls any more. A fourth keeps one equality idiom: only
``arith._Value`` defines ``__eq__`` and ``__hash__``, and no module imports
``dataclasses`` (whose generated methods would be a second idiom) or
``typing``. A fifth keeps one reader of numbers in text: only
``arith._decimal`` calls ``int``, and the CLI builds a ``Fraction`` only
from two ints. A sixth keeps one checker per kind of argument: only
``arith._is_int`` tests for ``bool`` with ``isinstance`` (an integer is
never a bool), and only ``arith._require_rational`` calls ``Fraction`` on
one argument that is not a literal (a rational is an int or a Fraction,
never text that ``Fraction`` would parse). A seventh keeps one path for
the descriptor grammar's errors: ``cli._read_valid``, which answers a valid
text from one match, has no ``raise``, so every grammar ``ParseError``
comes from the token path. An eighth keeps one printer of the command
line: only ``cli._parser`` builds an ``argparse.ArgumentParser``, and
``cli._read_argv``, which reads the argv it can from ``cli._COMMANDS``,
has no ``raise``, so every usage, help and argparse error comes from the
tree. A ninth keeps one reader of the interpreter's digit limit: only
``arith`` names ``get_int_max_str_digits``, and ``arith._digit_limit``
reads 0 where the interpreter has no limit. A tenth keeps the fingerprint
search on exponents: ``genus.FakeSphereModel._fingerprint`` has no ``**``
and no ``pow``, so each probe compares exponents and no power of p is
built. An eleventh keeps argparse and json for printing: in a fresh
interpreter, a valid command through ``cli.main`` loads neither, one
under --json loads json alone, and --help loads argparse. It runs in a
subprocess, since the test modules import argparse themselves.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import locgenus

PACKAGE = Path(locgenus.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
#: Where a definition may be referenced: the code, its tests, the
#: benchmark and the README.
REFERENCE_FILES = [
    *sorted(path for folder in ("src", "tests", "perfbench") for path in (REPO / folder).rglob("*.py")),
    REPO / "README.md",
]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = parse(path)
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_all_lists_exactly_the_init_imports():
    exported = locgenus.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == imported_names(parse(PACKAGE / "__init__.py"))


def defined_names(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.walk(tree) if isinstance(node, kinds)]


def test_every_definition_is_referenced():
    corpus = "\n".join(path.read_text(encoding="utf-8") for path in REFERENCE_FILES)
    definitions = Counter(
        name
        for path in PACKAGE.glob("*.py")
        for name in defined_names(parse(path))
        if not (name.startswith("__") and name.endswith("__"))
    )
    unreferenced = sorted(
        name
        for name, count in definitions.items()
        if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) <= count
    )
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def class_attribute_names(cls):
    """The names a class body binds by ``def`` or by assignment."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_only_the_value_base_defines_equality():
    defined = sorted(
        f"{path.name}:{node.name}.{name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        for name in class_attribute_names(node)
        if name in ("__eq__", "__hash__")
    )
    assert defined == ["arith.py:_Value.__eq__", "arith.py:_Value.__hash__"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_dataclasses_or_typing(path):
    modules = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    banned = {name for name in modules if name.split(".")[0] in ("dataclasses", "typing")}
    assert not banned, f"{path.name} imports {sorted(banned)}"


def calls_by_function(tree, owner=None):
    """Each call in the tree, with the name of its innermost enclosing
    function (None at module level)."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from calls_by_function(child, inner)


def calls_of(name, path):
    """(enclosing function, call) for each call of the plain name in path."""
    return [
        (owner, call)
        for owner, call in calls_by_function(parse(path))
        if isinstance(call.func, ast.Name) and call.func.id == name
    ]


def test_text_becomes_a_number_in_one_place():
    readers = sorted(
        f"{path.name}:{owner}" for path in PACKAGE.glob("*.py") for owner, _ in calls_of("int", path)
    )
    assert readers == ["arith.py:_decimal"]
    one_argument = [
        owner for owner, call in calls_of("Fraction", PACKAGE / "cli.py") if len(call.args) != 2
    ]
    assert not one_argument, f"cli.py reads a Fraction from one argument in {one_argument}"


def test_each_kind_of_argument_is_checked_in_one_place():
    bool_tests = sorted(
        f"{path.name}:{owner}"
        for path in PACKAGE.glob("*.py")
        for owner, call in calls_of("isinstance", path)
        if any(isinstance(node, ast.Name) and node.id == "bool" for node in ast.walk(call.args[1]))
    )
    assert bool_tests == ["arith.py:_is_int"]
    rational_readers = sorted(
        f"{path.name}:{owner}"
        for path in PACKAGE.glob("*.py")
        for owner, call in calls_of("Fraction", path)
        if len(call.args) == 1 and not isinstance(call.args[0], ast.Constant)
    )
    assert rational_readers == ["arith.py:_require_rational"]


def raises_in(name):
    """The line of each ``raise`` in the cli.py function of that name."""
    (function,) = [
        node
        for node in ast.walk(parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return [node.lineno for node in ast.walk(function) if isinstance(node, ast.Raise)]


def test_the_whole_text_reader_raises_nothing():
    raises = raises_in("_read_valid")
    assert not raises, f"cli._read_valid raises at lines {raises}"


def test_only_the_tree_builds_an_argparse_parser():
    builders = sorted(
        f"{path.name}:{owner}"
        for path in PACKAGE.glob("*.py")
        for owner, call in calls_by_function(parse(path))
        if isinstance(call.func, ast.Attribute) and call.func.attr == "ArgumentParser"
        or isinstance(call.func, ast.Name) and call.func.id == "ArgumentParser"
    )
    assert builders == ["cli.py:_parser"]
    raises = raises_in("_read_argv")
    assert not raises, f"cli._read_argv raises at lines {raises}"


def test_the_digit_limit_is_read_in_one_place():
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "get_int_max_str_digits" in path.read_text()
    )
    assert readers == ["arith.py"]


def test_the_fingerprint_search_builds_no_power():
    (search,) = [
        node
        for cls in ast.walk(parse(PACKAGE / "genus.py"))
        if isinstance(cls, ast.ClassDef) and cls.name == "FakeSphereModel"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "_fingerprint"
    ]
    powers = [
        node.lineno
        for node in ast.walk(search)
        if isinstance(getattr(node, "op", None), ast.Pow)
        or isinstance(node, ast.Name) and node.id == "pow"
        or isinstance(node, ast.Attribute) and node.attr == "pow"
    ]
    assert not powers, f"FakeSphereModel._fingerprint builds a power at lines {powers}"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["type", "canon", "{default:0}"], []),
        (["type", "canon", "{default:0}", "--json"], ["json"]),
        (["--help"], ["argparse"]),
    ],
    ids=["plain", "json", "help"],
)
def test_argparse_and_json_load_only_to_print(argv, loaded):
    probe = (
        f"import sys; from locgenus.cli import main; main({argv!r}); "
        "print(sorted({'argparse', 'json'} & set(sys.modules)), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stderr.splitlines()[-1] == str(loaded)
