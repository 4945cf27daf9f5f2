"""The package root resolves its public names lazily, on first use; every
definition in the package is run by the package, the benchmark or a demo,
or is a public name that one of them runs or README names; no module
outgrows the parser's token buffer; every package name the benchmark
reaches by name resolves, and its traced launcher wraps each span; and both
process entries end through ``cli.run``, whose skipped teardown nothing in
the package relies on."""
import ast
import importlib
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import treeshift


def test_every_public_name_is_its_modules_object():
    for name in treeshift.__all__:
        value = getattr(treeshift, name)
        module = value.__module__
        assert module.startswith("treeshift."), name
        assert getattr(importlib.import_module(module), name) is value, name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from treeshift import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(treeshift.__all__)
    assert all(namespace[name] is getattr(treeshift, name) for name in namespace)


def test_dir_lists_the_public_names():
    listed = dir(treeshift)
    assert set(treeshift.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


def test_modules_are_attributes():
    assert treeshift.trees is importlib.import_module("treeshift.trees")
    assert treeshift.pseudogroup.itinerary is treeshift.itinerary


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        treeshift.no_such_name
    assert not hasattr(treeshift, "verify_suites")
    with pytest.raises(ImportError):
        from treeshift import no_such_name  # noqa: F401


SRC = Path(treeshift.__file__).resolve().parent
ROOT = SRC.parents[1]
# the files whose reads keep a definition alive; the package root's export
# table names every public name, so it reads none of them
READERS = [*(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
           *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]


def definitions():
    """``(qualified name, name)`` of each module-level function and class of
    the package, and of each of its classes' methods.  Dunders, which the
    interpreter calls, and overrides of an inherited method, which the
    base class's callers call, are left out."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"treeshift.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[:2] != "__":
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and item.name[:2] != "__"
                            and not any(item.name in vars(base) for base in bases)):
                        yield f"{node.name}.{item.name}", item.name


def names_read(paths) -> tuple[set[str], set[str]]:
    """The names the files read as bare names, and those they read as an
    attribute or a part of a string literal (``bench/launch.py`` wraps
    functions and methods by dotted name strings)."""
    bare, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.update(node.value.split("."))
    return bare, attributes


def names_documented() -> set[str]:
    """The names README gives a code span of their own: ``name``, a call
    ``name(...)``, or a dotted ``module.name``."""
    text = (ROOT / "README.md").read_text()
    return set(re.findall(r"`(?:[\w.]*\.)?(\w+)(?:\([^`]*\))?`", text))


def test_every_definition_is_public_or_read_outside_the_tests():
    # a method is read only through an attribute or a string: a bare name
    # that matches it is some other variable's
    bare, attributes = names_read(READERS)
    method_read = attributes | set(treeshift.__all__)
    read = method_read | bare
    unread = [qualified for qualified, name in definitions()
              if name not in (method_read if "." in qualified else read)]
    assert unread == []


def test_every_public_name_is_read_outside_the_tests_or_documented():
    bare, attributes = names_read(READERS)
    known = bare | attributes | names_documented()
    assert [name for name in treeshift.__all__ if name not in known] == []


def test_every_module_fits_the_parsers_first_4096_tokens():
    # CPython's parser keeps every token of a module in one array that it
    # doubles when full, so a module past 4,096 tokens compiles with twice
    # the buffer in every process that imports it.  The parser's tokens are
    # tokenize's less ENCODING, COMMENT and NL.
    skipped = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as f:
            counts[path.name] = sum(t.type not in skipped for t in tokenize.tokenize(f.readline))
    assert {name: n for name, n in counts.items() if n > 4096} == {}


def bench_reads() -> list[tuple[str, str]]:
    """``(module, name)`` of each package name the benchmark reaches by name:
    its ``from treeshift[.<module>] import <name>`` statements and the
    ``(module, attribute)`` of each of ``bench/launch.py``'s ``SPANS``."""
    reads = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treeshift"):
                reads += [(node.module, alias.name) for alias in node.names]
            elif (path.name == "launch.py" and isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]):
                reads += [(f"treeshift.{m}", a) for m, a, _ in ast.literal_eval(node.value)]
    return reads


def test_every_name_the_benchmark_reads_resolves():
    # the benchmark runs only in CI's bench steps, so a moved name fails here first
    reads = bench_reads()
    assert ("treeshift.pseudogroup", "S_EMPTY") in reads
    assert ("treeshift.embed", "separate_witness") in reads
    missing = []
    for module, name in reads:
        value = importlib.import_module(module)
        for part in name.split("."):
            value = getattr(value, part, None)
        if value is None:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_the_traced_launcher_wraps_every_span():
    # bench/launch.py replaces a function only in the modules already loaded
    # when it installs its spans, so a module that loads later reads 0
    probe = (
        "import sys, treeshift, treeshift.cli, launch\n"
        "launch._install_spans(launch.Tracer())\n"
        "for module, attribute, _ in launch.SPANS:\n"
        "    value = getattr(treeshift, module)\n"
        "    for part in attribute.split('.'):\n"
        "        value = getattr(value, part)\n"
        "    if not hasattr(value, '__wrapped__'):\n"
        "        print(module + '.' + attribute)\n")
    path = os.pathsep.join([str(SRC.parent), str(ROOT / "bench")])
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_both_process_entries_end_through_run():
    # read without tomllib, which Python 3.10 lacks
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)",
                        (ROOT / "pyproject.toml").read_text(), re.M | re.S).group(1)
    assert re.findall(r'^treeshift = "(.*)"$', scripts, re.M) == ["treeshift.cli:run"]
    main_blocks = [ast.unparse(node) for node in ast.parse((SRC / "cli.py").read_text()).body
                   if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert main_blocks == ["if __name__ == '__main__':\n    run()"]


def test_nothing_relies_on_the_teardown_that_run_skips():
    # cli.run ends the process with os._exit, which runs no atexit handler and
    # no finalizer of an object still alive
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "atexit" in imported or isinstance(node, ast.FunctionDef) and node.name == "__del__":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
