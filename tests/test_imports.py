"""The package stays stdlib-only: every absolute import in src/synfuzz
names a module of the standard library, and importing it loads no module
that only costs set-up time."""

import ast
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synfuzz

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "synfuzz"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def fresh_import(then):
    """The output of a fresh isolated interpreter that imports synfuzz
    from this checkout and then runs ``then``."""
    probe = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import synfuzz; {then}"
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_importing_the_package_loads_no_dataclasses():
    """``dataclasses`` pulls in inspect, ast, dis and tokenize: most of a
    fresh interpreter's ``import synfuzz``.  Codes and layouts take their
    identity from their spec string and records are namedtuples, so
    nothing on the import path needs it."""
    assert fresh_import("print('dataclasses' in sys.modules)") == "False"


def test_importing_the_package_loads_no_argparse():
    """Only the command line needs argparse (and gettext with it), so
    ``synfuzz.cli`` is imported on first use; it still resolves as an
    attribute, by ``from synfuzz.cli import main`` and by ``-m``."""
    assert fresh_import("print('argparse' in sys.modules, 'gettext' in sys.modules)") \
        == "False False"
    assert fresh_import("print(synfuzz.cli.main is sys.modules['synfuzz.cli'].main, "
                        "'argparse' in sys.modules)") == "True True"
    assert fresh_import("from synfuzz.cli import main; print(callable(main))") == "True"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        synfuzz.nothing  # noqa: B018
    run = subprocess.run([sys.executable, "-m", "synfuzz", "--help"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0 and "usage" in run.stdout


def test_a_star_import_loads_no_command_line():
    """``cli`` is not in ``__all__``, so ``from synfuzz import *`` binds
    the library's names without loading argparse or gettext, and
    ``synfuzz.cli`` still resolves as an attribute."""
    assert "cli" not in synfuzz.__all__
    assert fresh_import("from synfuzz import *; print('argparse' in sys.modules, "
                        "'gettext' in sys.modules, callable(enroll))") == "False False True"
    assert fresh_import("print(callable(synfuzz.cli.main))") == "True"


ROSTER = Path(__file__).resolve().parents[1] / "perfbench" / "roster.py"
# hashlib, its OpenSSL backend and hmac, then the error channel
LAZY = ("hashlib", "_hashlib", "hmac", "synfuzz.channel")


@functools.cache
def roster_specs():
    spec = importlib.util.spec_from_file_location("perfbench_roster", ROSTER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module.SPECS


def loaded(names, then="pass"):
    """The given modules that a fresh interpreter holds after importing
    synfuzz and running ``then``."""
    return fresh_import(f"{then}; print(*[m for m in {names!r} if m in sys.modules])")


def test_importing_and_parsing_load_no_openssl_and_no_channel():
    """Only enroll and verify hash, and only simulations draw errors:
    a parse of every roster spec loads neither OpenSSL nor the channel."""
    specs = roster_specs()
    assert len(specs) == 10
    assert loaded(LAZY) == ""
    assert loaded(LAZY, f"from synfuzz.codespec import parse_spec; "
                        f"codes = [parse_spec(s) for s in {specs!r}]") == ""


def test_the_first_enroll_loads_hashlib():
    assert loaded(LAZY, "code = synfuzz.parse_spec('cI(rs(7,3;gf(2^3)))'); "
                        "synfuzz.enroll([0] * 21, code)") == "hashlib _hashlib hmac"


def test_every_exported_name_resolves():
    """The lazy names resolve on attribute access and through ``import *``,
    each to the object its module defines."""
    for name in synfuzz.__all__:
        assert getattr(synfuzz, name) is not None, name
    assert synfuzz.Rng is synfuzz.channel.Rng
    assert synfuzz.gen_mixed is synfuzz.channel.gen_mixed
    assert fresh_import("ns = {}; exec('from synfuzz import *', ns); "
                        "print(sorted(set(synfuzz.__all__) - set(ns)), ns['Rng'].__module__)") \
        == "[] synfuzz.channel"


def test_hash_sizes_match_hashlib():
    """``Template.from_text`` checks a digest's length from the table,
    without building a hasher."""
    import hashlib

    for alg, (name, size) in synfuzz.fuzzy._HASHES.items():
        assert getattr(hashlib, name)().digest_size == size, alg


@pytest.mark.parametrize("command", ["info", "capability"])
def test_cli_reports_load_no_openssl(command):
    """``synfuzz info`` and ``capability`` hash nothing and draw no errors."""
    spec = roster_specs()[6]
    then = (f"import io; from synfuzz.cli import main; sys.stdout = io.StringIO(); "
            f"rc = main([{command!r}, '--code', {spec!r}]); report = sys.stdout.getvalue(); "
            f"sys.stdout = sys.__stdout__; print(rc, bool(report))")
    assert loaded(LAZY, then) == "0 True"


# loaded only by enrollment and verification, and by nothing at all
PARSE_FREE = ("synfuzz.fuzzy", "__future__")


def test_importing_and_parsing_load_no_fuzzy_and_no_future():
    """A parse needs the codes and their parser only: ``fuzzy`` waits for
    the first enroll or verify, and no module of the package imports
    ``__future__``."""
    then = f"codes = [synfuzz.parse_spec(s) for s in {roster_specs()!r}]"
    assert loaded(PARSE_FREE) == ""
    assert loaded(PARSE_FREE, then) == ""


def test_the_package_hook_loads_no_importlib():
    """``python -I -S``, as scripts/cold_pairs.py runs the CLI, starts
    without ``importlib``; the import, a parse and the lazy names leave
    it out."""
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import synfuzz; "
             f"synfuzz.parse_spec({roster_specs()[6]!r}); synfuzz.Template; synfuzz.Rng; "
             f"print('importlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_importing_and_parsing_load_no_threading():
    """``gf`` takes its thread-local counter and ``codespec`` its cache
    lock from ``_thread``, so ``import synfuzz`` and a parse of every
    roster spec load no ``threading``.  ``-S`` leaves out the site hooks,
    which on some installations import ``threading`` themselves."""
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import synfuzz; "
             f"codes = [synfuzz.parse_spec(s) for s in {roster_specs()!r}]; "
             f"print(len(codes), 'threading' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "10 False"


@pytest.mark.parametrize("command", ["info", "capability"])
def test_cli_reports_load_no_fuzzy(command):
    then = (f"import io; from synfuzz.cli import main; sys.stdout = io.StringIO(); "
            f"rc = main([{command!r}, '--code', {roster_specs()[6]!r}]); "
            f"sys.stdout = sys.__stdout__; print(rc)")
    assert loaded(PARSE_FREE, then) == "0"


def test_the_first_enroll_loads_fuzzy_and_binds_enroll():
    """The hook runs once per name: the first ``synfuzz.enroll`` imports
    ``fuzzy`` and binds ``enroll`` in the package, where a loop finds it."""
    then = ("print('enroll' in vars(synfuzz)); code = synfuzz.parse_spec('cI(rs(7,3;gf(2^3)))'); "
            "t = synfuzz.enroll([0] * 21, code); "
            "print(vars(synfuzz)['enroll'] is sys.modules['synfuzz.fuzzy'].enroll)")
    assert loaded(PARSE_FREE, then).split() == ["False", "True", "synfuzz.fuzzy"]


def test_no_module_imports_future():
    """Every annotation in the package evaluates at definition time, which
    Python 3.10 allows, so none needs ``from __future__ import annotations``."""
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert found == []
