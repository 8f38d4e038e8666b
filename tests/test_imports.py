"""The package stays stdlib-only: every absolute import in src/synfuzz
names a module of the standard library, and importing it loads no module
that only costs set-up time."""

import ast
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
