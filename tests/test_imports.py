"""The package stays stdlib-only: every absolute import in src/synfuzz
names a module of the standard library, and importing it loads no module
that only costs set-up time."""

import ast
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_dataclasses():
    """``dataclasses`` pulls in inspect, ast, dis and tokenize: most of a
    fresh interpreter's ``import synfuzz``.  Codes and layouts take their
    identity from their spec string and records are namedtuples, so
    nothing on the import path needs it."""
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import synfuzz; "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
