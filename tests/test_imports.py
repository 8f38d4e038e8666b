"""The package stays stdlib-only: every absolute import in src/synfuzz
names a module of the standard library."""

import ast
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
