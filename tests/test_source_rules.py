"""``python`` and ``python -O`` run one program.

An ``assert`` or a ``__debug__`` branch in the package would run only
without ``-O``, so the two interpreters would compute different things;
checks belong in the tests.

The constructors convert config values to arrays, so the configuration
grammar in ``cli.py`` hands on plain data and needs no numpy.
"""

import ast
from pathlib import Path

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "blocksweep").glob("*.py"))


def test_the_package_has_no_assert_and_no_debug_branch():
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_imports_no_numpy():
    # the constructors convert config values; the grammar hands on plain data
    path = next(p for p in SOURCES if p.name == "cli.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
    assert imported
    assert [name for name in imported
            if name.split(".")[0] == "numpy"] == []
