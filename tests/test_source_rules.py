"""``python`` and ``python -O`` run one program.

An ``assert`` or a ``__debug__`` branch in the package would run only
without ``-O``, so the two interpreters would compute different things;
checks belong in the tests.
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
