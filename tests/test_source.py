"""Source-level rules for the package."""

import ast
from pathlib import Path

import extendkit

SOURCES = sorted(Path(extendkit.__file__).parent.glob("*.py"))


def test_self_checks_survive_python_O():
    """python -O strips assert statements, and an uncaught AssertionError
    exits 1 (the refutation code): self-checks raise InternalError."""
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
