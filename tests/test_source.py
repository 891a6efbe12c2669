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


def test_one_rational_type():
    """Fraction is bound once, as ground.Rational; every other module takes
    Rational from ground, and gmpy2 is imported nowhere."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "gmpy2" or (top == "fractions" and path.name != "ground.py"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found
