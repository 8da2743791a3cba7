"""Every module of the package, and every test file, uses each name it
imports; every name the benchmark's tracer patches exists; every public
member of an engine module is read by the package or the tracer; only
`magnus` reads how a series is stored."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "baerkit"
# The package's __init__.py imports names only to export them.
SOURCES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
SOURCES.update({f"tests/{p.name}": p for p in TESTS.glob("*.py")})
# The modules whose members the program runs on: not the check catalogue,
# the exports or the entry point.
ENGINE = sorted(
    p for p in PACKAGE.glob("*.py")
    if p.name not in {"selftest.py", "__init__.py", "__main__.py"}
)
TRACER = ROOT / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.
    `from __future__` imports switch compiler features and bind nothing
    that code reads, so they are left out."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in used
    )


def public_members(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function, class and method whose name has no
    leading underscore."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.name, node.lineno) for node in ast.walk(ast.parse(source))
        if isinstance(node, defs) and not node.name.startswith("_")
    ]


def names_read(source: str, strings: bool = False) -> set[str]:
    """Names that expressions load and attribute names, plus every string
    constant when `strings` (the tracer looks members up by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_modules_found():
    assert "semidirect.py" in SOURCES and "cli.py" in SOURCES
    assert "tests/test_imports.py" in SOURCES


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_import_is_used(module):
    assert unused_imports(SOURCES[module].read_text()) == []


def test_detects_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep, sys.argv)\n"
    assert unused_imports(source) == ["path (line 1)"]


def test_tracer_finds_every_patched_name():
    """perfbench/tracing.py wraps package functions by name, so a patched
    name that was renamed or deleted fails its install."""
    run = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "perfbench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def test_only_magnus_reads_the_series_layout():
    """How a series is stored is `magnus`'s own: no other module of the
    package reads its grades or the helpers that build them."""
    layout = {"grades", "_raw", "_add_grade", "_add_grades"}
    readers = [
        f"{path.name}: {sorted(layout & names_read(path.read_text()))}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "magnus.py" and layout & names_read(path.read_text())
    ]
    assert readers == []


def test_every_engine_member_is_read():
    """A member that only tests call is code the program does not need."""
    read = set().union(*(names_read(p.read_text()) for p in PACKAGE.glob("*.py")))
    read |= names_read(TRACER.read_text(), strings=True)
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in ENGINE
        for name, line in public_members(path.read_text())
        if name not in read
    ]
    assert unread == []


def test_detects_an_unread_member():
    source = "class A:\n    def used(self): pass\n    def unused(self): pass\nA().used()\n"
    unread = [name for name, _ in public_members(source) if name not in names_read(source)]
    assert unread == ["unused"]
    assert names_read("patch(cls, 'unused')", strings=True) >= {"unused"}
