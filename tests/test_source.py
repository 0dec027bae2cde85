"""Guard on the package source: ``src/polysum`` holds only what the program runs.

Test oracles live in ``tests/helpers.py``.  A top-level function or class in
``src/polysum`` must be loaded by name somewhere else in the package (its own
body does not count) or be exported in ``polysum.__all__``.
"""

import ast
from pathlib import Path

import polysum

SRC = Path(polysum.__file__).parent

# bench/layertrace.py wraps it by name; it goes once the benchmark stops
# tracing it (ROADMAP item 1)
KEPT_FOR_THE_BENCHMARK = {("exact", "det_sign_rows")}


def loaded_names(node) -> set:
    """Every name a node loads, bare or as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def unused_definitions(src: Path) -> list:
    """(module, name) of each top-level def or class nothing else in ``src`` loads."""
    bodies = {p.stem: ast.parse(p.read_text()).body for p in sorted(src.glob("*.py"))}
    loads = [(stmt, loaded_names(stmt)) for body in bodies.values() for stmt in body]
    unused = []
    for module, body in bodies.items():
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(stmt.name in names for other, names in loads if other is not stmt):
                    unused.append((module, stmt.name))
    return unused


def test_every_definition_is_used_or_exported():
    unused = {
        (module, name)
        for module, name in unused_definitions(SRC)
        if name not in polysum.__all__
    }
    assert unused == KEPT_FOR_THE_BENCHMARK


def test_every_exported_name_resolves():
    assert len(set(polysum.__all__)) == len(polysum.__all__)
    missing = [name for name in polysum.__all__ if not hasattr(polysum, name)]
    assert missing == []
