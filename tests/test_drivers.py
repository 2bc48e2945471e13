"""The shared axiom drivers never ask which engine they have.

`check_c1` .. `check_c4`, `composites`, `exangle_failures` and
`homotopy_equivalent` run on `ExCategory` and on `LocalizedEngine` through
the engine primitives alone.  This parses `exangulated.py` with `ast` and
checks each driver's body: it calls none of isinstance, hasattr and getattr,
and it names neither engine class nor `backend`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exangulate" / "exangulated.py"
DRIVERS = ("check_c1", "check_c2", "check_c3", "check_c4", "composites",
           "exangle_failures", "homotopy_equivalent")
PROBES = {"isinstance", "hasattr", "getattr"}
ENGINE_NAMES = {"ExCategory", "LocalizedEngine", "backend"}


def engine_questions(fn: ast.FunctionDef) -> list[str]:
    out = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in PROBES):
            out.append(f"{node.func.id}() (line {node.lineno})")
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in ENGINE_NAMES:
            out.append(f"{name} (line {node.lineno})")
    return out


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("name", DRIVERS)
def test_driver_never_asks_for_its_engine(name):
    tree = ast.parse(SRC.read_text(encoding="utf-8"))
    assert engine_questions(functions(tree)[name]) == []


def test_the_check_sees_an_engine_question():
    tree = ast.parse(
        "def driver(engine: ExCategory):\n"
        "    if isinstance(engine, LocalizedEngine) or engine.backend:\n"
        "        return getattr(engine, 'n')\n")
    assert sorted(engine_questions(functions(tree)["driver"])) == [
        "ExCategory (line 1)", "LocalizedEngine (line 2)", "backend (line 2)",
        "getattr() (line 3)", "isinstance() (line 2)"]
