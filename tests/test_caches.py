"""Every process-global cache in the package is listed here, so that a new
one needs a deliberate edit.

A cache is a function decorated with `functools.lru_cache` or
`functools.cache`, or a module-level name bound to an empty dict or set.
The `linalg` caches hold matrices, ints and tuples only and keep a bounded
number of results.  The `quiver` caches are keyed by modules and unbounded;
ROADMAP item 5 moves them onto their algebra.
"""

import ast
from pathlib import Path

import pytest

import exangulate.linalg as linalg

SRC = Path(__file__).resolve().parent.parent / "src" / "exangulate"

ALLOWED = {
    "linalg._PRIME_MODULI",
    "linalg.kernel_basis",
    "linalg.rref",
    "linalg.rref_solve",
    "quiver._chain_lift",
    "quiver.ext_group",
    "quiver.hom_basis",
    "quiver.path_basis",
    "quiver.resolution",
}

_CACHE_DECORATORS = {"lru_cache", "cache"}
_EMPTY_CONTAINERS = {"dict", "set"}


def _name(node: ast.expr) -> str | None:
    """`f`, `functools.f` and `f(...)` all name f."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and not node.args and not node.keywords
            and _name(node) in _EMPTY_CONTAINERS)


def cache_decorators(tree: ast.Module) -> dict[str, ast.expr]:
    """Each cached function or method, by name, with its decorator."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if _name(dec) in _CACHE_DECORATORS:
                    found[node.name] = dec
    return found


def module_level_caches(tree: ast.Module) -> list[str]:
    names = list(cache_decorators(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_empty_container(node.value):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and _is_empty_container(node.value)):
            names.append(node.target.id)
    return names


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_global_cache_is_on_the_allow_list():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in module_level_caches(_tree(path))}
    assert found == ALLOWED


def test_every_linalg_cache_is_bounded():
    assert isinstance(linalg.LINALG_CACHE_SIZE, int) and linalg.LINALG_CACHE_SIZE > 0
    decorators = cache_decorators(_tree(SRC / "linalg.py"))
    assert sorted(decorators) == ["kernel_basis", "rref", "rref_solve"]
    for name, dec in decorators.items():
        assert isinstance(dec, ast.Call) and _name(dec) == "lru_cache"
        assert [kw.arg for kw in dec.keywords] == ["maxsize"]
        maxsize = getattr(linalg, name).cache_parameters()["maxsize"]
        assert maxsize == linalg.LINALG_CACHE_SIZE


@pytest.mark.parametrize("source,expected", [
    ("@lru_cache(maxsize=None)\ndef f(x): pass\n", ["f"]),
    ("@functools.cache\ndef g(x): pass\n", ["g"]),
    ("class C:\n    @functools.lru_cache\n    def h(self): pass\n", ["h"]),
    ("_A = {}\n_B: set[int] = set()\n_C = dict()\n", ["_A", "_B", "_C"]),
    ("_T = {'a': 1}\n_S = {1, 2}\n_F = frozenset()\n"
     "def f():\n    local = {}\n", []),
])
def test_the_scan_sees_each_kind_of_cache(source, expected):
    assert module_level_caches(ast.parse(source)) == expected
