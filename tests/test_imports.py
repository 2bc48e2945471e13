"""Imports: every name a package module imports is used, every function
the package defines is used in it or exported, no package module imports
`random`, the localization layer loads only where it is used, and no run
loads `dataclasses` or `inspect`.  Also the one enumeration bound: only
`linalg` and the roof pool raise BoundExceeded, and no module adds an
`*_ENUM_LIMIT`.

No linter ships with the toolchain, so the first check parses each module
with `ast`: an imported name must occur as a name somewhere in the module,
or be listed in its `__all__` (a re-export).  Function-level imports count.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import exangulate
import exangulate.localization as localization

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "exangulate"
BENCH_INPUT = str(ROOT / "bench" / "inputs" / "a3-rad2.exg")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, Sequence\n"
                     "x: Sequence[int] = []\n__all__ = ['Any']\n")
    assert unused_imports(tree) == ["os (line 1)"]


def unused_defs(sources: list[str], exported) -> list[str]:
    """The `def` names (functions and methods, dunders aside) that occur as
    a word in the sources only where they are defined, and are not
    exported: code that only the tests use."""
    defined: Counter = Counter()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] += 1
    words = Counter(re.findall(r"\w+", "\n".join(sources)))
    return sorted(name for name, count in defined.items()
                  if words[name] == count and name not in exported
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_def_is_used_in_src_or_exported():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))]
    assert unused_defs(sources, exangulate.__all__) == []


def test_the_check_sees_an_unused_def():
    sources = ["def f():\n    return g()\n\n\ndef g():\n    pass\n",
               "class A:\n    def __eq__(self, o):\n        return True\n\n"
               "    def m(self):\n        pass\n\n\ndef h():\n    pass\n"
               "\n\ndef m():\n    pass\n"]
    assert unused_defs(sources, ["h"]) == ["f", "m"]


# -- one enumeration bound ----------------------------------------------------------

# the places that may raise BoundExceeded: the bound of every F_p-space walk,
# in `linalg`, and the roof pool, which is summed over many spaces
BOUND_RAISERS = {("linalg.py", None), ("localization.py", "etilde_group")}
ENUM_LIMITS = {"ENUM_LIMIT", "EXT_ENUM_LIMIT", "ROOF_ENUM_LIMIT"}


def bound_raisers(name: str, tree: ast.Module) -> set:
    """(file, enclosing top-level function) of each `raise BoundExceeded`;
    the function is None in `linalg`, which may raise it anywhere."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "BoundExceeded":
                found.add((name, None if name == "linalg.py"
                           else getattr(top, "name", None)))
    return found


def test_only_the_walk_and_the_roof_pool_raise_bound_exceeded():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= bound_raisers(path.name, ast.parse(path.read_text(
            encoding="utf-8")))
    assert found == BOUND_RAISERS


def test_the_bound_check_sees_a_stray_raise():
    tree = ast.parse("def walk():\n    raise BoundExceeded('too many')\n")
    assert bound_raisers("quiver.py", tree) == {("quiver.py", "walk")}


def test_no_other_enumeration_limit():
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names |= set(re.findall(r"\w*ENUM_LIMIT\b",
                                path.read_text(encoding="utf-8")))
    assert names == ENUM_LIMITS


# -- the localization layer loads on first use ----------------------------------


def fresh_interpreter(script: str, *args: str) -> list[str]:
    """stdout lines of `script` run in a new interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          cwd=str(ROOT), capture_output=True, text=True,
                          check=True)
    return proc.stdout.splitlines()


RUN_COMMANDS = """\
import contextlib, io, sys
from exangulate.cli import main
path = sys.argv[1]
for argv in sys.argv[2:]:
    command, *objects = argv.split()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, path, *objects])
    print(command, code, "exangulate.localization" in sys.modules)
"""


def test_check_hom_and_ext_leave_localization_unloaded():
    assert fresh_interpreter(RUN_COMMANDS, BENCH_INPUT,
                             "check", "hom 3 1/2", "ext 1 3") == [
        "check 0 False", "hom 0 False", "ext 0 False"]


def test_localize_loads_localization():
    assert fresh_interpreter(RUN_COMMANDS, BENCH_INPUT, "localize") == [
        "localize 0 True"]


def test_runs_load_neither_dataclasses_nor_inspect():
    """The value types are plain classes, so a run imports neither module
    (nor what `inspect` pulls in: `ast`, `dis`, `tokenize`)."""
    assert fresh_interpreter(
        RUN_COMMANDS + "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n",
        BENCH_INPUT, "check", "localize") == [
        "check 0 False", "localize 0 True", "False False"]


def imported_packages(path: Path) -> set[str]:
    """The top-level packages a module imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {n.split(".")[0] for n in names}


def test_no_package_module_imports_dataclasses_or_inspect():
    for path in sorted(SRC.glob("*.py")):
        assert not imported_packages(path) & {"dataclasses", "inspect"}, path.name


def test_no_package_module_imports_random():
    """Output is byte-deterministic, so no package module draws random
    numbers, seeded or not."""
    for path in sorted(SRC.glob("*.py")):
        assert "random" not in imported_packages(path), path.name


def test_library_access_loads_localization():
    assert fresh_interpreter(
        "import sys\n"
        "import exangulate\n"
        "print('exangulate.localization' in sys.modules)\n"
        "from exangulate import localize\n"
        "print('exangulate.localization' in sys.modules)\n") == [
        "False", "True"]


def test_star_import_binds_every_exported_name():
    assert fresh_interpreter(
        "from exangulate import *\n"
        "import exangulate\n"
        "print([n for n in exangulate.__all__ if n not in globals()])\n"
    ) == ["[]"]


def test_every_exported_name_resolves():
    for name in exangulate.__all__:
        assert getattr(exangulate, name) is not None
    assert set(exangulate.__all__) <= set(dir(exangulate))
    assert exangulate.localize is localization.localize
    assert exangulate.LocalizationError is localization.LocalizationError


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError,
                       match="^module 'exangulate' has no attribute 'nowhere'$"):
        exangulate.nowhere
