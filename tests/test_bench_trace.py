"""`bench/layertrace.py` names package functions by module and attribute
path, so a refactor that renames or removes one breaks `bench/run.py
--trace 1` without failing anything else.  This loads the file as it is and
resolves every name it lists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_resolves_to_a_callable(name):
    module_name, path, extra = SPANS[name]
    target = importlib.import_module(module_name)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
    if extra == "cache":
        assert callable(target.cache_info)
