"""The value types are plain classes on the bases of `exangulate.values`;
these tests pin the contract they share: frozen types refuse assignment,
value types compare and hash by their fields, mutable records are
unhashable, and each prints as `Name(field=value, ...)`."""

import pickle
from pathlib import Path

import pytest

from exangulate.cli import build_category, parse_input
from exangulate.exangulated import CheckResult, Subcategory
from exangulate.linalg import Matrix
from exangulate.localization import MorphismClassSpec

ROOT = Path(__file__).resolve().parent.parent
CFG = parse_input((ROOT / "bench" / "inputs" / "a3-rad2.exg").read_text())


def test_frozen_types_refuse_assignment_and_deletion():
    m = Matrix.identity(2, 1)
    spec = MorphismClassSpec("iso")
    for obj, name in ((m, "p"), (spec, "mode"), (CFG, "prime")):
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            setattr(obj, name, 3)
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            delattr(obj, name)
    assert m.p == 2 and spec.mode == "iso" and CFG.prime == 2


def test_values_compare_and_hash_by_their_fields():
    spec = MorphismClassSpec("iso")
    assert spec == MorphismClassSpec("iso") and spec is not MorphismClassSpec("iso")
    assert hash(spec) == hash(MorphismClassSpec("iso"))
    assert spec != MorphismClassSpec("saturate")
    assert spec.__eq__(("iso", ())) is NotImplemented
    assert pickle.loads(pickle.dumps(CFG)) == CFG


def test_records_compare_by_value_and_are_unhashable():
    r = CheckResult("C1", True)
    assert r == CheckResult("C1", True, None, 0)
    r.checked = 4
    assert r != CheckResult("C1", True) and r.checked == 4
    with pytest.raises(TypeError, match="unhashable"):
        hash(r)


def test_reprs_name_the_fields():
    assert repr(Matrix.identity(2, 1)) == "Matrix(p=2, rows=1, cols=1, entries=(1,))"
    assert repr(CheckResult("C1", None)) == (
        "CheckResult(name='C1', passed=None, witness=None, checked=0)")


def test_subcategory_memo_takes_no_part_in_eq_hash_or_repr():
    gens = build_category(CFG).generators
    a, b = Subcategory(gens), Subcategory(gens)
    a.summand_multiset(gens[0])
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_memo" not in repr(a)


def test_session_config_replace_builds_a_changed_copy():
    cfg = CFG.replace(prime=3, multiplicity=1)
    assert (cfg.prime, cfg.multiplicity) == (3, 1)
    assert cfg.replace(prime=CFG.prime, multiplicity=CFG.multiplicity) == CFG
    assert CFG.prime == 2
    with pytest.raises(TypeError):
        CFG.replace(primes=3)
