"""One bound for every walk of an F_p-space.

`linalg.enumerate_vectors` raises BoundExceeded at the call, before it lists
anything, when p^dim passes `linalg.ENUM_LIMIT`, and every walk is built on
it.  So with the limit patched one under the largest walk a function makes,
that function raises, with the one message naming p, the dimension and the
limit.
"""

import itertools

import pytest

import exangulate.linalg as linalg
from exangulate.cli import build_category, parse_input
from exangulate.exangulated import ExCategory
from exangulate.linalg import BoundExceeded, enumerate_vectors, space_size
from exangulate.localization import (IdealQuotient, _check_mr3, ebar_group,
                                     k_subgroup, member_table)
from exangulate.quiver import hom_dim
from test_ebar_matrices import BENCH_INPUT, ISO, a2, saturated


def bench():
    return build_category(parse_input(BENCH_INPUT.read_text()))


def message(p, dim, limit):
    return f"^F_{p}\\^{dim} has more than {limit} vectors to enumerate$"


def largest_walk(monkeypatch, run):
    """(p, dim) of the largest F_p-space that `run()` lists."""
    walks = []
    real = linalg.space_size

    def spy(p, dim):
        walks.append((p, dim))
        return real(p, dim)

    with monkeypatch.context() as m:
        m.setattr(linalg, "space_size", spy)
        run()
    return max(walks, key=lambda w: w[0] ** w[1])


def assert_bounded(monkeypatch, run, walker):
    """`run()` passes at the limit of its largest walk, once its memos are
    warm, and raises BoundExceeded one under it, in a walk that `walker`
    makes (through `enumerate_hom` or directly)."""
    run()
    p, dim = largest_walk(monkeypatch, run)
    assert dim >= 1
    monkeypatch.setattr(linalg, "ENUM_LIMIT", p ** dim)
    run()
    monkeypatch.setattr(linalg, "ENUM_LIMIT", p ** dim - 1)
    with pytest.raises(BoundExceeded,
                       match=message(p, dim, p ** dim - 1)) as raised:
        run()
    frames = [entry.name for entry in raised.traceback
              if not entry.name.startswith("<")]   # comprehensions
    callers = frames[:frames.index("enumerate_vectors")]
    if callers[-1] == "enumerate_hom":
        callers.pop()
    assert callers[-1] == walker


def forget(owner, fn):
    """Drop the memo of `fn` on its owner, so that the next call walks."""
    owner._memo.pop(fn.__wrapped__, None)


def test_enumerate_vectors_raises_at_the_call(monkeypatch):
    monkeypatch.setattr(linalg, "ENUM_LIMIT", 8)
    assert space_size(2, 3) == len(list(enumerate_vectors(2, 3))) == 8
    monkeypatch.setattr(linalg, "ENUM_LIMIT", 7)
    for walk in (space_size, enumerate_vectors):
        with pytest.raises(BoundExceeded, match=message(2, 3, 7)):
            walk(2, 3)        # nothing iterated
    assert len(list(enumerate_vectors(7, 1))) == 7


def test_arrows_stop_at_the_limit(monkeypatch):
    cat = bench()
    X, Y = max(itertools.product(cat.universe, repeat=2),
               key=lambda k: hom_dim(*k))
    assert_bounded(monkeypatch, lambda: cat.arrows(X, Y), "arrows")


@pytest.mark.parametrize("dual", [False, True])
def test_edges_stop_at_the_limit(monkeypatch, dual):
    cat = bench()
    src, tgt = max(((X, Y) for X, Y in itertools.product(cat.universe,
                                                         repeat=2)
                    if all(a >= b if dual else a <= b
                           for a, b in zip(X.dims, Y.dims))),
                   key=lambda k: hom_dim(*k))

    def run():
        forget(cat, ExCategory.edges)
        return cat.edges(src, tgt, dual)

    assert_bounded(monkeypatch, run, "edges")


def test_wic_stops_at_the_limit(monkeypatch):
    cat = bench()
    assert_bounded(monkeypatch, cat._check_wic, "_check_wic")


def test_k_stops_at_the_limit(monkeypatch):
    cat = a2(3)
    spec, q = saturated(cat)
    member_table(spec, q)
    gen = dict(zip(cat.labels, cat.generators))

    def run():
        forget(q, k_subgroup)
        return k_subgroup(spec, q, gen["1"], gen["2"])

    assert_bounded(monkeypatch, run, "k_subgroup")


def test_mr3_stops_at_the_limit(monkeypatch):
    """MR3's walks of Hom(X0, Y0) and Hom(Xe, Ye); the classes of E(C, A)
    it realizes are listed once, so that their walks, as large, do not
    come first."""
    cat = bench()
    q = IdealQuotient(cat, [])
    mem, _ = member_table(ISO, q)
    listed = {}
    ext_elements = cat.ext_elements

    def once(C, A):
        if (C, A) not in listed:
            listed[C, A] = ext_elements(C, A)
        return listed[C, A]

    monkeypatch.setattr(cat, "ext_elements", once)
    assert_bounded(monkeypatch, lambda: _check_mr3(ISO, q, mem), "_check_mr3")


def test_ebar_classes_stop_at_the_limit(monkeypatch):
    cat = bench()
    q = IdealQuotient(cat, [])
    C, A = max(itertools.product(cat.generators, repeat=2),
               key=lambda k: cat.ext(*k).dim)
    ebar = ebar_group(ISO, q, C, A)
    assert ebar.dim == cat.ext(C, A).dim >= 1
    assert_bounded(monkeypatch, ebar.classes, "classes")

