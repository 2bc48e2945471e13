"""C3's candidates are built from pieces computed once per value.

* `sum_module` keeps each sum in its algebra's table, keyed by the parts,
  and records the parts on a sum of two or more nonzero parts;
  `Subcategory.summand_multiset` merges the parts' multisets instead of
  counting the sum's summands.
* `identity_morphism` keeps the identity on its module.
* An `ExtElement` is its class: degree, ends and coordinates.  Its cocycle
  is computed by its `ExtSpace` when first read.
* `ExCategory.push`/`pull` are one product with `move_matrix`.
* The algebra keeps its hash, which `ext_group`'s cache key reads.

These tests check each against what it replaces, on `bench/inputs`,
`fixtures/a4-cluster.exg` and A2 at p = 3.
"""

import gc
import itertools
import pickle
from functools import lru_cache
from pathlib import Path

import pytest

import exangulate.exangulated as exangulated
import exangulate.localization as localization
import cone_reference
import decompose_reference
import k_reference
from exangulate.cli import build_category, parse_input
from exangulate.exangulated import (BoundExceeded, ExCategory, check_c3,
                                    move_matrix)
from exangulate.linalg import Matrix
from exangulate.quiver import (AlgebraPresentation, Arrow, ExtElement, Quiver,
                               combine, direct_sum, hom_basis,
                               identity_morphism, interval_module, pull_back,
                               push_forward, sum_module, zero_module)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ["bench/inputs/a3-rad2.exg", "fixtures/a4-cluster.exg", "a2-at-p3"]
ISO = localization.MorphismClassSpec("iso")


@lru_cache(maxsize=None)
def category(case: str) -> ExCategory:
    if case != "a2-at-p3":
        return build_category(parse_input((ROOT / case).read_text()))
    alg = AlgebraPresentation(Quiver(2, (Arrow("a", 1, 2),)), (), p=3,
                              path_length_bound=8)
    spans = {"2": (2, 2), "1/2": (1, 2), "1": (1, 1)}
    return ExCategory(alg, 1, [interval_module(alg, *s) for s in spans.values()],
                      labels=list(spans))


# -- sums ------------------------------------------------------------------------


@pytest.mark.parametrize("case", INPUTS)
def test_equal_parts_give_the_identical_sum(case):
    cat = category(case)
    gens = cat.generators
    zero = zero_module(cat.alg)
    for a in gens:
        for b in gens:
            total = sum_module([a, b])
            assert sum_module((a, b)) is total
            assert direct_sum([a, b])[0] is total
            assert total._parts == (a, b)
            assert cat.alg._sums()[a, b] is total
            assert sum_module([a, b, a]) is sum_module([a, b, a])
            # a zero part gives the same interned module, whose recorded
            # parts stay the nonzero ones
            assert sum_module([a, zero, b]) is total
            assert total._parts == (a, b)
    # a sum with fewer than two nonzero parts is one of them, kept out of
    # the table, where its own key would keep it alive
    for a in gens:
        assert sum_module([a]) is a and sum_module([zero, a]) is a
        assert "_parts" not in a.__dict__
        assert (a,) not in cat.alg._sums() and (zero, a) not in cat.alg._sums()


def test_the_sum_table_holds_its_sums_weakly():
    cat = category("a2-at-p3")
    a, b, c = cat.generators
    key = (c, b, a, c)
    sum_module(key)
    gc.collect()
    assert key not in cat.alg._sums()


@pytest.mark.parametrize("case", INPUTS)
def test_a_recorded_sum_has_the_multiset_decompose_finds(case, monkeypatch):
    """For every object of the universe and every term of the cones and
    cocones that C3 and C3' build, the multiset merged from the recorded
    parts is the one the reference search finds."""
    cat = category(case)
    terms = []
    cone = exangulated.cone

    def recording(*args):
        got = cone(*args)
        terms.extend(got[0])
        return got

    monkeypatch.setattr(exangulated, "cone", recording)
    assert check_c3(cat, False).passed and check_c3(cat, True).passed
    recorded = [m for m in {*cat.universe, *terms} if "_parts" in m.__dict__]
    assert len(recorded) >= 6
    for m in recorded:
        assert cat.objects.summand_multiset(m) == decompose_reference.multiset(
            m, cat.generators)


# -- identities ------------------------------------------------------------------


@pytest.mark.parametrize("case", INPUTS)
def test_the_identity_is_built_once_per_module(case):
    cat = category(case)
    for m in cat.universe:
        ident = identity_morphism(m)
        assert identity_morphism(m) is ident
        assert ident.maps == tuple(Matrix.identity(cat.p, d) for d in m.dims)


# -- extension classes -------------------------------------------------------------


def spaces(cat):
    """The nonzero E(C, A) with C a generator and A in the universe."""
    ends = [(C, A) for C in cat.generators for A in cat.universe]
    return [cat.ext(C, A) for C, A in ends if cat.ext(C, A).dim]


def eager_cocycle(space, coords):
    """The cocycle that `ExtSpace.element` used to build with every class."""
    hom_vec = space._zmat @ (space._sect @ coords)
    return combine(space.res.terms[space.n], space.end_A, space.hom_n,
                   hom_vec.entries)


@pytest.mark.parametrize("case", INPUTS)
def test_a_class_compares_by_its_coordinates(case):
    cat = category(case)
    assert ExtElement._fields == ("n", "end_C", "end_A", "coords")
    found = spaces(cat)
    assert found
    for space in found:
        elements = space.all_elements()
        for el in elements:
            again = space.element(el.coords)
            assert again is not el and again == el and hash(again) == hash(el)
            # reading the cocycle of one of them changes neither
            el.cocycle
            assert "cocycle" in el.__dict__ and "cocycle" not in again.__dict__
            assert again == el and hash(again) == hash(el)
            # nor does the cocycle that represents the class
            n, res = space.n, space.res
            for b in hom_basis(res.terms[n - 1], space.end_A):
                cob = b.compose(res.diffs[n])
                assert space.class_of_cocycle(el.cocycle + cob) == el
        assert len(set(elements)) == len(elements)


@pytest.mark.parametrize("case", INPUTS)
def test_a_lazy_cocycle_is_the_one_element_built(case):
    cat = category(case)
    for space in spaces(cat):
        for el in space.all_elements():
            assert "cocycle" not in el.__dict__
            assert el.cocycle == eager_cocycle(space, el.coords)
            assert el.cocycle is el.cocycle


def test_a_pickled_class_leaves_its_cocycle_behind():
    cat = category("a2-at-p3")
    [space] = spaces(cat)[:1]
    el = space.basis()[0]
    el.cocycle
    alg, back = pickle.loads(pickle.dumps((cat.alg, el)))
    assert back.end_C.alg is alg and back.coords == el.coords
    assert "cocycle" not in back.__dict__ and "_hash" not in back.__dict__
    assert back.cocycle.flat == el.cocycle.flat


# -- push and pull -------------------------------------------------------------------


@pytest.mark.parametrize("case", INPUTS)
def test_the_matrix_moves_are_the_cocycle_moves(case):
    """`ExCategory.push`/`pull`, one product with `move_matrix`, equal
    `push_forward`/`pull_back` on every class along every hom-basis
    morphism out of A (into C), to and from every generator."""
    cat = category(case)
    moved = 0
    for space in spaces(cat):
        C, A = space.end_C, space.end_A
        for B in cat.generators:
            for f in hom_basis(A, B):
                for el in space.all_elements():
                    assert cat.push(el, f) == push_forward(el, f)
                    moved += 1
            for f in hom_basis(B, C):
                for el in space.all_elements():
                    assert cat.pull(el, f) == pull_back(el, f)
                    moved += 1
    assert moved >= 60
    assert cat._memo[move_matrix.__wrapped__]


def test_a_move_along_a_morphism_with_the_wrong_end_raises():
    cat = category("a2-at-p3")
    space = spaces(cat)[0]
    el = space.basis()[0]
    assert space.end_C is not space.end_A
    with pytest.raises(ValueError, match="A end"):
        cat.push(el, identity_morphism(space.end_C))
    with pytest.raises(ValueError, match="C end"):
        cat.pull(el, identity_morphism(space.end_A))


# -- lifts ---------------------------------------------------------------------------


def lift_problems(cat):
    """(X, Y, a, id_C) for every class X of E(C, A) and every hom-basis
    morphism a out of A to a generator, Y the realization of a_* X."""
    for space in spaces(cat):
        for el in space.all_elements():
            for B in cat.generators:
                for a in hom_basis(space.end_A, B):
                    yield (cat.realize(el), cat.realize(cat.push(el, a)), a,
                           identity_morphism(space.end_C))


def test_the_particular_lift_comes_first_and_the_bound_before_it(monkeypatch):
    """`enumerate_lifts` yields the particular solution of `lift_space`
    first, then each nonzero kernel combination; a lift space past
    LIFT_ENUM_LIMIT raises before the first lift."""
    cat = category("bench/inputs/a3-rad2.exg")
    problem, particular, kernel = next(
        (problem, *got) for problem in lift_problems(cat)
        if (got := cat.lift_space(*problem)) is not None and got[1])
    lifts = list(cone_reference.all_lifts(cat, *problem))
    assert lifts[0] == particular
    assert len({tuple(lift) for lift in lifts}) == cat.p ** len(kernel)
    monkeypatch.setattr(exangulated, "LIFT_ENUM_LIMIT", 1)
    with pytest.raises(BoundExceeded, match="lift space too large"):
        next(cone_reference.all_lifts(cat, *problem))


# -- K ---------------------------------------------------------------------------------


def test_k_builds_one_move_matrix_per_line_of_members(monkeypatch):
    """At p = 3 a member s and 2s have the same push (pull) kernel, so
    `k_subgroup` builds the matrix of one of them.  K is still the walk's
    (`tests/test_ebar_matrices.py` compares every K with it)."""
    cat = category("a2-at-p3")
    q = localization.IdealQuotient(cat, [])
    built = []
    real = localization.move_matrix

    def recording(cat, end_C, end_A, f, pull):
        built.append((end_C, end_A, pull, f))
        return real(cat, end_C, end_A, f, pull)

    monkeypatch.setattr(localization, "move_matrix", recording)
    ends = [(C, A) for C in q.universe for A in q.universe if cat.ext(C, A).dim]
    got = [localization.k_subgroup(ISO, q, C, A) for C, A in ends]
    assert got == [k_reference.k_subgroup(ISO, q, C, A) for C, A in ends]
    assert built
    for (key, f), (key2, g) in itertools.combinations(
            ((b[:3], b[3]) for b in built), 2):
        if key == key2 and (f.source, f.target) == (g.source, g.target):
            assert f.scale(2) != g
            assert f != g


# -- pickling ------------------------------------------------------------------------


def test_pickling_leaves_the_sum_table_identities_and_parts_behind():
    cat = category("bench/inputs/a3-rad2.exg")
    a, b = cat.generators[:2]
    total = sum_module([a, b])
    identity_morphism(total)
    assert cat.alg._sums()
    assert {"_parts", "_identity"} <= set(total.__dict__)
    alg, back = pickle.loads(pickle.dumps((cat.alg, total)))
    assert "_sum_table" not in alg.__dict__
    assert back.alg is alg and back.dims == total.dims
    assert "_parts" not in back.__dict__ and "_identity" not in back.__dict__


def test_the_algebra_keeps_its_hash_and_pickles_without_it():
    """`ext_group`'s cache key hashes the algebra, so the algebra keeps its
    hash once computed.  The hash covers strings, which are hashed per
    process, so it is not pickled."""
    text = (ROOT / "bench/inputs/a3-rad2.exg").read_text()
    alg = build_category(parse_input(text)).alg
    h = hash(alg)
    assert alg.__dict__["_hash"] == h == hash(alg._values(alg))
    assert "_hash" not in alg.__getstate__()
    back = pickle.loads(pickle.dumps(alg))
    assert "_hash" not in back.__dict__
    fresh = build_category(parse_input(text)).alg
    assert fresh is not alg and "_hash" not in fresh.__dict__
    assert back == fresh == alg
    assert hash(back) == hash(fresh) == h
