"""Krull-Schmidt by rank: `Subcategory.summand_multiset` counts each
generator's summands with one pairing rank, where the reference
(`decompose_reference`) splits modules along idempotents by search.

* The two agree on every object of the universe and on every kernel and
  cokernel that C4's and WIC's edge tables meet, on the fixtures, the bench
  input, A2 at p = 3 and A3 (n = 1) at p = 2 and p = 3.
* Sums of generators disguised by a change of basis get their multiset,
  and a module with a summand outside the generators gets None.
* `Subcategory` takes pairwise non-isomorphic bricks only.
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decompose_reference
import exangulate.exangulated as exangulated
from exangulate.cli import build_category, parse_input
from exangulate.exangulated import ExCategory, Subcategory, check_c4
from exangulate.linalg import Matrix
from exangulate.quiver import (AlgebraPresentation, Arrow, Module, Quiver,
                               direct_sum, interval_module)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ["fixtures/a4-cluster.exg", "fixtures/a4-projinj.exg",
          "fixtures/a4-trivial.exg", "bench/inputs/a3-rad2.exg",
          "a2-at-p3", "a3-at-p2", "a3-at-p3"]


@lru_cache(maxsize=None)
def linear_algebra(vertices: int, p: int) -> AlgebraPresentation:
    """The path algebra of 1 -> 2 -> ... -> vertices, without relations."""
    arrows = tuple(Arrow("abc"[i], i + 1, i + 2) for i in range(vertices - 1))
    return AlgebraPresentation(Quiver(vertices, arrows), (), p=p,
                               path_length_bound=8)


def indecomposables(alg: AlgebraPresentation) -> list[Module]:
    """Every interval module of a linear quiver: all its indecomposables."""
    k = alg.quiver.vertex_count
    return [interval_module(alg, top, socle)
            for socle in range(k, 0, -1) for top in range(socle, 0, -1)]


@lru_cache(maxsize=None)
def category(case: str) -> ExCategory:
    if not case.startswith(("a2-", "a3-")):
        return build_category(parse_input((ROOT / case).read_text()))
    alg = linear_algebra(int(case[1]), int(case[-1]))
    return ExCategory(alg, 1, indecomposables(alg))


@pytest.mark.parametrize("case", INPUTS)
def test_the_rank_count_agrees_with_the_search(case, monkeypatch):
    cat = category(case)
    met = set(cat.universe)
    for name in ("kernel_module", "cokernel_module"):
        real = getattr(exangulated, name)

        def recording(f, real=real):
            got = real(f)
            met.add(got[0])
            return got

        monkeypatch.setattr(exangulated, name, recording)
    check_c4(cat)
    cat._check_wic()
    assert len(met) > len(cat.universe)
    for m in met:
        assert cat.objects.summand_multiset(m) == decompose_reference.multiset(
            m, cat.generators), m.dims


# -- disguised sums ----------------------------------------------------------------


@st.composite
def invertible(draw, p: int, d: int) -> Matrix:
    """L U with L unit lower and U upper triangular with a nonzero diagonal."""
    entry = st.integers(0, p - 1)
    lower = [[1 if i == j else draw(entry) if i > j else 0 for j in range(d)]
             for i in range(d)]
    upper = [[draw(st.integers(1, p - 1)) if i == j else draw(entry) if i < j
              else 0 for j in range(d)] for i in range(d)]
    return Matrix.from_rows(p, lower) @ Matrix.from_rows(p, upper)


@st.composite
def disguised_sums(draw):
    """A subset of A3's indecomposables as generators, a sum of one to
    three indecomposables in the order drawn, and that sum after a change
    of basis at one vertex."""
    p = draw(st.sampled_from([2, 3]))
    alg = linear_algebra(3, p)
    pool = indecomposables(alg)
    chosen = draw(st.sets(st.integers(0, len(pool) - 1), min_size=1))
    gens = tuple(pool[i] for i in sorted(chosen))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    total = direct_sum(picks)[0]
    v = draw(st.sampled_from([v for v, d in enumerate(total.dims, 1) if d]))
    q = draw(invertible(p, total.dims[v - 1]))
    maps = []
    for a, m in zip(alg.quiver.arrows, total.arrow_maps):
        if a.target == v:
            m = q @ m
        if a.source == v:
            m = m @ decompose_reference.inverse(q)
        maps.append(m)
    moved = Module(alg, total.dims, tuple(maps))
    want = None
    if all(m in gens for m in picks):
        want = tuple(sorted(gens.index(m) for m in picks))
    return gens, moved, want


@settings(max_examples=150, deadline=None)
@given(disguised_sums())
def test_a_disguised_sum_gets_its_multiset(scene):
    gens, moved, want = scene
    assert Subcategory(gens).summand_multiset(moved) == want


# -- the boundary --------------------------------------------------------------------


def test_generators_must_be_pairwise_non_isomorphic_bricks():
    alg = linear_algebra(3, 3)
    three, two_three, one_two = (interval_module(alg, *s)
                                 for s in ((3, 3), (2, 3), (1, 2)))
    # 1/2 with its arrow acting as 2: a copy of 1/2 that is another value
    copy = Module(alg, one_two.dims, (Matrix.from_rows(3, [[2]]),
                                      one_two.arrow_maps[1]))
    assert copy is not one_two
    bad = {
        "generator 1 is not a brick: dim End = 2":
            (three, direct_sum([three, one_two])[0]),
        "generator 1 is not a brick: dim End = 3":
            (three, direct_sum([three, two_three])[0]),
        "generators 0 and 2 are isomorphic": (one_two, three, one_two),
        "generators 1 and 2 are isomorphic": (three, one_two, copy),
    }
    for message, gens in bad.items():
        with pytest.raises(ValueError, match=f"^{message}$"):
            Subcategory(gens)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExCategory(alg, 1, gens)
    assert Subcategory((three, two_three, one_two)).summand_multiset(copy) == (2,)
