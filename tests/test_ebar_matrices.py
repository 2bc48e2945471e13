"""Push and pull on E and E-bar are matrices.

For a morphism f and ends (C, A), `exangulated.move_matrix` is the matrix
of f's push-forward (or pull-back) on E(C, A), and `_ebar_matrix` its
descended form proj . P_f . sect on E-bar.  `ebar_push`, `ebar_pull`,
`LocalizedEngine._ebar_column` and the test `_keeps_k` read them, and
`k_subgroup` takes K(C, A) as the union of the kernels of the members'
matrices.  These tests compare each with the class-by-class walk of
`k_reference`, on every K, move and E-bar column that `localize` meets on
the bench input, `fixtures/a4-projinj.exg` and A2 at p = 3, and on
saturated classes where K is not zero.
"""

import itertools
from pathlib import Path

import pytest

import exangulate.exangulated as exangulated
import exangulate.localization as localization
import exangulate.quiver as quiver
import k_reference
from test_caches import ALLOWED, SRC, _tree, module_level_caches
from exangulate.cli import build_category, main, parse_input
from exangulate.exangulated import BoundExceeded, ExCategory, check_c3
from exangulate.linalg import Matrix
from exangulate.localization import (IdealQuotient, LocalizationError,
                                     LocalizedEngine, MorphismClassSpec,
                                     _check_equivalence, _union_basis,
                                     ebar_group, ebar_pull, ebar_push,
                                     k_subgroup, localize, member_table)
from exangulate.quiver import (AlgebraPresentation, Arrow, Quiver, direct_sum,
                               hom_basis, interval_module)

ROOT = Path(__file__).resolve().parent.parent
BENCH_INPUT = ROOT / "bench/inputs/a3-rad2.exg"
ISO = MorphismClassSpec("iso")


def path_algebra_category(p, vertices, labels, spans):
    """The linear quiver 1 -> 2 -> ... without relations at n = 1, with the
    interval modules of `spans` as generators."""
    arrows = tuple(Arrow(f"a{i}", i, i + 1) for i in range(1, vertices))
    alg = AlgebraPresentation(Quiver(vertices, arrows), (), p=p,
                              path_length_bound=8)
    gens = [interval_module(alg, *spans[lab]) for lab in labels]
    return ExCategory(alg, 1, gens, labels=labels)


def a2(p):
    return path_algebra_category(
        p, 2, ["2", "1/2", "1"], {"2": (2, 2), "1/2": (1, 2), "1": (1, 1)})


def a3(p):
    spans = {"3": (3, 3), "2/3": (2, 3), "1/2/3": (1, 3), "2": (2, 2),
             "1/2": (1, 2), "1": (1, 1)}
    return path_algebra_category(p, 3, list(spans), spans)


def saturated(cat):
    """Saturate mode at the seeds 2 -> 1/2 and 1/2 -> 1, with nf empty.
    Pushing along the first and pulling along the second both kill E(1, 2),
    so K(1, 2) = E(1, 2).  MR fails here, so `localize` stops before K."""
    gen = dict(zip(cat.labels, cat.generators))
    seeds = (hom_basis(gen["2"], gen["1/2"])[0],
             hom_basis(gen["1/2"], gen["1"])[0])
    return MorphismClassSpec("saturate", seeds), IdealQuotient(cat, [])


def outcome(fn, *args):
    """fn's value, or the message of the LocalizationError it raises."""
    try:
        return fn(*args)
    except LocalizationError as err:
        return f"raised: {err}"


def record(monkeypatch):
    """Make `localization` record each K, E-bar matrix and E-bar column it
    computes; returns the three dicts they go into."""
    ks, moves, columns = {}, {}, {}
    k_original = localization.k_subgroup
    matrix_original = localization._ebar_matrix
    column_original = LocalizedEngine._ebar_column.__wrapped__

    def k_recording(spec, q, end_C, end_A):
        ks[(spec, q, end_C, end_A)] = got = k_original(spec, q, end_C, end_A)
        return got

    def matrix_recording(spec, q, end_C, end_A, f, pull):
        moves[(spec, q, end_C, end_A, f, pull)] = None
        return matrix_original(spec, q, end_C, end_A, f, pull)

    def column_recording(eng, roof, T, variance):
        columns[(eng, roof, T, variance)] = got = column_original(
            eng, roof, T, variance)
        return got

    monkeypatch.setattr(localization, "k_subgroup", k_recording)
    monkeypatch.setattr(localization, "_ebar_matrix", matrix_recording)
    monkeypatch.setattr(LocalizedEngine, "_ebar_column",
                        exangulated.memo(column_recording))
    return ks, moves, columns


def run_localize(case, capsys):
    if case == "a2-at-p3":
        localize(a2(3), ISO, [])
    else:
        path = BENCH_INPUT if case == "bench" else ROOT / "fixtures" / case
        main(["localize", str(path)])
        capsys.readouterr()


def assert_k_matches_the_walk(spec, q, end_C, end_A, got):
    assert got == k_reference.k_subgroup(spec, q, end_C, end_A)
    by_push, by_pull = k_reference.killed_sets(spec, q, end_C, end_A)
    width = q.base.ext(end_C, end_A).dim
    assert by_push == by_pull == k_reference.span(q.p, got, width)


def assert_moves_match_the_walk(spec, q, end_C, end_A, f, pull):
    """Every class of E-bar(C, A) moves along f as the walk moves it, and
    the move raises where the walk's does: where `_keeps_k` and the walk's
    `keeps_k` find K not carried into K, or where the target's K fails."""
    eb = ebar_group(spec, q, end_C, end_A)
    move = ebar_pull if pull else ebar_push
    for coords in eb.classes():
        assert outcome(move, spec, q, eb, coords, f) == outcome(
            k_reference.ebar_move, spec, q, eb, coords, f, pull)


@pytest.mark.parametrize("case", ["bench", "a4-trivial.exg", "a4-cluster.exg",
                                  "a4-projinj.exg", "a2-at-p3"])
def test_k_is_the_walks_k(monkeypatch, capsys, case):
    """Every K that `localize` computes spans the set the walk kills, by
    push and by pull alike, and has the walk's basis."""
    ks, _, _ = record(monkeypatch)
    run_localize(case, capsys)
    assert len(ks) >= 24
    for (spec, q, end_C, end_A), got in ks.items():
        assert_k_matches_the_walk(spec, q, end_C, end_A, got)


@pytest.mark.parametrize("case", ["bench", "a4-projinj.exg", "a2-at-p3"])
def test_moves_are_the_walks_moves(monkeypatch, capsys, case):
    """Every E-bar move (`ebar_push`, `ebar_pull`) and every E-bar column
    that `localize` computes is the one of lift, move, project."""
    _, moves, columns = record(monkeypatch)
    run_localize(case, capsys)
    assert moves and columns
    for key in moves:
        assert_moves_match_the_walk(*key)
    for (eng, roof, T, variance), got in columns.items():
        assert got == k_reference.ebar_column(eng, roof, T, variance)


@pytest.mark.parametrize("p", [2, 3])
def test_k_is_the_whole_group_where_both_seeds_kill(p):
    """K(1, 2) = E(1, 2) in A2 saturated at its two seeds, and so on every
    end of the universe with E nonzero: E-bar vanishes there."""
    cat = a2(p)
    spec, q = saturated(cat)
    gen = dict(zip(cat.labels, cat.generators))
    assert k_subgroup(spec, q, gen["1"], gen["2"]) == [(1,)]
    ends = [(C, A) for C, A in itertools.product(q.universe, repeat=2)
            if cat.ext(C, A).dim]
    assert len(ends) == 16
    for end_C, end_A in ends:
        got = k_subgroup(spec, q, end_C, end_A)
        assert len(got) == cat.ext(end_C, end_A).dim
        assert_k_matches_the_walk(spec, q, end_C, end_A, got)
        for B in cat.generators:
            for f in hom_basis(end_A, B):
                assert_moves_match_the_walk(spec, q, end_C, end_A, f, False)
            for f in hom_basis(B, end_C):
                assert_moves_match_the_walk(spec, q, end_C, end_A, f, True)


def test_moves_where_k_is_a_proper_subgroup():
    """In A3 saturated at the seeds 2 -> 1/2 and 1/2 -> 1, E(2 + 1, 3 + 2)
    = E(2, 3) + E(1, 2) has K = E(1, 2), so E-bar has dimension 1 of 2 and
    every move reads the section.  K and every move along the hom bases out
    of the A end and into the C end agree with the walk, which also raises
    where it raises (the two killed sets disagree at some targets)."""
    cat = a3(2)
    spec, q = saturated(cat)
    gen = dict(zip(cat.labels, cat.generators))
    end_C = cat.materialize([3, 5])
    end_A = cat.materialize([0, 3])
    eb = ebar_group(spec, q, end_C, end_A)
    assert (eb.space.dim, eb.dim) == (2, 1)
    assert_k_matches_the_walk(spec, q, end_C, end_A, list(eb.k_basis))
    for C in (end_C, cat.materialize([4, 5]), gen["1"], gen["2"]):
        for A in (end_A, gen["2"], gen["3"]):
            assert outcome(k_subgroup, spec, q, C, A) == outcome(
                k_reference.k_subgroup, spec, q, C, A)
    outcomes = set()
    for B in q.universe:
        for f in hom_basis(end_A, B):
            assert_moves_match_the_walk(spec, q, end_C, end_A, f, False)
            outcomes.add(isinstance(outcome(
                ebar_push, spec, q, eb, (1,), f), str))
        for f in hom_basis(B, end_C):
            assert_moves_match_the_walk(spec, q, end_C, end_A, f, True)
    assert outcomes == {False, True}


def test_a_move_that_takes_k_out_of_k_raises(monkeypatch):
    """With K(1, 2) taken to be all of E(1, 2) and K zero elsewhere, the
    inclusion 2 -> 2 + 2 and the projection 1 + 1 -> 1 move K out of K, so
    both paths raise for every class."""
    cat = a2(3)
    q = IdealQuotient(cat, [])
    gen = dict(zip(cat.labels, cat.generators))
    C, A = gen["1"], gen["2"]
    monkeypatch.setattr(localization, "k_subgroup",
                        lambda spec, q, c, a: [(1,)] if (c, a) == (C, A) else [])
    eb = ebar_group(ISO, q, C, A)
    _, incls, _ = direct_sum([A, A])
    _, _, projs = direct_sum([C, C])
    for f, pull, move in ((incls[0], False, ebar_push),
                          (projs[0], True, ebar_pull)):
        expected = (f"raised: {'pull-back' if pull else 'push-forward'} "
                    "does not carry K into K")
        for coords in eb.classes():
            assert outcome(move, ISO, q, eb, coords, f) == expected
            assert outcome(k_reference.ebar_move, ISO, q, eb, coords, f,
                           pull) == expected


def lines(p, *vectors):
    return [(Matrix.column(p, v),) for v in vectors]


@pytest.mark.parametrize("p,vectors,union", [
    # over F_2 the plane is the union of its three lines
    (2, [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1)]),
    (3, [(1, 0), (0, 1), (1, 1), (1, 2)], [(1, 0), (0, 1)]),
    (2, [(1, 1), (1, 1)], [(1, 1)]),
    (2, [], []),
])
def test_a_union_of_lines_that_is_a_subspace(p, vectors, union):
    assert _union_basis(p, lines(p, *vectors)) == union


@pytest.mark.parametrize("p,vectors", [
    (2, [(1, 0), (0, 1)]),
    (3, [(1, 0), (0, 1), (1, 1)]),
])
def test_a_union_of_lines_that_is_not(p, vectors):
    with pytest.raises(LocalizationError, match="not closed under addition"):
        _union_basis(p, lines(p, *vectors))


def test_the_union_walks_only_when_no_subspace_holds_the_rest(monkeypatch):
    """With a subspace that contains the others the union is found with
    nothing walked, whatever the bound; otherwise the walk of the span
    stops at CLASS_ENUM_LIMIT."""
    plane = (Matrix.column(2, (1, 0, 0)), Matrix.column(2, (0, 1, 0)))
    monkeypatch.setattr(localization, "CLASS_ENUM_LIMIT", 1)
    assert _union_basis(2, [plane] + lines(2, (1, 1, 0))) == [
        (1, 0, 0), (0, 1, 0)]
    three = lines(2, (1, 0), (0, 1), (1, 1))
    monkeypatch.setattr(localization, "CLASS_ENUM_LIMIT", 3)
    with pytest.raises(BoundExceeded, match="too large to enumerate"):
        _union_basis(2, three)
    monkeypatch.setattr(localization, "CLASS_ENUM_LIMIT", 4)
    assert _union_basis(2, three) == [(1, 0), (0, 1)]


def test_k_needs_no_enumeration_bound(monkeypatch):
    """With the member classes known, K is the same at CLASS_ENUM_LIMIT 1:
    on the bench input (K = 0) and on A2 saturated (K = E)."""
    bench = build_category(parse_input(BENCH_INPUT.read_text()))
    small = a2(3)
    for spec, cat in ((ISO, bench), (saturated(small)[0], small)):
        q0, q = IdealQuotient(cat, []), IdealQuotient(cat, [])
        ends = list(itertools.product(q.universe, repeat=2))
        expected = [k_subgroup(spec, q0, *e) for e in ends]
        assert any(expected) == (spec is not ISO)
        member_table(spec, q)
        with monkeypatch.context() as m:
            m.setattr(localization, "CLASS_ENUM_LIMIT", 1)
            assert [k_subgroup(spec, q, *e) for e in ends] == expected


def test_a_second_pass_moves_no_cocycle(monkeypatch):
    """After localized C3, C3' and the equivalence check have run once on
    the bench input, a second pass reads every move from the matrix memos:
    with `push_forward` and `pull_back` raising, it gives the same results.
    `localization` moves classes only through `move_matrix`, so it does not
    import them."""
    cat = build_category(parse_input(BENCH_INPUT.read_text()))
    q = IdealQuotient(cat, [])
    eng = LocalizedEngine(cat, ISO, q)

    def stages():
        return [check_c3(eng, False), check_c3(eng, True),
                _check_equivalence(cat, ISO, q)]

    first = stages()
    assert all(r.passed for r in first)

    def boom(*args):
        raise AssertionError("a class was moved by its cocycle")

    assert not hasattr(localization, "push_forward")
    assert not hasattr(localization, "pull_back")
    for module in (quiver, exangulated):
        monkeypatch.setattr(module, "push_forward", boom)
        monkeypatch.setattr(module, "pull_back", boom)
    assert stages() == first


def test_the_matrix_memos_are_not_global():
    """The push and pull matrices live in the category's `_memo`, the
    E-bar matrices in the quotient's: `localization.py` adds nothing to
    the allow-list of global caches."""
    assert module_level_caches(_tree(SRC / "localization.py")) == []
    assert not any(name.startswith("localization.") for name in ALLOWED)
