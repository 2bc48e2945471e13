"""Localized cones are decided from their pieces.

`LocalizedEngine.mapping_cone`/`mapping_cocone` return a `TableCone`, which
keeps its pieces (src, dst, f, shift) and its roof.  C-bar is additive, so
the engine writes the Hom sequences of a cone and its lift system block by
block from the pieces' `_post_matrix`/`_pre_matrix`, and builds no sum
module.  These tests compare both with the cone materialized through
inclusions and projections (`cone_reference`), on every cone and cocone
that localized C3 and C3' test, and on cones that fail: lifts to the
realization of another class, a cone's pieces given another class, and
cones of a perturbed component.

The engine looks each cone test up by the values of its pieces before it
builds anything (`sequence_homology`, `identity_lift_exists`).  On every
such cone the looked-up answer is compared with the one built for that
cone alone.
"""

import pickle
from functools import lru_cache
from pathlib import Path

import pytest

import cone_reference
import exangulate.exangulated as exangulated
import exangulate.localization as localization
from exangulate.cli import build_category, main, parse_input
from exangulate.exangulated import (CheckResult, ExCategory, _homology,
                                    check_c3, check_c4, solve_lift)
from exangulate.linalg import rank
from exangulate.localization import (FractionHoms, IdealQuotient,
                                     LocalizedEngine, MorphismClassSpec,
                                     TableComplex, TableCone, localize)
from exangulate.quiver import (AlgebraPresentation, Arrow, Quiver,
                               identity_morphism, interval_module, sum_module)

ROOT = Path(__file__).resolve().parent.parent
BENCH_INPUT = ROOT / "bench/inputs/a3-rad2.exg"
ISO = MorphismClassSpec("iso")
VARIANCES = ("contravariant", "covariant")


def verdicts(maps):
    """The verdict of a Hom sequence at each inner slot."""
    out = []
    for s in range(1, len(maps)):
        if not (maps[s] @ maps[s - 1]).is_zero:
            out.append("not a complex")
        elif rank(maps[s - 1]) + rank(maps[s]) != maps[s].cols:
            out.append("homology")
        else:
            out.append("exact")
    return out


def materialized(cx):
    return TableComplex(*cone_reference.cone(cx.src, cx.dst, cx.f, cx.shift),
                        cx.roof)


def compare(eng, cx, ref):
    """Check the assembled Hom sequences and lift test of the cone cx
    against those of its materialized cone, and the looked-up ones against
    those built for cx; return the slot verdicts of its sequences and
    whether the identity ends lift to ref."""
    mat = materialized(cx)
    assert (cx.n, cx.ends) == (mat.n, mat.ends)
    seen = []
    for variance in VARIANCES:
        for T in eng.generators:
            built = eng._hom_sequence(cx, T, variance)
            got = verdicts(built)
            assert got == verdicts(eng._hom_sequence(mat, T, variance))
            assert eng.sequence_homology(cx, T, variance) == _homology(
                eng, tuple(built))
            seen += got
    a, c = (identity_morphism(t) for t in ref.ends)
    lifts = eng._block_lift_exists(cx, ref)
    assert lifts == (solve_lift(mat, ref, a, c, eng.q) is not None)
    assert eng.identity_lift_exists(cx, ref) == lifts
    return seen, lifts


def recorded_cones(monkeypatch):
    """Make `LocalizedEngine.is_distinguished` record (engine, cone) for
    every cone it is asked about; returns the list."""
    cones = []
    rule = LocalizedEngine.is_distinguished

    def recording(eng, cx):
        if isinstance(cx, TableCone):
            cones.append((eng, cx))
        return rule(eng, cx)

    monkeypatch.setattr(LocalizedEngine, "is_distinguished", recording)
    return cones


@lru_cache(maxsize=None)
def a2_at_p3() -> LocalizedEngine:
    """mod kA2 at p = 3 (n = 1) localized at nf = (): p = 3 shows signs."""
    alg = AlgebraPresentation(Quiver(2, (Arrow("a", 1, 2),)), (), p=3,
                              path_length_bound=8)
    labels = ["2", "1/2", "1"]
    spans = {"2": (2, 2), "1/2": (1, 2), "1": (1, 1)}
    cat = ExCategory(alg, 1, [interval_module(alg, *spans[lab])
                              for lab in labels], labels=labels)
    return LocalizedEngine(cat, ISO, IdealQuotient(cat, []))


def a2_cones(monkeypatch):
    cones = recorded_cones(monkeypatch)
    eng = a2_at_p3()
    assert check_c3(eng, False).passed and check_c3(eng, True).passed
    return cones


def cli_cones(monkeypatch, capsys, path):
    cones = recorded_cones(monkeypatch)
    main(["localize", str(ROOT / path)])
    capsys.readouterr()
    return cones


@pytest.mark.parametrize("case, count, verdicts_seen", [
    ("bench/inputs/a3-rad2.exg", 196, {"exact"}),
    # a nonzero null system, so the blocks are read modulo a nonzero ideal;
    # weak-kc fails here, and some cones have Hom homology
    ("fixtures/a4-projinj.exg", 550, {"exact", "homology"}),
    ("a2-at-p3", 142, {"exact"}),
])
def test_assembled_cones_agree_with_the_materialized_ones(
        monkeypatch, capsys, case, count, verdicts_seen):
    if case == "a2-at-p3":
        cones = a2_cones(monkeypatch)
    else:
        cones = cli_cones(monkeypatch, capsys, case)
    assert len(cones) == count
    assert {cx.shift for _, cx in cones} == {0, 1}
    seen = []
    for eng, cx in cones:
        got, lifts = compare(eng, cx, eng.realize(cx.roof))
        assert len(got) == 2 * len(eng.generators) * (cx.n + 1)
        assert lifts
        seen += got
    assert set(seen) == verdicts_seen


def test_lifts_to_another_class_agree(monkeypatch):
    """Each cone against the realization of every class with its ends: the
    identity ends lift exactly to its own class, in both computations.  Its
    pieces given another class end their Hom sequences in that class's
    E-bar column, which the lookups key on: some are no complex or have
    homology there, and none lifts to that class's realization."""
    outcomes, relabelled = set(), set()
    for eng, cx in a2_cones(monkeypatch):
        C, A = cx.ends[1], cx.ends[0]
        for roof in eng.ext_elements(C, A):
            _, lifts = compare(eng, cx, eng.realize(roof))
            outcomes.add((roof == cx.roof, lifts))
            if roof != cx.roof:
                other = TableCone(cx.src, cx.dst, cx.f, cx.shift, roof)
                got, lifts = compare(eng, other, eng.realize(roof))
                relabelled.update(got)
                outcomes.add(("relabelled", lifts))
    assert outcomes == {(True, True), (False, False), ("relabelled", False)}
    assert relabelled == {"exact", "homology", "not a complex"}


@pytest.mark.parametrize("case", ["bench", "a2-at-p3"])
def test_cones_of_a_perturbed_component_agree(monkeypatch, capsys, case):
    """Adding a nonzero class to one middle component breaks the chain map,
    so some Hom sequence of the cone is not a complex; both computations
    say where, and agree on the lift."""
    if case == "bench":
        cones = cli_cones(monkeypatch, capsys, BENCH_INPUT)
    else:
        cones = a2_cones(monkeypatch)
    seen, outcomes = set(), set()
    for eng, cx in cones:
        for i in range(1, cx.n + 1):
            for g in eng.q.basis_reps(cx.src.terms[i], cx.dst.terms[i]):
                f = list(cx.f)
                f[i] = f[i] + g
                bad = TableCone(cx.src, cx.dst, f, cx.shift, cx.roof)
                got, lifts = compare(eng, bad, eng.realize(cx.roof))
                seen.update(got)
                outcomes.add(lifts)
    assert "not a complex" in seen
    assert outcomes == {True, False}


@pytest.mark.parametrize("case", ["bench", "a2-at-p3"])
def test_a_second_pass_of_c3_builds_nothing(monkeypatch, case):
    """Every cone test of a second pass of C3 and C3' is a lookup: with
    `_from_blocks` and `LocalizedEngine._hom_sequence` raising, both pass
    again with the same counts."""
    if case == "bench":
        cat = build_category(parse_input(BENCH_INPUT.read_text()))
    else:
        cat = a2_at_p3().cat
    eng = LocalizedEngine(cat, ISO, IdealQuotient(cat, []))
    first = [check_c3(eng, dual) for dual in (False, True)]
    assert all(r.passed for r in first)

    def boom(*args):
        raise AssertionError("a cone test was built again")

    monkeypatch.setattr(localization, "_from_blocks", boom)
    monkeypatch.setattr(LocalizedEngine, "_hom_sequence", boom)
    assert [check_c3(eng, dual) for dual in (False, True)] == first


def test_localize_builds_no_cone(monkeypatch, capsys):
    """With `cone` raising, `localize` of the bench input still prints the
    expected report: localized C3 and C3' read no cone's terms, and
    `localization` does not import `cone` at all.  `check` builds its 196
    cones through `cone`."""
    def boom(*args):
        raise AssertionError("a cone was materialized")

    assert not hasattr(localization, "cone")
    monkeypatch.setattr(exangulated, "cone", boom)
    assert main(["localize", str(BENCH_INPUT)]) == 0
    expected = ROOT / "bench/expected/localize-a3-trivial.stdout"
    assert capsys.readouterr().out.encode() == expected.read_bytes()

    built = []
    monkeypatch.setattr(exangulated, "cone", lambda *args: built.append(1)
                        or cone_reference.cone(*args))
    assert main(["check", str(BENCH_INPUT)]) == 0
    capsys.readouterr()
    assert len(built) == 196


def test_subcategory_pickles_without_its_caches():
    """After the axiom checks the subcategory's `memo` caches are full; a
    pickled copy leaves them out, starts empty and finds the same summands
    for the unpickled generators."""
    cat = build_category(parse_input(BENCH_INPUT.read_text()))
    cat.check_core_axioms()
    objects = cat.objects
    assert objects._memo
    copy = pickle.loads(pickle.dumps(objects))
    assert not copy._memo
    gens = copy.generators
    assert [g.dims for g in gens] == [g.dims for g in objects.generators]
    for a in range(len(gens)):
        assert copy.summand_multiset(gens[a]) == (a,)
        for b in range(a, len(gens)):
            assert copy.summand_multiset(sum_module([gens[a], gens[b]])) == (
                objects.summand_multiset(
                    sum_module([objects.generators[a], objects.generators[b]])))
    assert copy._memo


def test_memo_owners_pickle_after_a_run(monkeypatch):
    """After `check` and `localize` of the bench input every owner of `memo`
    caches pickles without them and comes back with empty ones; the
    unpickled category checks C4, and the unpickled localized engine C3 and
    C3', as the originals do."""
    engines = []
    functor = localization._check_functor
    monkeypatch.setattr(localization, "_check_functor",
                        lambda eng: engines.append(eng) or functor(eng))
    cat = build_category(parse_input(BENCH_INPUT.read_text()))
    cat.check_core_axioms()
    assert localize(cat, ISO, []).verdict == "2-exangulated"
    [eng] = engines
    fractions = FractionHoms(ISO, eng.q)
    fractions.reps(*cat.generators[:2])
    for owner in (cat, cat.objects, eng.q, fractions, eng):
        assert owner._memo
        copy = pickle.loads(pickle.dumps(owner))
        assert type(copy) is type(owner) and not copy._memo
    copy = pickle.loads(pickle.dumps(cat))
    assert check_c4(copy) == check_c4(cat) == CheckResult("C4", True, None, 458)
    copy = pickle.loads(pickle.dumps(eng))
    for dual, name in ((False, "C3"), (True, "C3'")):
        assert check_c3(copy, dual) == check_c3(eng, dual) == CheckResult(
            name, True, None, 98)


def test_a_cone_pickles(monkeypatch):
    """A cone pickles with its pieces; the copy builds the same terms and
    differentials over the unpickled algebra (`cone_reference.materialize`:
    a `TableCone` has no terms of its own)."""
    _, cx = a2_cones(monkeypatch)[0]
    copy = pickle.loads(pickle.dumps(cx))
    assert (copy.n, copy.shift) == (cx.n, cx.shift)
    assert not hasattr(cx, "terms") and not hasattr(cx, "diffs")
    built, copy_built = (cone_reference.materialize(c) for c in (cx, copy))
    assert [t.dims for t in copy_built.terms] == [t.dims for t in built.terms]
    assert [d.flat for d in copy_built.diffs] == [d.flat for d in built.diffs]
    assert copy.roof.delta_coords == cx.roof.delta_coords
