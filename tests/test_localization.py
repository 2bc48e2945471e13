"""Tests for the localization layer: ideal quotients, the inverted class,
multiplicative-system checks, roofs, localized extension groups and the
top-level verdicts."""

import gc
import random
import weakref
from functools import lru_cache
from pathlib import Path

import pytest

import exangulate.exangulated as exangulated
import exangulate.linalg as linalg
import exangulate.localization as localization
import c4_reference
import cone_reference
import mr_reference
from exangulate.cli import build_category, main, parse_input
from exangulate.exangulated import (CheckResult, ExCategory, check_c1,
                                    check_c2, check_c3, check_c4)
from exangulate.linalg import BoundExceeded, space_size
from exangulate.localization import (
    FractionHoms,
    IdealQuotient,
    LocalizationError,
    LocalizedEngine,
    MorphismClassSpec,
    TableComplex,
    check_mr,
    ebar_group,
    ebar_pull,
    ebar_push,
    etilde_group,
    fbar_membership,
    identity_roof,
    k_subgroup,
    localize,
    make_roof,
    member_classes,
    member_table,
    ore,
    roof_add,
    roof_equal,
    roof_pull,
    roof_push,
    s_tilde,
    weak_kc_check,
)
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    direct_sum,
    enumerate_hom,
    hom_basis,
    identity_morphism,
    interval_module,
    pull_back,
    push_forward,
    zero_morphism,
)

from homotopy_reference import two_way_equivalent

ROOT = Path(__file__).resolve().parent.parent

A4 = Quiver(4, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4)))
ALG = AlgebraPresentation(A4, (Relation((1,), (("a", "b", "c"),)),), p=2,
                          path_length_bound=8)
LABELS = ["4", "3/4", "2/3/4", "1/2/3", "1/2", "1"]
SPANS = {"4": (4, 4), "3/4": (3, 4), "2/3/4": (2, 4), "1/2/3": (1, 3),
         "1/2": (1, 2), "1": (1, 1)}
GENS = [interval_module(ALG, *SPANS[lab]) for lab in LABELS]
CAT = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)

ISO = MorphismClassSpec("iso")


def gen(label):
    return GENS[LABELS.index(label)]


def the_map(src_label, tgt_label):
    basis = hom_basis(gen(src_label), gen(tgt_label))
    assert len(basis) == 1
    return basis[0]


def roof_zero(spec, q, end_C, end_A):
    """The zero class of E-tilde(end_C, end_A), as an identity roof."""
    eb = ebar_group(spec, q, end_C, end_A)
    return identity_roof(spec, q, end_C, end_A, eb.zero_class())


@lru_cache(maxsize=None)
def cluster_quotient():
    return IdealQuotient(CAT, [2])


@lru_cache(maxsize=None)
def trivial_quotient():
    return IdealQuotient(CAT, [])


@lru_cache(maxsize=None)
def cluster_report():
    return localize(CAT, ISO, [2])


@lru_cache(maxsize=None)
def trivial_report():
    return localize(CAT, ISO, [])


# -- the ideal quotient -------------------------------------------------------


def test_quotient_dims_cluster():
    """Killing add(2/3/4) wipes out every hom through it."""
    q = cluster_quotient()
    table = [[q.qdim(gs, gt) for gt in GENS] for gs in GENS]
    assert table == [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]


def test_quotient_with_empty_nf_changes_nothing():
    q = trivial_quotient()
    for gs in GENS:
        for gt in GENS:
            assert q.qdim(gs, gt) == len(hom_basis(gs, gt))


def test_ideal_project_kills_factoring_morphisms():
    q = cluster_quotient()
    through = the_map("3/4", "2/3/4")
    onward = the_map("2/3/4", "1/2/3")
    composite = onward.compose(through)
    assert composite.is_zero is False
    assert q.project(composite) == (0,) or not any(q.project(composite))
    assert any(q.project(identity_morphism(gen("4"))))


def test_rep_project_roundtrip():
    q = cluster_quotient()
    for a, b in [("4", "4"), ("4", "3/4"), ("1/2/3", "1")]:
        X, Y = gen(a), gen(b)
        for cls in q.classes(X, Y):
            assert q.project(q.rep(X, Y, cls)) == cls


def test_compose_classes_agrees_with_projection():
    q = trivial_quotient()
    rng = random.Random(7)
    pairs = [("4", "3/4", "2/3/4"), ("1/2/3", "1/2", "1"),
             ("3/4", "2/3/4", "1/2/3")]
    for a, b, c in pairs:
        X, Y, Z = gen(a), gen(b), gen(c)
        for _ in range(10):
            fc = tuple(rng.randrange(2) for _ in range(q.qdim(X, Y)))
            gc = tuple(rng.randrange(2) for _ in range(q.qdim(Y, Z)))
            composed = q.compose_classes(X, Y, Z, fc, gc)
            direct = q.project(q.rep(Y, Z, gc).compose(q.rep(X, Y, fc)))
            assert composed == direct


def test_nf_index_validation():
    with pytest.raises(ValueError):
        IdealQuotient(CAT, [9])


def test_nf_labels():
    assert cluster_quotient().nf_labels == ("2/3/4",)


# -- the inverted class -------------------------------------------------------


def test_iso_mode_members_cluster():
    q = cluster_quotient()
    assert sorted(member_classes(ISO, q, gen("4"), gen("4"))) == [(1,)]
    assert sorted(member_classes(ISO, q, gen("4"), gen("3/4"))) == []
    assert sorted(member_classes(ISO, q, gen("1/2/3"), gen("1/2"))) == []
    # a dead object is isomorphic to itself via the zero class
    assert sorted(member_classes(ISO, q, gen("2/3/4"), gen("2/3/4"))) == [()]


def test_fbar_membership_cluster():
    q = cluster_quotient()
    assert fbar_membership(ISO, q, identity_morphism(gen("1")))
    assert not fbar_membership(ISO, q, the_map("4", "3/4"))
    assert fbar_membership(ISO, q, zero_morphism(gen("2/3/4"), gen("2/3/4")))
    # padding with a dead summand keeps a map invertible in the quotient
    _, incls, _ = direct_sum([gen("4"), gen("2/3/4")])
    assert fbar_membership(ISO, q, incls[0])


def test_spec_validation():
    with pytest.raises(ValueError):
        MorphismClassSpec("homotopy")
    with pytest.raises(ValueError):
        MorphismClassSpec("iso", (identity_morphism(gen("1")),))


def test_saturate_closure_contents():
    """The seeded closure adds iso-conjugates and direct sums, but does not
    invent composites with non-members."""
    q = trivial_quotient()
    f = the_map("4", "3/4")
    spec = MorphismClassSpec("saturate", (f,))
    assert q.project(f) in member_classes(spec, q, gen("4"), gen("3/4"))
    h = the_map("3/4", "2/3/4").compose(f)
    assert q.project(h) not in member_classes(spec, q, gen("4"), gen("2/3/4"))
    # f + identity of 1 lives in the closure at the summed ends
    src = CAT.materialize((0, 5))
    tgt = CAT.materialize((1, 5))
    assert len(member_classes(spec, q, src, tgt)) > 0


# -- Ore completions ----------------------------------------------------------


def test_ore_right_postcondition():
    q = cluster_quotient()
    _, incls, _ = direct_sum([gen("4"), gen("2/3/4")])
    s = incls[0]                      # member: 4 -> 4 + 2/3/4
    f = the_map("4", "3/4")
    w, s2, f2 = ore(ISO, q, s, f, left=False)
    assert fbar_membership(ISO, q, s2)
    assert q.project(s2.compose(f)) == q.project(f2.compose(s))


def test_ore_left_postcondition():
    q = cluster_quotient()
    _, _, projs = direct_sum([gen("1"), gen("2/3/4")])
    s = projs[0]                      # member: 1 + 2/3/4 -> 1
    f = the_map("1/2", "1")
    w, s2, f2 = ore(ISO, q, s, f, left=True)
    assert fbar_membership(ISO, q, s2)
    assert q.project(f.compose(s2)) == q.project(s.compose(f2))


def test_ore_failure_raises():
    """No completion exists for the span 2/3/4 <- 4 -> 3/4 when only the
    two seeds are inverted."""
    q = trivial_quotient()
    f = the_map("4", "3/4")
    h = the_map("3/4", "2/3/4").compose(f)
    spec = MorphismClassSpec("saturate", (f, h))
    with pytest.raises(LocalizationError):
        ore(spec, q, h, f, left=False)


# -- multiplicative system checks ----------------------------------------------


def test_mr_checks_pass_on_cluster():
    res = check_mr(ISO, cluster_quotient())
    assert [(k, v.passed, v.checked) for k, v in res.items()] == [
        ("M0", True, 378),
        ("MR1", True, 10268),
        ("MR2", True, 10268),
        ("MR3", True, 39),
    ]


def test_mr1_catches_missing_cancellation():
    """Seeding f and g.f without g leaves a class whose cancellation
    partner is missing."""
    q = trivial_quotient()
    f = the_map("4", "3/4")
    h = the_map("3/4", "2/3/4").compose(f)
    res = check_mr(MorphismClassSpec("saturate", (f, h)), q)
    assert not res["MR1"].passed
    assert res["MR1"].witness == (
        "4 -> 3/4 -> 2/3/4: the first factor and the composite are in F-bar "
        "but the second factor is not")


def a3_rad2_quotient():
    """The benchmark's input, A3 mod radical square at n = 2, with its
    empty null system."""
    cfg = parse_input((ROOT / "bench/inputs/a3-rad2.exg").read_text())
    return IdealQuotient(build_category(cfg), [])


MR_CASES = {
    "cluster-iso": lambda: (ISO, cluster_quotient()),
    # the specs of test_mr1_catches_missing_cancellation and
    # test_localize_saturate_single_seed_fails_mr3
    "mr1-fails": lambda: (MorphismClassSpec("saturate", (
        the_map("4", "3/4"),
        the_map("3/4", "2/3/4").compose(the_map("4", "3/4")))),
        trivial_quotient()),
    "mr3-fails": lambda: (MorphismClassSpec(
        "saturate", (the_map("3/4", "2/3/4"),)), trivial_quotient()),
    # inverts g: 3/4 -> 2/3/4 and g.f: 4 -> 2/3/4 but not f, so MR1 fails
    # in its second half; MR2 fails in its second half too, at a cospan
    "second-halves-fail": lambda: (MorphismClassSpec(
        "saturate", (the_map("4", "2/3/4"), the_map("3/4", "2/3/4"))),
        trivial_quotient()),
    "projinj-iso": lambda: (ISO, IdealQuotient(CAT, [2, 3])),
    "a2-at-p3": lambda: (ISO, a2_at_p3()[1].q),
}


@pytest.mark.parametrize("case", sorted(MR_CASES))
def test_mr1_mr2_agree_with_the_per_pair_reference(case):
    """The linear-map checks return the same verdicts, witnesses and check
    counts as the per-pair loops of `mr_reference`."""
    spec, q = MR_CASES[case]()
    mem, keys = member_table(spec, q)
    for check, reference in ((localization._check_mr1, mr_reference.check_mr1),
                             (localization._check_mr2, mr_reference.check_mr2)):
        assert check(spec, q, mem, keys) == reference(spec, q, mem, keys)


def test_mr2_lets_an_exhausted_bound_through(monkeypatch):
    """An exhausted bound inside an Ore search is not a missing completion,
    so MR2 does not report it as an MR2 failure."""
    spec, q = MR_CASES["mr3-fails"]()
    mem, keys = member_table(spec, q)

    def exhausted(*args):
        raise BoundExceeded("quotient hom space too large to enumerate")

    monkeypatch.setattr(localization, "ore", exhausted)
    with pytest.raises(BoundExceeded):
        localization._check_mr2(spec, q, mem, keys)


@pytest.mark.parametrize("make", [
    a3_rad2_quotient,
    lambda: IdealQuotient(CAT, [2, 3]),
    lambda: IdealQuotient(a2_at_p3()[0], []),
], ids=["a3-rad2", "a4-projinj", "a2-at-p3"])
def test_invertible_classes_filter_on_dimensions(monkeypatch, make):
    """`_invertible_classes` returns, for every ordered pair of the universe,
    the classes that pass `_class_invertible`, and skips enumerating the
    classes of at least one pair whose quotient dimensions differ."""
    q = make()                   # a fresh quotient: nothing cached yet
    classes = IdealQuotient.classes
    enumerated = []

    def watched(self, X, Y):
        enumerated.append((X, Y))
        return classes(self, X, Y)

    monkeypatch.setattr(IdealQuotient, "classes", watched)
    skipped = 0
    for X in q.universe:
        for Y in q.universe:
            enumerated.clear()
            got = localization._invertible_classes(q, X, Y)
            skipped += not enumerated
            assert got == frozenset(
                c for c in classes(q, X, Y)
                if localization._class_invertible(q, X, Y, c))
    assert skipped


def test_space_size_stops_where_classes_does(monkeypatch):
    """`space_size`, which MR1 and MR2 count classes with, is the length of
    `classes`, and raises BoundExceeded at exactly the limit where `classes`
    does."""
    q = a3_rad2_quotient()
    X, Y = max(((X, Y) for X in q.universe for Y in q.universe),
               key=lambda k: q.qdim(*k))
    dim = q.qdim(X, Y)
    count = q.p ** dim
    assert count > 1
    monkeypatch.setattr(linalg, "ENUM_LIMIT", count)
    assert space_size(q.p, dim) == len(q.classes(X, Y)) == count
    monkeypatch.setattr(linalg, "ENUM_LIMIT", count - 1)
    message = f"^F_2\\^{dim} has more than {count - 1} vectors to enumerate$"
    with pytest.raises(BoundExceeded, match=message):
        space_size(q.p, dim)
    with pytest.raises(BoundExceeded, match=message):
        q.classes(X, Y)


def test_mr2_builds_no_matrix_for_an_invertible_member(monkeypatch):
    """In iso mode every member is invertible, so MR2 counts its pairs and
    builds no `_pre`/`_post` matrix; the count is the bench input's."""
    q = a3_rad2_quotient()
    mem, keys = member_table(ISO, q)
    built = []
    for name in ("_pre", "_post"):
        monkeypatch.setattr(localization, name,
                            lambda *args, name=name: built.append(name))
    assert localization._check_mr2(ISO, q, mem, keys) == CheckResult(
        "MR2", True, None, 4532)
    assert built == []


# -- K and E-bar ---------------------------------------------------------------


def test_k_vanishes_on_cluster():
    q = cluster_quotient()
    for c_label, a_label in [("1", "4"), ("1", "3/4"), ("1/2", "4")]:
        assert k_subgroup(ISO, q, gen(c_label), gen(a_label)) == []
        assert ebar_group(ISO, q, gen(c_label), gen(a_label)).dim == 1


def test_ebar_matches_ext_on_trivial():
    q = trivial_quotient()
    for C in GENS:
        for A in GENS:
            assert ebar_group(ISO, q, C, A).dim == CAT.ext(C, A).dim


def test_ebar_lift_project_roundtrip():
    q = cluster_quotient()
    eb = ebar_group(ISO, q, gen("1"), gen("4"))
    for coords in eb.classes():
        assert eb.project(eb.lift(coords)) == coords


def test_descended_push_and_pull():
    q = cluster_quotient()
    eb = ebar_group(ISO, q, gen("1"), gen("4"))
    assert ebar_pull(ISO, q, eb, (1,), the_map("1/2", "1")) == (1,)
    assert ebar_push(ISO, q, eb, (1,), the_map("4", "3/4")) == (1,)
    assert ebar_push(ISO, q, eb, (0,), the_map("4", "3/4")) == (0,)


# -- roofs ---------------------------------------------------------------------


def test_make_roof_rejects_non_members():
    q = cluster_quotient()
    with pytest.raises(ValueError):
        make_roof(ISO, q, the_map("1/2", "1"), (1,),
                  identity_morphism(gen("4")))


def test_make_roof_rejects_wrong_coords():
    q = cluster_quotient()
    with pytest.raises(ValueError):
        make_roof(ISO, q, identity_morphism(gen("1")), (1, 0),
                  identity_morphism(gen("4")))


def test_roof_with_padded_denominators_equals_identity_roof():
    """[t \\ delta / s] with t, s the canonical projection/inclusion around
    dead summands is the identity roof of the matching class."""
    q = cluster_quotient()
    _, _, zprojs = direct_sum([gen("2/3/4"), gen("1")])
    _, xincls, _ = direct_sum([gen("4"), gen("2/3/4")])
    r = make_roof(ISO, q, zprojs[1], (1,), xincls[0])
    rid = identity_roof(ISO, q, gen("1"), gen("4"), (1,))
    assert roof_equal(ISO, q, r, rid)
    assert not roof_equal(ISO, q, r, roof_zero(ISO, q, gen("1"), gen("4")))
    total = roof_add(ISO, q, r, rid)
    assert roof_equal(ISO, q, total, roof_zero(ISO, q, gen("1"), gen("4")))


def test_roof_equal_needs_matching_ends():
    q = cluster_quotient()
    with pytest.raises(ValueError):
        roof_equal(ISO, q, identity_roof(ISO, q, gen("1"), gen("4"), (1,)),
                   identity_roof(ISO, q, gen("1"), gen("3/4"), (1,)))


def test_roof_push_and_pull_match_descended_maps():
    q = cluster_quotient()
    eb = ebar_group(ISO, q, gen("1"), gen("4"))
    r = identity_roof(ISO, q, gen("1"), gen("4"), (1,))
    pushed = roof_push(ISO, q, r, the_map("4", "3/4"))
    expect = identity_roof(ISO, q, gen("1"), gen("3/4"),
                           ebar_push(ISO, q, eb, (1,), the_map("4", "3/4")))
    assert roof_equal(ISO, q, pushed, expect)
    pulled = roof_pull(ISO, q, r, the_map("1/2", "1"))
    expect = identity_roof(ISO, q, gen("1/2"), gen("4"),
                           ebar_pull(ISO, q, eb, (1,), the_map("1/2", "1")))
    assert roof_equal(ISO, q, pulled, expect)


def test_etilde_group_cluster():
    et = etilde_group(ISO, cluster_quotient(), gen("1"), gen("4"))
    assert len(et.reps) == 2
    assert et.mu_map == (0, 1)
    assert et.zero_index == 0
    assert et.add_table == ((0, 1), (1, 0))


# -- realization of roofs --------------------------------------------------------


def test_s_tilde_of_identity_roof_is_the_realization():
    q = cluster_quotient()
    r = identity_roof(ISO, q, gen("1"), gen("4"), (1,))
    cx = s_tilde(CAT, ISO, q, r)
    nex = CAT.realize(CAT.ext(gen("1"), gen("4")).element([1]))
    assert cx.terms == nex.terms
    assert cx.diffs == nex.diffs


def test_s_tilde_absorbs_denominators():
    q = cluster_quotient()
    _, _, zprojs = direct_sum([gen("2/3/4"), gen("1")])
    _, xincls, _ = direct_sum([gen("4"), gen("2/3/4")])
    r = make_roof(ISO, q, zprojs[1], (1,), xincls[0])
    cx = s_tilde(CAT, ISO, q, r)
    assert cx.terms[0] == gen("4")
    assert cx.terms[-1] == gen("1")
    labels = [CAT.format_object(t) for t in cx.terms]
    assert labels == ["4", "2/3/4 + 2/3/4", "2/3/4 + 1/2/3", "1"]


def test_lift_families_agree_in_both_coordinates():
    """With no null system the quotient's class coordinates are hom-basis
    coordinates, so C and C-bar solve the same lift problems: the pairs
    visited by C3 and C3' give the same families in the same order."""
    q = trivial_quotient()
    compared = several = 0

    def compare(*ends):
        nonlocal compared, several
        lifts = list(cone_reference.all_lifts(CAT, *ends))
        assert lifts and lifts == list(cone_reference.all_lifts(q, *ends))
        compared += 1
        several += len(lifts) > 1

    for C in GENS:
        for A in GENS:
            for delta in CAT.ext_elements(C, A):
                X = CAT.realize(delta)
                for B in GENS:
                    for arrow in enumerate_hom(A, B):
                        Y = CAT.realize(push_forward(delta, arrow))
                        compare(X, Y, arrow, identity_morphism(C))
                    for arrow in enumerate_hom(B, C):
                        Y = CAT.realize(pull_back(delta, arrow))
                        compare(Y, X, identity_morphism(A), arrow)
    assert compared > 600 and several > 0


def test_table_complex_validation():
    nex = CAT.realize(CAT.ext(gen("1"), gen("4")).element([1]))
    with pytest.raises(ValueError):
        TableComplex(nex.terms, nex.diffs[:-1])
    with pytest.raises(ValueError):
        TableComplex(nex.terms[:2], nex.diffs[:1])


# -- the C1-C3' drivers on both engines ------------------------------------------


@lru_cache(maxsize=None)
def a2_at(p):
    """mod kA2 at p (n = 1), as C and as its localization at nf = ().
    Shared between tests: the engines' caches do not depend on anything a
    test patches."""
    alg = AlgebraPresentation(Quiver(2, (Arrow("a", 1, 2),)), (), p=p,
                              path_length_bound=8)
    labels = ["2", "1/2", "1"]
    spans = {"2": (2, 2), "1/2": (1, 2), "1": (1, 1)}
    cat = ExCategory(alg, 1, [interval_module(alg, *spans[lab]) for lab in labels],
                     labels=labels)
    return cat, LocalizedEngine(cat, ISO, IdealQuotient(cat, []))


def a2_at_p3():
    return a2_at(3)


def core_checks(engine):
    return [check_c1(engine), check_c2(engine, False), check_c2(engine, True),
            check_c3(engine, False), check_c3(engine, True)]


def test_both_engines_run_the_same_checks_at_empty_nf():
    cat, eng = a2_at_p3()
    results = core_checks(cat)
    assert results == core_checks(eng)
    assert [r.checked for r in results] == [11, 3, 3, 71, 71]
    assert all(r.passed for r in results)


def test_c3_witness_names_the_cocone(monkeypatch):
    """Without the cocone's sign C3 fails at p = 3, in both engines at the
    same check, and the witness names the complex that was tested."""
    monkeypatch.setattr(exangulated, "cocone_sign", lambda n: 1)
    cat, eng = a2_at_p3()
    why = "along push-forward to 2: no good lift (no cocone is distinguished)"
    assert cat.check_core_axioms()["C3"] == CheckResult(
        "C3", False, f"E(1, 2) coords [1] {why}", 46)
    assert check_c3(eng, False) == CheckResult(
        "C3", False, f"the class [1] in E-bar(1, 2) {why}", 46)


# -- the one-lift rule against the two-way homotopy search -----------------------


def compare_with_reference(monkeypatch):
    """Make the localized engine's `is_distinguished` and `is_split` also run
    the two-way search of `homotopy_reference` on every call.  Returns the
    list the calls append to: (primitive, rule's answer, reference's answer,
    whether the reference complex is an n-exangle)."""
    calls = []

    def split_complex(eng, cx):
        split = eng.cat.split_realization(
            eng.cat.ext(cx.terms[-1], cx.terms[0]).zero())
        return TableComplex(split.terms, split.diffs), True

    def realization(eng, cx):
        return (eng.realize(cx.roof),
                exangulated.realization_is_exangle(eng, cx.roof))

    for name, reference in (("is_split", split_complex),
                            ("is_distinguished", realization)):
        def both(eng, cx, rule=getattr(LocalizedEngine, name), name=name,
                 reference=reference):
            got = rule(eng, cx)
            ref, exact = reference(eng, cx)
            calls.append((name, got, two_way_equivalent(
                eng.q, cone_reference.materialize(cx), ref), exact))
            return got

        monkeypatch.setattr(LocalizedEngine, name, both)
    return calls


@pytest.mark.parametrize("path, exact", [
    ("bench/inputs/a3-rad2.exg", True),
    # weak-kc fails here, and some realizations are not n-exangles
    ("fixtures/a4-projinj.exg", False),
])
def test_one_lift_rule_agrees_with_the_two_way_search(monkeypatch, capsys,
                                                      path, exact):
    calls = compare_with_reference(monkeypatch)
    main(["localize", str(ROOT / path)])
    capsys.readouterr()
    assert {name for name, *_ in calls} == {"is_split", "is_distinguished"}
    assert [c for c in calls if c[1] != c[2]] == []
    assert all(c[3] for c in calls) == exact


def test_one_lift_rule_agrees_on_a2_at_p3(monkeypatch):
    _, eng = a2_at_p3()
    calls = compare_with_reference(monkeypatch)
    assert check_c3(eng, False).passed and check_c3(eng, True).passed
    assert len(calls) >= 142
    assert [c for c in calls if c[1] != c[2]] == []


def test_ebar_column_is_built_once_per_roof_and_tester(monkeypatch, capsys):
    """The E-bar column of a localized Hom sequence depends only on the
    roof, the test object and the variance, so `localize` builds it once
    for each such triple, however many complexes share it.  A cone's Hom
    sequence is looked up by the values of its pieces and built only on a
    miss."""
    sequences, columns = [], []
    hom_sequence = LocalizedEngine._hom_sequence
    ebar_column = LocalizedEngine._ebar_column.__wrapped__

    def counted_sequence(self, cx, T, variance):
        sequences.append((cx.roof, T, variance))
        return hom_sequence(self, cx, T, variance)

    def counted_column(self, roof, T, variance):
        columns.append((roof, T, variance))
        return ebar_column(self, roof, T, variance)

    monkeypatch.setattr(LocalizedEngine, "_hom_sequence", counted_sequence)
    monkeypatch.setattr(LocalizedEngine, "_ebar_column",
                        exangulated.memo(counted_column))
    assert main(["localize", str(ROOT / "bench/inputs/a3-rad2.exg")]) == 0
    capsys.readouterr()
    # a cone's sequence is built only when its key misses: 64 of the 1568
    # cone sequences, beside the 408 of the other complexes
    assert len(sequences) == 472
    assert len(columns) == len(set(columns)) == len(set(sequences)) == 200


def test_c2_compares_with_the_split_complex(monkeypatch):
    """C2 fails when the zero class of E-bar(0, A) realizes as A -> A+A -> 0,
    which maps to the split complex A -> A -> 0 with identity ends but is
    not homotopy equivalent to it.  The exactness test is bypassed, so that
    C2 reaches the split test."""
    cat, shared = a2_at_p3()
    eng = LocalizedEngine(cat, ISO, shared.q)
    A = cat.generators[0]
    mid, incls, _ = direct_sum([A, A])
    monkeypatch.setattr(exangulated, "_exangle_witness", lambda *args: None)
    monkeypatch.setattr(
        LocalizedEngine, "realize",
        lambda self, roof: TableComplex(
            (A, mid, roof.end_C), (incls[0], zero_morphism(mid, roof.end_C)),
            roof))
    res = check_c2(eng, False)
    assert (res.passed, res.checked) == (False, 1)
    assert res.witness.endswith("does not realize as the split complex")


# -- weak kernel-cokernel criterion ---------------------------------------------


def test_weak_kc_witnesses_on_cluster():
    q = cluster_quotient()
    cases = {
        ("1", "4"): "covariant sequence not exact at position 2 "
                    "with test object 1/2/3",
        ("1", "3/4"): "covariant sequence not exact at position 2 "
                      "with test object 1/2",
        ("1/2", "4"): "covariant sequence not exact at position 2 "
                      "with test object 1/2/3",
    }
    for (c_label, a_label), expected in cases.items():
        delta = CAT.ext(gen(c_label), gen(a_label)).element([1])
        res = weak_kc_check(CAT, ISO, q, CAT.realize(delta))
        assert not res.passed
        assert res.witness == expected


def test_weak_kc_passes_on_split_realizations():
    q = cluster_quotient()
    for c_label, a_label in [("4", "4"), ("1", "1"), ("1/2/3", "1/2")]:
        delta = CAT.ext(gen(c_label), gen(a_label)).zero()
        res = weak_kc_check(CAT, ISO, q, CAT.realize(delta))
        assert res.passed


def test_weak_kc_passes_everywhere_on_trivial():
    q = trivial_quotient()
    for C in GENS:
        for A in GENS:
            for delta in CAT.ext_elements(C, A):
                assert weak_kc_check(CAT, ISO, q, CAT.realize(delta)).passed


# -- right-fraction hom-sets ------------------------------------------------------


def test_fraction_homs_materialize_the_inverse():
    """Inverting 3/4 -> 2/3/4 creates exactly one new morphism backwards."""
    q = trivial_quotient()
    spec = MorphismClassSpec("saturate", (the_map("3/4", "2/3/4"),))
    fr = FractionHoms(spec, q)
    assert len(fr.reps(gen("2/3/4"), gen("3/4"))) == 2
    assert q.qdim(gen("2/3/4"), gen("3/4")) == 0
    # plain hom-sets that gain nothing keep their size
    assert len(fr.reps(gen("4"), gen("3/4"))) == 2
    assert len(fr.reps(gen("4"), gen("4"))) == 2


def test_fraction_inverse_composes_to_identity():
    q = trivial_quotient()
    g34 = the_map("3/4", "2/3/4")
    spec = MorphismClassSpec("saturate", (g34,))
    fr = FractionHoms(spec, q)
    X, Y = gen("2/3/4"), gen("3/4")
    inverse = next(it for it in fr.reps(X, Y) if it[2] is not None)
    back = fr.postcompose(X, Y, inverse, g34)
    idx = fr.class_index(X, X, back)
    plain_id = fr.class_index(X, X, (X, q.identity_class(X), None))
    assert idx == plain_id


# -- full pipeline verdicts -------------------------------------------------------


def test_localize_cluster_fails_weak_kc():
    rep = cluster_report()
    assert rep.verdict == "fails weak-kc"
    assert rep.exit_code == 20
    assert rep.nf_labels == ("2/3/4",)
    assert rep.checks["weak-kc"].witness == (
        "E(1/2, 4) coords [1]: covariant sequence not exact at "
        "position 2 with test object 1/2/3")
    assert not rep.checks["C1"].passed
    assert rep.checks["C2"].passed
    assert rep.checks["C2'"].passed
    assert rep.checks["C3"].passed
    assert rep.checks["C3'"].passed
    assert rep.skipped["C4"] == "not checked (weak-kc already failed)"
    assert rep.skipped["WIC"] == "not checked (weak-kc already failed)"


def test_localize_cluster_kc_details():
    rep = cluster_report()
    failing = [tag for tag, ok, _ in rep.kc_details if not ok]
    assert failing == ["E(1/2, 4) coords [1]", "E(1, 4) coords [1]",
                       "E(1, 3/4) coords [1]"]
    assert len(rep.kc_details) == 39


def test_localize_trivial_is_exangulated():
    rep = trivial_report()
    assert rep.verdict == "2-exangulated"
    assert rep.exit_code == 0
    for name in ("M0", "MR1", "MR2", "MR3", "weak-kc", "C1", "C2", "C2'",
                 "C3", "C3'", "C4", "WIC", "equivalence", "functor"):
        assert rep.checks[name].passed, name
    # the same instance counts as the unlocalized axiom suite
    assert rep.checks["C1"].checked == 39
    assert rep.checks["C3"].checked == 333
    assert rep.checks["C3'"].checked == 333


def test_localized_c4_reads_the_edge_table():
    """Localized C4 reads its realized edges from `ExCategory.edges`, the
    table that C4 of the category itself fills; the counts are the bench
    input's golden ones."""
    q = a3_rad2_quotient()
    cat = q.base
    assert q.universe is cat.universe
    assert check_c4(cat).checked == 458
    rep = localize(cat, ISO, [])
    assert rep.checks["C4"] == CheckResult("C4", True, None, 1810)


def both_engines(eng):
    return eng, eng.cat


C4_CASES = {
    "a3-rad2-m1": lambda: both_engines(
        fresh_engine("bench/inputs/a3-rad2.exg", 1)),
    "a3-rad2-m2": lambda: both_engines(
        fresh_engine("bench/inputs/a3-rad2.exg", 2)),
    "a4-trivial": lambda: both_engines(
        LocalizedEngine(CAT, ISO, trivial_quotient())),
    "a2-at-p3": lambda: both_engines(a2_at_p3()[1]),
    # C alone: the localized C4 of this input takes minutes
    "a2-at-p5": lambda: (a2_at(5)[0],),
}


def fresh_engine(path, multiplicity):
    cfg = parse_input((ROOT / path).read_text())
    cat = build_category(cfg.replace(multiplicity=multiplicity))
    return LocalizedEngine(cat, ISO, IdealQuotient(cat, []))


@pytest.mark.parametrize("case", sorted(C4_CASES))
def test_c4_agrees_with_the_per_pair_reference(case):
    """C4 by one composition matrix per near edge returns the same verdict,
    witness and count as composing each pair, in the quotient and in C."""
    for engine in C4_CASES[case]():
        assert check_c4(engine) == c4_reference.check_c4(engine)


@pytest.mark.parametrize("make", [
    lambda: a3_rad2_quotient().base,
    lambda: a2_at_p3()[0],
], ids=["a3-rad2", "a2-at-p3"])
def test_cone_agrees_with_the_composed_reference(monkeypatch, make):
    """The block-matrix cone has the terms and differentials of the cone
    composed through inclusions and projections, for every cone and cocone
    that C3 and C3' test."""
    cat = make()
    shifts = []
    block_cone = exangulated.cone

    def both(src, dst, f, shift):
        got = block_cone(src, dst, f, shift)
        assert got == cone_reference.cone(src, dst, f, shift)
        shifts.append(shift)
        return got

    monkeypatch.setattr(exangulated, "cone", both)
    assert check_c3(cat, False).passed and check_c3(cat, True).passed
    assert set(shifts) == {0, 1}
    assert len(shifts) >= 142


def test_localize_projinj_fails_weak_kc():
    rep = localize(CAT, ISO, [2, 3])
    assert rep.verdict == "fails weak-kc"
    assert rep.exit_code == 20
    assert rep.nf_labels == ("2/3/4", "1/2/3")


def test_localize_mr1_control_exits_30():
    f = the_map("4", "3/4")
    h = the_map("3/4", "2/3/4").compose(f)
    rep = localize(CAT, MorphismClassSpec("saturate", (f, h)), [])
    assert rep.verdict == "MR precondition failed"
    assert rep.exit_code == 30
    assert not rep.checks["MR1"].passed
    assert rep.skipped["weak-kc"] == "not checked (MR precondition failed)"
    assert rep.kc_details == ()


def test_localize_saturate_without_seeds_is_weak_only():
    rep = localize(CAT, MorphismClassSpec("saturate"), [])
    assert rep.verdict == "weakly 2-exangulated"
    assert rep.exit_code == 10
    assert rep.checks["weak-kc"].passed
    assert rep.skipped["C4"] == "not computed in saturate mode"
    assert rep.skipped["equivalence"] == "not computed in saturate mode"


@pytest.mark.parametrize("path", [
    "fixtures/a4-cluster.exg", "fixtures/a4-projinj.exg",
    "fixtures/a4-trivial.exg", "bench/inputs/a3-rad2.exg"])
def test_seedless_saturate_weak_kc_equals_iso(path):
    """With no seed, F-bar is the invertible classes in both modes, so the
    right fractions give iso mode's weak-kc result.  On a4-cluster and
    a4-projinj this needs fractions into an object that is zero in C-bar
    (4 -> 2/3/4, with 2/3/4 in N_F) to compare equal, through the solution
    u1 = u2 = 0 of `FractionHoms._equal`."""
    cfg = parse_input((ROOT / path).read_text())
    results = []
    for mode in ("iso", "saturate"):
        cat = build_category(cfg)
        nf = [cfg.generators.index(label) for label in cfg.nf]
        rep = localize(cat, MorphismClassSpec(mode), nf)
        results.append(rep.checks["weak-kc"])
    assert results[1] == results[0]


def test_localize_saturate_single_seed_fails_mr3():
    rep = localize(CAT, MorphismClassSpec("saturate",
                                          (the_map("3/4", "2/3/4"),)), [])
    assert rep.verdict == "MR precondition failed"
    assert rep.checks["MR1"].passed
    assert rep.checks["MR2"].passed
    assert not rep.checks["MR3"].passed


def test_report_bounds():
    rep = cluster_report()
    assert rep.bounds == {"multiplicity": 2, "endpoint_summands": 2,
                          "path_length": 8}
    assert rep.mode == "iso"


def test_caches_die_with_their_owners(monkeypatch):
    """Every engine cache lives on the ExCategory, IdealQuotient or
    LocalizedEngine that owns it, so nothing keeps any of them alive after a
    run has dropped them."""
    owners = []

    def watched(cls):
        class Watched(cls):
            def __init__(self, *args):
                super().__init__(*args)
                owners.append(weakref.ref(self))
        return Watched

    for name in ("IdealQuotient", "LocalizedEngine"):
        monkeypatch.setattr(localization, name,
                            watched(getattr(localization, name)))
    cat = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)
    assert localize(cat, ISO, [2]).verdict == "fails weak-kc"
    assert [type(o()).__mro__[1].__name__ for o in owners] == [
        "IdealQuotient", "LocalizedEngine"]
    assert all(o()._memo for o in owners)
    cat_ref = weakref.ref(cat)
    del cat
    gc.collect()
    assert [o() for o in owners] == [None, None]
    assert cat_ref() is None
