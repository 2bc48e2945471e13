"""Tests for the extension-structure layer: realizations, exangle checks,
cones, lifts, inflations and the axiom suite."""

import pickle
import random
from collections import Counter
from pathlib import Path

import pytest

import exact_reference
import exangulate.quiver as quiver
import exangulate.exangulated as exangulated
from exangulate.cli import build_category, parse_input
from exangulate.exangulated import (
    CheckResult,
    ExangleFailure,
    ExCategory,
    NExangle,
    Subcategory,
    check_c1,
    check_c3,
    check_c4,
    check_core_axioms,
    cocone_sign,
    cone,
    homotopy_equivalent,
    is_n_exangle,
    lift_morphism,
    mapping_cocone,
    mapping_cone,
    realization_is_exangle,
    realize,
)
from cone_reference import all_lifts, block_morphism
from decompose_reference import is_isomorphic
from exangulate.linalg import Matrix, rank
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    ModMorphism,
    Module,
    Quiver,
    Relation,
    direct_sum,
    enumerate_hom,
    hom_basis,
    identity_morphism,
    interval_module,
    pull_back,
    push_forward,
    yoneda_class,
    zero_module,
    zero_morphism,
    _is_exact_sequence,
)

A4 = Quiver(4, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4)))
ALG = AlgebraPresentation(A4, (Relation((1,), (("a", "b", "c"),)),), p=2,
                          path_length_bound=8)
LABELS = ["4", "3/4", "2/3/4", "1/2/3", "1/2", "1"]
SPANS = {"4": (4, 4), "3/4": (3, 4), "2/3/4": (2, 4), "1/2/3": (1, 3),
         "1/2": (1, 2), "1": (1, 1)}
GENS = [interval_module(ALG, *SPANS[lab]) for lab in LABELS]

CAT = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)

ROOT = Path(__file__).resolve().parent.parent


def gen(label):
    return GENS[LABELS.index(label)]


def the_map(src_label, tgt_label):
    basis = hom_basis(gen(src_label), gen(tgt_label))
    assert len(basis) == 1
    return basis[0]


def nonzero_class(c_label, a_label):
    space = CAT.ext(gen(c_label), gen(a_label))
    assert space.dim == 1
    return space.element([1])


def test_object_universes():
    endpoint = list(CAT.endpoint_multisets())
    assert len(endpoint) == 28
    assert endpoint[0] == ()
    completion = list(CAT.completion_multisets())
    assert len(completion) == 729
    assert CAT.completion_multisets() is CAT.completion_multisets()
    # ordered by total dimension, then lexicographically by index multiset
    assert completion[0] == ()
    assert completion[1] == (0,)
    assert completion[-1] == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)


def test_materialize_is_cached():
    a = CAT.materialize((0, 2))
    b = CAT.materialize((0, 2))
    assert a is b
    assert a.dims == (0, 1, 1, 2)


def test_format_object():
    assert CAT.format_object(gen("2/3/4")) == "2/3/4"
    assert CAT.format_object(CAT.materialize((1, 2))) == "3/4 + 2/3/4"
    assert CAT.format_object(zero_module(ALG)) == "0"


def test_split_realization_shape():
    delta = CAT.ext(gen("1"), gen("4")).zero()
    split = CAT.split_realization(delta)
    assert [t.dims for t in split.terms] == [
        (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0)]
    assert split.diffs[0] == identity_morphism(gen("4"))
    assert split.diffs[2] == identity_morphism(gen("1"))
    assert split.diffs[1].is_zero


def test_split_realization_degree_one():
    """In degree one the zero class splits as the biproduct sequence."""
    cat1 = ExCategory(ALG, 1, GENS, labels=LABELS, multiplicity_bound=2)
    delta = cat1.ext(gen("1"), gen("4")).zero()
    split = cat1.split_realization(delta)
    assert [t.dims for t in split.terms] == [
        (0, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, 0)]
    assert split.diffs[1].compose(split.diffs[0]).is_zero
    assert split.diffs[0].is_mono and split.diffs[1].is_epi


def test_split_realization_zero_end():
    space = CAT.ext(zero_module(ALG), gen("4"))
    split = CAT.split_realization(space.zero())
    assert [t.dims for t in split.terms] == [
        (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)]


REALIZATION_TERMS = {
    ("1", "4"): ["4", "2/3/4", "1/2/3", "1"],
    ("1", "3/4"): ["3/4", "2/3/4", "1/2", "1"],
    ("1/2", "4"): ["4", "3/4", "1/2/3", "1/2"],
}


def test_realize_nonzero_classes():
    for (c_lab, a_lab), expected in REALIZATION_TERMS.items():
        nex = CAT.realize(nonzero_class(c_lab, a_lab))
        assert [CAT.format_object(t) for t in nex.terms] == expected
        # every edge of these complexes is the unique morphism up to scalar
        for i in range(3):
            assert nex.diffs[i] == the_map(expected[i], expected[i + 1])


def test_realize_is_cached_and_zero_splits():
    delta = nonzero_class("1", "4")
    assert CAT.realize(delta) is CAT.realize(delta)
    zero = CAT.ext(gen("1"), gen("4")).zero()
    assert CAT.realize(zero) == CAT.split_realization(zero)


def test_realize_fails_outside_small_subcategory():
    small = ExCategory(ALG, 2, [gen("4"), gen("1")], labels=["4", "1"],
                       multiplicity_bound=2)
    delta = small.ext(gen("1"), gen("4")).element([1])
    with pytest.raises(ValueError, match="no realization found within"):
        small.realize(delta)


def printed_sequence():
    """The 4-term complex on 4, 2/3/4, 1/2, 1 with all edges nonzero.

    Consecutive composites vanish, but the complex is not exact in the middle.
    """
    delta = nonzero_class("1", "4")
    return NExangle(
        (gen("4"), gen("2/3/4"), gen("1/2"), gen("1")),
        (the_map("4", "2/3/4"), the_map("2/3/4", "1/2"), the_map("1/2", "1")),
        delta)


def test_printed_sequence_is_not_an_exangle():
    verdict = CAT.is_n_exangle(printed_sequence())
    assert not verdict.ok
    first = verdict.first_failure
    assert first.side == "contravariant"
    assert first.position == 1
    assert LABELS[first.tester] == "3/4"
    assert first.reason == "homology"
    assert len(verdict.failures) == 3


def failures_ranking_per_slot(engine, cx):
    """The per-slot form of `exangle_failures`: the same loops and order,
    with two ranks per slot."""
    n = len(cx.terms) - 2
    out = []
    for variance in ("contravariant", "covariant"):
        for slot in range(1, n + 2):
            position = slot if variance == "contravariant" else n + 1 - slot
            for ti, tester in enumerate(engine.generators):
                maps = engine._hom_sequence(cx, tester, variance)
                incoming, outgoing = maps[slot - 1], maps[slot]
                if not (outgoing @ incoming).is_zero:
                    out.append(ExangleFailure(variance, position, ti, "not a complex"))
                elif rank(incoming) != outgoing.cols - rank(outgoing):
                    out.append(ExangleFailure(variance, position, ti, "homology"))
    return out


def test_ext_elements_sample_past_the_enumeration_limit(monkeypatch):
    """Within EXT_ENUM_LIMIT every class is listed; past it, the zero class
    followed by the basis."""
    C, A = CAT.materialize((5, 5)), gen("4")
    space = CAT.ext(C, A)
    assert space.dim == 2
    assert CAT.ext_elements(C, A) == space.all_elements()
    monkeypatch.setattr(exangulated, "EXT_ENUM_LIMIT", 1)
    sample = CAT.ext_elements(C, A)
    assert sample == [space.zero()] + space.basis()
    assert len(sample) == 3


def test_exangle_failures_rank_each_map_once(monkeypatch):
    """Realizations relabelled with every class of the same ends fail in
    both ways; the failures and their order are those of the per-slot
    ranking.  Each distinct Hom sequence of n + 2 maps costs n + 2 ranks on
    a fresh engine, and nothing more after that: the defects are cached on
    the engine by the values of the matrices."""
    reasons = set()
    for C in GENS:
        for A in GENS:
            classes = CAT.ext_elements(C, A)
            for delta in classes:
                X = CAT.realize(delta)
                for other in classes:
                    cx = NExangle(X.terms, X.diffs, other)
                    got = list(exangulated.exangle_failures(CAT, cx))
                    assert got == failures_ranking_per_slot(CAT, cx)
                    reasons.update(f.reason for f in got)
    assert reasons == {"not a complex", "homology"}
    ranked = []
    monkeypatch.setattr(exangulated, "rank",
                        lambda m: ranked.append(m) or rank(m))
    cat = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)
    seq = printed_sequence()
    assert list(exangulated.exangle_failures(cat, seq))
    distinct = {tuple(cat._hom_sequence(seq, T, variance))
                for variance in ("contravariant", "covariant") for T in GENS}
    assert len(distinct) > len(GENS)
    assert len(ranked) == len(distinct) * (cat.n + 2)
    assert list(exangulated.exangle_failures(cat, seq))
    assert len(ranked) == len(distinct) * (cat.n + 2)


def test_corrected_sequence_is_an_exangle():
    delta = nonzero_class("1", "4")
    nex = NExangle(
        (gen("4"), gen("2/3/4"), gen("1/2/3"), gen("1")),
        (the_map("4", "2/3/4"), the_map("2/3/4", "1/2/3"),
         the_map("1/2/3", "1")),
        delta)
    assert CAT.is_n_exangle(nex).ok
    assert nex == CAT.realize(delta)


def test_summand_multiset_decomposes_each_module_once(monkeypatch):
    """Membership tests and labels all ask for the summands of the same few
    modules; each module value is counted by rank at most once, one pairing
    per generator, since equal modules are one object.  A sum that
    `sum_module` built gets no pairing at all: its multiset merges those of
    its recorded parts, and each part, a generator here, is counted once."""
    objects = Subcategory(tuple(GENS))
    pairings = []
    real = quiver._pairing_rank
    monkeypatch.setattr(quiver, "_pairing_rank",
                        lambda *args: pairings.append(args) or real(*args))
    m = direct_sum([gen("4"), gen("1/2")])[0]
    # the public constructor returns the module the engine built
    rebuilt = Module(m.alg, m.dims, tuple(
        Matrix(a.p, a.rows, a.cols, a.entries) for a in m.arrow_maps))
    assert rebuilt is m
    assert objects.summand_multiset(m) == (0, 4)
    assert objects.summand_multiset(m) == (0, 4)
    assert objects.contains(rebuilt)
    bigger = direct_sum([gen("1/2"), gen("4"), gen("4")])[0]
    assert objects.summand_multiset(bigger) == (0, 0, 4)
    # a generator is paired only with the generators that fit inside it
    assert pairings == [(gen("4"), gen("4")), (gen("1/2"), gen("1/2")),
                        (gen("1/2"), gen("1"))]


def test_subcategory_rejects_generators_over_a_pickled_copy_of_the_algebra():
    """A module over a value-equal copy of the algebra is interned in
    another table, so it is another module and cannot join the generators."""
    copy = pickle.loads(pickle.dumps(ALG))
    assert copy == ALG and copy is not ALG
    with pytest.raises(ValueError, match="generators live over different algebras"):
        Subcategory((gen("4"), interval_module(copy, 1, 1)))


def test_nexangle_validation():
    delta = nonzero_class("1", "4")
    with pytest.raises(ValueError, match="ends disagree"):
        NExangle(
            (gen("4"), gen("2/3/4"), gen("1/2/3"), gen("1")),
            (the_map("4", "2/3/4"), the_map("2/3/4", "1/2/3"),
             the_map("1/2/3", "1")),
            nonzero_class("1", "3/4"))
    with pytest.raises(ValueError):
        NExangle((gen("4"), gen("1")), (the_map("4", "2/3/4"),), delta)


def test_is_distinguished():
    for (c_lab, a_lab) in REALIZATION_TERMS:
        assert CAT.is_distinguished(CAT.realize(nonzero_class(c_lab, a_lab)))
    assert not CAT.is_distinguished(printed_sequence())
    zero = CAT.ext(gen("1"), gen("4")).zero()
    assert CAT.is_distinguished(CAT.split_realization(zero))
    # right terms, wrong class
    wrong = NExangle(CAT.realize(nonzero_class("1", "4")).terms,
                     CAT.realize(nonzero_class("1", "4")).diffs, zero)
    assert not CAT.is_distinguished(wrong)


def test_delta_sharp_values():
    delta = nonzero_class("1", "4")
    m = CAT.delta_sharp(delta, gen("1"), "contravariant")
    assert (m.rows, m.cols, m.entries) == (1, 1, (1,))
    m = CAT.delta_sharp(delta, gen("4"), "covariant")
    assert (m.rows, m.cols, m.entries) == (1, 1, (1,))
    m = CAT.delta_sharp(delta, gen("3/4"), "covariant")
    assert (m.rows, m.cols, m.entries) == (1, 1, (1,))
    # Hom(3/4, 1) and the receiving extension space both vanish
    m = CAT.delta_sharp(delta, gen("3/4"), "contravariant")
    assert (m.rows, m.cols) == (0, 0)


def c3_instance():
    """Data of a pushforward square: delta in E(1,4) pushed along 4 -> 3/4."""
    delta = nonzero_class("1", "4")
    src = CAT.realize(delta)
    a = the_map("4", "3/4")
    moved = push_forward(delta, a)
    dst = CAT.realize(moved)
    return delta, src, a, dst


def test_lift_morphism_squares_commute():
    delta, src, a, dst = c3_instance()
    lift = CAT.lift_morphism(src, dst, a, identity_morphism(gen("1")))
    full = [a] + lift + [identity_morphism(gen("1"))]
    for i in range(3):
        assert full[i + 1].compose(src.diffs[i]) == dst.diffs[i].compose(full[i])
    assert len(list(all_lifts(CAT, src, dst, a, identity_morphism(gen("1"))))) == 1


def test_mapping_cocone_of_good_lift():
    delta, src, a, dst = c3_instance()
    lift = CAT.lift_morphism(src, dst, a, identity_morphism(gen("1")))
    full = [a] + lift + [identity_morphism(gen("1"))]
    eps = pull_back(delta, dst.diffs[2])
    cocone = CAT.mapping_cocone(src, dst, full, eps)
    assert [CAT.format_object(t) for t in cocone.terms] == [
        "4", "3/4 + 2/3/4", "2/3/4 + 1/2/3", "1/2"]
    assert CAT.is_distinguished(cocone)


def test_mapping_cone_requires_identity_end():
    delta, src, a, dst = c3_instance()
    lift = CAT.lift_morphism(src, dst, a, identity_morphism(gen("1")))
    full = [a] + lift + [identity_morphism(gen("1"))]
    with pytest.raises(ValueError, match="identity in degree 0"):
        CAT.mapping_cone(src, dst, full, delta)


def test_mapping_cone_of_pullback_lift():
    delta = nonzero_class("1", "4")
    dst = CAT.realize(delta)
    c = the_map("1/2", "1")
    moved = pull_back(delta, c)
    src = CAT.realize(moved)
    lift = CAT.lift_morphism(src, dst, identity_morphism(gen("4")), c)
    full = [identity_morphism(gen("4"))] + lift + [c]
    eps = push_forward(delta, src.diffs[0])
    cone = CAT.mapping_cone(src, dst, full, eps)
    assert cone.terms[0] == src.terms[1]
    assert cone.terms[-1] == gen("1")
    assert CAT.is_distinguished(cone)


def block_cone(src, dst, f, shift):
    """Differentials of the cone (shift 1) or cocone (shift 0) as block
    morphisms, one grid per degree: the reference for `cone`."""
    n, s = len(src.terms) - 2, shift
    minus = src.terms[0].alg.p - 1
    S, D = src.terms, dst.terms
    mids = [[S[i + s], D[i - 1 + s]] for i in range(1, n + 1)]
    diffs = [block_morphism([S[s]], mids[0],
                            [[src.diffs[s].scale(minus)], [f[s]]])]
    for i in range(1, n):
        diffs.append(block_morphism(mids[i - 1], mids[i],
                                    [[src.diffs[i + s].scale(minus), None],
                                     [f[i + s], dst.diffs[i - 1 + s]]]))
    diffs.append(block_morphism(mids[-1], [D[n + s]],
                                [[f[n + s], dst.diffs[n - 1 + s]]]))
    return tuple(diffs)


def test_cone_matches_block_matrices_at_p3():
    # p = 3 so that the sign of -d is visible
    quiver = Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3)))
    alg = AlgebraPresentation(quiver, (Relation((1,), (("a", "b"),)),), p=3)
    gens = [interval_module(alg, t, b) for t, b in [(3, 3), (2, 3), (1, 2), (1, 1)]]
    cat = ExCategory(alg, 2, gens)
    compared = 0
    for C in gens:
        for A in gens:
            for delta in cat.ext_elements(C, A):
                X = cat.realize(delta)
                for B in gens:
                    for arrow in enumerate_hom(A, B):
                        Y = cat.realize(push_forward(delta, arrow))
                        for lift in all_lifts(cat, X, Y, arrow, identity_morphism(C)):
                            f = [arrow] + lift + [identity_morphism(C)]
                            terms, diffs = cone(X, Y, f, 0)
                            assert diffs == block_cone(X, Y, f, 0)
                            assert terms == tuple([d.source for d in diffs]
                                                  + [diffs[-1].target])
                            compared += 1
                    for arrow in enumerate_hom(B, C):
                        Y = cat.realize(pull_back(delta, arrow))
                        for lift in all_lifts(cat, Y, X, identity_morphism(A), arrow):
                            f = [identity_morphism(A)] + lift + [arrow]
                            assert cone(Y, X, f, 1)[1] == block_cone(Y, X, f, 1)
                            compared += 1
    assert compared > 100


def test_inflations_and_deflations():
    assert CAT.is_inflation(the_map("4", "3/4"))
    assert CAT.is_inflation(the_map("4", "2/3/4"))
    assert CAT.is_deflation(the_map("1/2/3", "1/2"))
    assert CAT.is_deflation(the_map("1/2", "1"))
    # an epimorphism is never an inflation, a monomorphism never a deflation
    assert not CAT.is_inflation(the_map("1/2/3", "1/2"))
    assert not CAT.is_deflation(the_map("4", "3/4"))
    assert not CAT.is_inflation(zero_morphism(gen("4"), gen("3/4")))


def test_every_mono_in_universe_is_an_inflation():
    """At multiplicity bound two the subcategory is closed enough that every
    injective map is an inflation and every surjective map a deflation."""
    mids = CAT.universe
    rng = random.Random(91)
    picks = [(rng.randrange(len(mids)), rng.randrange(len(mids)))
             for _ in range(40)]
    for i, j in picks:
        for f in enumerate_hom(mids[i], mids[j]):
            if f.is_mono:
                assert CAT.is_inflation(f)
            if f.is_epi:
                assert CAT.is_deflation(f)


def test_axiom_suite_passes():
    results = check_core_axioms(CAT)
    assert list(results) == ["C1", "C2", "C2'", "C3", "C3'", "C4", "WIC"]
    for name, res in results.items():
        assert res.passed is True, (name, res.witness)
        assert res.witness is None
    assert results["C1"].checked == 39
    assert results["C2"].checked == 6
    assert results["C2'"].checked == 6
    assert results["C3"].checked == 333
    assert results["C3'"].checked == 333
    assert results["C4"].checked == 1486
    assert results["WIC"].checked == 400


@pytest.mark.parametrize("contractible", [True, False])
def test_declared_backend_decides_up_to_homotopy(contractible):
    """The realization 4 -> 2/3/4 -> 1/2/3 -> 1 of E(1, 4) with 3/4 -id->
    3/4 added in degrees 1-2 is homotopy equivalent to it, though not
    degreewise isomorphic, so `homotopy_equivalent` and `is_distinguished`
    accept it.  With 3/4 added in degree 1 alone it still maps to the
    realization, but it is not exact, so neither does."""
    nex = CAT.realize(CAT.ext(gen("1"), gen("4")).element([1]))
    x0, x1, x2, x3 = nex.terms
    d0, d1, d2 = nex.diffs
    p = gen("3/4")
    if contractible:
        x2p = direct_sum([x2, p])[0]
        d1p = block_morphism([x1, p], [x2, p], [[d1, None],
                                                [None, identity_morphism(p)]])
        d2p = block_morphism([x2, p], [x3], [[d2, None]])
    else:
        x2p, d1p, d2p = x2, block_morphism([x1, p], [x2], [[d1, None]]), d2
    padded = NExangle(
        (x0, direct_sum([x1, p])[0], x2p, x3),
        (block_morphism([x0], [x1, p], [[d0], [None]]), d1p, d2p), nex.delta)
    assert not is_isomorphic(padded.terms[1], x1)
    assert CAT.lift_space(padded, nex, identity_morphism(x0),
                          identity_morphism(x3)) is not None
    assert homotopy_equivalent(
        CAT, padded, nex,
        realization_is_exangle(CAT, nex.delta)) is contractible
    assert CAT.is_distinguished(padded) is contractible


def test_one_lift_rule_compares_hom_homology_with_an_inexact_reference():
    """The printed sequence with 3/4 added in degree 1 by zero maps lifts to
    it with identity ends, and neither is exact, but the padding adds Hom
    homology, so the two are not homotopy equivalent."""
    seq = printed_sequence()
    x0, x1, x2, x3 = seq.terms
    d0, d1, d2 = seq.diffs
    p = gen("3/4")
    padded = NExangle(
        (x0, direct_sum([x1, p])[0], x2, x3),
        (block_morphism([x0], [x1, p], [[d0], [None]]),
         block_morphism([x1, p], [x2], [[d1, None]]), d2), seq.delta)
    assert CAT.lift_space(padded, seq, identity_morphism(x0),
                          identity_morphism(x3)) is not None
    assert len(CAT.is_n_exangle(seq).failures) == 3
    assert len(CAT.is_n_exangle(padded).failures) == 6
    assert homotopy_equivalent(CAT, padded, printed_sequence(), False) is False
    assert homotopy_equivalent(CAT, seq, printed_sequence(), False) is True


def test_declared_backend_corrupted_table_fails_c1():
    """The C1 witness names the class, the side, the position and the test
    object of the first Hom sequence that fails."""
    bad = printed_sequence()
    assert exangulated._exangle_witness(CAT, bad, bad.delta) == (
        "realization of E(1, 4) coords [1]: contravariant sequence fails at "
        "position 1 with test object 3/4 (homology)")


def test_realize_random_pushes_stay_distinguished():
    rng = random.Random(20260815)
    pairs = list(REALIZATION_TERMS)
    for _ in range(20):
        c_lab, a_lab = pairs[rng.randrange(len(pairs))]
        delta = nonzero_class(c_lab, a_lab)
        target = GENS[rng.randrange(len(GENS))]
        homs = enumerate_hom(gen(a_lab), target)
        a = homs[rng.randrange(len(homs))]
        moved = push_forward(delta, a)
        nex = CAT.realize(moved)
        assert CAT.is_distinguished(nex)
        assert nex.delta == moved


def test_module_level_wrappers():
    delta = nonzero_class("1", "4")
    assert realize(CAT, delta) is CAT.realize(delta)
    assert is_n_exangle(CAT, CAT.realize(delta)).ok
    results = {"CheckResult": CheckResult}  # exercise the import surface
    assert callable(mapping_cone) and callable(mapping_cocone)
    assert callable(lift_morphism) and callable(check_core_axioms)
    assert results


def test_resolvable_searches_once_per_isomorphism_class():
    """An isomorphic but unequal copy of a module gets the same answer as
    the first.  Each is decided under its own value."""
    cat = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)
    w = cat.materialize([LABELS.index("2/3/4"), LABELS.index("1/2/3")])
    assert w.dims[1] == 2
    # a change of basis at vertex 2 that is not an automorphism of w;
    # over F_2 it is its own inverse
    q = Matrix.from_rows(2, [[1, 1], [0, 1]])
    moved = Module(ALG, w.dims, (q @ w.arrow_map("a"), w.arrow_map("b") @ q,
                                 w.arrow_map("c")))
    ModMorphism(w, moved, (Matrix.identity(2, 1), q, Matrix.identity(2, 2),
                           Matrix.identity(2, 1)))  # validates the squares
    assert moved != w and is_isomorphic(w, moved)
    for dual in (False, True):
        assert cat._resolvable(moved, 2, dual) == cat._resolvable(w, 2, dual)


@pytest.mark.parametrize("n, spans", [
    (1, [(2, 2), (1, 2), (1, 1)]),                 # A2
    (2, [(3, 3), (2, 3), (1, 2), (1, 1)]),         # A3 mod radical square
])
def test_cocone_realizes_the_signed_pull_back(n, spans):
    """At p = 3, where the sign shows, cone(X, Y, f, 0) for a lift f of
    (0, id_C) realizes cocone_sign(n) times the pull-back of X's class along
    Y's last differential, which is nonzero there."""
    quiver = Quiver(n + 1, tuple(Arrow(name, i, i + 1)
                                 for i, name in enumerate("ab"[:n], start=1)))
    rels = (Relation((1,), (("a", "b"),)),) if n == 2 else ()
    alg = AlgebraPresentation(quiver, rels, p=3, path_length_bound=8)
    cat = ExCategory(alg, n, [interval_module(alg, *s) for s in spans])
    A, C = cat.generators[0], cat.generators[-1]
    delta = cat.ext(C, A).basis()[0]
    a, c = zero_morphism(A, A), identity_morphism(C)
    X, Y = cat.realize(delta), cat.realize(push_forward(delta, a))
    lift = next(all_lifts(cat, X, Y, a, c))
    terms, diffs = cone(X, Y, [a] + lift + [c], 0)
    pulled = pull_back(delta, Y.diffs[n])
    assert pulled != -pulled
    want = pulled if cocone_sign(n) > 0 else -pulled
    assert yoneda_class(list(terms), list(diffs)) == want


# -- exactness by rank count ------------------------------------------------------


def fresh_category(path, prime):
    """A new category from an input file, so no engine cache is warm."""
    cfg = parse_input((ROOT / path).read_text(encoding="utf-8"))
    return build_category(cfg.replace(prime=prime))


def perturbations(mods, maps):
    """Copies of an exact sequence that break it in one way each, plus every
    other complex through the same terms that changes one middle map."""
    last = len(maps) - 1
    if not mods[0].is_zero:
        yield "first not mono", [zero_morphism(mods[0], mods[1])] + maps[1:]
    if not mods[-1].is_zero:
        yield "last not epi", maps[:-1] + [zero_morphism(mods[-2], mods[-1])]
    for k in range(last):
        for h in hom_basis(mods[k + 1], mods[k + 2]):
            if not h.compose(maps[k]).is_zero:
                yield "not a complex", maps[:k + 1] + [maps[k + 1] + h] + maps[k + 2:]
                break
    for k in range(1, last):
        for g in enumerate_hom(mods[k], mods[k + 1])[:16]:
            if (g.compose(maps[k - 1]).is_zero
                    and maps[k + 1].compose(g).is_zero):
                yield "middle map", maps[:k] + [g] + maps[k + 1:]


@pytest.mark.parametrize("prime", [2, 3])
@pytest.mark.parametrize("path", ["bench/inputs/a3-rad2.exg",
                                  "fixtures/a4-cluster.exg"])
def test_rank_count_exactness_agrees_with_the_kernel_reference(
        monkeypatch, path, prime):
    """Every sequence that the realization search and the C3/C3' cone and
    cocone tests ask about, and broken copies of the realizations, are exact
    by rank count exactly when the image of each map is the kernel of the
    next."""
    seen = {}
    exact = _is_exact_sequence

    def recorded(mods, maps):
        got = exact(mods, maps)
        seen.setdefault((tuple(mods), tuple(maps)), got)
        return got

    monkeypatch.setattr("exangulate.quiver._is_exact_sequence", recorded)
    cat = fresh_category(path, prime)
    assert check_c1(cat).passed
    assert check_c3(cat, False).passed and check_c3(cat, True).passed
    assert len(seen) > 100
    for (mods, maps), got in seen.items():
        assert exact_reference.is_exact_sequence(mods, maps) == got
    broken = {}
    for (mods, maps), got in list(seen.items()):
        if not got:
            continue
        for kind, changed in perturbations(list(mods), list(maps)):
            got = exact(list(mods), changed)
            assert exact_reference.is_exact_sequence(list(mods), changed) == got
            broken.setdefault(kind, set()).add(got)
    assert broken == {"first not mono": {False}, "last not epi": {False},
                      "not a complex": {False}, "middle map": {True, False}}


# -- the edge table --------------------------------------------------------------


def test_edge_table_is_the_filtered_hom_enumeration():
    # at p = 2 the C4 count is the bench input's golden output's
    for prime, c4_checked in ((2, 458), (3, 7632)):
        cat = fresh_category("bench/inputs/a3-rad2.exg", prime)
        for X in cat.universe:
            for Y in cat.universe:
                homs = enumerate_hom(X, Y)
                assert list(cat.edges(X, Y, False)) == [f for f in homs
                                                        if cat.is_inflation(f)]
                assert list(cat.edges(X, Y, True)) == [f for f in homs
                                                       if cat.is_deflation(f)]
        assert check_c4(cat) == CheckResult("C4", True, None, c4_checked)


@pytest.mark.parametrize("prime", [2, 3])
def test_edge_table_skips_pairs_the_dimensions_rule_out(monkeypatch, prime):
    """A pair with a larger source dimension at some vertex has no inflation
    (a smaller one, no deflation), and its hom space is never walked."""
    cat = fresh_category("bench/inputs/a3-rad2.exg", prime)

    def walked(*args):
        raise AssertionError("hom space walked")

    monkeypatch.setattr(exangulated, "enumerate_hom", walked)
    monkeypatch.setattr(exangulated, "hom_basis", walked)
    pruned = 0
    for X in cat.universe:
        for Y in cat.universe:
            for dual in (False, True):
                small, big = (Y, X) if dual else (X, Y)
                if any(a > b for a, b in zip(small.dims, big.dims)):
                    assert cat.edges(X, Y, dual) == ()
                    pruned += 1
    assert pruned == 314


def test_wic_walks_each_hom_space_once_per_role(monkeypatch):
    """Within one WIC call (edge table already built by C4) each hom space
    is enumerated at most once as a first factor's Hom(g, mid) and once as
    a second factor's Hom(mid, h): only a pair of generators, which plays
    both roles, is walked twice. The count is the golden one."""
    cat = fresh_category("bench/inputs/a3-rad2.exg", 2)
    assert check_c4(cat).passed
    walked = Counter()
    monkeypatch.setattr(exangulated, "enumerate_hom",
                        lambda X, Y: walked.update([(X, Y)]) or enumerate_hom(X, Y))
    assert cat._check_wic() == CheckResult("WIC", True, None, 140)
    gens = cat.generators
    assert walked and all(k <= 1 + (X in gens and Y in gens)
                          for (X, Y), k in walked.items())


def test_c4_deflation_witness_at_multiplicity_one():
    """With no inflations at all, C4 reaches its deflation half, which fails
    at multiplicity bound one on the bench input."""
    cfg = parse_input((ROOT / "bench/inputs/a3-rad2.exg").read_text())
    cat = build_category(cfg.replace(multiplicity=1))
    edges = cat.edges
    cat.edges = lambda X, Y, dual: edges(X, Y, dual) if dual else ()
    assert check_core_axioms(cat)["C4"] == CheckResult(
        "C4", False,
        "deflations 2/3 + 1/2 -> 1/2 -> 1 compose to a non-deflation", 106)
