"""Randomized property suites for the localization calculus and the lift/cone
machinery.  Every suite runs at least 200 seeded cases and finishes well under
the five-minute line on the A4 fixture data.
"""

import random
from functools import lru_cache

from exangulate.exangulated import ExCategory
from exangulate.localization import (
    IdealQuotient,
    MorphismClassSpec,
    Roof,
    check_mr,
    ebar_group,
    ebar_push,
    etilde_group,
    identity_roof,
    k_subgroup,
    member_classes,
    roof_add,
    roof_equal,
    roof_pull,
    roof_push,
    s_tilde,
)
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    hom_basis,
    identity_morphism,
    interval_module,
    pull_back,
    push_forward,
    zero_morphism,
)

from homotopy_reference import two_way_equivalent
from k_reference import killed_sets, span

A4 = Quiver(4, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4)))
ALG = AlgebraPresentation(A4, (Relation((1,), (("a", "b", "c"),)),), p=2,
                          path_length_bound=8)
LABELS = ["4", "3/4", "2/3/4", "1/2/3", "1/2", "1"]
SPANS = {"4": (4, 4), "3/4": (3, 4), "2/3/4": (2, 4), "1/2/3": (1, 3),
         "1/2": (1, 2), "1": (1, 1)}
GENS = [interval_module(ALG, *SPANS[lab]) for lab in LABELS]
CAT = ExCategory(ALG, 2, GENS, labels=LABELS, multiplicity_bound=2)
ISO = MorphismClassSpec("iso")

# generator index pairs with a nonvanishing extension group
HOT_PAIRS = [(5, 0), (5, 1), (4, 0)]
# null systems satisfying the multiplicative-system preconditions
MR_NF = [(), (2,), (3,), (2, 3)]


@lru_cache(maxsize=None)
def quotient(nf):
    return IdealQuotient(CAT, list(nf))


@lru_cache(maxsize=None)
def legs(nf, ci, ai):
    """Member representatives usable as roof denominators for the given ends."""
    q = quotient(nf)
    ts = [q.rep(Z, GENS[ci], tc) for Z in q.universe
          for tc in sorted(member_classes(ISO, q, Z, GENS[ci]))]
    ss = [q.rep(GENS[ai], X, sc) for X in q.universe
          for sc in sorted(member_classes(ISO, q, GENS[ai], X))]
    return ts, ss


def random_roof(rng, nf, ci, ai):
    q = quotient(nf)
    ts, ss = legs(nf, ci, ai)
    t, s = rng.choice(ts), rng.choice(ss)
    eb = ebar_group(ISO, q, t.source, s.target)
    return Roof(t, tuple(rng.randrange(2) for _ in range(eb.dim)), s)


def padded(rng, nf, r, ci, ai):
    """An equivalent roof over a different denominator: compose with the
    identity fraction m/m on a random member leg."""
    q = quotient(nf)
    ts, ss = legs(nf, ci, ai)
    if rng.random() < 0.5:
        m = rng.choice([s for s in ss if s.source == r.end_A])
        return roof_push(ISO, q, r, m, m)
    m = rng.choice([t for t in ts if t.target == r.end_C])
    return roof_pull(ISO, q, r, m, m)


def random_hom(rng, src, tgt):
    f = zero_morphism(src, tgt)
    for b in hom_basis(src, tgt):
        if rng.randrange(2):
            f = f + b
    return f


def test_roof_equality_is_an_equivalence_relation():
    rng = random.Random(31041)
    cases = 0
    for i in range(200):
        nf = ((2,), (2, 3))[i % 2]
        ci, ai = HOT_PAIRS[i % 3] if i % 5 else (0, 5)
        q = quotient(nf)
        r1 = random_roof(rng, nf, ci, ai)
        r2 = random_roof(rng, nf, ci, ai)
        r1p = padded(rng, nf, r1, ci, ai)
        assert roof_equal(ISO, q, r1, r1)
        assert roof_equal(ISO, q, r1, r2) == roof_equal(ISO, q, r2, r1)
        assert roof_equal(ISO, q, r1, r1p)
        if roof_equal(ISO, q, r1, r2):
            assert roof_equal(ISO, q, r1p, r2)
        cases += 1
    assert cases >= 200


def test_roof_addition_is_denominator_independent():
    rng = random.Random(31042)
    cases = 0
    for i in range(200):
        nf = ((2,), (2, 3))[i % 2]
        ci, ai = HOT_PAIRS[i % 3]
        q = quotient(nf)
        r1 = random_roof(rng, nf, ci, ai)
        r2 = random_roof(rng, nf, ci, ai)
        total = roof_add(ISO, q, r1, r2)
        retotal = roof_add(ISO, q, padded(rng, nf, r1, ci, ai),
                           padded(rng, nf, r2, ci, ai))
        assert roof_equal(ISO, q, total, retotal)
        assert roof_equal(ISO, q, total, roof_add(ISO, q, r2, r1))
        zero = identity_roof(ISO, q, r1.end_C, r1.end_A,
                             ebar_group(ISO, q, r1.end_C, r1.end_A).zero_class())
        assert roof_equal(ISO, q, roof_add(ISO, q, r1, zero), r1)
        cases += 1
    assert cases >= 200


def test_k_push_and_pull_characterizations_agree():
    sums = [(5, 4), (0, 1), (5, 5), (0, 0), (4, 4), (1, 5)]
    cases = 0
    for nf in MR_NF:
        q = quotient(nf)
        mr = check_mr(ISO, q)
        assert all(res.passed for res in mr.values())
        ends = [(GENS[c], GENS[a]) for c in range(6) for a in range(6)]
        ends += [(CAT.materialize(sorted(s)), GENS[a])
                 for s, a in zip(sums, (0, 0, 1, 5, 5, 0))]
        ends += [(GENS[c], CAT.materialize(sorted(s)))
                 for s, c in zip(sums, (5, 5, 4, 0, 1, 4))]
        ends += [(CAT.materialize([4, 5]), CAT.materialize([0, 1])),
                 (CAT.materialize([5, 5]), CAT.materialize([0, 0])),
                 (CAT.materialize([2, 5]), CAT.materialize([0, 2]))]
        for end_C, end_A in ends:
            by_push, by_pull = killed_sets(ISO, q, end_C, end_A)
            assert by_push == by_pull
            width = CAT.ext(end_C, end_A).dim
            assert by_push == span(2, k_subgroup(ISO, q, end_C, end_A), width)
            cases += 1
    assert cases >= 200


def test_mu_comparison_map_is_injective_and_additive():
    rng = random.Random(31044)
    cases = 0
    for _ in range(200):
        nf = rng.choice(MR_NF)
        q = quotient(nf)
        ci, ai = (rng.choice(HOT_PAIRS) if rng.random() < 0.7
                  else (rng.randrange(6), rng.randrange(6)))
        et = etilde_group(ISO, q, GENS[ci], GENS[ai])
        classes = et.ebar.classes()
        i1, i2 = rng.randrange(len(classes)), rng.randrange(len(classes))
        if i1 != i2:
            assert et.mu_map[i1] != et.mu_map[i2]
        summed = tuple((x + y) % 2 for x, y in zip(classes[i1], classes[i2]))
        lhs = et.mu_map[classes.index(summed)]
        assert lhs == et.add_table[et.mu_map[i1]][et.mu_map[i2]]
        assert et.mu_map[classes.index(et.ebar.zero_class())] == et.zero_index
        cases += 1
    assert cases >= 200


def test_ebar_vanishes_on_the_null_system():
    rng = random.Random(31045)
    cases = 0
    for _ in range(200):
        nf = rng.choice([(2,), (3,), (2, 3)])
        q = quotient(nf)
        if rng.random() < 0.5:
            # an end inside add(N_F) forces a trivial localized group
            picks = [rng.choice(nf) for _ in range(rng.randrange(1, 3))]
            N = CAT.materialize(sorted(picks))
            other = GENS[rng.randrange(6)]
            assert ebar_group(ISO, q, N, other).dim == 0
            assert ebar_group(ISO, q, other, N).dim == 0
        else:
            # pushing along anything that factors through N_F kills the class
            ci, ai = rng.choice(HOT_PAIRS)
            eb = ebar_group(ISO, q, GENS[ci], GENS[ai])
            coords = tuple(rng.randrange(2) for _ in range(eb.dim))
            mid = GENS[rng.choice(nf)]
            tgt = GENS[rng.randrange(6)]
            f = random_hom(rng, mid, tgt).compose(
                random_hom(rng, GENS[ai], mid))
            assert not any(ebar_push(ISO, q, eb, coords, f))
        cases += 1
    assert cases >= 200


def _full_lift(src, dst, a, c):
    return [a] + CAT.lift_morphism(src, dst, a, c) + [c]


def test_mapping_cone_differentials_square_to_zero():
    rng = random.Random(31046)
    cases = 0
    while cases < 200:
        ci, ai = rng.choice(HOT_PAIRS + [(0, 0), (3, 4)])
        space = CAT.ext(GENS[ci], GENS[ai])
        eps = rng.choice(space.all_elements())
        if rng.random() < 0.5:
            dst = CAT.realize(eps)
            c = random_hom(rng, GENS[rng.randrange(6)], GENS[ci])
            src = CAT.realize(pull_back(eps, c))
            f = _full_lift(src, dst, identity_morphism(GENS[ai]), c)
            cone = CAT.mapping_cone(
                src, dst, f,
                CAT.ext(dst.terms[-1], src.terms[1]).zero())
            diffs = cone.diffs
        else:
            src = CAT.realize(eps)
            a = random_hom(rng, GENS[ai], GENS[rng.randrange(6)])
            dst = CAT.realize(push_forward(eps, a))
            f = _full_lift(src, dst, a, identity_morphism(GENS[ci]))
            cocone = CAT.mapping_cocone(
                src, dst, f,
                CAT.ext(dst.terms[-2], src.terms[0]).zero())
            diffs = cocone.diffs
        for d_in, d_out in zip(diffs, diffs[1:]):
            assert d_out.compose(d_in).is_zero
        cases += 1
    assert cases >= 200


def test_lifted_morphisms_make_every_square_commute():
    rng = random.Random(31047)
    cases = 0
    while cases < 200:
        ci, ai = rng.choice(HOT_PAIRS + [(2, 2)])
        space = CAT.ext(GENS[ci], GENS[ai])
        delta = rng.choice(space.all_elements())
        if rng.random() < 0.5:
            a = random_hom(rng, GENS[ai], GENS[rng.randrange(6)])
            src = CAT.realize(delta)
            dst = CAT.realize(push_forward(delta, a))
            f = _full_lift(src, dst, a, identity_morphism(GENS[ci]))
        else:
            c = random_hom(rng, GENS[rng.randrange(6)], GENS[ci])
            src = CAT.realize(pull_back(delta, c))
            dst = CAT.realize(delta)
            f = _full_lift(src, dst, identity_morphism(src.terms[0]), c)
        for i in range(CAT.n + 1):
            lhs = f[i + 1].compose(src.diffs[i])
            assert lhs == dst.diffs[i].compose(f[i])
        cases += 1
    assert cases >= 200


def test_s_tilde_is_constant_on_roof_classes():
    rng = random.Random(31048)
    cases = 0
    for i in range(200):
        nf = ((2,), (2, 3))[i % 2]
        ci, ai = HOT_PAIRS[i % 3]
        q = quotient(nf)
        r = random_roof(rng, nf, ci, ai)
        rp = padded(rng, nf, r, ci, ai)
        if rng.random() < 0.3:
            rp = padded(rng, nf, rp, ci, ai)
        cx = s_tilde(CAT, ISO, q, r)
        cxp = s_tilde(CAT, ISO, q, rp)
        assert two_way_equivalent(q, cx, cxp)
        cases += 1
    assert cases >= 200
