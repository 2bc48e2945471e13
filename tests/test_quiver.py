import pickle
import random

import pytest

import exangulate
import exangulate.exangulated as exangulated
import exangulate.quiver as quiver
from cone_reference import block_morphism
from decompose_reference import decompose, image_module, is_isomorphic
from exangulate.exangulated import Subcategory
from exangulate.linalg import Matrix
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    BoundExceeded,
    ModMorphism,
    Module,
    Quiver,
    Relation,
    cokernel_module,
    direct_sum,
    enumerate_hom,
    ext_group,
    hom_basis,
    hom_dim,
    identity_morphism,
    interval_module,
    kernel_module,
    path_basis,
    projective_cover,
    pull_back,
    push_forward,
    resolution,
    simple_module,
    standard_module,
    yoneda_class,
    zero_module,
    zero_morphism,
)

A4 = Quiver(4, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4)))
ALG = AlgebraPresentation(A4, (Relation((1,), (("a", "b", "c"),)),), p=2)


def iv(top, socle):
    return interval_module(ALG, top, socle)


GEN_LABELS = ["4", "3/4", "2/3/4", "1/2/3", "1/2", "1"]
GENS = {
    "4": iv(4, 4),
    "3/4": iv(3, 4),
    "2/3/4": iv(2, 4),
    "1/2/3": iv(1, 3),
    "1/2": iv(1, 2),
    "1": iv(1, 1),
}


def the_map(src, tgt):
    basis = hom_basis(src, tgt)
    assert len(basis) == 1
    return basis[0]


# -- algebra and path bases ---------------------------------------------------


def algebra_dimension(alg: AlgebraPresentation) -> int:
    return path_basis(alg).total_dim


def test_algebra_dimension_with_and_without_relation():
    assert algebra_dimension(ALG) == 9
    free = AlgebraPresentation(A4, (), p=2)
    assert algebra_dimension(free) == 10


def test_disconnected_quiver_dimension():
    q = Quiver(3, ())
    assert algebra_dimension(AlgebraPresentation(q, (), p=2)) == 3


def test_path_basis_certification_failure_on_a_loop():
    loop = Quiver(1, (Arrow("x", 1, 1),))
    alg = AlgebraPresentation(loop, (), p=2, path_length_bound=3)
    with pytest.raises(ValueError, match="not certified finite-dimensional"):
        path_basis(alg)


def test_path_basis_loop_with_nilpotency_relation():
    loop = Quiver(1, (Arrow("x", 1, 1),))
    alg = AlgebraPresentation(loop, (Relation((1,), (("x", "x", "x"),)),), p=2,
                              path_length_bound=5)
    assert algebra_dimension(alg) == 3  # e, x, x^2


def test_relation_must_be_parallel_and_long():
    with pytest.raises(ValueError, match="parallel"):
        AlgebraPresentation(A4, (Relation((1, 1), (("a", "b"), ("b", "c"))),))
    with pytest.raises(ValueError, match="length"):
        Relation((1,), (("a",),))


# -- standard and interval modules --------------------------------------------


def test_projective_dimension_vectors():
    want = {1: (1, 1, 1, 0), 2: (0, 1, 1, 1), 3: (0, 0, 1, 1), 4: (0, 0, 0, 1)}
    for v, dims in want.items():
        assert standard_module(ALG, "proj", v).dims == dims


def test_injective_dimension_vectors():
    want = {1: (1, 0, 0, 0), 2: (1, 1, 0, 0), 3: (1, 1, 1, 0), 4: (0, 1, 1, 1)}
    for v, dims in want.items():
        assert standard_module(ALG, "inj", v).dims == dims


def test_interval_module_rejects_relation_violation():
    # the full interval 1..4 would make the killed path act as the identity
    with pytest.raises(ValueError, match="relation"):
        interval_module(ALG, 1, 4)


def test_interval_matches_standard_constructions():
    assert iv(2, 4) == standard_module(ALG, "proj", 2)
    assert iv(1, 3) == standard_module(ALG, "proj", 1)
    assert iv(1, 2) == standard_module(ALG, "inj", 2)
    assert iv(1, 1) == simple_module(ALG, 1)


def test_module_validation_catches_bad_shapes_and_relations():
    with pytest.raises(ValueError, match="expected"):
        Module(ALG, (1, 1, 0, 0), (
            Matrix.zeros(2, 0, 0), Matrix.zeros(2, 0, 0), Matrix.zeros(2, 0, 0)))
    # identity action along the killed path
    with pytest.raises(ValueError, match="relation"):
        Module(ALG, (1, 1, 1, 1), (
            Matrix.identity(2, 1), Matrix.identity(2, 1), Matrix.identity(2, 1)))


def test_trusted_module_keeps_its_relation_check_in_validate():
    bad = (Matrix.identity(2, 1), Matrix.identity(2, 1), Matrix.identity(2, 1))
    unchecked = Module._trusted(ALG, (1, 1, 1, 1), bad)
    with pytest.raises(ValueError,
                       match=r"do not satisfy relation on paths \(\('a', 'b', 'c'\),\)"):
        unchecked.validate()
    GENS["2/3/4"].validate()


def test_mod_morphism_rejects_non_commuting_square():
    m = GENS["3/4"]
    # identity at vertex 3, zero at vertex 4: the square at c breaks
    maps = (Matrix.zeros(2, 0, 0), Matrix.zeros(2, 0, 0),
            Matrix.identity(2, 1), Matrix.zeros(2, 1, 1))
    with pytest.raises(ValueError, match="square at arrow 'c' does not commute"):
        ModMorphism(m, m, maps)
    with pytest.raises(ValueError, match="does not commute"):
        ModMorphism._trusted(m, m, maps).validate()


def test_mod_morphism_rejects_wrong_vertex_shape():
    m = GENS["3/4"]
    maps = (Matrix.zeros(2, 0, 0), Matrix.zeros(2, 0, 0),
            Matrix.zeros(2, 2, 1), Matrix.zeros(2, 1, 1))
    with pytest.raises(ValueError, match=r"vertex 3 matrix is 2x1, expected \(1, 1\)"):
        ModMorphism(m, m, maps)
    with pytest.raises(ValueError, match="one matrix per vertex required"):
        ModMorphism(m, m, maps[:3])


def test_mod_morphism_rejects_modules_over_different_algebras():
    other = AlgebraPresentation(A4, (), p=2)
    src, tgt = GENS["4"], interval_module(other, 4, 4)
    maps = (Matrix.zeros(2, 0, 0),) * 3 + (Matrix.identity(2, 1),)
    with pytest.raises(ValueError, match="different algebras"):
        ModMorphism(src, tgt, maps)
    with pytest.raises(ValueError, match="different algebras"):
        zero_morphism(src, tgt)


def test_mod_morphism_rejects_modules_over_a_pickled_copy_of_the_algebra():
    """Modules over two value-equal algebra objects are different modules,
    so no morphism runs between them."""
    copy = pickle.loads(pickle.dumps(ALG))
    assert copy == ALG and copy is not ALG
    src, tgt = GENS["4"], interval_module(copy, 4, 4)
    maps = (Matrix.zeros(2, 0, 0),) * 3 + (Matrix.identity(2, 1),)
    with pytest.raises(ValueError, match="different algebras"):
        ModMorphism(src, tgt, maps)
    with pytest.raises(ValueError, match="different algebras"):
        zero_morphism(src, tgt)
    with pytest.raises(ValueError, match="different algebras"):
        zero_morphism(tgt, src)


# -- hom spaces ----------------------------------------------------------------


def test_hom_table_between_generators():
    # rows: source, cols: target, generator order 4, 3/4, 2/3/4, 1/2/3, 1/2, 1
    want = [
        [1, 1, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    got = [[hom_dim(GENS[r], GENS[c]) for c in GEN_LABELS] for r in GEN_LABELS]
    assert got == want


def test_hom_of_projective_is_fibre_dimension():
    rng = random.Random(4)
    for v in range(1, 5):
        P = standard_module(ALG, "proj", v)
        for label in GEN_LABELS:
            assert hom_dim(P, GENS[label]) == GENS[label].vertex_dim(v)


def test_hom_examples_from_both_sides():
    assert hom_dim(standard_module(ALG, "proj", 1), standard_module(ALG, "inj", 2)) == 1
    assert hom_dim(standard_module(ALG, "inj", 2), standard_module(ALG, "proj", 2)) == 0


def test_enumerate_hom_counts_field_size():
    homs = enumerate_hom(GENS["3/4"], GENS["2/3/4"])
    assert len(homs) == 2
    assert homs[0].is_zero and homs[1].is_mono


# -- kernels, images, sums ------------------------------------------------------


def test_kernel_image_cokernel_of_generator_map():
    f = the_map(GENS["2/3/4"], GENS["1/2/3"])
    ker, incl = kernel_module(f)
    assert ker.dims == (0, 0, 0, 1)
    im, iincl, core = image_module(f)
    assert im.dims == (0, 1, 1, 0)
    assert iincl.compose(core) == f
    cok, proj = cokernel_module(f)
    assert cok.dims == (1, 0, 0, 0)
    assert proj.compose(f).is_zero


def test_direct_sum_biproduct_identities():
    total, incls, projs = direct_sum([GENS["4"], GENS["1/2"]])
    assert total.dims == (1, 1, 0, 1)
    acc = zero_morphism(total, total)
    for i, (inc, prj) in enumerate(zip(incls, projs)):
        assert prj.compose(inc) == identity_morphism(inc.source)
        for j, other in enumerate(projs):
            if j != i:
                assert other.compose(inc).is_zero
        acc = acc + inc.compose(prj)
    assert acc == identity_morphism(total)


def test_block_morphism_assembly():
    f = the_map(GENS["4"], GENS["3/4"])
    g = the_map(GENS["1/2"], GENS["1"])
    m = block_morphism([GENS["4"], GENS["1/2"]], [GENS["3/4"], GENS["1"]],
                       [[f, None], [None, g]])
    assert m.map_at(4) == f.map_at(4)
    assert m.map_at(1) == g.map_at(1)


# -- decomposition --------------------------------------------------------------


def test_decompose_sum_of_intervals():
    s, _, _ = direct_sum([GENS["2/3/4"], GENS["4"], GENS["2/3/4"]])
    parts = decompose(s)
    assert [pt[0].dims for pt in parts] == [(0, 1, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)]
    for mod, incl, proj in parts:
        assert proj.compose(incl) == identity_morphism(mod)
    assert is_isomorphic(parts[0][0], GENS["2/3/4"])
    assert not is_isomorphic(parts[0][0], GENS["4"])


def test_decompose_indecomposable_is_itself():
    parts = decompose(GENS["1/2/3"])
    assert len(parts) == 1 and parts[0][0] == GENS["1/2/3"]


def test_decompose_zero_module_is_empty():
    assert decompose(zero_module(ALG)) == []


def test_decompose_randomized_multiset_roundtrip():
    rng = random.Random(99)
    pool = list(GEN_LABELS)
    for _ in range(25):
        picks = [GENS[rng.choice(pool)] for _ in range(rng.randrange(1, 4))]
        s, _, _ = direct_sum(picks)
        parts = decompose(s)
        got = sorted(pt[0].dims for pt in parts)
        assert got == sorted(m.dims for m in picks)


def test_search_budgets_raise_bound_exceeded():
    """1/2 + 3/4 and 1/2/3 + 4 share a dimension vector and are not
    isomorphic, though Hom(3/4, 1/2/3) is nonzero, so random tries do not
    tell them apart and the reference's search has a budget to run out of.
    The rank count tells them apart with neither."""
    assert exangulated.BoundExceeded is exangulate.BoundExceeded is BoundExceeded
    objects = Subcategory(tuple(GENS[lab] for lab in GEN_LABELS))
    a = direct_sum([GENS["1/2"], GENS["3/4"]])[0]
    b = direct_sum([GENS["1/2/3"], GENS["4"]])[0]
    assert a.dims == b.dims
    assert [objects.summand_multiset(m) for m in (a, b)] == [(1, 4), (0, 3)]
    # the rank count itself, which a sum without recorded parts gets
    assert [quiver.decompose(m, objects.generators) for m in (a, b)] == [
        (0, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0)]


# -- resolutions and Ext ---------------------------------------------------------


def test_projective_cover_of_simple_is_projective():
    cov = projective_cover(simple_module(ALG, 1))
    assert cov.source == standard_module(ALG, "proj", 1)
    assert cov.is_epi


def test_resolution_of_simple_one():
    res = resolution(simple_module(ALG, 1), 3)
    assert [t.dims for t in res.terms] == [
        (1, 1, 1, 0), (0, 1, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0)]
    for k in (1, 2):
        assert res.diffs[k].compose(res.diffs[k + 1]).is_zero if k + 1 < len(res.diffs) else True
    assert res.augmentation.compose(res.diffs[1]).is_zero


def test_resolution_of_injective_half():
    res = resolution(GENS["1/2"], 2)
    assert [t.dims for t in res.terms] == [(1, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)]


def test_ext_table_degree_two():
    # the only nonzero Ext^2 spaces among the six generators
    nonzero = {("1", "4"), ("1", "3/4"), ("1/2", "4")}
    for cl in GEN_LABELS:
        for al in GEN_LABELS:
            want = 1 if (cl, al) in nonzero else 0
            assert ext_group(ALG, 2, GENS[cl], GENS[al]).dim == want, (cl, al)


def test_ext_degree_one_and_three_between_generators_vanish():
    for cl in GEN_LABELS:
        for al in GEN_LABELS:
            assert ext_group(ALG, 1, GENS[cl], GENS[al]).dim == 0
            assert ext_group(ALG, 3, GENS[cl], GENS[al]).dim == 0


def test_ext_one_of_adjacent_simples():
    assert ext_group(ALG, 1, simple_module(ALG, 1), simple_module(ALG, 2)).dim == 1
    assert ext_group(ALG, 1, simple_module(ALG, 1), simple_module(ALG, 3)).dim == 0


def test_push_forward_iso_example():
    incl = the_map(GENS["4"], GENS["3/4"])
    d = ext_group(ALG, 2, GENS["1"], GENS["4"]).basis()[0]
    assert push_forward(d, incl).coords.col_list(0) == [1]


def test_pull_back_iso_example():
    pr = the_map(GENS["1/2"], GENS["1"])
    d = ext_group(ALG, 2, GENS["1"], GENS["4"]).basis()[0]
    assert pull_back(d, pr).coords.col_list(0) == [1]


def test_push_forward_into_vanishing_group():
    incl = the_map(GENS["4"], GENS["3/4"])
    d = ext_group(ALG, 2, GENS["1/2"], GENS["4"]).basis()[0]
    out = push_forward(d, incl)
    assert out.is_zero and out.coords.rows == 0


def test_push_pull_are_additive_and_functorial():
    d = ext_group(ALG, 2, GENS["1"], GENS["4"]).basis()[0]
    incl = the_map(GENS["4"], GENS["3/4"])
    up = the_map(GENS["3/4"], GENS["2/3/4"])
    once = push_forward(push_forward(d, incl), up)
    direct = push_forward(d, up.compose(incl))
    assert once.coords == direct.coords
    pr = the_map(GENS["1/2"], GENS["1"])
    zero_pull = pull_back(d, zero_morphism(GENS["1/2"], GENS["1"]))
    assert zero_pull.is_zero
    assert pull_back(d, pr).coords == pull_back(d, pr).coords


def test_yoneda_classes_of_known_exact_sequences():
    seqs = [
        (["4", "2/3/4", "1/2/3", "1"], ("1", "4")),
        (["3/4", "2/3/4", "1/2", "1"], ("1", "3/4")),
        (["4", "3/4", "1/2/3", "1/2"], ("1/2", "4")),
    ]
    for labels, (cl, al) in seqs:
        mods = [GENS[x] for x in labels]
        maps = [the_map(s, t) for s, t in zip(mods, mods[1:])]
        y = yoneda_class(mods, maps)
        assert y.end_C == GENS[cl] and y.end_A == GENS[al]
        assert y.coords.col_list(0) == [1]


def test_yoneda_class_rejects_non_exact_sequence():
    mods = [GENS["4"], GENS["2/3/4"], GENS["1/2"], GENS["1"]]
    maps = [the_map(s, t) for s, t in zip(mods, mods[1:])]
    assert maps[1].compose(maps[0]).is_zero  # composites vanish...
    with pytest.raises(ValueError, match="not exact"):
        yoneda_class(mods, maps)              # ...but homology does not


def test_ext_element_addition_and_negation():
    space = ext_group(ALG, 2, GENS["1"], GENS["4"])
    d = space.basis()[0]
    assert (d + d).is_zero  # characteristic two
    assert (-d).coords == d.coords
