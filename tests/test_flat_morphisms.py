"""`ModMorphism` stores one flat entry vector; its operations are tested
against the per-vertex reference in `morphism_reference.py` at p = 2 and
p = 3, including zero-dimensional vertices and empty hom spaces."""

import itertools
import pickle
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import exangulate.quiver as quiver
import morphism_reference as ref
from exangulate.cli import build_category, parse_input
from exangulate.linalg import Matrix
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    ModMorphism,
    Module,
    Quiver,
    Relation,
    combine,
    direct_sum,
    enumerate_hom,
    ext_group,
    hom_basis,
    hom_coords,
    identity_morphism,
    interval_module,
    morphism_in_coords,
    pull_back,
    zero_module,
    zero_morphism,
)

ROOT = Path(__file__).resolve().parent.parent
A3_GENS = build_category(parse_input(
    (ROOT / "bench" / "inputs" / "a3-rad2.exg").read_text())).generators

# two parallel arrows 1 -> 2 and one arrow 2 -> 3, no relations: every choice
# of arrow matrices is a module
QUIVER = Quiver(3, (Arrow("a", 1, 2), Arrow("c", 1, 2), Arrow("b", 2, 3)))
ALGS = {p: AlgebraPresentation(QUIVER, (), p=p) for p in (2, 3)}


@st.composite
def modules(draw, alg):
    dims = tuple(draw(st.integers(0, 2)) for _ in QUIVER.arrows)
    maps = []
    for a in QUIVER.arrows:
        size = dims[a.target - 1] * dims[a.source - 1]
        entries = draw(st.lists(st.integers(0, alg.p - 1), min_size=size, max_size=size))
        maps.append(Matrix(alg.p, dims[a.target - 1], dims[a.source - 1], tuple(entries)))
    return Module(alg, dims, tuple(maps))


@st.composite
def scenes(draw):
    """Modules X, Y, Z over one algebra, each one of two random modules,
    their sum or zero, and morphisms f, f2: X -> Y and g: Y -> Z given by
    random coefficients in the hom bases."""
    p = draw(st.sampled_from(sorted(ALGS)))
    alg = ALGS[p]
    m, n = draw(modules(alg)), draw(modules(alg))
    pool = [m, n, direct_sum([m, n])[0], zero_module(alg)]
    X, Y, Z = (draw(st.sampled_from(pool)) for _ in range(3))

    def morphism(src, tgt):
        basis = hom_basis(src, tgt)
        coeffs = draw(st.lists(st.integers(-p, 2 * p), min_size=len(basis),
                               max_size=len(basis)))
        return combine(src, tgt, basis, coeffs), coeffs

    (f, cf), (f2, _), (g, _) = morphism(X, Y), morphism(X, Y), morphism(Y, Z)
    return p, (X, Y, Z), f, cf, f2, g


def assert_same(got, src, tgt, maps):
    """got is the morphism that the public constructor makes of maps."""
    want = ModMorphism(src, tgt, maps)
    assert got == want and hash(got) == hash(want)
    assert got.flat == want.flat and got.maps == want.maps
    assert got.is_zero == all(m.is_zero for m in maps)


@settings(max_examples=200, deadline=None)
@given(scenes(), st.integers(-4, 4))
def test_operations_agree_with_the_per_vertex_reference(scene, c):
    p, (X, Y, Z), f, cf, f2, g = scene
    assert_same(f, X, Y, ref.combine(X, Y, hom_basis(X, Y), cf))
    assert_same(g.compose(f), X, Z, ref.compose(g, f))
    assert_same(f + f2, X, Y, ref.add(f, f2))
    assert_same(-f, X, Y, ref.neg(f))
    assert_same(f.scale(c), X, Y, ref.scale(f, c))
    assert_same(identity_morphism(X), X, X, ref.identity(X))
    assert_same(zero_morphism(X, Z), X, Z, ref.zero(X, Z))
    assert identity_morphism(Y).compose(f) == f == f.compose(identity_morphism(X))


@settings(max_examples=100, deadline=None)
@given(scenes())
def test_morphisms_from_maps_and_from_flat_are_equal(scene):
    p, (X, Y, _), f, cf, _, _ = scene
    basis = hom_basis(X, Y)
    from_maps = ModMorphism(X, Y, ref.combine(X, Y, basis, cf))
    from_flat = ModMorphism._of(X, Y, f.flat)
    trusted = ModMorphism._trusted(X, Y, from_maps.maps)
    assert from_maps == from_flat == trusted
    assert hash(from_maps) == hash(from_flat) == hash(trusted)
    assert from_flat.maps == from_maps.maps
    from_flat.validate()
    # the flat vector is the hom coordinate layout of the basis vectors
    assert hom_coords(from_maps).entries == from_flat.flat
    assert morphism_in_coords(from_maps, basis).entries == tuple(x % p for x in cf)


@settings(max_examples=100, deadline=None)
@given(scenes())
def test_pickle_round_trip_keeps_equality(scene):
    _, (X, Y, Z), f, _, f2, g = scene
    F, F2, G, GF = pickle.loads(pickle.dumps((f, f2, g, g.compose(f))))
    assert (F.flat, F2.flat, G.flat) == (f.flat, f2.flat, g.flat)
    assert (F == F2) == (f == f2)
    assert G.compose(F) == GF and hash(G.compose(F)) == hash(GF)
    assert F == ModMorphism(F.source, F.target, F.maps)
    # the copies live over the unpickled algebra, so they equal no original
    assert F.source.alg is G.target.alg is not X.alg
    assert F != f


def test_flat_operations_multiply_no_vertex_matrices(monkeypatch):
    """compose, combine, hom_coords and morphism_in_coords never go through
    per-vertex matrices, so they run with `Matrix.__matmul__` broken."""
    bases = {(X, Y): hom_basis(X, Y) for X, Y in itertools.product(A3_GENS, repeat=2)}

    def no_product(self, other):
        raise AssertionError("vertex matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", no_product)
    nonzero = 0
    for X, Y, Z in itertools.product(A3_GENS, repeat=3):
        for f, g in itertools.product(bases[X, Y], bases[Y, Z]):
            gf = g.compose(f)
            coords = morphism_in_coords(gf, bases[X, Z])
            assert combine(X, Z, bases[X, Z], coords.entries) == gf
            assert hom_coords(gf).entries == gf.flat
            nonzero += not gf.is_zero
    assert nonzero
    monkeypatch.undo()
    for X, Y, Z in itertools.product(A3_GENS, repeat=3):
        for f, g in itertools.product(bases[X, Y], bases[Y, Z]):
            assert_same(g.compose(f), X, Z, ref.compose(g, f))


# -- pull_back sums coordinates ------------------------------------------------

A3 = Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3)))
ALG3 = AlgebraPresentation(A3, (Relation((1,), (("a", "b"),)),), p=3)
GENS3 = [interval_module(ALG3, t, s) for t, s in [(3, 3), (2, 3), (2, 2), (1, 2), (1, 1)]]


def pull_back_by_elements(delta, c):
    """`pull_back` as it was: one extension class built per nonzero
    coefficient, added up class by class."""
    basis = hom_basis(c.source, delta.end_C)
    space = ext_group(delta.end_C.alg, delta.n, c.source, delta.end_A)
    total = space.zero()
    for idx, coeff in enumerate(morphism_in_coords(c, basis).entries):
        if coeff:
            lift_n = quiver._chain_lift(c.source, delta.end_C, idx, delta.n)[delta.n]
            part = space.class_of_cocycle(delta.cocycle.compose(lift_n))
            total = space.element(total.coords + part.coords.scale(coeff))
    return total


def test_pull_back_equals_the_class_by_class_sum():
    seen = 0
    for gens, n in ((A3_GENS, 2), (GENS3, 1), (GENS3, 2)):
        for C, A, Cp in itertools.product(gens, repeat=3):
            for delta in ext_group(C.alg, n, C, A).all_elements():
                for c in enumerate_hom(Cp, C):
                    got = pull_back(delta, c)
                    assert got == pull_back_by_elements(delta, c)
                    seen += not got.is_zero
    assert seen
