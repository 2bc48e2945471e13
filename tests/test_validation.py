"""Internal constructors skip validation; these tests re-run it on their outputs.

`Matrix`, `Module` and `ModMorphism` validate their arguments when built
through the public constructors, but composites, sums, kernels and the like
are built unchecked because they are valid by construction.  Here every such
output over the generators of `fixtures/a4-cluster.exg` is handed back to the
full `validate()`.  The second half pins the hom-coordinate read-off of
`morphism_in_coords`, and its table of coordinates already read, against
the linear solve it replaces, and checks what the caches hold.
"""

import copy
import gc
import itertools
import pickle
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exangulate.quiver as quiver
from cone_reference import block_morphism
from decompose_reference import decompose, image_module
from exangulate.cli import build_category, main, parse_input
from exangulate.exangulated import ExCategory
from exangulate.localization import (IdealQuotient, LocalizedEngine, Roof,
                                     TableComplex)
from exangulate.linalg import (LINALG_CACHE_SIZE, Matrix, hstack, kernel_basis,
                               rref, rref_solve, solve_unique, vstack)
from exangulate.values import Record
from exangulate.quiver import (
    AlgebraPresentation,
    Arrow,
    ModMorphism,
    Module,
    Quiver,
    Relation,
    cokernel_module,
    combine,
    direct_sum,
    enumerate_hom,
    ext_group,
    hom_basis,
    hom_coords,
    identity_morphism,
    interval_module,
    kernel_module,
    morphism_in_coords,
    sum_module,
    zero_module,
    zero_morphism,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "a4-cluster.exg"
GENS = build_category(parse_input(FIXTURE.read_text())).generators

A3 = Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3)))
ALG3 = AlgebraPresentation(A3, (Relation((1,), (("a", "b"),)),), p=3)
GENS3 = [interval_module(ALG3, t, s) for t, s in
         [(3, 3), (2, 3), (2, 2), (1, 2), (1, 1)]]
# modules whose arrow matrices mix basis vectors, so that hom basis vectors
# overlap outside their free columns
GENS3 += [
    Module(ALG3, (2, 1, 0), (Matrix.from_rows(3, [[1, 2]]), Matrix.zeros(3, 0, 1))),
    Module(ALG3, (1, 2, 1), (Matrix.from_rows(3, [[1], [1]]),
                             Matrix.from_rows(3, [[1, 2]]))),
]


def full_check(*values):
    """Run the public constructors' validation on every value, recursively."""
    for x in values:
        if isinstance(x, Matrix):
            x.validate()
        elif isinstance(x, Module):
            x.validate()
            full_check(*x.arrow_maps)
        elif isinstance(x, ModMorphism):
            x.validate()
            full_check(x.source, x.target, *x.maps)
        else:
            full_check(*x)


def pairs(gens):
    return list(itertools.product(gens, repeat=2))


# -- internal constructors against the full validation ---------------------------


def test_hom_basis_elements_validate():
    for X, Y in pairs(GENS):
        full_check(hom_basis(X, Y), identity_morphism(X), zero_morphism(X, Y))


def test_compose_add_scale_negate_validate():
    for X, Y, Z in itertools.product(GENS, repeat=3):
        for f in hom_basis(X, Y):
            full_check(f + f, f.scale(1), -f, f + zero_morphism(X, Y))
            for g in hom_basis(Y, Z):
                full_check(g.compose(f))


@pytest.mark.parametrize("gens", [GENS, GENS3], ids=["a4-p2", "a3-p3"])
def test_combinations_validate_and_equal_the_sum(gens):
    p = gens[0].alg.p
    gens = list(gens) + [direct_sum([X, Y])[0] for X, Y in zip(gens, gens[1:])]
    checked = 0
    for X, Y in pairs(gens):
        basis = hom_basis(X, Y)
        # coefficients -1 .. p (unreduced ones included) on the first three
        # basis elements, 1 on the rest
        for coeffs in itertools.product(range(-1, p + 1), repeat=min(len(basis), 3)):
            coeffs = list(coeffs) + [1] * (len(basis) - len(coeffs))
            phi = combine(X, Y, basis, coeffs)
            full_check(phi)
            ref = zero_morphism(X, Y)
            for c, b in zip(coeffs, basis):
                ref = ref + b.scale(c)
            assert phi == ref
            checked += 1
    assert checked > 100


def test_direct_sums_and_block_morphisms_validate():
    for X, Y in pairs(GENS):
        total, incls, projs = direct_sum([X, Y])
        full_check(total, incls, projs)
        blocks = [[identity_morphism(X), None],
                  [None, identity_morphism(Y)]]
        for f in hom_basis(X, Y):
            blocks[1][0] = f
        full_check(block_morphism([X, Y], [X, Y], blocks))


def block_diag(p: int, blocks) -> Matrix:
    """The block-diagonal matrix of blocks, the reference for the arrow
    maps of a direct sum."""
    if not blocks:
        return Matrix.zeros(p, 0, 0)
    return vstack([hstack([b if i == j else Matrix.zeros(p, b.rows, c.cols)
                           for j, c in enumerate(blocks)])
                   for i, b in enumerate(blocks)])


def test_block_diag():
    i2 = Matrix.identity(2, 2)
    d = block_diag(2, [i2, Matrix.identity(2, 1)])
    assert d == Matrix.from_rows(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("gens", [GENS, GENS3], ids=["a4-p2", "a3-p3"])
def test_direct_sum_matrices_are_the_block_matrices(gens):
    """The entry-by-entry sum against block matrices, on parts with
    zero-dimensional vertices (every interval module but one, and the zero
    module), including a repeated part; `sum_module` alone is the same
    interned module."""
    zero = zero_module(gens[0].alg)
    part_lists = [[X, Y] for X, Y in pairs(gens)]
    part_lists += [[gens[0], zero, gens[-1], gens[0]], [zero], [zero, gens[1]]]
    for parts in part_lists:
        total, incls, projs = direct_sum(parts)
        full_check(total, incls, projs)
        assert sum_module(parts) is total
        p = total.alg.p
        for k, a in enumerate(total.arrow_maps):
            assert a == block_diag(p, [m.arrow_maps[k] for m in parts])
        for i, prj in enumerate(projs):
            for j, inc in enumerate(incls):
                want = (identity_morphism(parts[i]) if i == j
                        else zero_morphism(parts[j], parts[i]))
                assert prj.compose(inc) == want
        assert combine(total, total, [inc.compose(prj) for inc, prj
                                      in zip(incls, projs)],
                       [1] * len(parts)) == identity_morphism(total)


def test_kernels_images_cokernels_validate():
    for X, Y in pairs(GENS):
        for f in list(hom_basis(X, Y)) + [zero_morphism(X, Y)]:
            full_check(kernel_module(f), image_module(f), cokernel_module(f))
        _, incl, proj = direct_sum([X, Y])
        full_check(kernel_module(proj[0]), cokernel_module(incl[1]))


def test_decompose_parts_validate():
    for X, Y in itertools.combinations_with_replacement(GENS, 2):
        total, _, _ = direct_sum([X, Y])
        parts = decompose(total)
        assert len(parts) == 2
        full_check(parts)


# -- hom coordinates: read-off against the solve ---------------------------------


def solved_coords(phi, basis):
    return solve_unique(hstack([hom_coords(b) for b in basis]), hom_coords(phi))


@pytest.mark.parametrize("gens", [GENS, GENS3], ids=["a4-p2", "a3-p3"])
def test_read_off_equals_the_solve(gens):
    # sums of neighbours give hom spaces of dimension up to 4
    gens = list(gens) + [direct_sum([X, Y])[0] for X, Y in zip(gens, gens[1:])]
    checked = 0
    for X, Y in pairs(gens):
        basis = hom_basis(X, Y)
        if not basis:
            continue
        # every element of a small space; the basis and its sum otherwise
        if len(basis) <= 3:
            elements = enumerate_hom(X, Y)
        else:
            elements = list(basis) + [sum(basis[1:], basis[0])]
        for phi in elements:
            assert morphism_in_coords(phi, basis) == solved_coords(phi, basis)
            checked += 1
        for W in gens:
            for f in hom_basis(W, X):
                for g in basis:
                    phi = g.compose(f)
                    target = hom_basis(W, Y)
                    if target:
                        assert (morphism_in_coords(phi, target)
                                == solved_coords(phi, target))
                        checked += 1
    assert checked > 200


def _outside_the_span():
    """The projection onto S3 as an endomorphism of S3 + S4, with the
    uniserial 3/4: the projection's vertex matrices are the vector (1, 0),
    while End(3/4) is spanned by (1, 1)."""
    alg = GENS[0].alg
    s3, s4 = interval_module(alg, 3, 3), interval_module(alg, 4, 4)
    split, _, _ = direct_sum([s3, s4])
    e = ModMorphism(split, split, tuple(
        Matrix.identity(2, d) if v == 3 else Matrix.zeros(2, d, d)
        for v, d in enumerate(split.dims, start=1)))
    return e, interval_module(alg, 3, 4)


def test_read_off_rejects_a_morphism_outside_the_span():
    e, uniserial = _outside_the_span()
    with pytest.raises(ValueError, match="inconsistent linear system"):
        morphism_in_coords(e, hom_basis(uniserial, uniserial))
    with pytest.raises(ValueError, match="inconsistent linear system"):
        solved_coords(e, hom_basis(uniserial, uniserial))


def test_read_off_stores_each_morphism_once_and_no_failure():
    e, uniserial = _outside_the_span()
    basis = hom_basis.__wrapped__(uniserial, uniserial)   # an unread basis
    for _ in range(2):
        with pytest.raises(ValueError, match="inconsistent linear system"):
            morphism_in_coords(e, basis)
    assert basis.read == {}
    phi = identity_morphism(uniserial)
    first = morphism_in_coords(phi, basis)
    assert first == solved_coords(phi, basis)
    twin = ModMorphism(uniserial, uniserial, phi.maps)
    assert twin is not phi and twin.flat is not phi.flat
    assert morphism_in_coords(twin, basis) is first
    assert list(basis.read) == [phi.flat]
    # the table holds at most the p^dim elements of the space
    X, Y = GENS3[5], GENS3[6]
    basis = hom_basis.__wrapped__(X, Y)
    elements = enumerate_hom(X, Y)
    for phi in elements + elements:
        assert morphism_in_coords(phi, basis) == solved_coords(phi, basis)
    assert len(basis.read) == len(elements) == 3 ** len(basis) > 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GENS, GENS3]), st.data())
def test_memoized_read_off_equals_the_solve(gens, data):
    """A combination of basis morphisms, sometimes moved off the span by a
    random vector, reads the solve's coordinates on every call, or raises
    on every call; an equal but distinct morphism reads the same column."""
    X, Y = data.draw(st.sampled_from(pairs(gens)))
    basis = hom_basis(X, Y)
    if not basis:
        return
    p, size = X.alg.p, len(basis[0].flat)
    residues = st.integers(0, p - 1)
    phi = combine(X, Y, basis, data.draw(st.lists(
        residues, min_size=len(basis), max_size=len(basis))))
    if data.draw(st.booleans()):
        noise = data.draw(st.lists(residues, min_size=size, max_size=size))
        phi = ModMorphism._of(X, Y, tuple(
            (a + b) % p for a, b in zip(phi.flat, noise)))
    try:
        want = solved_coords(phi, basis)
    except ValueError:
        for _ in range(2):
            with pytest.raises(ValueError, match="inconsistent linear system"):
                morphism_in_coords(phi, basis)
        assert phi.flat not in basis.read
        return
    got = morphism_in_coords(phi, basis)
    assert got == want
    assert morphism_in_coords(phi, basis) is got
    assert morphism_in_coords(ModMorphism(X, Y, phi.maps), basis) is got


def test_other_bases_go_through_the_solve(monkeypatch):
    solves = []
    real = quiver.solve_unique

    def spy(a, b):
        solves.append((a, b))
        return real(a, b)

    monkeypatch.setattr(quiver, "solve_unique", spy)
    X = GENS[0]
    for Y in GENS:
        basis = hom_basis(X, Y)
        if not basis:
            continue
        phi = basis[0].scale(1)
        for b in basis[1:]:
            phi = phi + b
        before = len(solves)
        fast = morphism_in_coords(phi, basis)
        assert len(solves) == before
        other = tuple(reversed(basis))
        slow = morphism_in_coords(phi, other)
        assert len(solves) == before + 1
        assert slow.col_list(0) == list(reversed(fast.col_list(0)))


def test_morphism_and_class_hashes_are_cached_but_not_pickled():
    """A morphism's and an extension class's hash covers their modules,
    which hash by identity, so it is kept but not pickled."""
    f = next(f for X, Y in pairs(GENS) for f in hom_basis(X, Y))
    C, A = next((C, A) for C, A in pairs(GENS)
                if ext_group(GENS[0].alg, 2, C, A).dim)
    delta = ext_group(GENS[0].alg, 2, C, A).basis()[0]
    for x in (f, delta):
        assert hash(x) == hash(x)
        assert "_hash" in x.__dict__
        assert "_hash" not in pickle.loads(pickle.dumps(x)).__dict__
    alg, back = pickle.loads(pickle.dumps((GENS[0].alg, delta)))
    assert "_hash" not in back.cocycle.__dict__
    assert (back.end_C, back.end_A) == (
        Module(alg, C.dims, C.arrow_maps), Module(alg, A.dims, A.arrow_maps))
    assert back.coords == delta.coords


# -- interned modules ------------------------------------------------------------


def test_engine_built_modules_are_interned():
    """Equal modules are one object, whether the engine or the public
    constructor builds them, and a parsed generator is the canonical module
    of its value."""
    X = direct_sum([GENS[0], GENS[1]])[0]
    assert direct_sum([GENS[0], GENS[1]])[0] is X
    for m in (X, *GENS):
        assert direct_sum([m])[0] is m
        assert Module(m.alg, m.dims, tuple(
            Matrix(a.p, a.rows, a.cols, a.entries) for a in m.arrow_maps)) is m
    # modules compare and hash by identity alone
    for name in ("__eq__", "__hash__", "__getstate__"):
        assert name not in Module.__dict__
    assert Module.__eq__ is object.__eq__ and Module.__hash__ is object.__hash__


def test_bad_module_input_raises_and_is_not_interned():
    alg = AlgebraPresentation(A3, (Relation((1,), (("a", "b"),)),), p=3)
    one = Matrix.identity(3, 1)
    with pytest.raises(ValueError, match="arrow maps do not satisfy relation"):
        Module(alg, (1, 1, 1), (one, one))
    with pytest.raises(ValueError, match="dimension vector length disagrees"):
        Module(alg, (1, 1), (one, one))
    with pytest.raises(ValueError, match="arrow 'b' matrix is 1x1, expected 0x1"):
        Module(alg, (1, 1, 0), (one, one))
    assert not alg._modules()


def test_constructor_leaves_an_interned_module_untouched():
    """Given equal but distinct inputs, the public constructor returns the
    interned module as it is: it still holds the tuple its table key holds."""
    for m in GENS:
        maps = tuple(Matrix(a.p, a.rows, a.cols, a.entries) for a in m.arrow_maps)
        assert Module(m.alg, tuple(m.dims), maps) is m
        assert m.arrow_maps is not maps
        key = next(k for k, v in m.alg._modules().items() if v is m)
        assert m.arrow_maps is key[1] and m.dims is key[0]


def test_pickled_module_is_interned_in_its_algebra():
    """Unpickling goes through the public constructor, so a pickled module
    comes back validated and interned in the unpickled algebra's table."""
    X = direct_sum([GENS[0], GENS[1]])[0]
    a, b = pickle.loads(pickle.dumps((X, X)))
    assert a is b
    assert a.alg._modules()[a.dims, a.arrow_maps] is a
    # the copy lives over the unpickled algebra: equal by value, another object
    assert a.alg == X.alg and a.alg is not X.alg and a is not X
    # the engine over the unpickled algebra finds the unpickled module
    g0, g1, Y = pickle.loads(pickle.dumps((GENS[0], GENS[1], X)))
    assert direct_sum([g0, g1])[0] is Y
    assert copy.copy(X) is X and copy.deepcopy(X) is not X


def test_intern_table_holds_modules_weakly():
    # a new algebra object, so a table that no other test has filled
    alg = AlgebraPresentation(A3, (Relation((1,), (("a", "b"),)),), p=3)
    parts = [interval_module(alg, 1, 2), interval_module(alg, 3, 3)]
    m = direct_sum(parts)[0]
    assert alg._modules()[m.dims, m.arrow_maps] is m
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
    assert list(alg._modules().values()) == parts


def test_pickled_algebra_carries_no_intern_table():
    alg = GENS[0].alg
    assert alg._modules()
    copy = pickle.loads(pickle.dumps(alg))
    assert "_module_table" not in copy.__dict__
    assert copy == alg and hash(copy) == hash(alg)
    assert "_module_table" not in repr(alg)


def _modules_in(x):
    """The modules inside a cache key: through tuples and the fields of
    value types, not into engines or matrices."""
    if isinstance(x, Module):
        yield x
    elif isinstance(x, (tuple, list, frozenset)):
        for y in x:
            yield from _modules_in(y)
    elif isinstance(x, Record) and not isinstance(x, Matrix) and not hasattr(x, "_memo"):
        for name in x._fields:
            yield from _modules_in(getattr(x, name))


def test_the_walk_reaches_modules_inside_value_types():
    """`_modules_in` enters extension classes, exangles, roofs and table
    complexes, so the guard below checks the modules of such keys."""
    cat = build_category(parse_input(FIXTURE.read_text()))
    delta = next(d for C, A in pairs(cat.generators)
                 for d in ext_group(cat.alg, cat.n, C, A).basis())
    nex = cat.realize(delta)
    roof = Roof(identity_morphism(delta.end_C), tuple(delta.coords.entries),
                identity_morphism(delta.end_A))
    cx = TableComplex(nex.terms, nex.diffs, roof)
    for key, want in ((delta, (delta.end_C, delta.end_A)), (nex, nex.terms),
                      (roof, (roof.end_C, roof.end_A)), (cx, nex.terms)):
        assert set(_modules_in((key,))) == set(want)


def test_every_cached_module_is_the_interned_one(monkeypatch, capsys):
    """Modules compare by identity, so a cache keyed by a module that is
    not its algebra's interned one would miss.  After `check` and
    `localize` of the benchmark input in one process, every module key of
    the engines' `memo` caches and of the `hom_basis` cache is interned."""
    owners = []
    for cls in (ExCategory, IdealQuotient, LocalizedEngine):
        def record(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            owners.append(self)
        monkeypatch.setattr(cls, "__init__", record)
    path = str(ROOT / "bench" / "inputs" / "a3-rad2.exg")
    assert main(["check", path]) == 0
    assert main(["localize", path]) == 0
    capsys.readouterr()
    assert {type(o) for o in owners} == {ExCategory, IdealQuotient, LocalizedEngine}
    owners += [o.objects for o in owners if isinstance(o, ExCategory)]
    memo_keys = [key for o in owners for cache in o._memo.values()
                 for key in cache]
    # the C lru_cache keeps its table, keyed by argument tuples, as a referent
    lru_keys = [key for d in gc.get_referents(hom_basis)
                if isinstance(d, dict) for key in d]
    for keys in (memo_keys, lru_keys):
        mods = list(_modules_in(keys))
        assert mods
        for m in mods:
            assert m.alg._modules()[m.dims, m.arrow_maps] is m


def _reachable(roots):
    """Every object reachable from `roots` by `gc.get_referents`, without
    entering classes, functions or modules."""
    seen = {}
    stack = list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(
                x, (type, types.FunctionType, types.ModuleType)):
            continue
        seen[id(x)] = x
        stack.extend(gc.get_referents(x))
    return list(seen.values())


def test_linalg_caches_are_bounded_and_hold_no_module(capsys):
    """The row-reduction caches are process-global, so they must not keep
    a finished run alive.  After `check` and `localize` of the benchmark
    input, each is within its bound, and neither its keys nor its results
    reach a module, morphism or algebra."""
    path = str(ROOT / "bench" / "inputs" / "a3-rad2.exg")
    assert main(["check", path]) == 0
    assert main(["localize", path]) == 0
    capsys.readouterr()
    for fn in (rref, kernel_basis, rref_solve):
        assert 0 < fn.cache_info().currsize <= LINALG_CACHE_SIZE
        # the C lru_cache keeps its table as a referent; its links are not
        # tracked, so each result is read back by a call that hits
        keys = [key for d in gc.get_referents(fn) if isinstance(d, dict)
                for key in d if isinstance(key, tuple)]
        assert len(keys) == fn.cache_info().currsize
        hits = fn.cache_info().hits
        results = [fn(*key) for key in keys]
        assert fn.cache_info().hits == hits + len(keys)
        held = _reachable(keys + results)
        assert any(isinstance(x, Matrix) for x in held)
        assert not [x for x in held
                    if isinstance(x, (Module, ModMorphism, AlgebraPresentation))]
