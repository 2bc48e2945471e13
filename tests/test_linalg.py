import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exangulate.linalg as linalg
from exangulate.linalg import (
    LINALG_CACHE_SIZE,
    Matrix,
    column_space_basis,
    enumerate_vectors,
    hstack,
    kernel_basis,
    quotient_with_section,
    rank,
    rref,
    rref_solve,
    solve_unique,
    vstack,
)
from decompose_reference import inverse, is_invertible
from exact_reference import same_column_space


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Matrix(2, 2, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        Matrix(4, 1, 1, (1,))  # modulus not prime
    with pytest.raises(ValueError):
        Matrix(2, 1, 1, (2,))  # unreduced entry


def test_zero_dimensional_shapes_are_legal():
    z = Matrix.zeros(2, 0, 3)
    assert z.rows == 0 and z.cols == 3
    assert rank(z) == 0
    assert kernel_basis(z) and len(kernel_basis(z)) == 3
    zt = z.transpose()
    assert zt.rows == 3 and zt.cols == 0
    assert (z @ zt).rows == 0
    # 3x0 times 0x3 is the zero 3x3 matrix
    assert (zt @ z) == Matrix.zeros(2, 3, 3)


def test_from_rows_reduces_mod_p():
    m = Matrix.from_rows(3, [[4, -1], [9, 5]])
    assert m.entries == (1, 2, 0, 2)


def test_boundary_constructors_keep_their_messages():
    with pytest.raises(ValueError, match="entries must be reduced residues mod p"):
        Matrix(3, 1, 2, (1, 3))
    with pytest.raises(ValueError, match="entries must be reduced residues mod p"):
        Matrix(3, 1, 2, (-1, 0))
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        Matrix.from_rows(4, [[5]])
    with pytest.raises(ValueError, match="modulus 9 is not prime"):
        Matrix.zeros(9, 1, 1)
    with pytest.raises(ValueError, match="modulus 1 is not prime"):
        Matrix.identity(1, 2)
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        Matrix.column(6, [1])
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        Matrix.zeros(2, -1, -1)
    with pytest.raises(ValueError, match=r"entry count 3 != 2x2"):
        Matrix(2, 2, 2, (1, 0, 1))


def test_validate_rechecks_an_unchecked_matrix():
    with pytest.raises(ValueError, match="entries must be reduced residues mod p"):
        Matrix._trusted(2, 1, 1, (2,)).validate()
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        Matrix._trusted(4, 1, 1, (1,)).validate()
    Matrix.from_rows(5, [[7, -3]]).validate()


def test_matrix_hash_and_equality_are_by_value():
    a = Matrix.from_rows(3, [[1, 2]])
    b = Matrix._trusted(3, 1, 2, (1, 2))
    assert a == b and hash(a) == hash(b) and hash(a) == hash(a)
    assert a != Matrix.from_rows(3, [[1, 2]]).transpose()
    assert a != Matrix.from_rows(5, [[1, 2]])
    assert len({a, b}) == 1


def test_matmul_small_example():
    a = Matrix.from_rows(5, [[1, 2], [3, 4]])
    b = Matrix.from_rows(5, [[0, 1], [1, 1]])
    assert a @ b == Matrix.from_rows(5, [[2, 3], [4, 2]])


def test_rref_leftmost_pivots_fixed_example():
    m = Matrix.from_rows(2, [[0, 1, 1], [1, 1, 0], [1, 0, 1]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r == Matrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])


def test_kernel_basis_unit_in_free_coordinate():
    m = Matrix.from_rows(2, [[1, 0, 1], [0, 1, 1]])
    (k,) = kernel_basis(m)
    assert k.col_list(0) == [1, 1, 1]
    assert (m @ k).is_zero


def test_rref_solve_particular_solution_has_zero_free_coords():
    a = Matrix.from_rows(3, [[1, 1, 1]])
    b = Matrix.column(3, [2])
    x = rref_solve(a, b)
    assert x.col_list(0) == [2, 0, 0]


def test_rref_solve_inconsistent_returns_none():
    a = Matrix.from_rows(2, [[1, 0], [1, 0]])
    b = Matrix.column(2, [1, 0])
    assert rref_solve(a, b) is None
    with pytest.raises(ValueError):
        solve_unique(a, b)


def test_quotient_with_section_mod_diagonal():
    p = 2
    sub = [Matrix.column(p, [1, 1])]
    proj, sect = quotient_with_section(p, 2, sub)
    assert proj.rows == 1 and sect.cols == 1
    assert (proj @ sect) == Matrix.identity(p, 1)
    assert (proj @ sub[0]).is_zero


def test_quotient_with_section_trivial_subspace():
    proj, sect = quotient_with_section(2, 3, [])
    assert proj == Matrix.identity(2, 3)
    assert sect == Matrix.identity(2, 3)


def test_quotient_with_section_full_subspace():
    sub = [Matrix.column(2, [1, 0]), Matrix.column(2, [0, 1])]
    proj, sect = quotient_with_section(2, 2, sub)
    assert proj.rows == 0
    assert sect.cols == 0


def test_enumerate_vectors_order_and_count():
    vs = list(enumerate_vectors(2, 2))
    assert len(vs) == 4
    assert [v.col_list(0) for v in vs] == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_block_helpers():
    i2 = Matrix.identity(2, 2)
    z = Matrix.zeros(2, 2, 1)
    m = vstack([hstack([i2, z])])
    assert m.rows == 2 and m.cols == 3
    assert hstack([i2, i2]).cols == 4
    assert vstack([i2, i2]).rows == 4


def test_inverse_round_trip():
    m = Matrix.from_rows(5, [[1, 2], [3, 4]])
    assert is_invertible(m)
    assert (inverse(m) @ m) == Matrix.identity(5, 2)
    singular = Matrix.from_rows(5, [[1, 2], [2, 4]])
    assert not is_invertible(singular)
    with pytest.raises(ValueError):
        inverse(singular)


def test_column_space_predicates():
    a = Matrix.from_rows(2, [[1, 1], [0, 0], [1, 1]])
    b = Matrix.from_rows(2, [[1], [0], [1]])
    assert same_column_space(a, b)
    assert rref_solve(a, Matrix.column(2, [1, 0, 1])) is not None
    assert rref_solve(a, Matrix.column(2, [1, 1, 0])) is None
    basis = column_space_basis(a)
    assert len(basis) == 1 and basis[0].col_list(0) == [1, 0, 1]


def _random_matrix(rng, p, rows, cols):
    return Matrix(p, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def test_randomized_kernel_and_rank_consistency():
    rng = random.Random(20260815)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        rows = rng.randrange(0, 5)
        cols = rng.randrange(0, 5)
        m = _random_matrix(rng, p, rows, cols)
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == cols
        for v in ker:
            assert (m @ v).is_zero
        if ker:
            assert rank(hstack(ker)) == len(ker)


def test_randomized_solve_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        p = 2
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = _random_matrix(rng, p, rows, cols)
        b = _random_matrix(rng, p, rows, 1)
        found = [v for v in enumerate_vectors(p, cols) if (m @ v) == b]
        x = rref_solve(m, b)
        if found:
            assert x is not None and (m @ x) == b
        else:
            assert x is None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 4), st.data())
def test_rref_is_idempotent_and_rank_bounded(p, rows, cols, data):
    entries = data.draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    m = Matrix(p, rows, cols, tuple(entries))
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r == r2 and pivots == pivots2
    assert len(pivots) <= min(rows, cols)
    assert rank(m) == len(pivots)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_quotient_projection_section_identity(dim, data):
    p = 2
    nvec = data.draw(st.integers(0, 3))
    sub = []
    for _ in range(nvec):
        sub.append(
            Matrix.column(p, data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
        )
    proj, sect = quotient_with_section(p, dim, sub)
    q = proj.rows
    assert (proj @ sect) == Matrix.identity(p, q)
    for v in sub:
        assert (proj @ v).is_zero
    assert q == dim - rank(hstack(sub)) if sub else q == dim


@pytest.mark.parametrize("p", [2, 3])
def test_rank_by_shape_is_the_rref_rank(monkeypatch, p):
    """Every matrix with at most one row or column, k <= 4, is ranked
    without `rref`, and its rank is the number of `rref` pivots."""
    reduced = []   # the matrices `rank` hands to `rref`
    monkeypatch.setattr(linalg, "rref", lambda m: reduced.append(m) or rref(m))
    shapes = [(r, c) for k in range(5) for r, c in ((0, k), (k, 0), (1, k), (k, 1))]
    for rows, cols in shapes:
        for entries in itertools.product(range(p), repeat=rows * cols):
            m = Matrix(p, rows, cols, entries)
            assert rank(m) == len(rref(m)[1])
    assert reduced == []


# -- the row-reduction caches ---------------------------------------------------

CACHED = (rref, kernel_basis, rref_solve)


def _drawn_matrix(data, p, rows, cols):
    return Matrix(p, rows, cols, tuple(data.draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))))


def _twin(m):
    """An equal matrix that shares no object with m."""
    return Matrix(m.p, m.rows, m.cols, tuple(list(m.entries)))


def _cached_calls(a, b):
    return ((rref, (a,)), (kernel_basis, (a,)), (rref_solve, (a, b)))


def _assert_cached_by_value(a, b):
    for fn, args in _cached_calls(a, b):
        got = fn(*args)
        assert got == fn.__wrapped__(*args)
        # an equal matrix built anew is answered with the shared result
        twins = tuple(map(_twin, args))
        assert all(t is not x for t, x in zip(twins, args))
        assert fn(*twins) is got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 3), st.data())
def test_cached_results_equal_the_computation(p, rows, cols, rhs_cols, data):
    """`rref`, `kernel_basis` and `rref_solve` (with a right-hand side of
    0 to 3 columns) return what their undecorated bodies compute, and an
    equal but distinct argument gets the same result object."""
    _assert_cached_by_value(_drawn_matrix(data, p, rows, cols),
                            _drawn_matrix(data, p, rows, rhs_cols))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_are_cached_by_value(p, rows, cols):
    _assert_cached_by_value(Matrix.zeros(p, rows, cols), Matrix.zeros(p, rows, 2))
    assert kernel_basis(Matrix.zeros(p, rows, cols)) == tuple(
        Matrix.identity(p, cols).column_at(j) for j in range(cols))


def test_a_failing_call_raises_every_time_and_is_not_stored():
    a, b = Matrix.zeros(2, 2, 2), Matrix.zeros(2, 3, 1)
    sizes = rref_solve.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="incompatible right-hand side"):
            rref_solve(a, b)
    assert rref_solve.cache_info().currsize == sizes


def test_a_solve_miss_stores_nothing_in_the_rref_cache():
    """`rref_solve` reduces its augmented matrix uncached: only its own
    cache would look that matrix up again."""
    rref.cache_clear()
    rref_solve.cache_clear()
    a, b = Matrix(3, 2, 2, (1, 2, 0, 1)), Matrix(3, 2, 1, (1, 1))
    assert rref_solve(a, b) == Matrix(3, 2, 1, (2, 1))
    assert rref_solve.cache_info().misses == 1
    assert rref.cache_info().currsize == 0


@pytest.mark.parametrize("p", [2, 3])
def test_results_survive_clearing_and_eviction(p):
    rng = random.Random(p)
    probes = [(_random_matrix(rng, p, r, c), _random_matrix(rng, p, r, 2))
              for r in range(4) for c in range(4)]

    def answers():
        return [fn(*args) for a, b in probes for fn, args in _cached_calls(a, b)]

    before = answers()
    for fn in CACHED:
        fn.cache_clear()
    assert answers() == before
    # more distinct systems than a cache keeps push every probe out
    width = 12   # p ** 12 > LINALG_CACHE_SIZE distinct 1 x 12 rows
    for k in range(LINALG_CACHE_SIZE + 1):
        m = Matrix(p, 1, width, tuple((k // p ** i) % p for i in range(width)))
        for fn, args in _cached_calls(m, Matrix.zeros(p, 1, 1)):
            fn(*args)
    misses = [fn.cache_info().misses for fn in CACHED]
    for fn in CACHED:
        assert fn.cache_info().currsize == LINALG_CACHE_SIZE
    assert answers() == before
    assert all(fn.cache_info().misses > m for fn, m in zip(CACHED, misses))
