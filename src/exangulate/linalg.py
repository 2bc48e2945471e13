"""Exact dense linear algebra over a prime field F_p.

Everything downstream (quiver representations, Ext groups, axiom checks)
reduces to solving small linear systems over F_p, so this module keeps the
contract strict: matrices are immutable, entries are residues in 0..p-1,
every operation checks shapes and moduli, and row reduction always picks the
leftmost available pivot so that bases and solutions are reproducible.

The same small systems recur many times in one run, so `rref`,
`kernel_basis` and `rref_solve` remember their last `LINALG_CACHE_SIZE`
results by argument value (`Matrix` hashes by value); `rref_solve` reduces
its augmented matrix without going through `rref`'s cache.  A result is
shared between callers, so it is immutable: matrices, ints and tuples only,
which is why `kernel_basis` returns a tuple.  The caches reach no module or
algebra.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .values import Frozen

LINALG_CACHE_SIZE = 1024  # results each row-reduction cache keeps


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_PRIME_MODULI: set[int] = set()  # moduli already found prime


def _check_modulus(p: int) -> None:
    if p not in _PRIME_MODULI:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _PRIME_MODULI.add(p)


def _check_shape(p: int, rows: int, cols: int) -> None:
    _check_modulus(p)
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimensions")


def _inv_mod(a: int, p: int) -> int:
    # p is prime and a is nonzero mod p.
    return pow(a, p - 2, p)


_new = object.__new__


class Matrix(Frozen):
    """Immutable row-major matrix over F_p. 0xN and Nx0 shapes are legal.

    The public constructor validates its arguments; `Matrix._trusted` skips
    that for results that are valid by construction (arithmetic on valid
    matrices, row reduction), and `validate` re-runs the full check.
    """

    _fields = ("p", "rows", "cols", "entries")

    def __init__(self, p: int, rows: int, cols: int,
                 entries: tuple[int, ...]) -> None:
        self.__dict__.update(p=p, rows=rows, cols=cols, entries=entries)
        self.validate()

    def validate(self) -> None:
        _check_shape(self.p, self.rows, self.cols)
        entries = self.entries
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(entries)} != {self.rows}x{self.cols}"
            )
        if entries and (min(entries) < 0 or max(entries) >= self.p):
            raise ValueError("entries must be reduced residues mod p")

    @classmethod
    def _trusted(cls, p: int, rows: int, cols: int,
                 entries: tuple[int, ...]) -> "Matrix":
        """Unchecked constructor; the caller guarantees a valid matrix."""
        m = _new(cls)
        d = m.__dict__
        d["p"] = p
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        return m

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.entries == other.entries and self.rows == other.rows
                and self.cols == other.cols and self.p == other.p)

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash((self.p, self.rows, self.cols, self.entries))
        return h

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(p: int, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Matrix":
        """Build from nested sequences, reducing entries mod p.

        `cols` is only needed to disambiguate a matrix with zero rows.
        """
        r = len(rows)
        if r == 0:
            if cols is None:
                raise ValueError("zero-row matrix needs an explicit column count")
            return Matrix(p, 0, cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != c:
            raise ValueError("explicit column count disagrees with data")
        return Matrix(p, r, c, tuple(x % p for row in rows for x in row))

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Matrix":
        _check_shape(p, rows, cols)
        return Matrix._trusted(p, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        _check_shape(p, n, n)
        return Matrix._trusted(
            p, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def column(p: int, values: Sequence[int]) -> "Matrix":
        _check_modulus(p)
        return Matrix._trusted(p, len(values), 1, tuple(v % p for v in values))

    # -- access -----------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col_list(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def column_at(self, j: int) -> "Matrix":
        return Matrix._trusted(self.p, self.rows, 1, tuple(self.col_list(j)))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -------------------------------------------------------

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.p
        return Matrix._trusted(p, self.rows, self.cols,
                               tuple((a + b) % p for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.p
        return Matrix._trusted(p, self.rows, self.cols,
                               tuple((a - b) % p for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        p = self.p
        return Matrix._trusted(p, self.rows, self.cols, tuple((-a) % p for a in self.entries))

    def scale(self, c: int) -> "Matrix":
        p = self.p
        c %= p
        return Matrix._trusted(p, self.rows, self.cols, tuple((c * a) % p for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.p
        n, k, m = self.rows, self.cols, other.cols
        if not (n and k and m):
            return Matrix._trusted(p, n, m, (0,) * (n * m))
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = out
            base = i * m
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        orow[base + j] = (orow[base + j] + av * brow[j]) % p
        return Matrix._trusted(p, n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.p, self.cols, self.rows,
                               tuple(self.entries[i * self.cols + j]
                                     for j in range(self.cols) for i in range(self.rows)))


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices side by side (all with the same row count)."""
    if not blocks:
        raise ValueError("hstack of nothing")
    p, rows = blocks[0].p, blocks[0].rows
    if any(b.p != p or b.rows != rows for b in blocks):
        raise ValueError("hstack blocks disagree in modulus or row count")
    out: list[int] = []
    for i in range(rows):
        for b in blocks:
            out.extend(b.entries[i * b.cols : (i + 1) * b.cols])
    return Matrix._trusted(p, rows, sum(b.cols for b in blocks), tuple(out))


def from_columns(p: int, rows: int, columns: Sequence[Sequence[int]]) -> Matrix:
    """The rows x len(columns) matrix with the given columns.

    The entries must already be residues mod p, as the outputs of coordinate
    maps are; they are not checked again.
    """
    return Matrix._trusted(p, rows, len(columns),
                           tuple(x for row in zip(*columns) for x in row))


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    if not blocks:
        raise ValueError("vstack of nothing")
    p, cols = blocks[0].p, blocks[0].cols
    if any(b.p != p or b.cols != cols for b in blocks):
        raise ValueError("vstack blocks disagree in modulus or column count")
    out: list[int] = []
    for b in blocks:
        out.extend(b.entries)
    return Matrix._trusted(p, sum(b.rows for b in blocks), cols, tuple(out))


# -- row reduction ---------------------------------------------------------


@lru_cache(maxsize=LINALG_CACHE_SIZE)
def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost pivots.

    Returns (R, pivot_columns).  Deterministic: scanning left to right, the
    first row with a nonzero entry in the current column becomes the pivot
    row.
    """
    return _rref(m)


def _rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    # uncached, for `rref_solve`, whose augmented matrices recur only
    # through its own cache
    p = m.p
    rows = [m.row_list(i) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _inv_mod(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = tuple(x for row in rows for x in row)
    return Matrix._trusted(p, m.rows, m.cols, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    # a single row or column spans a line iff it has a nonzero residue
    if m.rows <= 1 or m.cols <= 1:
        return 1 if any(m.entries) else 0
    return len(rref(m)[1])


@lru_cache(maxsize=LINALG_CACHE_SIZE)
def kernel_basis(m: Matrix) -> tuple[Matrix, ...]:
    """Basis of the right null space, as a tuple of column vectors.

    One basis vector per free column, with a 1 in the free column's slot and
    0 in every other free column; enumerated in increasing column order
    (leftmost-pivot convention).  So the coordinates of a kernel element in
    this basis are its entries at the free columns.  A row of the RREF is
    zero left of its pivot, so a vector is nonzero only at its free column
    and at pivot columns left of it.
    """
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis: list[Matrix] = []
    p = m.p
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-r.at(i, fc)) % p
        basis.append(Matrix._trusted(p, m.cols, 1, tuple(v)))
    return tuple(basis)


@lru_cache(maxsize=LINALG_CACHE_SIZE)
def rref_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution x of a @ x = b (b may have several columns), or None.

    The particular solution has zeros in all free coordinates, so it is the
    unique reproducible representative of the solution coset.
    """
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    if a.rows != b.rows:
        raise ValueError("incompatible right-hand side")
    r, pivots = _rref(hstack([a, b]))
    for pc in pivots:
        if pc >= a.cols:
            return None
    bc, width = b.cols, r.cols
    sol = [0] * (a.cols * bc)
    for i, pc in enumerate(pivots):
        start = i * width + a.cols
        sol[pc * bc : (pc + 1) * bc] = r.entries[start : start + bc]
    return Matrix._trusted(a.p, a.cols, bc, tuple(sol))


def solve_unique(a: Matrix, b: Matrix) -> Matrix:
    x = rref_solve(a, b)
    if x is None:
        raise ValueError("inconsistent linear system")
    return x


def column_space_basis(m: Matrix) -> list[Matrix]:
    """Columns of m indexed by the pivot columns of its rref."""
    _, pivots = rref(m)
    return [m.column_at(j) for j in pivots]




def quotient_with_section(p: int, dim: int, subspace: Sequence[Matrix]) -> tuple[Matrix, Matrix]:
    """Coordinates on F_p^dim / span(subspace).

    Returns (proj, sect): proj is q x dim, sect is dim x q with
    proj @ sect = identity, and proj kills exactly the subspace.  The chosen
    complement is spanned by the standard basis vectors at the non-pivot
    coordinates of the subspace matrix, so representatives are reproducible.
    """
    for v in subspace:
        if v.p != p or v.rows != dim or v.cols != 1:
            raise ValueError("subspace vectors must be dim x 1 columns over F_p")
    if subspace:
        w = hstack(list(subspace))
    else:
        w = Matrix.zeros(p, dim, 0)
    # Row-reduce the transpose: pivot coordinates belong to the subspace's
    # echelon support, the free coordinates index a complement.
    rt, pivots = rref(w.transpose())
    pivot_row = {c: k for k, c in enumerate(pivots)}
    free = [c for c in range(dim) if c not in pivot_row]
    q = len(free)
    # Section: complement basis vectors.
    sect = [0] * (dim * q)
    for j, fj in enumerate(free):
        sect[fj * q + j] = 1
    # Projection: column i expresses e_i mod subspace in the complement
    # coordinates.  Using the reduced rows: e_{pivot_k} ==
    # -sum_{free j} rt[k][j] e_j (mod subspace).
    proj = [0] * (q * dim)
    for j, fj in enumerate(free):
        proj[j * dim + fj] = 1
    width = rt.cols
    for i, k in pivot_row.items():
        row = rt.entries[k * width : (k + 1) * width]
        for j, fj in enumerate(free):
            proj[j * dim + i] = (-row[fj]) % p
    return (Matrix._trusted(p, q, dim, tuple(proj)),
            Matrix._trusted(p, dim, q, tuple(sect)))


def enumerate_vectors(p: int, dim: int) -> Iterator[Matrix]:
    """All column vectors of F_p^dim in lexicographic coordinate order."""
    total = p ** dim
    for idx in range(total):
        v = []
        t = idx
        for _ in range(dim):
            v.append(t % p)
            t //= p
        yield Matrix._trusted(p, dim, 1, tuple(v))


def is_invertible(m: Matrix) -> bool:
    return m.is_square and rank(m) == m.rows
