"""Quiver algebras with relations and their finite-dimensional modules.

A presentation is a finite quiver plus F_p-linear relations between parallel
paths.  Modules are vertexwise F_p spaces with arrow matrices; all homological
data (Hom spaces, projective resolutions, Ext groups, Yoneda classes of exact
sequences) is computed by exact linear algebra from `linalg`.

Conventions used throughout:

* vertices are 1-indexed;
* paths compose left to right, so the path (a, b) means "apply a, then b";
* `arrow_maps[k]` is the matrix of the k-th arrow of the quiver, with shape
  dims[target] x dims[source];
* every basis (paths, hom spaces, kernels) is enumerated in a fixed order, so
  identical inputs give identical coordinate choices.
"""

from __future__ import annotations

import weakref
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul
from typing import Sequence

from .linalg import (
    Matrix,
    column_quotient,
    column_space_basis,
    enumerate_vectors,
    from_columns,
    hstack,
    is_prime,
    kernel_basis,
    quotient_with_section,
    rank,
    rref,
    rref_solve,
    solve_unique,
)
from .values import Frozen, Record, Value


class Arrow(Value):
    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: int, target: int) -> None:
        self.__dict__.update(name=name, source=source, target=target)


class Quiver(Value):
    _fields = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows: tuple[Arrow, ...]) -> None:
        self.__dict__.update(vertex_count=vertex_count, arrows=arrows)
        if self.vertex_count < 1:
            raise ValueError("quiver needs at least one vertex")
        seen: set[str] = set()
        for a in self.arrows:
            if a.name in seen:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            seen.add(a.name)
            for v in (a.source, a.target):
                if not (1 <= v <= self.vertex_count):
                    raise ValueError(f"arrow {a.name!r} touches missing vertex {v}")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def arrows_from(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]


Path = tuple[str, ...]  # arrow names, composing left to right; () is a unit path


def path_endpoints(quiver: Quiver, path: Path) -> tuple[int, int]:
    if not path:
        raise ValueError("empty path endpoints depend on context")
    first = quiver.arrow(path[0])
    cur = first.target
    for name in path[1:]:
        a = quiver.arrow(name)
        if a.source != cur:
            raise ValueError(f"path {path} breaks at {name!r}")
        cur = a.target
    return first.source, cur


class Relation(Value):
    """F_p-linear combination of parallel paths, each of length >= 2."""

    _fields = ("coeffs", "paths")

    def __init__(self, coeffs: tuple[int, ...], paths: tuple[Path, ...]) -> None:
        self.__dict__.update(coeffs=coeffs, paths=paths)
        if len(self.coeffs) != len(self.paths) or not self.paths:
            raise ValueError("relation needs matching nonempty coefficient/path lists")
        if any(len(q) < 2 for q in self.paths):
            raise ValueError("relation paths must have length >= 2")


class AlgebraPresentation(Value):
    _fields = ("quiver", "relations", "p", "path_length_bound")

    def __init__(self, quiver: Quiver, relations: tuple[Relation, ...],
                 p: int = 2, path_length_bound: int = 16) -> None:
        self.__dict__.update(quiver=quiver, relations=relations, p=p,
                             path_length_bound=path_length_bound)
        if not is_prime(self.p):
            raise ValueError(f"coefficient modulus {self.p} is not prime")
        if self.path_length_bound < 1:
            raise ValueError("path length bound must be positive")
        ends: tuple[int, int] | None
        for rel in self.relations:
            ends = None
            for q, c in zip(rel.paths, rel.coeffs):
                e = path_endpoints(self.quiver, q)
                if ends is None:
                    ends = e
                elif e != ends:
                    raise ValueError(f"relation paths are not parallel: {rel.paths}")
                if not (0 <= c < self.p):
                    raise ValueError("relation coefficients must be reduced mod p")

    def _modules(self) -> weakref.WeakValueDictionary:
        """This algebra's intern table of modules, keyed by (dims, arrow_maps).

        It lives in the instance dict, outside `_fields`, so it takes no
        part in eq, hash or repr; it holds its modules weakly.
        """
        return self._table("_module_table")

    def _sums(self) -> weakref.WeakValueDictionary:
        """This algebra's table of direct sums (`sum_module`), keyed by the
        tuple of parts and held weakly, like `_modules`."""
        return self._table("_sum_table")

    def _table(self, name: str) -> weakref.WeakValueDictionary:
        d = self.__dict__
        table = d.get(name)
        if table is None:
            table = d[name] = weakref.WeakValueDictionary()
        return table

    def __hash__(self) -> int:
        # kept once computed: `ext_group`'s cache key hashes the algebra
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = Value.__hash__(self)
        return h

    def __getstate__(self) -> dict:
        # the module and sum tables belong to this process and do not
        # pickle, nor does the hash, which covers strings (hashed per process)
        state = dict(self.__dict__)
        state.pop("_module_table", None)
        state.pop("_sum_table", None)
        state.pop("_hash", None)
        return state


# -- path bases -------------------------------------------------------------


class _SlotBasis:
    """Basis data for e_i . Lambda . e_j: chosen basis paths and a reduction map."""

    def __init__(self, paths_window: list[Path], basis_paths: list[Path],
                 reduce_matrix: Matrix):
        self.paths_window = paths_window          # all paths i->j of length <= bound+1
        self.index = {q: k for k, q in enumerate(paths_window)}
        self.basis_paths = basis_paths            # subset of paths of length <= bound
        self.reduce_matrix = reduce_matrix        # len(basis) x len(window)

    @property
    def dim(self) -> int:
        return len(self.basis_paths)

    def reduce_path(self, q: Path) -> Matrix:
        """Coordinates of a window path in the chosen basis."""
        return self.reduce_matrix.column_at(self.index[q])


class PathBasis:
    """Reduced path bases for every vertex pair of the algebra."""

    def __init__(self, alg: AlgebraPresentation, slots: dict[tuple[int, int], _SlotBasis]):
        self.alg = alg
        self.slots = slots

    def slot(self, i: int, j: int) -> _SlotBasis:
        return self.slots[(i, j)]

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.slots.values())


def _enumerate_paths(quiver: Quiver, start: int, max_len: int) -> list[Path]:
    out: list[Path] = []
    frontier: list[tuple[Path, int]] = [((), start)]
    for _ in range(max_len):
        nxt: list[tuple[Path, int]] = []
        for path, at in frontier:
            for a in sorted(quiver.arrows_from(at), key=lambda a: a.name):
                q = path + (a.name,)
                out.append(q)
                nxt.append((q, a.target))
        frontier = nxt
        if not frontier:
            break
    return out


@lru_cache(maxsize=None)
def path_basis(alg: AlgebraPresentation) -> PathBasis:
    """Choose path bases of the quotient algebra, certifying finiteness.

    All paths of length <= bound+1 are materialised; the relation ideal is
    spanned inside that window.  Construction fails unless every path of
    length bound+1 reduces into the span of shorter paths: that certifies the
    algebra is spanned by paths within the bound (any longer path factors
    through one of these), so the computed dimension is stable under raising
    the bound.
    """
    quiver, p, bound = alg.quiver, alg.p, alg.path_length_bound
    window = bound + 1
    by_slot: dict[tuple[int, int], list[Path]] = {
        (i, j): ([()] if i == j else [])
        for i in range(1, quiver.vertex_count + 1)
        for j in range(1, quiver.vertex_count + 1)
    }
    for i in range(1, quiver.vertex_count + 1):
        for q in _enumerate_paths(quiver, i, window):
            j = path_endpoints(quiver, q)[1]
            by_slot[(i, j)].append(q)
    for key in by_slot:
        by_slot[key].sort(key=lambda q: (len(q), q))

    slots: dict[tuple[int, int], _SlotBasis] = {}
    for (i, j), paths in by_slot.items():
        dim = len(paths)
        index = {q: k for k, q in enumerate(paths)}
        ideal_vectors: list[Matrix] = []
        for rel in alg.relations:
            ri, rj = path_endpoints(quiver, rel.paths[0])
            for u in [q for q in by_slot.get((i, ri), []) if len(q) < window]:
                for v in [q for q in by_slot.get((rj, j), []) if len(q) < window]:
                    padded = [u + q + v for q in rel.paths]
                    if any(len(q) > window for q in padded):
                        continue
                    vec = [0] * dim
                    for c, q in zip(rel.coeffs, padded):
                        vec[index[q]] = (vec[index[q]] + c) % p
                    col = Matrix.column(p, vec)
                    if not col.is_zero:
                        ideal_vectors.append(col)
        proj, _sect = quotient_with_section(p, dim, ideal_vectors)
        short_cols = [k for k, q in enumerate(paths) if len(q) <= bound]
        if short_cols:
            short_images = hstack([proj.column_at(k) for k in short_cols]) if proj.rows else Matrix.zeros(p, 0, len(short_cols))
        else:
            short_images = Matrix.zeros(p, proj.rows, 0)
        if rank(short_images) != proj.rows:
            raise ValueError(
                "algebra not certified finite-dimensional at path length bound "
                f"{bound} (vertex pair {(i, j)})"
            )
        _, pivots = rref(short_images)
        basis_cols = [short_cols[t] for t in pivots]
        basis_paths = [paths[k] for k in basis_cols]
        if basis_cols:
            basis_mat = hstack([proj.column_at(k) for k in basis_cols])
            reduce_matrix = solve_unique(basis_mat, proj)
        else:
            reduce_matrix = Matrix.zeros(p, 0, dim)
        slots[(i, j)] = _SlotBasis(paths, basis_paths, reduce_matrix)
    return PathBasis(alg, slots)


# -- modules ----------------------------------------------------------------


_new = object.__new__


class Module(Frozen):
    """Representation of the bound quiver: F_p space at each vertex, matrix per arrow.

    The public constructor validates shapes and relations; `Module._trusted`
    skips that for modules that are valid by construction (sums, kernels,
    images, cokernels, radicals), and `validate` re-runs the full check.

    Each module is interned in its algebra's table (`_modules`): the
    constructor, `_trusted` and unpickling all return the module already
    there for the same dims and arrow maps, untouched; only a new module is
    filled, validated and interned.  Within one algebra object equal
    modules are therefore the same object, and modules compare and hash by
    identity; modules over two distinct algebra objects are distinct.
    """

    _fields = ("alg", "dims", "arrow_maps")

    def __new__(cls, alg: AlgebraPresentation, dims: tuple[int, ...],
                arrow_maps: tuple[Matrix, ...]) -> "Module":
        m = alg._modules().get((dims, arrow_maps))
        return _new(cls) if m is None else m

    def __init__(self, alg: AlgebraPresentation, dims: tuple[int, ...],
                 arrow_maps: tuple[Matrix, ...]) -> None:
        d = self.__dict__
        if "alg" in d:  # `__new__` returned the interned module
            return
        d["alg"], d["dims"], d["arrow_maps"] = alg, dims, arrow_maps
        self.validate()
        alg._modules()[dims, arrow_maps] = self

    @classmethod
    def _trusted(cls, alg: AlgebraPresentation, dims: tuple[int, ...],
                 arrow_maps: tuple[Matrix, ...]) -> "Module":
        """Unchecked constructor; the caller guarantees a valid module.
        Returns the interned module with these dims and maps if there is one."""
        table = alg._modules()
        key = (dims, arrow_maps)
        m = table.get(key)
        if m is None:
            m = _new(cls)
            d = m.__dict__
            d["alg"] = alg
            d["dims"] = dims
            d["arrow_maps"] = arrow_maps
            table[key] = m
        return m

    def __reduce__(self):
        # unpickling validates and interns in the unpickled algebra's table
        return Module, (self.alg, self.dims, self.arrow_maps)

    def validate(self) -> None:
        quiver = self.alg.quiver
        if len(self.dims) != quiver.vertex_count:
            raise ValueError("dimension vector length disagrees with vertex count")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if len(self.arrow_maps) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for a, m in zip(quiver.arrows, self.arrow_maps):
            if m.p != self.alg.p:
                raise ValueError("arrow matrix modulus disagrees with algebra")
            want = (self.dims[a.target - 1], self.dims[a.source - 1])
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"arrow {a.name!r} matrix is {m.rows}x{m.cols}, expected {want[0]}x{want[1]}"
                )
        for rel in self.relations_violated():
            raise ValueError(f"arrow maps do not satisfy relation on paths {rel.paths}")

    def relations_violated(self) -> list[Relation]:
        bad = []
        for rel in self.alg.relations:
            i, j = path_endpoints(self.alg.quiver, rel.paths[0])
            acc = Matrix.zeros(self.alg.p, self.dims[j - 1], self.dims[i - 1])
            for c, q in zip(rel.coeffs, rel.paths):
                acc = acc + self.path_action(q).scale(c)
            if not acc.is_zero:
                bad.append(rel)
        return bad

    def arrow_map(self, name: str) -> Matrix:
        for a, m in zip(self.alg.quiver.arrows, self.arrow_maps):
            if a.name == name:
                return m
        raise KeyError(name)

    def path_action(self, q: Path, at: int | None = None) -> Matrix:
        """Matrix of the path's action; `at` names the source vertex of a unit path."""
        if q:
            i, _ = path_endpoints(self.alg.quiver, q)
        elif at is not None:
            i = at
        else:
            raise ValueError("unit path action needs its vertex")
        m = Matrix.identity(self.alg.p, self.dims[i - 1])
        for name in q:
            m = self.arrow_map(name) @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def vertex_dim(self, v: int) -> int:
        return self.dims[v - 1]


def zero_module(alg: AlgebraPresentation) -> Module:
    n = alg.quiver.vertex_count
    return Module._trusted(alg, (0,) * n,
                           tuple(Matrix.zeros(alg.p, 0, 0) for _ in alg.quiver.arrows))


def simple_module(alg: AlgebraPresentation, v: int) -> Module:
    n = alg.quiver.vertex_count
    dims = tuple(1 if i == v - 1 else 0 for i in range(n))
    maps = tuple(
        Matrix.zeros(alg.p, dims[a.target - 1], dims[a.source - 1])
        for a in alg.quiver.arrows
    )
    return Module(alg, dims, maps)


def interval_module(alg: AlgebraPresentation, top: int, socle: int) -> Module:
    """Uniserial module supported on consecutive vertices top..socle.

    Requires a unique arrow v -> v+1 for each step; that arrow acts as the
    identity, everything else as zero.  This is the meaning of the
    composition-series labels like "2/3/4" used in input files.
    """
    if top > socle:
        raise ValueError("top vertex must not exceed socle vertex")
    quiver = alg.quiver
    if socle > quiver.vertex_count:
        raise ValueError("socle vertex out of range")
    step_arrows: dict[str, None] = {}
    for v in range(top, socle):
        cands = [a for a in quiver.arrows if a.source == v and a.target == v + 1]
        if len(cands) != 1:
            raise ValueError(f"no unique arrow {v} -> {v + 1}; interval label is ambiguous")
        step_arrows[cands[0].name] = None
    dims = tuple(1 if top <= v <= socle else 0 for v in range(1, quiver.vertex_count + 1))
    maps = []
    for a in quiver.arrows:
        r, c = dims[a.target - 1], dims[a.source - 1]
        if a.name in step_arrows:
            maps.append(Matrix.identity(alg.p, 1))
        else:
            maps.append(Matrix.zeros(alg.p, r, c))
    return Module(alg, dims, tuple(maps))


def projective_module(alg: AlgebraPresentation, v: int) -> Module:
    """The indecomposable projective at vertex v: its basis at vertex j is
    the reduced paths v -> j, and arrows act by right multiplication."""
    pb = path_basis(alg)
    quiver, p = alg.quiver, alg.p
    dims = tuple(pb.slot(v, j).dim for j in range(1, quiver.vertex_count + 1))
    maps = []
    for a in quiver.arrows:
        src_slot = pb.slot(v, a.source)
        tgt_slot = pb.slot(v, a.target)
        cols = [
            tgt_slot.reduce_path(q + (a.name,)).col_list(0)
            for q in src_slot.basis_paths
        ]
        if cols:
            maps.append(Matrix.from_rows(
                p, [[col[r] for col in cols] for r in range(tgt_slot.dim)],
                cols=len(cols)))
        else:
            maps.append(Matrix.zeros(p, tgt_slot.dim, 0))
    return Module(alg, dims, tuple(maps))


# -- morphisms ----------------------------------------------------------------


class ModMorphism(Frozen):
    """Module homomorphism: one matrix per vertex, every square commuting.

    The one stored form is `flat`: the vertex matrices' entries, vertex by
    vertex, each row-major.  That is the layout of the hom-space constraint
    matrix, so `flat` is also the morphism's hom coordinate vector.  `maps`,
    the vertex matrices, is a view of it built on first use; it serves
    `validate` and `map_at`.  Composites, ranks, kernels and cokernels read
    `flat` directly.

    The public constructor takes the vertex matrices and checks ends, shapes
    and squares; `ModMorphism._of` (from `flat`) and `_trusted` (from vertex
    matrices) skip that for morphisms that are valid by construction, and
    `validate` re-runs the full check.  The hash is kept once computed.
    """

    _fields = ("source", "target", "flat")

    def __init__(self, source: Module, target: Module, maps: tuple[Matrix, ...]) -> None:
        maps = tuple(maps)
        self.__dict__.update(source=source, target=target, maps=maps,
                             flat=tuple(x for m in maps for x in m.entries))
        self.validate()

    @classmethod
    def _of(cls, source: Module, target: Module,
            flat: tuple[int, ...]) -> "ModMorphism":
        """Unchecked constructor from `flat`; the caller guarantees a valid morphism."""
        f = _new(cls)
        d = f.__dict__
        d["source"] = source
        d["target"] = target
        d["flat"] = flat
        return f

    @classmethod
    def _trusted(cls, source: Module, target: Module,
                 maps: tuple[Matrix, ...]) -> "ModMorphism":
        """Unchecked constructor from vertex matrices, kept as the `maps` view."""
        f = cls._of(source, target, tuple(x for m in maps for x in m.entries))
        f.__dict__["maps"] = maps
        return f

    @cached_property
    def maps(self) -> tuple[Matrix, ...]:
        """The vertex matrices, cut out of `flat`."""
        if sum(map(mul, self.target.dims, self.source.dims)) != len(self.flat):
            raise ValueError("coordinate length mismatch")
        return tuple(_vertex_blocks(self))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not ModMorphism:
            return NotImplemented
        return (self.flat == other.flat and self.source is other.source
                and self.target is other.target)

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash((self.source, self.target, self.flat))
        return h

    def __getstate__(self) -> dict:
        # neither the hash (it covers modules, which hash by identity) nor the view
        return {"source": self.source, "target": self.target, "flat": self.flat}

    def validate(self) -> None:
        if self.source.alg is not self.target.alg:
            raise ValueError("morphism between modules over different algebras")
        nv = self.source.alg.quiver.vertex_count
        if len(self.maps) != nv:
            raise ValueError("one matrix per vertex required")
        for v in range(1, nv + 1):
            m = self.maps[v - 1]
            want = (self.target.vertex_dim(v), self.source.vertex_dim(v))
            if (m.rows, m.cols) != want:
                raise ValueError(f"vertex {v} matrix is {m.rows}x{m.cols}, expected {want}")
        for a in self.source.alg.quiver.arrows:
            lhs = self.maps[a.target - 1] @ self.source.arrow_map(a.name)
            rhs = self.target.arrow_map(a.name) @ self.maps[a.source - 1]
            if lhs != rhs:
                raise ValueError(f"square at arrow {a.name!r} does not commute")

    def map_at(self, v: int) -> Matrix:
        return self.maps[v - 1]

    def compose(self, other: "ModMorphism") -> "ModMorphism":
        """self after other (other first), by the index plan of their shape
        (`_compose_plan`): two gathers, one product per pair, and a sum of
        `width` products mod p per output entry."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        size, left, right, width = _compose_plan(
            self.target.dims, self.source.dims, other.source.dims)
        if left is None:
            return ModMorphism._of(other.source, self.target, (0,) * size)
        p = self.source.alg.p
        prods = map(mul, left((0,) + self.flat), right(other.flat))
        if width > 1:  # sum each run of `width` consecutive products
            prods = map(sum, zip(*[prods] * width))
        return ModMorphism._of(other.source, self.target,
                               tuple([x % p for x in prods]))

    def __add__(self, other: "ModMorphism") -> "ModMorphism":
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("sum of morphisms with different ends")
        p = self.source.alg.p
        return ModMorphism._of(self.source, self.target,
                               tuple((x + y) % p for x, y in zip(self.flat, other.flat)))

    def __neg__(self) -> "ModMorphism":
        p = self.source.alg.p
        return ModMorphism._of(self.source, self.target, tuple(-x % p for x in self.flat))

    def scale(self, c: int) -> "ModMorphism":
        p = self.source.alg.p
        c %= p
        return ModMorphism._of(self.source, self.target, tuple(c * x % p for x in self.flat))

    @property
    def is_zero(self) -> bool:
        return not any(self.flat)

    def vertex_ranks(self) -> tuple[int, ...]:
        """The rank of each vertex block, read from `flat`.  A block with at
        most one row or column has rank 1 iff it has a nonzero entry (as in
        `linalg.rank`); only larger blocks are row-reduced."""
        p, flat = self.source.alg.p, self.flat
        out, pos = [], 0
        for r, c in zip(self.target.dims, self.source.dims):
            end = pos + r * c
            if r <= 1 or c <= 1:
                out.append(1 if any(flat[pos:end]) else 0)
            else:
                out.append(rank(Matrix._trusted(p, r, c, flat[pos:end])))
            pos = end
        return tuple(out)

    @property
    def is_mono(self) -> bool:
        return self.vertex_ranks() == self.source.dims

    @property
    def is_epi(self) -> bool:
        return self.vertex_ranks() == self.target.dims

    @property
    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims == self.vertex_ranks()


@lru_cache(maxsize=4096)
def _compose_plan(tdims: tuple[int, ...], sdims: tuple[int, ...],
                  odims: tuple[int, ...]):
    """How `ModMorphism.compose` multiplies f: S -> T by g: O -> S, for the
    dimension vectors of T, S and O: (size, left, right, width).

    Output entry e (vertex blocks in order, each row-major) is the sum of
    the `width` products left(a)[e*width + t] * right(b)[e*width + t],
    where a is (0,) + f.flat and b is g.flat.  `width` is the largest inner
    dimension among the vertices with output entries; an entry with fewer
    terms, or none, is padded with products a[0] * b[0] = 0.  `left` is
    None when every entry is zero.  The plan holds ints and itemgetters
    only: one plan per shape, however many modules share it.
    """
    shape = tuple(zip(tdims, sdims, odims))
    size = sum(n * m for n, _, m in shape)
    width = max((k for n, k, m in shape if n and m), default=0)
    if not width:
        return size, None, None, 0
    if size == 1:
        width = max(width, 2)  # an itemgetter of one index returns a bare int
    left, right = [], []
    i, j = 1, 0
    for n, k, m in shape:
        pad = [0] * (width - k)
        for r in range(n):
            row = [*range(i + r * k, i + (r + 1) * k), *pad]
            for c in range(j, j + m):
                left += row
                right += range(c, c + k * m, m)
                right += pad
        i += n * k
        j += k * m
    return size, itemgetter(*left), itemgetter(*right), width


def identity_morphism(m: Module) -> ModMorphism:
    """The identity of m, built once and kept on m (`Module.__reduce__`
    does not pickle it)."""
    d = m.__dict__
    ident = d.get("_identity")
    if ident is None:
        flat: list[int] = []
        for k in m.dims:
            blk = [0] * (k * k)
            blk[::k + 1] = [1] * k
            flat += blk
        ident = d["_identity"] = ModMorphism._of(m, m, tuple(flat))
    return ident


def zero_morphism(src: Module, tgt: Module) -> ModMorphism:
    if src.alg is not tgt.alg:
        raise ValueError("morphism between modules over different algebras")
    return ModMorphism._of(src, tgt, (0,) * sum(map(mul, tgt.dims, src.dims)))


def combine(src: Module, tgt: Module, basis: Sequence[ModMorphism],
            coeffs: Sequence[int]) -> ModMorphism:
    """The morphism sum_k coeffs[k] * basis[k] in Hom(src, tgt).

    One pass over the `flat` vectors of the terms with a nonzero
    coefficient; no intermediate morphisms are built.  A single term with
    coefficient 1 shares its basis vector's `flat`.
    """
    p = src.alg.p
    terms = [(c % p, b.flat) for c, b in zip(coeffs, basis) if c % p]
    if not terms:
        return zero_morphism(src, tgt)
    if len(terms) == 1 and terms[0][0] == 1:
        return ModMorphism._of(src, tgt, terms[0][1])
    cs = [c for c, _ in terms]
    return ModMorphism._of(src, tgt, tuple(
        sum(map(mul, cs, col)) % p for col in zip(*(f for _, f in terms))))


def hom_coords(phi: ModMorphism) -> Matrix:
    """phi's `flat` vector as a column: its coordinates in the layout of the
    hom-space constraint matrix."""
    return Matrix._trusted(phi.source.alg.p, len(phi.flat), 1, phi.flat)


def _hom_constraint_matrix(src: Module, tgt: Module) -> Matrix:
    """Linear conditions on vec(phi) expressing all commuting squares."""
    p = src.alg.p
    nv = len(src.dims)
    offsets = []
    pos = 0
    for v in range(1, nv + 1):
        offsets.append(pos)
        pos += tgt.vertex_dim(v) * src.vertex_dim(v)
    total = pos
    rows: list[list[int]] = []
    for a in src.alg.quiver.arrows:
        sv, tv = a.source, a.target
        ms, mt = src.arrow_map(a.name), tgt.arrow_map(a.name)
        # equation entries: (phi_tv @ ms - mt @ phi_sv)[i, j] = 0
        for i in range(tgt.vertex_dim(tv)):
            for j in range(src.vertex_dim(sv)):
                row = [0] * total
                for k in range(src.vertex_dim(tv)):
                    row[offsets[tv - 1] + i * src.vertex_dim(tv) + k] = ms.at(k, j)
                for l in range(tgt.vertex_dim(sv)):
                    idx = offsets[sv - 1] + l * src.vertex_dim(sv) + j
                    row[idx] = (row[idx] - mt.at(i, l)) % p
                rows.append(row)
    if not rows:
        return Matrix.zeros(p, 0, total)
    return Matrix.from_rows(p, rows, cols=total)


class _HomBasis(tuple):
    """A `hom_basis` result: the basis morphisms, plus what reads coordinates.

    The basis vectors are `kernel_basis` vectors of the constraint matrix, so
    a morphism's coordinates are its entries at the free columns `free`.
    `pivots` lists, for every other entry position, the basis elements
    nonzero there with their values; a vector with those coordinates is in
    the span iff every such entry is the matching combination.  `read` maps
    the `flat` of each morphism read so far to its coordinate column; it
    holds only morphisms in the span, at most p^dim of them, and dies with
    the basis.
    """

    free: tuple[int, ...]
    pivots: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    read: dict[tuple[int, ...], Matrix]


@lru_cache(maxsize=None)
def hom_basis(src: Module, tgt: Module) -> tuple[ModMorphism, ...]:
    """Deterministic basis of Hom(src, tgt); each basis morphism's `flat` is
    a `kernel_basis` vector of the constraint matrix, taken as it is."""
    basis = kernel_basis(_hom_constraint_matrix(src, tgt))
    out = _HomBasis(ModMorphism._of(src, tgt, v.entries) for v in basis)
    cols = [v.entries for v in basis]
    # kernel_basis puts each vector's free column at its last nonzero entry
    out.free = tuple(max(i for i, x in enumerate(col) if x) for col in cols)
    free = set(out.free)
    out.pivots = tuple(
        (i, tuple((k, col[i]) for k, col in enumerate(cols) if col[i]))
        for i in range(len(cols[0]) if cols else 0) if i not in free)
    out.read = {}
    return out


def hom_dim(src: Module, tgt: Module) -> int:
    return len(hom_basis(src, tgt))


def enumerate_hom(src: Module, tgt: Module) -> list[ModMorphism]:
    """Every element of Hom(src, tgt), zero first, in coordinate order."""
    basis = hom_basis(src, tgt)
    return [combine(src, tgt, basis, v.entries)
            for v in enumerate_vectors(src.alg.p, len(basis))]


def morphism_in_coords(phi: ModMorphism, basis: Sequence[ModMorphism]) -> Matrix:
    """Express phi in the given hom basis (raises if it is outside the span).

    A basis from `hom_basis` gives the coordinates as the entries of
    `phi.flat` at its free columns, checked against the other entries, and
    keeps the column in its `read` table, so each distinct morphism is read
    once per basis and later calls share that column.  A morphism outside
    the span raises every time; nothing is stored for it.  Any other basis
    is solved for.
    """
    p = phi.source.alg.p
    if not basis:
        if phi.is_zero:
            return Matrix.zeros(p, 0, 1)
        raise ValueError("nonzero morphism in zero hom space")
    if basis.__class__ is not _HomBasis:
        mat = from_columns(p, len(phi.flat), [b.flat for b in basis])
        return solve_unique(mat, hom_coords(phi))
    vals = phi.flat
    column = basis.read.get(vals)
    if column is not None:
        return column
    if len(vals) != len(basis.free) + len(basis.pivots):
        raise ValueError("incompatible right-hand side")
    coords = [vals[i] for i in basis.free]
    for i, terms in basis.pivots:
        if sum(coords[k] * x for k, x in terms) % p != vals[i]:
            raise ValueError("inconsistent linear system")
    column = basis.read[vals] = Matrix._trusted(p, len(coords), 1, tuple(coords))
    return column


# -- sums, kernels, images ----------------------------------------------------


def sum_module(parts: Sequence[Module]) -> Module:
    """The direct sum module alone, without inclusions or projections.

    Each arrow map is the block diagonal of the parts' maps, written entry
    by entry, once per tuple of parts: the algebra's sum table
    (`AlgebraPresentation._sums`) keeps each sum while it lives.  A sum of
    two or more nonzero parts records them as its `_parts`, which
    `Subcategory.summand_multiset` reads instead of decomposing it.  A sum
    with fewer nonzero parts is one of its parts (or zero) and stays out of
    the table, where its own key would keep it alive.
    """
    if not parts:
        raise ValueError("direct sum of nothing; use zero_module")
    parts = tuple(parts)
    alg = parts[0].alg
    sums = alg._sums()
    got = sums.get(parts)
    if got is not None:
        return got
    p = alg.p
    arrows = alg.quiver.arrows
    dims = tuple(map(sum, zip(*(m.dims for m in parts))))
    maps = []
    for k, a in enumerate(arrows):
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        entries = [0] * (rows * cols)
        r0 = c0 = 0
        for m in parts:
            blk = m.arrow_maps[k]
            br, bc = blk.rows, blk.cols
            for i in range(br):
                at = (r0 + i) * cols + c0
                entries[at:at + bc] = blk.entries[i * bc:(i + 1) * bc]
            r0 += br
            c0 += bc
        maps.append(Matrix._trusted(p, rows, cols, tuple(entries)))
    total = Module._trusted(alg, dims, tuple(maps))
    nonzero = sum(not m.is_zero for m in parts)
    if nonzero >= 2:
        sums[parts] = total
        if nonzero == len(parts):
            total.__dict__.setdefault("_parts", parts)
    return total


def direct_sum(parts: Sequence[Module]) -> tuple[Module, list[ModMorphism], list[ModMorphism]]:
    """Direct sum with its inclusions and projections.

    The inclusion of a part at a vertex is an identity block between zero
    rows (its projection, the transpose).
    """
    total = sum_module(parts)
    dims = total.dims
    incls, projs = [], []
    offsets = [0] * len(dims)
    for m in parts:
        inc, prj = [], []
        for v, (d, big) in enumerate(zip(m.dims, dims)):
            off = offsets[v]
            blk_inc = [0] * (big * d)
            blk_prj = [0] * (d * big)
            for i in range(d):
                blk_inc[(off + i) * d + i] = 1
                blk_prj[i * big + off + i] = 1
            inc += blk_inc
            prj += blk_prj
            offsets[v] = off + d
        incls.append(ModMorphism._of(m, total, tuple(inc)))
        projs.append(ModMorphism._of(total, m, tuple(prj)))
    return total, incls, projs


def _vertex_blocks(phi: ModMorphism) -> list[Matrix]:
    """phi's vertex blocks cut out of `flat`; unlike the `maps` view, they
    are not kept on phi."""
    p, flat = phi.source.alg.p, phi.flat
    out, pos = [], 0
    for r, c in zip(phi.target.dims, phi.source.dims):
        out.append(Matrix._trusted(p, r, c, flat[pos:pos + r * c]))
        pos += r * c
    return out


def kernel_module(phi: ModMorphism) -> tuple[Module, ModMorphism]:
    """Kernel with its inclusion."""
    alg = phi.source.alg
    kbases = []
    for blk in _vertex_blocks(phi):
        kb = kernel_basis(blk)
        kbases.append(hstack(kb) if kb else Matrix.zeros(alg.p, blk.cols, 0))
    dims = tuple(kb.cols for kb in kbases)
    maps = []
    for a in alg.quiver.arrows:
        img = phi.source.arrow_map(a.name) @ kbases[a.source - 1]
        maps.append(solve_unique(kbases[a.target - 1], img))
    ker = Module._trusted(alg, dims, tuple(maps))
    incl = ModMorphism._trusted(ker, phi.source, tuple(kbases))
    return ker, incl


def cokernel_module(phi: ModMorphism) -> tuple[Module, ModMorphism]:
    """Cokernel with the quotient projection: at each vertex, the quotient
    by the column span of phi's block (`column_quotient`)."""
    alg = phi.source.alg
    projs, sects = zip(*map(column_quotient, _vertex_blocks(phi)))
    dims = tuple(pr.rows for pr in projs)
    maps = []
    for a in alg.quiver.arrows:
        maps.append(projs[a.target - 1] @ phi.target.arrow_map(a.name) @ sects[a.source - 1])
    cok = Module._trusted(alg, dims, tuple(maps))
    return cok, ModMorphism._trusted(phi.target, cok, projs)


def radical_inclusion(m: Module) -> tuple[Module, ModMorphism]:
    """rad M = sum of images of all arrow actions, with its inclusion."""
    alg = m.alg
    p = alg.p
    nv = alg.quiver.vertex_count
    rbases = []
    for v in range(1, nv + 1):
        incoming = [m.arrow_map(a.name) for a in alg.quiver.arrows_into(v)]
        stacked = hstack(incoming) if incoming else Matrix.zeros(p, m.vertex_dim(v), 0)
        cb = column_space_basis(stacked)
        rbases.append(hstack(cb) if cb else Matrix.zeros(p, m.vertex_dim(v), 0))
    dims = tuple(rb.cols for rb in rbases)
    maps = []
    for a in alg.quiver.arrows:
        img = m.arrow_map(a.name) @ rbases[a.source - 1]
        # arrow images land in the radical, so this solve is consistent
        maps.append(solve_unique(rbases[a.target - 1], img))
    rad = Module._trusted(alg, dims, tuple(maps))
    return rad, ModMorphism._trusted(rad, m, tuple(rbases))


def projective_cover(m: Module) -> ModMorphism:
    """Epimorphism from a minimal projective onto m (kernel inside the radical)."""
    alg = m.alg
    p = alg.p
    nv = alg.quiver.vertex_count
    if m.is_zero:
        return zero_morphism(zero_module(alg), m)
    rad, rincl = radical_inclusion(m)
    parts: list[Module] = []
    lifts: list[tuple[int, Matrix]] = []  # (vertex, chosen lift column)
    for v in range(1, nv + 1):
        proj, sect = column_quotient(rincl.map_at(v))
        for t in range(proj.rows):
            parts.append(projective_module(alg, v))
            lifts.append((v, sect.column_at(t)))
    cover, incls, _ = direct_sum(parts)
    pb = path_basis(alg)
    maps = []
    for w in range(1, nv + 1):
        cols: list[list[int]] = []
        for v, lift in lifts:
            for q in pb.slot(v, w).basis_paths:
                cols.append((m.path_action(q, at=v) @ lift).col_list(0))
        if cols:
            maps.append(Matrix.from_rows(
                p, [[col[r] for col in cols] for r in range(m.vertex_dim(w))],
                cols=len(cols)))
        else:
            maps.append(Matrix.zeros(p, m.vertex_dim(w), 0))
    phi = ModMorphism(cover, m, tuple(maps))
    if not phi.is_epi:
        raise RuntimeError("projective cover construction failed to be surjective")
    return phi


# -- Krull-Schmidt by rank -----------------------------------------------------


def _pairing_rank(m: Module, g: Module) -> int:
    """The rank of the composition pairing Hom(m, g) x Hom(g, m) -> End(g),
    (u, v) -> u v, for a brick g (End(g) = F_p).  Each composite is a
    scalar times the identity of g, read at its first entry: row 0 of u
    times column 0 of v at g's first nonzero vertex."""
    us, vs = hom_basis(m, g), hom_basis(g, m)
    if not (us and vs):
        return 0
    p = m.alg.p
    at = next(i for i, k in enumerate(g.dims) if k)
    d, e = m.dims[at], g.dims[at]
    # both blocks at vertex `at` start after the same earlier blocks
    off = sum(map(mul, m.dims[:at], g.dims[:at]))
    cols = [v.flat[off:off + d * e:e] for v in vs]
    return rank(Matrix._trusted(p, len(us), len(cols), tuple(
        sum(map(mul, u.flat[off:off + d], c)) % p for u in us for c in cols)))


def decompose(m: Module, bricks: Sequence[Module]) -> tuple[int, ...] | None:
    """Krull-Schmidt by rank: how often each brick is a summand of m, or None
    when m has a summand that is none of them.

    The bricks must be pairwise non-isomorphic, each with End = F_p
    (`Subcategory` checks both).  A brick's multiplicity in m is then the
    rank of its pairing (`_pairing_rank`; Auslander-Reiten-Smalø,
    "Representation theory of Artin algebras"), and m is the sum of the
    bricks with these multiplicities exactly when their dimension vectors
    add up to m's.  A brick that does not fit in m's dimension vector
    counts 0 without a hom space."""
    counts = tuple(
        0 if any(x > y for x, y in zip(g.dims, m.dims)) else _pairing_rank(m, g)
        for g in bricks)
    covered = tuple(sum(c * g.dims[v] for c, g in zip(counts, bricks))
                    for v in range(len(m.dims)))
    return counts if covered == m.dims else None


def is_isomorphic(a: Module, b: Module) -> bool:
    """Whether a is isomorphic to the brick b: they share a dimension
    vector and b is a summand of a.  So two bricks are isomorphic exactly
    when their pairing is nonzero."""
    return a.dims == b.dims and _pairing_rank(a, b) > 0


# -- resolutions and Ext -------------------------------------------------------


class Resolution(Record):
    """Projective resolution P_len -> ... -> P_0 -> M (diffs[k]: P_k -> P_{k-1})."""

    _fields = ("module", "terms", "diffs", "augmentation")

    def __init__(self, module: Module, terms: list[Module],
                 diffs: list[ModMorphism], augmentation: ModMorphism) -> None:
        self.module = module
        self.terms = terms
        self.diffs = diffs                  # index k >= 1
        self.augmentation = augmentation    # P_0 -> M


@lru_cache(maxsize=None)
def resolution(m: Module, length: int) -> Resolution:
    aug = projective_cover(m)
    terms = [aug.source]
    diffs: list[ModMorphism] = [zero_morphism(zero_module(m.alg), zero_module(m.alg))]
    prev_cover = aug
    for _ in range(length):
        ker, kincl = kernel_module(prev_cover)
        cover = projective_cover(ker)
        terms.append(cover.source)
        diffs.append(kincl.compose(cover))
        prev_cover = cover
    return Resolution(m, terms, diffs, aug)


def _precompose_matrix(d: ModMorphism, src_basis: Sequence[ModMorphism],
                       tgt_basis: Sequence[ModMorphism]) -> Matrix:
    """Matrix of phi -> phi . d between hom spaces in the given bases."""
    return from_columns(d.source.alg.p, len(tgt_basis),
                        [morphism_in_coords(phi.compose(d), tgt_basis).entries
                         for phi in src_basis])


class ExtSpace:
    """Ext^n(C, A) with chosen coordinates.

    Elements are classes of cocycles P_n -> A for the cached minimal
    resolution of C.  The coordinate choice (and hence every ExtElement's
    coords) is reproducible.
    """

    def __init__(self, alg: AlgebraPresentation, n: int, end_C: Module, end_A: Module):
        if n < 1:
            raise ValueError("Ext degree must be positive")
        self.alg = alg
        self.n = n
        self.end_C = end_C
        self.end_A = end_A
        res = resolution(end_C, n + 1)
        self.res = res
        self.hom_n = hom_basis(res.terms[n], end_A)
        hom_n1 = hom_basis(res.terms[n + 1], end_A)
        hom_n_1 = hom_basis(res.terms[n - 1], end_A)
        d_next = _precompose_matrix(res.diffs[n + 1], self.hom_n, hom_n1)
        self._cocycle_basis = kernel_basis(d_next)
        zmat = hstack(self._cocycle_basis) if self._cocycle_basis else Matrix.zeros(
            alg.p, len(self.hom_n), 0)
        self._zmat = zmat
        bd_cols = []
        d_here = _precompose_matrix(res.diffs[n], hom_n_1, self.hom_n)
        for j in range(d_here.cols):
            col = d_here.column_at(j)
            bd_cols.append(solve_unique(zmat, col))
        self._proj, self._sect = quotient_with_section(alg.p, zmat.cols, bd_cols)

    @property
    def dim(self) -> int:
        return self._proj.rows

    def element(self, coords: Sequence[int] | Matrix) -> "ExtElement":
        if isinstance(coords, Matrix):
            col = coords
        else:
            col = Matrix.column(self.alg.p, list(coords))
        if col.rows != self.dim or col.cols != 1:
            raise ValueError(f"coords must be a {self.dim}-vector")
        return ExtElement(self.n, self.end_C, self.end_A, col)

    def cocycle(self, coords: Matrix) -> ModMorphism:
        """The representing cocycle P_n -> A of the class with these
        coordinates: the section's lift of the class into the cocycles."""
        hom_vec = self._zmat @ (self._sect @ coords) if self.dim else Matrix.zeros(
            self.alg.p, len(self.hom_n), 1)
        return combine(self.res.terms[self.n], self.end_A, self.hom_n,
                       hom_vec.entries)

    def zero(self) -> "ExtElement":
        return self.element([0] * self.dim)

    def basis(self) -> list["ExtElement"]:
        return list(self._basis)

    @cached_property
    def _basis(self) -> tuple["ExtElement", ...]:
        # built once, so each basis class computes its cocycle once
        return tuple(self.element([1 if i == k else 0 for i in range(self.dim)])
                     for k in range(self.dim))

    def class_of_cocycle(self, cocycle: ModMorphism) -> "ExtElement":
        return self.element(self._class_coords(cocycle))

    def _class_coords(self, cocycle: ModMorphism) -> Matrix:
        """The coordinates of a cocycle's class, without building the class."""
        if cocycle.source != self.res.terms[self.n] or cocycle.target != self.end_A:
            raise ValueError("cocycle has wrong ends for this Ext space")
        hom_vec = morphism_in_coords(cocycle, self.hom_n)
        z = solve_unique(self._zmat, hom_vec) if self._zmat.cols else Matrix.zeros(
            self.alg.p, 0, 1)
        return self._proj @ z

    def all_elements(self) -> list["ExtElement"]:
        return [self.element(v) for v in enumerate_vectors(self.alg.p, self.dim)]


class ExtElement(Value):
    """Class in Ext^n(end_C, end_A), given by its coordinates: equality and
    hash read the degree, the ends and `coords` only.  The representing
    `cocycle` is computed by the class's `ExtSpace` the first time it is
    read, and kept."""

    _fields = ("n", "end_C", "end_A", "coords")

    def __init__(self, n: int, end_C: Module, end_A: Module,
                 coords: Matrix) -> None:
        self.__dict__.update(n=n, end_C=end_C, end_A=end_A, coords=coords)

    @cached_property
    def cocycle(self) -> ModMorphism:
        return ext_group(self.end_C.alg, self.n, self.end_C,
                         self.end_A).cocycle(self.coords)

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash((self.n, self.end_C, self.end_A, self.coords))
        return h

    def __getstate__(self) -> dict:
        # the fields only: the hash covers modules, which hash by identity,
        # and the cocycle is computed again when read
        return {f: self.__dict__[f] for f in self._fields}

    @property
    def is_zero(self) -> bool:
        return self.coords.is_zero

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if (self.n, self.end_C, self.end_A) != (other.n, other.end_C, other.end_A):
            raise ValueError("sum of extension classes with different ends")
        space = ext_group(self.end_C.alg, self.n, self.end_C, self.end_A)
        return space.element(self.coords + other.coords)

    def __neg__(self) -> "ExtElement":
        space = ext_group(self.end_C.alg, self.n, self.end_C, self.end_A)
        return space.element(-self.coords)


@lru_cache(maxsize=None)
def ext_group(alg: AlgebraPresentation, n: int, end_C: Module, end_A: Module) -> ExtSpace:
    return ExtSpace(alg, n, end_C, end_A)


@lru_cache(maxsize=None)
def _chain_lift(end_Cp: Module, end_C: Module, hom_index: int, n: int) -> tuple[ModMorphism, ...]:
    """Chain map res(end_Cp) -> res(end_C) over the hom basis element."""
    c = hom_basis(end_Cp, end_C)[hom_index]
    res_p = resolution(end_Cp, n + 1)
    res_c = resolution(end_C, n + 1)
    lifts: list[ModMorphism] = []
    # u_0 with aug . u_0 = c . aug'
    target = c.compose(res_p.augmentation)
    u0 = _solve_postcompose(res_c.augmentation, res_p.terms[0], target)
    lifts.append(u0)
    for k in range(1, n + 1):
        rhs = lifts[k - 1].compose(res_p.diffs[k])
        uk = _solve_postcompose(res_c.diffs[k], res_p.terms[k], rhs)
        lifts.append(uk)
    return tuple(lifts)


def _solve_postcompose(f: ModMorphism, src: Module, rhs: ModMorphism) -> ModMorphism:
    """One morphism u: src -> f.source with f . u = rhs."""
    basis = hom_basis(src, f.source)
    p = src.alg.p
    if not basis:
        if rhs.is_zero:
            return zero_morphism(src, f.source)
        raise ValueError("no candidates for lifting problem")
    mat = from_columns(p, len(rhs.flat), [f.compose(b).flat for b in basis])
    sol = rref_solve(mat, hom_coords(rhs))
    if sol is None:
        raise ValueError("lifting problem has no solution")
    return combine(src, f.source, basis, sol.entries)


def push_forward(delta: ExtElement, a: ModMorphism) -> ExtElement:
    """a_* delta for a: end_A -> B, computed on cocycles."""
    if a.source != delta.end_A:
        raise ValueError("pushforward morphism must start at the extension's A end")
    space = ext_group(delta.end_C.alg, delta.n, delta.end_C, a.target)
    return space.class_of_cocycle(a.compose(delta.cocycle))


def pull_back(delta: ExtElement, c: ModMorphism) -> ExtElement:
    """c^* delta for c: Cp -> end_C, computed via a comparison chain lift."""
    if c.target != delta.end_C:
        raise ValueError("pullback morphism must end at the extension's C end")
    alg = delta.end_C.alg
    basis = hom_basis(c.source, delta.end_C)
    coords = morphism_in_coords(c, basis)
    space = ext_group(alg, delta.n, c.source, delta.end_A)
    total = Matrix.zeros(alg.p, space.dim, 1)
    for idx, coeff in enumerate(coords.entries):
        if coeff:
            lift_n = _chain_lift(c.source, delta.end_C, idx, delta.n)[delta.n]
            part = space._class_coords(delta.cocycle.compose(lift_n))
            total = total + part.scale(coeff)
    return space.element(total)


def _is_exact_sequence(mods: Sequence[Module], maps: Sequence[ModMorphism]) -> bool:
    """Exactness of 0 -> mods[0] -> ... -> mods[-1] -> 0 via the given maps.

    Once consecutive composites vanish, the image of each map lies in the
    kernel of the next, so the sequence is exact at a vertex v of X_k
    exactly when rank(d_{k-1})_v + rank(d_k)_v = dim(X_k)_v, with zero maps
    before X_0 and after the last term (this also says the first map is
    mono and the last one epi).  Each vertex map is ranked once.
    """
    if len(maps) != len(mods) - 1:
        raise ValueError("need one map per consecutive pair")
    for f, g in zip(maps, maps[1:]):
        if not g.compose(f).is_zero:
            return False
    before = (0,) * len(mods[0].dims)
    for k, m in enumerate(mods):
        after = maps[k].vertex_ranks() if k < len(maps) else (0,) * len(m.dims)
        if tuple(map(add, before, after)) != m.dims:
            return False
        before = after
    return True


def yoneda_class(mods: Sequence[Module], maps: Sequence[ModMorphism]) -> ExtElement:
    """Class in Ext^n(C, A) of an exact sequence A -> Z_1 -> ... -> Z_n -> C.

    The input lists the n+2 modules and the n+1 maps between them; it must be
    exact as modules (mono at the left end, epi at the right end).  The class
    is computed by lifting the identity of C through a projective resolution.
    """
    n = len(mods) - 2
    if n < 1:
        raise ValueError("sequence too short")
    if not _is_exact_sequence(mods, maps):
        raise ValueError("sequence is not exact as modules")
    end_A, end_C = mods[0], mods[-1]
    alg = end_A.alg
    res = resolution(end_C, n + 1)
    # phi_0: P_0 -> Z_n over the identity of C
    phi = _solve_postcompose(maps[-1], res.terms[0], res.augmentation)
    for k in range(1, n):
        rhs = phi.compose(res.diffs[k])
        phi = _solve_postcompose(maps[n - k], res.terms[k], rhs)
    # final step: maps[0] : A -> Z_1 is mono; phi_n satisfies maps[0] . phi_n = phi_{n-1} d_n
    rhs = phi.compose(res.diffs[n])
    phi_n = _solve_postcompose(maps[0], res.terms[n], rhs)
    space = ext_group(alg, n, end_C, end_A)
    return space.class_of_cocycle(phi_n)
