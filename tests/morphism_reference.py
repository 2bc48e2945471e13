"""Morphism arithmetic vertex by vertex, one `Matrix` per vertex, kept as the
reference that the operations of `quiver.ModMorphism` on its flat entry
vector are tested against.

Each arithmetic function returns the vertex matrices of its result, which
the public constructor `ModMorphism(source, target, maps)` turns into a
validated morphism.  The ranks, the three predicates and the kernel and
cokernel read the `maps` view, as `quiver` did before it read `flat`.
"""

from decompose_reference import is_invertible
from exangulate.linalg import (Matrix, hstack, kernel_basis,
                               quotient_with_section, rank, solve_unique)
from exangulate.quiver import ModMorphism, Module


def compose(g, f):
    """g after f (f first)."""
    return tuple(a @ b for a, b in zip(g.maps, f.maps))


def add(f, g):
    return tuple(a + b for a, b in zip(f.maps, g.maps))


def neg(f):
    return tuple(-a for a in f.maps)


def scale(f, c):
    return tuple(a.scale(c) for a in f.maps)


def identity(m):
    return tuple(Matrix.identity(m.alg.p, d) for d in m.dims)


def zero(src, tgt):
    return tuple(Matrix.zeros(src.alg.p, r, c) for r, c in zip(tgt.dims, src.dims))


def combine(src, tgt, basis, coeffs):
    """sum_k coeffs[k] * basis[k], one vertex matrix at a time."""
    out = zero(src, tgt)
    for c, b in zip(coeffs, basis):
        out = tuple(o + m.scale(c) for o, m in zip(out, b.maps))
    return out


def vertex_ranks(f):
    return tuple(rank(m) for m in f.maps)


def is_mono(f):
    return all(rank(m) == m.cols for m in f.maps)


def is_epi(f):
    return all(rank(m) == m.rows for m in f.maps)


def is_iso(f):
    return all(is_invertible(m) for m in f.maps)


def kernel_module(phi):
    """Kernel with its inclusion."""
    alg = phi.source.alg
    p = alg.p
    nv = alg.quiver.vertex_count
    kbases = []
    for v in range(1, nv + 1):
        kb = kernel_basis(phi.map_at(v))
        kbases.append(hstack(kb) if kb else Matrix.zeros(p, phi.source.vertex_dim(v), 0))
    dims = tuple(kb.cols for kb in kbases)
    maps = []
    for a in alg.quiver.arrows:
        img = phi.source.arrow_map(a.name) @ kbases[a.source - 1]
        maps.append(solve_unique(kbases[a.target - 1], img))
    ker = Module._trusted(alg, dims, tuple(maps))
    incl = ModMorphism._trusted(ker, phi.source, tuple(kbases))
    return ker, incl


def cokernel_module(phi):
    """Cokernel with the quotient projection."""
    alg = phi.source.alg
    p = alg.p
    nv = alg.quiver.vertex_count
    projs, sects = [], []
    for v in range(1, nv + 1):
        cols = [phi.map_at(v).column_at(j) for j in range(phi.map_at(v).cols)]
        proj, sect = quotient_with_section(p, phi.target.vertex_dim(v), cols)
        projs.append(proj)
        sects.append(sect)
    dims = tuple(pr.rows for pr in projs)
    maps = []
    for a in alg.quiver.arrows:
        maps.append(projs[a.target - 1] @ phi.target.arrow_map(a.name) @ sects[a.source - 1])
    cok = Module._trusted(alg, dims, tuple(maps))
    return cok, ModMorphism._trusted(phi.target, cok, tuple(projs))
