"""Morphism arithmetic vertex by vertex, one `Matrix` per vertex, kept as the
reference that the operations of `quiver.ModMorphism` on its flat entry
vector are tested against.

Each function returns the vertex matrices of its result, which the public
constructor `ModMorphism(source, target, maps)` turns into a validated
morphism.
"""

from exangulate.linalg import Matrix


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
