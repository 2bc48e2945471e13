"""Decomposition and isomorphism by search, kept as the reference that
`Subcategory.summand_multiset`'s rank count (`quiver.decompose`) is tested
against.

`decompose` splits a module along idempotents of its endomorphism algebra:
found by exhaustive search while End(M) has dimension <= 6 (which certifies
indecomposability), else by Fitting splitting of seeded random
endomorphisms, falling back to exhaustive search while p^dim stays within a
fixed budget.  `isomorphism_between` tries random combinations of a hom
basis, then all of them while the space is small.  Past a budget both raise
`BoundExceeded`.  `image_module` and `inverse` are used by these searches
and the tests alone.
"""

from __future__ import annotations

import random
from typing import Sequence

from exangulate.linalg import (
    Matrix,
    column_space_basis,
    enumerate_vectors,
    hstack,
    is_invertible,
    rank,
    rref_solve,
    solve_unique,
)
from exangulate.quiver import (
    BoundExceeded,
    ModMorphism,
    Module,
    combine,
    hom_basis,
    identity_morphism,
    kernel_module,
)

DECOMPOSE_END_ENUM_LIMIT = 6  # End(M) dimension up to which idempotents are enumerated
DECOMPOSE_FITTING_TRIES = 24
DECOMPOSE_FALLBACK_ENUM = 4096


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ValueError("only square matrices invert")
    x = rref_solve(m, Matrix.identity(m.p, m.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def image_module(phi: ModMorphism) -> tuple[Module, ModMorphism, ModMorphism]:
    """Image with inclusion into the target and corestriction from the source."""
    alg = phi.source.alg
    p = alg.p
    nv = alg.quiver.vertex_count
    ibases = []
    for v in range(1, nv + 1):
        cb = column_space_basis(phi.map_at(v))
        ibases.append(hstack(cb) if cb else Matrix.zeros(p, phi.target.vertex_dim(v), 0))
    dims = tuple(ib.cols for ib in ibases)
    maps = []
    for a in alg.quiver.arrows:
        img = phi.target.arrow_map(a.name) @ ibases[a.source - 1]
        maps.append(solve_unique(ibases[a.target - 1], img))
    im = Module._trusted(alg, dims, tuple(maps))
    incl = ModMorphism._trusted(im, phi.target, tuple(ibases))
    corestrict = ModMorphism._trusted(phi.source, im,
                                      tuple(solve_unique(ib, phi.map_at(v + 1))
                                            for v, ib in enumerate(ibases)))
    return im, incl, corestrict



def _split_by_idempotent(m: Module, e: ModMorphism) -> list[tuple[Module, ModMorphism, ModMorphism]]:
    """Split m along an idempotent endomorphism into [im e, im (1-e)]."""
    out = []
    for idem in (e, identity_morphism(m) + (-e)):
        im, incl, corestrict = image_module(idem)
        # retraction: the corestriction restricted along incl is the identity
        out.append((im, incl, corestrict))
    return out


def _find_idempotent(m: Module, basis: Sequence[ModMorphism]) -> ModMorphism | None:
    ident = identity_morphism(m)
    for v in enumerate_vectors(m.alg.p, len(basis)):
        phi = combine(m, m, basis, v.entries)
        if phi.is_zero or phi == ident:
            continue
        if phi.compose(phi) == phi:
            return phi
    return None


def _fitting_split(m: Module, rng: random.Random,
                   basis: Sequence[ModMorphism]) -> ModMorphism | None:
    """Try to find an idempotent via stable kernel/image of a random endomorphism."""
    p = m.alg.p
    d = m.total_dim
    for _ in range(DECOMPOSE_FITTING_TRIES):
        phi = combine(m, m, basis, [rng.randrange(p) for _ in basis])
        power = phi
        for _ in range(max(d.bit_length(), 1)):
            power = power.compose(power)
        rank_total = sum(rank(mm) for mm in power.maps)
        if 0 < rank_total < d:
            # idempotent projecting onto the stable image: solve e on im + ker
            im, incl, core = image_module(power)
            ker, kincl = kernel_module(power)
            maps = []
            ok = True
            for v in range(1, len(m.dims) + 1):
                joint = hstack([incl.map_at(v), kincl.map_at(v)])
                if not is_invertible(joint):
                    ok = False
                    break
                inv = inverse(joint)
                sel = incl.map_at(v) @ Matrix(
                    p, im.vertex_dim(v), joint.cols,
                    tuple(inv.entries[: im.vertex_dim(v) * joint.cols]))
                maps.append(sel)
            if ok:
                return ModMorphism(m, m, tuple(maps))
    return None


def decompose(m: Module) -> list[tuple[Module, ModMorphism, ModMorphism]]:
    """Indecomposable summands with inclusion and projection morphisms.

    End(M) of dimension <= 6 is searched exhaustively for idempotents (so
    indecomposability is certified); larger endomorphism algebras use
    Fitting splitting seeded with 0, falling back to exhaustive search while
    p^dim stays within a fixed budget.  Summands are sorted by decreasing total dimension,
    then dimension vector.
    """
    if m.is_zero:
        return []
    rng = random.Random(0)
    result: list[tuple[Module, ModMorphism, ModMorphism]] = []
    stack: list[tuple[Module, ModMorphism, ModMorphism]] = [
        (m, identity_morphism(m), identity_morphism(m))
    ]
    while stack:
        cur, incl, proj = stack.pop()
        basis = hom_basis(cur, cur)
        d = len(basis)
        e: ModMorphism | None = None
        if d <= DECOMPOSE_END_ENUM_LIMIT:
            e = _find_idempotent(cur, basis)
        else:
            e = _fitting_split(cur, rng, basis)
            if e is None and m.alg.p ** d <= DECOMPOSE_FALLBACK_ENUM:
                e = _find_idempotent(cur, basis)
            elif e is None:
                raise BoundExceeded("decomposition failed within search budget")
        if e is None:
            result.append((cur, incl, proj))
            continue
        for part, pincl, pproj in _split_by_idempotent(cur, e):
            if part.is_zero:
                continue
            stack.append((part, incl.compose(pincl), pproj.compose(proj)))
    result.sort(key=lambda t: (-t[0].total_dim, t[0].dims))
    # sanity: the summands reassemble the identity of m
    total = combine(m, m, [incl.compose(proj) for _, incl, proj in result],
                    [1] * len(result))
    if total != identity_morphism(m):
        raise RuntimeError("decomposition did not reassemble the identity")
    return result


def isomorphism_between(a: Module, b: Module) -> ModMorphism | None:
    """Search for an invertible morphism a -> b; None if there is none."""
    if a.dims != b.dims:
        return None
    if a == b:
        return identity_morphism(a)
    basis = hom_basis(a, b)
    if not basis:
        return identity_morphism(a) if a.is_zero and b.is_zero else None
    p = a.alg.p
    rng = random.Random(0)
    # random combinations first, then exhaustive while the space is small
    for _ in range(32):
        phi = combine(a, b, basis, [rng.randrange(p) for _ in basis])
        if phi.is_iso:
            return phi
    if p ** len(basis) <= DECOMPOSE_FALLBACK_ENUM:
        for v in enumerate_vectors(p, len(basis)):
            phi = combine(a, b, basis, v.entries)
            if phi.is_iso:
                return phi
        return None
    raise BoundExceeded("isomorphism search budget exceeded")


def is_isomorphic(a: Module, b: Module) -> bool:
    """Search for an invertible morphism a -> b."""
    return isomorphism_between(a, b) is not None


def multiset(m: Module, generators: Sequence[Module]) -> tuple[int, ...] | None:
    """Sorted generator indices of m's summands by search, or None when a
    summand is isomorphic to no generator."""
    out = []
    for part, _, _ in decompose(m):
        found = [i for i, g in enumerate(generators) if is_isomorphic(part, g)]
        if not found:
            return None
        out.append(found[0])
    return tuple(sorted(out))
