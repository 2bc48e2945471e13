"""A two-way homotopy search over an ideal quotient, kept as the reference
that `exangulated.homotopy_equivalent` (exact plus one lift) is tested
against.

Two complexes with the same ends are homotopy equivalent in C-bar, with
identity end components, when chain maps u: cx1 -> cx2 and v: cx2 -> cx1
exist whose composites v.u and u.v differ from the identities by maps that
are null-homotopic modulo the ideal.  The search enumerates every lift both
ways and solves one null homotopy per pair, so it is slow; it decides the
question without assuming that either complex is exact.
"""

from exangulate.exangulated import enumerate_lifts
from exangulate.linalg import Matrix, from_columns, rref_solve
from exangulate.quiver import hom_basis, identity_morphism, zero_morphism


def null_homotopic(q, cx, phi) -> bool:
    """Is the self chain map phi (zero end components) null-homotopic mod
    the ideal?  Solves phi_j = d_{j-1} h_j + h_{j+1} d_j linearly."""
    p = q.p
    offsets = [0]
    for t in cx.terms:
        offsets.append(offsets[-1] + q.qdim(t, t))

    def unknown_col(i, b):
        vals = [0] * offsets[-1]
        for k, v in enumerate(q.project(cx.diffs[i - 1].compose(b)), offsets[i]):
            vals[k] = v
        for k, v in enumerate(q.project(b.compose(cx.diffs[i - 1])),
                              offsets[i - 1]):
            vals[k] = (vals[k] + v) % p
        return vals

    cols = [unknown_col(i, b) for i in range(1, cx.n + 2)
            for b in hom_basis(cx.terms[i], cx.terms[i - 1])]
    rhs = Matrix.column(p, [x for g in phi for x in q.project(g)])
    return rref_solve(from_columns(p, offsets[-1], cols), rhs) is not None


def two_way_equivalent(q, cx1, cx2) -> bool:
    """Homotopy equivalence in C-bar with identity end components: chain
    maps both ways whose composites are null-homotopic mod the ideal."""
    if cx1.n != cx2.n:
        return False
    if cx1.terms[0] != cx2.terms[0] or cx1.terms[-1] != cx2.terms[-1]:
        return False
    a = identity_morphism(cx1.terms[0])
    c = identity_morphism(cx1.terms[-1])
    zero_end = (zero_morphism(cx1.terms[0], cx1.terms[0]),)
    zero_end2 = (zero_morphism(cx1.terms[-1], cx1.terms[-1]),)
    bwd = None
    for u in enumerate_lifts(cx1, cx2, a, c, q):
        if bwd is None:
            bwd = list(enumerate_lifts(cx2, cx1, a, c, q))
        for v in bwd:
            vu = zero_end + tuple(
                vi.compose(ui) + (-identity_morphism(ui.source))
                for vi, ui in zip(v, u)) + zero_end2
            if not null_homotopic(q, cx1, vu):
                continue
            uv = zero_end + tuple(
                ui.compose(vi) + (-identity_morphism(vi.source))
                for ui, vi in zip(u, v)) + zero_end2
            if null_homotopic(q, cx2, uv):
                return True
    return False
