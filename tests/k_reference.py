"""K(C, A) and the descended moves on E-bar, class by class, kept as the
reference that the matrix versions in `localization` (`k_subgroup`,
`_ebar_matrix` with `ebar_push`/`ebar_pull`, `_keeps_k`,
`LocalizedEngine._ebar_column`) are tested against.

`k_subgroup` here walks every class of E(C, A): it pushes each class along
every member out of A and pulls it along every member into C, and compares
the two killed sets and checks that they are closed under addition.  The
moves lift a class to a cocycle (`EbarSpace.lift`), move the cocycle with
`push_forward` or `pull_back`, and project the result back to E-bar.
"""

from exangulate.linalg import Matrix, from_columns, rref
from exangulate.localization import (LocalizationError, ebar_group,
                                     member_classes)
from exangulate.quiver import enumerate_hom, pull_back, push_forward


def killed_sets(spec, q, end_C, end_A):
    """Both descriptions of K, by elements: the classes that some member
    out of A pushes to zero, and those that some member into C pulls to
    zero."""
    elements = q.base.ext(end_C, end_A).all_elements()
    by_push, by_pull = set(), set()
    for B in q.universe:
        out_members = member_classes(spec, q, end_A, B)
        for s in enumerate_hom(end_A, B) if out_members else ():
            if q.project(s) in out_members:
                by_push |= {el.coords.entries for el in elements
                            if push_forward(el, s).is_zero}
        in_members = member_classes(spec, q, B, end_C)
        for t in enumerate_hom(B, end_C) if in_members else ():
            if q.project(t) in in_members:
                by_pull |= {el.coords.entries for el in elements
                            if pull_back(el, t).is_zero}
    return by_push, by_pull


def span(p, basis, width):
    """Every vector of the span of basis in F_p^width."""
    out = {(0,) * width}
    for b in basis:
        out = {tuple((x + c * y) % p for x, y in zip(v, b))
               for v in out for c in range(p)}
    return out


def rref_rows(p, vectors):
    """The nonzero rows of the rref of the vectors: one basis per span."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return []
    r, pivots = rref(Matrix.from_rows(p, vectors))
    return [tuple(r.row_list(i)) for i in range(len(pivots))]


def k_subgroup(spec, q, end_C, end_A):
    """K(C, A) by the walk: the push and pull killed sets must agree and be
    closed under addition; the rows of the rref of their span."""
    by_push, by_pull = killed_sets(spec, q, end_C, end_A)
    if by_push != by_pull:
        raise LocalizationError(
            "the push and pull characterizations of K disagree")
    for v in by_push:
        for w in by_push:
            if tuple((x + y) % q.p for x, y in zip(v, w)) not in by_push:
                raise LocalizationError(
                    "K is not closed under addition within the bound")
    return rref_rows(q.p, by_push)


def _move(delta, f, pull):
    return pull_back(delta, f) if pull else push_forward(delta, f)


def _target(spec, q, end_C, end_A, f, pull):
    if pull:
        return ebar_group(spec, q, f.source, end_A)
    return ebar_group(spec, q, end_C, f.target)


def keeps_k(spec, q, end_C, end_A, f, pull):
    """Does the move along f carry each basis class of K(C, A) into the K
    of its target?"""
    eb = ebar_group(spec, q, end_C, end_A)
    tgt = _target(spec, q, end_C, end_A, f, pull)
    return not any(any(tgt.project(_move(eb.space.element(list(kb)), f, pull)))
                   for kb in eb.k_basis)


def ebar_move(spec, q, eb, coords, f, pull):
    """`ebar_pull` (pull) or `ebar_push` as lift, move, project."""
    if not keeps_k(spec, q, eb.end_C, eb.end_A, f, pull):
        raise LocalizationError(
            f"{'pull-back' if pull else 'push-forward'} does not carry K "
            "into K")
    tgt = _target(spec, q, eb.end_C, eb.end_A, f, pull)
    return tgt.project(_move(eb.lift(coords), f, pull))


def ebar_column(eng, roof, T, variance):
    """`LocalizedEngine._ebar_column`: the roof's class lifted once, moved
    along each basis class of C-bar(T, C) (contravariant) or C-bar(A, T),
    and each result projected."""
    q, spec = eng.q, eng.spec
    delta = ebar_group(spec, q, roof.end_C, roof.end_A).lift(roof.delta_coords)
    contra = variance == "contravariant"
    if contra:
        reps = q.basis_reps(T, roof.end_C)
        eb = ebar_group(spec, q, T, roof.end_A)
    else:
        reps = q.basis_reps(roof.end_A, T)
        eb = ebar_group(spec, q, roof.end_C, T)
    return from_columns(q.p, eb.dim, [eb.project(_move(delta, r, contra))
                                      for r in reps])
