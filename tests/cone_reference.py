"""The mapping cone built through inclusions and projections, kept as the
reference that `exangulated.cone` (block matrices per vertex) is tested
against.

Each middle term is a direct sum with its inclusions and projections; each
differential is the sum of its three pieces, each composed through them.

`materialize` builds the terms and differentials of a localized cone (a
`TableCone`), which the engine never builds, for the references that read
them.  `block_morphism` assembles a morphism between direct sums the same
way, and `all_lifts` lists the middle components of the lifts that C3's
cones are built from.
"""

from exangulate import exangulated
from exangulate.localization import TableComplex, TableCone
from exangulate.quiver import combine, direct_sum


def block_morphism(src_parts, tgt_parts, blocks):
    """Morphism between direct sums given a grid of components.

    blocks[i][j] maps src_parts[j] -> tgt_parts[i]; None means zero.
    """
    src, _, sprj = direct_sum(src_parts)
    tgt, tinc, _ = direct_sum(tgt_parts)
    parts = []
    for i, row in enumerate(blocks):
        for j, blk in enumerate(row):
            if blk is None:
                continue
            if blk.source != src_parts[j] or blk.target != tgt_parts[i]:
                raise ValueError(f"block ({i},{j}) has wrong ends")
            parts.append(tinc[i].compose(blk.compose(sprj[j])))
    return combine(src, tgt, parts, [1] * len(parts))


def all_lifts(space, src, dst, a, c):
    """The families (f_1..f_n) of every lift of (a, c) from src to dst over
    the hom space `space`, in `enumerate_lifts` order."""
    return (list(lift[1:-1])
            for lift in exangulated.enumerate_lifts(src, dst, a, c, space))


def materialize(cx):
    """A `TableCone` as the `TableComplex` of its terms and differentials,
    built from its pieces by `exangulated.cone`, with its roof; any other
    complex as it is."""
    if not isinstance(cx, TableCone):
        return cx
    return TableComplex(*exangulated.cone(cx.src, cx.dst, cx.f, cx.shift),
                        cx.roof)


def cone(src, dst, f, shift):
    """Terms and differentials of the mapping cone (shift 1) or cocone
    (shift 0) of f: src -> dst, with differential (x, y) -> (-d x, f x + d' y)."""
    n = len(src.terms) - 2
    s = shift
    mids = [direct_sum([src.terms[i + s], dst.terms[i - 1 + s]])
            for i in range(1, n + 1)]
    terms = (src.terms[s],) + tuple(m[0] for m in mids) + (dst.terms[n + s],)

    def piece(i, k_in, k_out, g):
        """g from summand k_in of terms[i] to summand k_out of terms[i+1]."""
        if i > 0:
            g = g.compose(mids[i - 1][2][k_in])
        if i < n:
            g = mids[i][1][k_out].compose(g)
        return g

    diffs = []
    for i in range(n + 1):
        pieces, coeffs = [piece(i, 0, 1, f[i + s])], [1]
        if i < n:
            pieces.append(piece(i, 0, 0, src.diffs[i + s]))
            coeffs.append(-1)
        if i > 0:
            pieces.append(piece(i, 1, 1, dst.diffs[i - 1 + s]))
            coeffs.append(1)
        diffs.append(combine(terms[i], terms[i + 1], pieces, coeffs))
    return terms, tuple(diffs)
