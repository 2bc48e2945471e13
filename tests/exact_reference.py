"""Module exactness by kernels and column spaces, kept as the reference that
the rank-count test in `quiver` (`_is_exact_sequence`) is tested against.

It checks that consecutive composites vanish, that the first map is mono and
the last one epi, and then, at each inner term and vertex, that the image of
the incoming map and the kernel of the outgoing one span the same column
space: three rank computations per term and vertex instead of one rank per
vertex map.
"""

from exangulate.linalg import Matrix, hstack, kernel_basis, rank


def same_column_space(a: Matrix, b: Matrix) -> bool:
    if a.p != b.p or a.rows != b.rows:
        raise ValueError("incomparable column spaces")
    ra = rank(a)
    rb = rank(b)
    return ra == rb == rank(hstack([a, b]))


def is_exact_sequence(mods, maps) -> bool:
    """Exactness of 0 -> mods[0] -> ... -> mods[-1] -> 0 via the given maps."""
    if len(maps) != len(mods) - 1:
        raise ValueError("need one map per consecutive pair")
    for f, g in zip(maps, maps[1:]):
        if not g.compose(f).is_zero:
            return False
    if not maps[0].is_mono or not maps[-1].is_epi:
        return False
    nv = len(mods[0].dims)
    for k in range(1, len(mods) - 1):
        for v in range(1, nv + 1):
            img = maps[k - 1].map_at(v)
            ker = kernel_basis(maps[k].map_at(v))
            kmat = hstack(ker) if ker else Matrix.zeros(img.p, img.rows, 0)
            if not same_column_space(img, kmat):
                return False
    return True
