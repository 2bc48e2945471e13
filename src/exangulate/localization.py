"""Localization of a finite extension structure at a class of morphisms.

Everything here is bounded and mechanical.  Given an ExCategory, a full
additive subcategory N_F spanned by some of its generators, and a
specification of the morphism class F to invert, the pipeline

  1. forms the ideal quotient C-bar = C/[N_F] (finite hom tables with chosen
     linear sections),
  2. materializes the class F-bar in C-bar and checks the multiplicative
     system conditions M0, MR1, MR2, MR3, each with a witness on failure,
  3. computes the subgroup K(C, A) of extension classes killed by F -- via
     the push-forward and pull-back characterizations independently -- and
     the quotients E-bar = E/K with descended push/pull,
  4. builds roofs [t \\ delta / s] and the localized extension groups
     E-tilde by a common-denominator calculus, together with the comparison
     map mu-bar : E-bar -> E-tilde,
  5. realizes roofs (s_tilde) and runs the weak kernel-cokernel exactness
     criterion, plus -- in iso mode, where the localized category is the
     quotient category itself -- the full axiom suite on the quotient
     tables,
  6. assembles a LocalizationReport with one verdict: "n-exangulated",
     "weakly n-exangulated", "fails weak-kc", or "MR precondition failed".

All searches (Ore completions, fillers, lifts, roof pools) run over the
bounded object universe of the ExCategory.  Every walk of an F_p-space
(hom-sets, classes, solution families) goes through `enumerate_vectors`,
which raises BoundExceeded past `linalg.ENUM_LIMIT`; a roof pool past
ROOF_ENUM_LIMIT raises it too.  A search that finds nothing within the
universe raises LocalizationError.  Each has an explicit message, rather
than a guess.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Sequence

from .exangulated import (ENDPOINT_SUMMANDS, CheckResult,
                          ExCategory, MemoOwner, NExangle, _diff_maps,
                          _homology, _images, _post, _post_matrix, _pre,
                          _pre_matrix, built_homology, check_c1, check_c2,
                          check_c3, check_c4, cone_blocks, cone_summands,
                          has_identity_lift, homotopy_equivalent, memo,
                          move_matrix, realization_is_exangle)
from .linalg import (BoundExceeded, Matrix, enumerate_vectors, from_columns,
                     hstack, kernel_basis, quotient_with_section, rank, rref,
                     rref_solve, space_size, vstack)
from .quiver import (ExtElement, ModMorphism, Module, combine, direct_sum,
                     enumerate_hom, hom_basis, identity_morphism,
                     morphism_in_coords)
from .values import Record, Value

ROOF_ENUM_LIMIT = 20000      # largest roof pool per localized Ext group
FUNCTOR_UNIVERSE = 8         # the functor check walks only the first 8 universe objects


class LocalizationError(RuntimeError):
    """A search found nothing within the universe, or the data is
    inconsistent."""


class MorphismClassSpec(Value):
    """Which morphisms to invert.

    mode "iso":      F consists of exactly the morphisms whose classes are
                     invertible in the ideal quotient C-bar.
    mode "saturate": start from `seeds` and close under isomorphisms of
                     C-bar, composition, and direct sums inside the bounded
                     universe.  The cancellation halves of two-out-of-three
                     are *checked* by MR1, not forced into the closure.
    """

    _fields = ("mode", "seeds")

    def __init__(self, mode: str, seeds: tuple[ModMorphism, ...] = ()) -> None:
        self.__dict__.update(mode=mode, seeds=seeds)
        if self.mode not in ("iso", "saturate"):
            raise ValueError("mode must be 'iso' or 'saturate'")
        if self.mode == "iso" and self.seeds:
            raise ValueError("iso mode takes no seeds")


# -- the ideal quotient C-bar -------------------------------------------------


class IdealQuotient(MemoOwner):
    """Hom tables of C-bar = C/[N_F] over the bounded object universe.

    [N_F](X, Y) is spanned by the composites X -> N -> Y with N one of the
    chosen generators; maps through a finite sum of them are sums of such
    composites, so single generators span the whole ideal.
    """

    def __init__(self, base: ExCategory, nf_indices: Sequence[int]) -> None:
        idx = tuple(sorted({int(i) for i in nf_indices}))
        for i in idx:
            if not 0 <= i < len(base.generators):
                raise ValueError(f"no generator with index {i}")
        self.base = base
        self.p = base.alg.p
        self.nf_indices = idx
        self.nf_gens = tuple(base.generators[i] for i in idx)
        self.universe = base.universe
        self._memo: defaultdict = defaultdict(dict)

    @property
    def nf_labels(self) -> tuple[str, ...]:
        return tuple(self.base.labels[i] for i in self.nf_indices)

    @memo
    def tables(self, X: Module, Y: Module):
        basis = hom_basis(X, Y)
        cols: list[Matrix] = []
        if basis:
            for N in self.nf_gens:
                for g in hom_basis(N, Y):
                    for f in hom_basis(X, N):
                        cols.append(morphism_in_coords(g.compose(f), basis))
        proj, sect = quotient_with_section(self.p, len(basis), cols)
        return basis, proj, sect

    def qdim(self, X: Module, Y: Module) -> int:
        return self.tables(X, Y)[1].rows

    def project(self, f: ModMorphism) -> tuple[int, ...]:
        """Coordinates of the class of f in C-bar(source, target)."""
        basis, proj, _ = self.tables(f.source, f.target)
        coords = morphism_in_coords(f, basis)
        # a square projection kills nothing: the ideal is zero here, and
        # `quotient_with_section` then returns the identity
        if proj.is_square:
            return coords.entries
        return (proj @ coords).entries

    def rep(self, X: Module, Y: Module, coords: Sequence[int]) -> ModMorphism:
        """The chosen section representative of a class."""
        return self._rep(X, Y, tuple(coords))

    @memo
    def _rep(self, X: Module, Y: Module, coords: tuple[int, ...]) -> ModMorphism:
        basis, _, sect = self.tables(X, Y)
        col = sect @ Matrix.column(self.p, list(coords))
        return combine(X, Y, basis, col.entries)

    @memo
    def basis_reps(self, X: Module, Y: Module) -> tuple[ModMorphism, ...]:
        d = self.qdim(X, Y)
        return tuple(self.rep(X, Y, tuple(1 if i == k else 0 for i in range(d)))
                     for k in range(d))

    def classes(self, X: Module, Y: Module) -> list[tuple[int, ...]]:
        """Every class of C-bar(X, Y), the zero class first."""
        return [v.entries for v in enumerate_vectors(self.p, self.qdim(X, Y))]

    @memo
    def identity_class(self, X: Module) -> tuple[int, ...]:
        return self.project(identity_morphism(X))

    def zero_class(self, X: Module, Y: Module) -> tuple[int, ...]:
        return (0,) * self.qdim(X, Y)

    def compose_classes(self, X: Module, Y: Module, Z: Module,
                        fc: Sequence[int], gc: Sequence[int]) -> tuple[int, ...]:
        return self.project(self.rep(Y, Z, gc).compose(self.rep(X, Y, fc)))

    def fmt(self, m: Module) -> str:
        return self.base.format_object(m)


# -- the class F-bar ----------------------------------------------------------


def _class_invertible(q: IdealQuotient, X: Module, Y: Module,
                      coords: tuple[int, ...]) -> bool:
    """Two-sided invertibility of a class, by one joint linear solve."""
    f = q.rep(X, Y, coords)
    lhs = vstack([_pre(q, f, X), _post(q, Y, f)])
    rhs = Matrix.column(q.p, q.identity_class(X) + q.identity_class(Y))
    return rref_solve(lhs, rhs) is not None


@memo
def _invertible_classes(q: IdealQuotient, X: Module, Y: Module) -> frozenset:
    # composing with an isomorphism X -> Y or its inverse maps C-bar(X, X),
    # C-bar(X, Y), C-bar(Y, X) and C-bar(Y, Y) isomorphically onto each other
    if len({q.qdim(X, X), q.qdim(X, Y), q.qdim(Y, X), q.qdim(Y, Y)}) > 1:
        return frozenset()
    return frozenset(c for c in q.classes(X, Y)
                     if _class_invertible(q, X, Y, c))


def _sum_class(q: IdealQuotient, items: Sequence[tuple[int, int, tuple]]):
    """Class of a direct sum of generator-supported classes.

    items = [(gi, gj, class of a map gen_gi -> gen_gj), ...]; returns
    ((source object, target object), class of the block-diagonal sum).
    """
    gens = q.base.generators
    src_ms = tuple(sorted(it[0] for it in items))
    tgt_ms = tuple(sorted(it[1] for it in items))
    src_obj = q.base.materialize(src_ms)
    tgt_obj = q.base.materialize(tgt_ms)
    _, _, s_proj = direct_sum([gens[i] for i in src_ms])
    _, t_incl, _ = direct_sum([gens[j] for j in tgt_ms])
    src_used = [False] * len(src_ms)
    tgt_used = [False] * len(tgt_ms)
    parts = []
    for gi, gj, cls in items:
        si = next(k for k, g in enumerate(src_ms) if g == gi and not src_used[k])
        ti = next(k for k, g in enumerate(tgt_ms) if g == gj and not tgt_used[k])
        src_used[si] = True
        tgt_used[ti] = True
        rep = q.rep(gens[gi], gens[gj], cls)
        parts.append(t_incl[ti].compose(rep).compose(s_proj[si]))
    total = combine(src_obj, tgt_obj, parts, [1] * len(parts))
    return (src_obj, tgt_obj), q.project(total)


@memo
def _saturate_extra(spec: MorphismClassSpec, q: IdealQuotient) -> dict:
    """Fixpoint of the seeded closure, minus the classes that are already
    invertible (those are members for free)."""
    extra: dict[tuple[Module, Module], set] = {}
    position = {m: k for k, m in enumerate(q.universe)}

    def order(m: Module) -> tuple:
        # a key of module values only, so the work list has one order in
        # every run, whatever objects the modules are
        if m in position:
            return (0, position[m])
        return (1, m.dims, tuple(a.entries for a in m.arrow_maps))

    def add(X: Module, Y: Module, cls: tuple[int, ...]) -> bool:
        if cls in _invertible_classes(q, X, Y):
            return False
        bucket = extra.setdefault((X, Y), set())
        if cls in bucket:
            return False
        bucket.add(cls)
        return True

    for s in spec.seeds:
        add(s.source, s.target, q.project(s))
    changed = True
    while changed:
        changed = False
        items = [(X, Y, c) for (X, Y), cs in sorted(
            extra.items(), key=lambda kv: (order(kv[0][0]), order(kv[0][1])))
            for c in sorted(cs)]
        for X, Y, c in items:
            for Z in q.universe:
                for ic in sorted(_invertible_classes(q, Y, Z)):
                    if add(X, Z, q.compose_classes(X, Y, Z, c, ic)):
                        changed = True
                for ic in sorted(_invertible_classes(q, Z, X)):
                    if add(Z, Y, q.compose_classes(Z, X, Y, ic, c)):
                        changed = True
            for (X2, Y2), cs2 in list(extra.items()):
                if X2 == Y:
                    for c2 in list(cs2):
                        if add(X, Y2, q.compose_classes(X, Y, Y2, c, c2)):
                            changed = True
                if Y2 == X:
                    for c2 in list(cs2):
                        if add(X2, Y, q.compose_classes(X2, X, Y, c2, c)):
                            changed = True
        # direct sums among generator-supported members
        gitems = []
        for (X, Y), cs in extra.items():
            gi = q.base.objects.generator_index(X)
            gj = q.base.objects.generator_index(Y)
            if gi is None or gj is None:
                continue
            for c in cs:
                gitems.append((gi, gj, c))
        pads = [(k, k, q.identity_class(g))
                for k, g in enumerate(q.base.generators)]
        for a in list(gitems):
            for b in gitems + pads:
                (sx, sy), cls = _sum_class(q, [a, b])
                if add(sx, sy, cls):
                    changed = True
    return extra


@memo
def member_classes(spec: MorphismClassSpec, q: IdealQuotient,
                   X: Module, Y: Module) -> frozenset:
    """All classes of C-bar(X, Y) that lie in F-bar."""
    inv = _invertible_classes(q, X, Y)
    if spec.mode == "iso":
        return inv
    return frozenset(inv | _saturate_extra(spec, q).get((X, Y), set()))


def fbar_membership(spec: MorphismClassSpec, q: IdealQuotient,
                    f: ModMorphism) -> bool:
    """Is the class of f in F-bar?"""
    return q.project(f) in member_classes(spec, q, f.source, f.target)


# -- Ore completions ----------------------------------------------------------


def ore(spec: MorphismClassSpec, q: IdealQuotient, s: ModMorphism,
        f: ModMorphism, left: bool):
    """Right: complete the span (s: X->Y in F, f: X->Z) to s2.f == f2.s in
    C-bar with s2 in F-bar, and return (W, s2: Z->W, f2: Y->W).  Left:
    complete the cospan (s: Y->X in F, f: Z->X) to f.s2 == s.f2, and return
    (W, s2: W->Z, f2: W->Y).  Deterministic first hit with W = Z tried
    first."""
    Y, Z = (s.source, f.source) if left else (s.target, f.target)
    for W in [Z] + [o for o in q.universe if o != Z]:
        ends = (W, Z) if left else (Z, W)
        mc = member_classes(spec, q, *ends)
        if not mc:
            continue
        lhs = _post(q, W, s) if left else _pre(q, s, W)
        for s2c in sorted(mc):
            s2 = q.rep(*ends, s2c)
            comp = f.compose(s2) if left else s2.compose(f)
            sol = rref_solve(lhs, Matrix.column(q.p, list(q.project(comp))))
            if sol is not None:
                return W, s2, q.rep(*((W, Y) if left else (Y, W)),
                                    tuple(sol.col_list(0)))
    raise LocalizationError("Ore completion not found within bound")


# -- the multiplicative system checks ------------------------------------------


def check_mr(spec: MorphismClassSpec, q: IdealQuotient) -> dict[str, CheckResult]:
    """M0 (isomorphisms, composition, generator-supported direct sums),
    MR1 (both cancellation directions of two-out-of-three), MR2 (both Ore
    completions), MR3 (F-bar fillers between distinguished realizations)."""
    mem, keys = member_table(spec, q)
    out: dict[str, CheckResult] = {}
    out["M0"] = _check_m0(spec, q, mem, keys)
    out["MR1"] = _check_mr1(spec, q, mem, keys)
    out["MR2"] = _check_mr2(spec, q, mem, keys)
    out["MR3"] = _check_mr3(spec, q, mem)
    return out


def member_table(spec: MorphismClassSpec, q: IdealQuotient):
    """The nonempty member sets of F-bar by (source, target), and their keys
    in universe order."""
    mem: dict[tuple[Module, Module], frozenset] = {}
    for X in q.universe:
        for Y in q.universe:
            mc = member_classes(spec, q, X, Y)
            if mc:
                mem[(X, Y)] = mc
    uidx = {o: i for i, o in enumerate(q.universe)}
    keys = sorted(mem.keys(), key=lambda k: (uidx[k[0]], uidx[k[1]]))
    return mem, keys


def _check_m0(spec, q, mem, keys) -> CheckResult:
    checked = 0
    for X in q.universe:
        for Y in q.universe:
            for c in sorted(_invertible_classes(q, X, Y)):
                checked += 1
                if c not in mem.get((X, Y), frozenset()):
                    return CheckResult(
                        "M0", False,
                        f"invertible class {list(c)}: {q.fmt(X)} -> {q.fmt(Y)} "
                        "is not in F-bar", checked)
    by_src: dict[Module, list] = {}
    for X, Y in keys:
        by_src.setdefault(X, []).append(Y)
    for X, Y in keys:
        for Z in by_src.get(Y, []):
            for fc in sorted(mem[(X, Y)]):
                for gc in sorted(mem[(Y, Z)]):
                    checked += 1
                    comp = q.compose_classes(X, Y, Z, fc, gc)
                    if comp not in mem.get((X, Z), frozenset()):
                        return CheckResult(
                            "M0", False,
                            f"composite of members {q.fmt(X)} -> {q.fmt(Y)} "
                            f"-> {q.fmt(Z)} leaves F-bar", checked)
    gitems = []
    for X, Y in keys:
        gi = q.base.objects.generator_index(X)
        gj = q.base.objects.generator_index(Y)
        if gi is None or gj is None:
            continue
        for c in sorted(mem[(X, Y)]):
            gitems.append((gi, gj, c))
    for a in gitems:
        for b in gitems:
            checked += 1
            (sx, sy), cls = _sum_class(q, [a, b])
            if cls not in member_classes(spec, q, sx, sy):
                return CheckResult(
                    "M0", False,
                    f"direct sum of members {q.fmt(sx)} -> {q.fmt(sy)} "
                    "leaves F-bar", checked)
    return CheckResult("M0", True, None, checked)


def _check_mr1(spec, q, mem, keys) -> CheckResult:
    """Composing with a fixed member is linear, so one product with its
    `_pre`/`_post` matrix gives the composites with every class at once; a
    pair can only fail when the composite's hom-set has members.

    Nor can it fail when the fixed member is invertible, so those pairs are
    counted and nothing is composed.  For invertible f, g = (g . f) . f^-1,
    and F-bar is closed under composition with an invertible class on either
    side: in iso mode F-bar is the invertible classes, and in saturate mode
    `_saturate_extra` closes the seeds under exactly that.  So g . f in
    F-bar puts g in F-bar (dually for an invertible second factor g)."""
    checked = 0
    # the member m: A -> B is the first factor of X -> Y -> Z, then the second
    for second in (False, True):
        fixed, other = ("second", "first") if second else ("first", "second")
        for A, B in keys:
            inv = _invertible_classes(q, A, B)
            for mc in sorted(mem[(A, B)]):
                m = None if mc in inv else q.rep(A, B, mc)
                for V in q.universe:
                    X, Y, Z = (V, A, B) if second else (A, B, V)
                    ends = (X, Y) if second else (Y, Z)   # the other factor
                    mem_xz = mem.get((X, Z), frozenset())
                    if m is None or not mem_xz:
                        checked += space_size(q.p, q.qdim(*ends))
                        continue
                    mem_other = mem.get(ends, frozenset())
                    ocs = q.classes(*ends)
                    moved = _post(q, X, m) if second else _pre(q, m, Z)
                    for oc, comp in zip(ocs, _images(moved, ocs)):
                        checked += 1
                        if comp in mem_xz and oc not in mem_other:
                            return CheckResult(
                                "MR1", False,
                                f"{q.fmt(X)} -> {q.fmt(Y)} -> {q.fmt(Z)}: the "
                                f"{fixed} factor and the composite are in "
                                f"F-bar but the {other} factor is not", checked)
    return CheckResult("MR1", True, None, checked)


def _check_mr2(spec, q, mem, keys) -> CheckResult:
    """Where composing with the member s is onto, W = Z and s2 = 1 complete
    every span (dually cospan) at once.  Composing with an invertible s is a
    bijection, so onto, and its pairs are counted with no matrix built; for
    any other s it is onto when its `_pre`/`_post` matrix has full rank.
    Elsewhere each class is solved for, and searched for an Ore completion
    when that fails."""
    checked = 0
    # the member s: A -> B starts a span A -> Z, then ends a cospan Z -> B
    for left in (False, True):
        for A, B in keys:
            inv = _invertible_classes(q, A, B)
            for sc in sorted(mem[(A, B)]):
                s = None if sc in inv else q.rep(A, B, sc)
                for Z in q.universe:
                    ends = (Z, B) if left else (A, Z)
                    lhs = (None if s is None else
                           _post(q, Z, s) if left else _pre(q, s, Z))
                    if lhs is None or rank(lhs) == lhs.rows:
                        checked += space_size(q.p, q.qdim(*ends))
                        continue
                    for fc in q.classes(*ends):
                        checked += 1
                        rhs = Matrix.column(q.p, list(fc))
                        if rref_solve(lhs, rhs) is not None:
                            continue
                        try:
                            ore(spec, q, s, q.rep(*ends, fc), left)
                        except LocalizationError:
                            a, b, z = q.fmt(A), q.fmt(B), q.fmt(Z)
                            return CheckResult("MR2", False, (
                                f"no left Ore completion for the cospan "
                                f"{a} -> {b} <- {z}" if left else
                                f"no right Ore completion for the span "
                                f"{b} <- {a} -> {z}"), checked)
    return CheckResult("MR2", True, None, checked)


def _check_mr3(spec, q, mem) -> CheckResult:
    cat = q.base
    exangles: list[tuple[str, NExangle]] = []
    for C in cat.generators:
        for A in cat.generators:
            for delta in cat.ext_elements(C, A):
                exangles.append((cat._pair_tag(delta), cat.realize(delta)))
    push_cache: dict = {}
    pull_cache: dict = {}
    checked = 0
    for i1, (tag1, x1) in enumerate(exangles):
        for i2, (tag2, x2) in enumerate(exangles):
            X0, Y0 = x1.terms[0], x2.terms[0]
            Xe, Ye = x1.terms[-1], x2.terms[-1]
            amem = mem.get((X0, Y0))
            cmem = mem.get((Xe, Ye))
            if not amem or not cmem:
                continue
            pk = (i1, Y0)
            if pk not in push_cache:
                push_cache[pk] = [
                    (a, ac, cat.push(x1.delta, a).coords.entries)
                    for a in enumerate_hom(X0, Y0)
                    if (ac := q.project(a)) in amem]
            ck = (i2, Xe)
            if ck not in pull_cache:
                pull_cache[ck] = [
                    (c, cc, cat.pull(x2.delta, c).coords.entries)
                    for c in enumerate_hom(Xe, Ye)
                    if (cc := q.project(c)) in cmem]
            done: set = set()
            for a, ac, pa in push_cache[pk]:
                for c, cc, pc in pull_cache[ck]:
                    if pa != pc or (ac, cc) in done:
                        continue
                    done.add((ac, cc))
                    checked += 1
                    if not _mr3_filler(spec, q, x1, x2, a, c):
                        return CheckResult(
                            "MR3", False,
                            f"no F-bar filler between {tag1} and {tag2} for "
                            f"end classes {list(ac)} / {list(cc)}", checked)
    return CheckResult("MR3", True, None, checked)


def _mr3_filler(spec, q, x1, x2, a, c) -> bool:
    """Chain of F-bar classes completing (a, c) to a morphism of the two
    realizations in C-bar."""
    n = x1.n

    def extend(prev: ModMorphism, i: int) -> bool:
        if i == n + 1:
            return (q.project(c.compose(x1.diffs[n]))
                    == q.project(x2.diffs[n].compose(prev)))
        want = q.project(x2.diffs[i - 1].compose(prev))
        Xi, Yi = x1.terms[i], x2.terms[i]
        for bc in sorted(member_classes(spec, q, Xi, Yi)):
            b = q.rep(Xi, Yi, bc)
            if q.project(b.compose(x1.diffs[i - 1])) != want:
                continue
            if extend(b, i + 1):
                return True
        return False

    return extend(a, 1)


# -- the killed subgroup K and E-bar ------------------------------------------


def _union_basis(p: int, subspaces: Sequence[Sequence[Matrix]]
                 ) -> list[tuple[int, ...]]:
    """The union of subspaces, each given by a basis of columns, as the
    rows of its rref; LocalizationError when it is not a subspace, that is,
    when some vector of their span lies in none of them.  It is one when
    one of them has the dimension of the span.  Otherwise the span is
    walked: over F_p a union of smaller subspaces can be a subspace, as
    F_2^2 is the union of its three lines."""
    if not any(subspaces):
        return []
    r, pivots = rref(hstack([v for s in subspaces for v in s]).transpose())
    basis = [tuple(r.row_list(i)) for i in range(len(pivots))]
    if all(len(s) < len(basis) for s in subspaces):
        span = from_columns(p, r.cols, basis)
        parts = [hstack(s) for s in subspaces if s]
        for c in enumerate_vectors(p, len(basis)):
            if all(rref_solve(m, span @ c) is None for m in parts):
                raise LocalizationError(
                    "K is not closed under addition within the bound")
    return basis


@memo
def k_subgroup(spec: MorphismClassSpec, q: IdealQuotient,
               end_C: Module, end_A: Module) -> list[tuple[int, ...]]:
    """Basis of K(C, A), the rows of its rref: the classes some member of F
    pushes to zero, the union of the kernels of the push matrices
    (`move_matrix`) of the members out of A.  The pull-back
    characterization, by the members into C, is computed independently;
    disagreement aborts.  A nonzero multiple of a member has the same
    kernel, so one matrix is built per line of members.  No class of
    E(C, A) is walked, unless `_union_basis` walks the span of the
    kernels."""
    if not q.base.ext(end_C, end_A).dim:
        return []
    p = q.p
    sides = []
    for pull in (False, True):
        kernels = []
        for B in q.universe:
            ends = (B, end_C) if pull else (end_A, B)
            members = member_classes(spec, q, *ends)
            lines = set()
            for s in enumerate_hom(*ends) if members else ():
                if q.project(s) not in members:
                    continue
                # the line's point with first nonzero entry 1
                scale = pow(next((x for x in s.flat if x), 1), -1, p)
                line = tuple(x * scale % p for x in s.flat)
                if line not in lines:
                    lines.add(line)
                    kernels.append(kernel_basis(
                        move_matrix(q.base, end_C, end_A, s, pull)))
        sides.append(_union_basis(p, kernels))
    if sides[0] != sides[1]:
        raise LocalizationError(
            "the push and pull characterizations of K disagree")
    return sides[0]


class EbarSpace(Value):
    """E-bar(C, A) = E(C, A)/K(C, A) with a chosen linear section; `space`
    is the underlying ExtSpace."""

    _fields = ("spec", "space", "k_basis", "proj", "sect")

    def __init__(self, spec: MorphismClassSpec, space: object,
                 k_basis: tuple[tuple[int, ...], ...], proj: Matrix,
                 sect: Matrix) -> None:
        self.__dict__.update(spec=spec, space=space, k_basis=k_basis,
                             proj=proj, sect=sect)

    @property
    def dim(self) -> int:
        return self.proj.rows

    @property
    def end_C(self) -> Module:
        return self.space.end_C

    @property
    def end_A(self) -> Module:
        return self.space.end_A

    def project(self, el: ExtElement) -> tuple[int, ...]:
        return tuple((self.proj @ el.coords).col_list(0))

    def lift(self, coords: Sequence[int]) -> ExtElement:
        col = self.sect @ Matrix.column(self.space.alg.p, list(coords))
        return self.space.element(col)

    def classes(self) -> list[tuple[int, ...]]:
        return [tuple(v.col_list(0))
                for v in enumerate_vectors(self.space.alg.p, self.dim)]

    def zero_class(self) -> tuple[int, ...]:
        return (0,) * self.dim


@memo
def ebar_group(spec: MorphismClassSpec, q: IdealQuotient,
               end_C: Module, end_A: Module) -> EbarSpace:
    space = q.base.ext(end_C, end_A)
    kb = tuple(k_subgroup(spec, q, end_C, end_A))
    proj, sect = quotient_with_section(
        q.p, space.dim, [Matrix.column(q.p, list(b)) for b in kb])
    return EbarSpace(spec, space, kb, proj, sect)


def _keeps_k(moved: Matrix, eb: EbarSpace) -> bool:
    """Does the move with matrix `moved` (proj_tgt . P_f) kill eb's K?"""
    return not eb.k_basis or (
        moved @ from_columns(moved.p, moved.cols, eb.k_basis)).is_zero


@memo
def _ebar_matrix(spec: MorphismClassSpec, q: IdealQuotient, end_C: Module,
                 end_A: Module, f: ModMorphism, pull: bool) -> Matrix:
    """The descended move of `move_matrix`, proj_tgt . P_f . sect_src on
    E-bar; LocalizationError when P_f does not carry K into K."""
    src = ebar_group(spec, q, end_C, end_A)
    tgt = ebar_group(spec, q, *((f.source, end_A) if pull else
                                (end_C, f.target)))
    moved = tgt.proj @ move_matrix(q.base, end_C, end_A, f, pull)
    if not _keeps_k(moved, src):
        raise LocalizationError(("pull-back" if pull else "push-forward")
                                + " does not carry K into K")
    return moved @ src.sect


def _apply(m: Matrix, coords: Sequence[int]) -> tuple[int, ...]:
    return (m @ Matrix.column(m.p, coords)).entries


def ebar_push(spec: MorphismClassSpec, q: IdealQuotient, eb: EbarSpace,
              coords: Sequence[int], f: ModMorphism) -> tuple[int, ...]:
    """Descended push-forward along f: A -> B, by its `_ebar_matrix`."""
    if f.source != eb.end_A:
        raise ValueError("push morphism must start at the A end")
    return _apply(_ebar_matrix(spec, q, eb.end_C, eb.end_A, f, False), coords)


def ebar_pull(spec: MorphismClassSpec, q: IdealQuotient, eb: EbarSpace,
              coords: Sequence[int], f: ModMorphism) -> tuple[int, ...]:
    """Descended pull-back along f: D -> C, by its `_ebar_matrix`."""
    if f.target != eb.end_C:
        raise ValueError("pull morphism must end at the C end")
    return _apply(_ebar_matrix(spec, q, eb.end_C, eb.end_A, f, True), coords)


# -- roofs and the localized extension groups ----------------------------------


class Roof(Value):
    """Formal fraction [t \\ delta / s]: a span t: Z -> C, s: A -> X of
    F-members (classes in F-bar) with a class delta in E-bar(Z, X)."""

    _fields = ("t", "delta_coords", "s")

    def __init__(self, t: ModMorphism, delta_coords: tuple[int, ...],
                 s: ModMorphism) -> None:
        self.__dict__.update(t=t, delta_coords=delta_coords, s=s)

    @property
    def end_C(self) -> Module:
        return self.t.target

    @property
    def end_A(self) -> Module:
        return self.s.source


def make_roof(spec: MorphismClassSpec, q: IdealQuotient, t: ModMorphism,
              delta_coords: Sequence[int], s: ModMorphism) -> Roof:
    if not fbar_membership(spec, q, t):
        raise ValueError("denominator t is not in F-bar")
    if not fbar_membership(spec, q, s):
        raise ValueError("denominator s is not in F-bar")
    eb = ebar_group(spec, q, t.source, s.target)
    if len(tuple(delta_coords)) != eb.dim:
        raise ValueError("class coordinates have the wrong length")
    return Roof(t, tuple(int(x) % q.p for x in delta_coords), s)


def identity_roof(spec: MorphismClassSpec, q: IdealQuotient, end_C: Module,
                  end_A: Module, coords: Sequence[int]) -> Roof:
    return Roof(identity_morphism(end_C), tuple(coords),
                identity_morphism(end_A))


def common_denominator(spec: MorphismClassSpec, q: IdealQuotient,
                       roofs: Sequence[Roof]):
    """Rewrite roofs with the same outer ends over one (t, s) pair.

    Returns (t, s, coords_list): coords_list[i] is the i-th roof's class in
    E-bar(source of t, target of s).  Folds pairwise with a left Ore
    completion on the t legs and a right Ore completion on the s legs.
    """
    if not roofs:
        raise ValueError("need at least one roof")
    ends = (roofs[0].end_C, roofs[0].end_A)
    for r in roofs[1:]:
        if (r.end_C, r.end_A) != ends:
            raise ValueError("roofs with different outer ends")
    def move(rho, t, s, u, v):      # pull along u, then push along v
        rho = ebar_pull(spec, q, ebar_group(spec, q, t.source, s.target),
                        rho, u)
        return ebar_push(spec, q, ebar_group(spec, q, u.source, s.target),
                         rho, v)

    t, s = roofs[0].t, roofs[0].s
    rhos = [roofs[0].delta_coords]
    for r in roofs[1:]:
        wt, u1, u2 = ore(spec, q, r.t, t, left=True)   # t.u1 == r.t.u2
        ws, v2, v1 = ore(spec, q, s, r.s, left=False)  # v2.r.s == v1.s
        rhos = ([move(rc, t, s, u1, v1) for rc in rhos]
                + [move(r.delta_coords, r.t, r.s, u2, v2)])
        t, s = t.compose(u1), v2.compose(r.s)
    return t, s, rhos


def roof_equal(spec: MorphismClassSpec, q: IdealQuotient,
               r1: Roof, r2: Roof) -> bool:
    """Equality of roof classes via a common denominator."""
    if (r1.end_C, r1.end_A) != (r2.end_C, r2.end_A):
        raise ValueError("roofs with different outer ends")
    _, _, rhos = common_denominator(spec, q, [r1, r2])
    return rhos[0] == rhos[1]


def roof_add(spec: MorphismClassSpec, q: IdealQuotient,
             r1: Roof, r2: Roof) -> Roof:
    """Sum of roof classes over a common denominator."""
    t, s, rhos = common_denominator(spec, q, [r1, r2])
    total = tuple((a + b) % q.p for a, b in zip(rhos[0], rhos[1]))
    return Roof(t, total, s)


def roof_push(spec: MorphismClassSpec, q: IdealQuotient, r: Roof,
              a: ModMorphism, u: ModMorphism | None = None) -> Roof:
    """Push a roof along the fraction inverse(u) . a (u omitted: identity).

    a: end_A -> B', u: B -> B' with class in F-bar; the result has A end B.
    """
    if a.source != r.end_A:
        raise ValueError("push morphism must start at the roof's A end")
    if u is None:
        u = identity_morphism(a.target)
    if u.target != a.target:
        raise ValueError("fraction legs must share their target")
    if not fbar_membership(spec, q, u):
        raise ValueError("fraction denominator is not in F-bar")
    w, s2, a2 = ore(spec, q, r.s, a, left=False)  # s2.a == a2.r.s in C-bar
    eb = ebar_group(spec, q, r.t.source, r.s.target)
    coords = ebar_push(spec, q, eb, r.delta_coords, a2)
    return Roof(r.t, coords, s2.compose(u))


def roof_pull(spec: MorphismClassSpec, q: IdealQuotient, r: Roof,
              c: ModMorphism, v: ModMorphism | None = None) -> Roof:
    """Pull a roof along the fraction c . inverse(v) (v omitted: identity).

    c: D' -> end_C, v: D' -> D with class in F-bar; the result has C end D.
    """
    if c.target != r.end_C:
        raise ValueError("pull morphism must end at the roof's C end")
    if v is None:
        v = identity_morphism(c.source)
    if v.source != c.source:
        raise ValueError("fraction legs must share their source")
    if not fbar_membership(spec, q, v):
        raise ValueError("fraction denominator is not in F-bar")
    w, t2, c2 = ore(spec, q, r.t, c, left=True)   # c.t2 == r.t.c2 in C-bar
    eb = ebar_group(spec, q, r.t.source, r.s.target)
    coords = ebar_pull(spec, q, eb, r.delta_coords, c2)
    return Roof(v.compose(t2), coords, r.s)


class EtildeGroup(Record):
    """A localized extension group: explicit roof class representatives,
    the addition table, and the comparison map from E-bar."""

    _fields = ("end_C", "end_A", "reps", "add_table", "zero_index", "mu_map",
               "ebar")

    def __init__(self, end_C: Module, end_A: Module, reps: tuple[Roof, ...],
                 add_table: tuple[tuple[int, ...], ...], zero_index: int,
                 mu_map: tuple[int, ...], ebar: EbarSpace) -> None:
        # mu_map: E-bar class index -> roof class index
        self.__dict__.update(end_C=end_C, end_A=end_A, reps=reps,
                             add_table=add_table, zero_index=zero_index,
                             mu_map=mu_map, ebar=ebar)


@memo
def etilde_group(spec: MorphismClassSpec, q: IdealQuotient,
                 end_C: Module, end_A: Module) -> EtildeGroup:
    """E-tilde(C, A) by enumerating roofs over the bounded universe and
    merging them with the common-denominator equality."""
    pool: list[Roof] = []
    for Z in q.universe:
        tmem = member_classes(spec, q, Z, end_C)
        if not tmem:
            continue
        for X in q.universe:
            smem = member_classes(spec, q, end_A, X)
            if not smem:
                continue
            eb = ebar_group(spec, q, Z, X)
            for tc in sorted(tmem):
                t = q.rep(Z, end_C, tc)
                for sc in sorted(smem):
                    s = q.rep(end_A, X, sc)
                    for coords in eb.classes():
                        pool.append(Roof(t, coords, s))
                        if len(pool) > ROOF_ENUM_LIMIT:
                            raise BoundExceeded(
                                "roof enumeration exceeded bound")
    reps: list[Roof] = []

    def classify(r: Roof) -> int:
        for i, rep0 in enumerate(reps):
            if roof_equal(spec, q, r, rep0):
                return i
        reps.append(r)
        return len(reps) - 1

    for r in pool:
        classify(r)
    frozen = len(reps)

    def locate(r: Roof) -> int:
        for i in range(frozen):
            if roof_equal(spec, q, r, reps[i]):
                return i
        raise LocalizationError("roof class escaped the enumerated pool")

    add_table = tuple(
        tuple(locate(roof_add(spec, q, reps[i], reps[j]))
              for j in range(frozen))
        for i in range(frozen))
    ebar = ebar_group(spec, q, end_C, end_A)
    mu_map = tuple(
        locate(identity_roof(spec, q, end_C, end_A, coords))
        for coords in ebar.classes())
    return EtildeGroup(end_C, end_A, tuple(reps), add_table, mu_map[0],
                       mu_map, ebar)


# -- realization of roofs and complexes in the quotient ------------------------


class TableComplex(Value):
    """A chain of composable morphisms read modulo the ideal: consecutive
    composites vanish in C-bar (for realization output they vanish on the
    nose).  `roof` is the class the complex realizes, when it has one."""

    _fields = ("terms", "diffs", "roof")

    def __init__(self, terms: tuple[Module, ...], diffs: tuple[ModMorphism, ...],
                 roof: Roof | None = None) -> None:
        self.__dict__.update(terms=terms, diffs=diffs, roof=roof)
        if len(self.terms) < 3:
            raise ValueError("a complex needs at least three terms")
        if len(self.diffs) != len(self.terms) - 1:
            raise ValueError("one differential per adjacent pair required")
        for i, d in enumerate(self.diffs):
            if d.source != self.terms[i] or d.target != self.terms[i + 1]:
                raise ValueError(f"differential {i} has the wrong ends")

    @property
    def n(self) -> int:
        return len(self.terms) - 2

    @property
    def ends(self) -> tuple[Module, Module]:
        return self.terms[0], self.terms[-1]


class TableCone(Value):
    """The mapping cone (shift 1) or cocone (shift 0) of a chain map f
    between two TableComplexes, kept as its pieces, with the roof it is
    tested against.  C-bar is additive, so its Hom sequences and its lifts
    are assembled from the pieces' (`LocalizedEngine`): `layout[i]` holds
    the `cone_blocks` of differential i.  Its terms and differentials are
    never built."""

    _fields = ("src", "dst", "f", "shift", "roof")

    def __init__(self, src: TableComplex, dst: TableComplex,
                 f: Sequence[ModMorphism], shift: int, roof: Roof) -> None:
        f = tuple(f)
        self.__dict__.update(
            src=src, dst=dst, f=f, shift=shift, roof=roof,
            layout=tuple(cone_blocks(src, dst, f, shift, i)
                         for i in range(src.n + 1)))

    @property
    def n(self) -> int:
        return self.src.n

    @property
    def ends(self) -> tuple[Module, Module]:
        return self.src.terms[self.shift], self.dst.terms[self.n + self.shift]


def s_tilde(cat: ExCategory, spec: MorphismClassSpec, q: IdealQuotient,
            roof: Roof) -> TableComplex:
    """Realize a roof class: realize a lift of its numerator in C and absorb
    both legs into the end differentials.  The consecutive composites of the
    result vanish on the nose; the result carries the roof."""
    eb = ebar_group(spec, q, roof.t.source, roof.s.target)
    delta = eb.lift(roof.delta_coords)
    nex = cat.realize(delta)
    d0 = nex.diffs[0].compose(roof.s)
    dn = roof.t.compose(nex.diffs[-1])
    terms = (roof.end_A,) + nex.terms[1:-1] + (roof.end_C,)
    diffs = (d0,) + nex.diffs[1:-1] + (dn,)
    for i in range(len(diffs) - 1):
        if any(q.project(diffs[i + 1].compose(diffs[i]))):
            raise LocalizationError(
                "realized roof has a nonzero consecutive composite")
    return TableComplex(terms, diffs, roof)


# -- block matrices and the weak kernel-cokernel criterion ----------------------


def _from_blocks(p: int, blocks) -> Matrix:
    """The block matrix whose block (r, c) is sign * m for each
    (r, c, m, sign) in blocks, and zero elsewhere, written into one entries
    list.  Every block row and block column up to the last must hold a
    block, which gives its size."""
    heights, widths = {}, {}
    for r, c, m, _ in blocks:
        heights[r], widths[c] = m.rows, m.cols
    row0, col0 = [0], [0]
    for r in range(len(heights)):
        row0.append(row0[-1] + heights[r])
    for c in range(len(widths)):
        col0.append(col0[-1] + widths[c])
    width = col0[-1]
    out = [0] * (row0[-1] * width)
    for r, c, m, sign in blocks:
        k, e = m.cols, m.entries
        if sign < 0:
            e = [(-x) % p for x in e]
        at = row0[r] * width + col0[c]
        for a in range(m.rows):
            out[at:at + k] = e[a * k:a * k + k]
            at += width
    return Matrix._trusted(p, row0[-1], width, tuple(out))


def weak_kc_check(cat: ExCategory, spec: MorphismClassSpec, q: IdealQuotient,
                  nex: NExangle) -> CheckResult:
    """Exactness of both localized Hom sequences at the inner positions of a
    distinguished complex, tested against every generator.

    Iso mode reads the quotient tables directly; saturate mode works with
    right-fraction hom-sets over the bounded universe.
    """
    if spec.mode == "iso":
        fail, checked = _kc_tables(cat, q, nex)
    else:
        fail, checked = _kc_fractions(cat, spec, q, nex)
    if fail is None:
        return CheckResult("weak-kc", True, None, checked)
    side, pos, label = fail
    return CheckResult(
        "weak-kc", False,
        f"{side} sequence not exact at position {pos} "
        f"with test object {label}", checked)


def _kc_tables(cat, q, nex):
    """The homology of each Hom sequence of nex in C-bar, by `_homology`;
    `_diff_maps` lists the covariant maps from d_n down, so position pos is
    its slot n + 1 - pos."""
    n = nex.n
    checked = 0
    for side in ("covariant", "contravariant"):
        contra = side == "contravariant"
        homology = [_homology(q, tuple(_diff_maps(q, nex, T, contra)))
                    for T in cat.generators]
        for pos in range(1, n + 1):
            slot = pos if contra else n + 1 - pos
            for ti, label in enumerate(cat.labels):
                checked += 1
                if homology[ti][slot - 1] != 0:
                    return (side, pos, label), checked
    return None, checked


class FractionHoms(MemoOwner):
    """Right-fraction hom-sets of the localized category (saturate mode):
    pairs (f: X -> W, s: Y -> W) with the class of s in F-bar, up to joint
    Ore equivalence over the bounded universe.  A None denominator marks the
    identity of Y."""

    def __init__(self, spec: MorphismClassSpec, q: IdealQuotient) -> None:
        self.spec = spec
        self.q = q
        self._memo: defaultdict = defaultdict(dict)

    @memo
    def reps(self, X: Module, Y: Module) -> list:
        items = [(Y, fc, None) for fc in self.q.classes(X, Y)]
        for W in self.q.universe:
            for sc in sorted(member_classes(self.spec, self.q, Y, W)):
                if sc in _invertible_classes(self.q, Y, W):
                    continue
                for fc in self.q.classes(X, W):
                    items.append((W, fc, sc))
        got: list = []
        for it in items:
            if not any(self._equal(X, Y, it, r) for r in got):
                got.append(it)
        return got

    def class_index(self, X: Module, Y: Module, item) -> int:
        for i, r in enumerate(self.reps(X, Y)):
            if self._equal(X, Y, item, r):
                return i
        raise LocalizationError("fraction class escaped the enumerated pool")

    def zero_index(self, X: Module, Y: Module) -> int:
        return self.class_index(X, Y, (Y, self.q.zero_class(X, Y), None))

    def _morphs(self, X: Module, Y: Module, item):
        W, fc, sc = item
        f = self.q.rep(X, W, fc)
        s = identity_morphism(Y) if sc is None else self.q.rep(Y, W, sc)
        return f, s

    def precompose(self, X: Module, Y: Module, item, d: ModMorphism):
        """The fraction item . Q(d) for d: X' -> X, an item at (X', Y)."""
        W, fc, sc = item
        f = self.q.rep(X, W, fc)
        return (W, self.q.project(f.compose(d)), sc)

    def postcompose(self, X: Module, Y: Module, item, d: ModMorphism):
        """The fraction Q(d) . item for d: Y -> Y', an item at (X, Y')."""
        f, s = self._morphs(X, Y, item)
        w, s2, d2 = ore(self.spec, self.q, s, d, left=False)  # s2.d == d2.s
        return (w, self.q.project(d2.compose(f)), self.q.project(s2))

    def _equal(self, X: Module, Y: Module, it1, it2) -> bool:
        q = self.q
        f1, s1 = self._morphs(X, Y, it1)
        f2, s2 = self._morphs(X, Y, it2)
        p = q.p
        for V in q.universe:
            # u1 = u2 = 0 is a solution, which the walk below skips
            if q.zero_class(Y, V) in member_classes(self.spec, q, Y, V):
                return True
            s1_mat = _pre(q, s1, V)
            mat = hstack([vstack([s1_mat, _pre(q, f1, V)]),
                          vstack([_pre(q, s2, V), _pre(q, f2, V)]).scale(p - 1)])
            kb = kernel_basis(mat)
            if not kb:
                continue
            kmat = hstack(kb)
            for combo in enumerate_vectors(p, len(kb)):
                if combo.is_zero:
                    continue
                vec = kmat @ combo
                u1 = Matrix.column(p, vec.entries[:s1_mat.cols])
                cls = tuple((s1_mat @ u1).entries)
                if cls in member_classes(self.spec, q, Y, V):
                    return True
        return False


@memo
def _fraction_homs(spec: MorphismClassSpec, q: IdealQuotient) -> FractionHoms:
    return FractionHoms(spec, q)


def _kc_fractions(cat, spec, q, nex):
    fr = _fraction_homs(spec, q)
    n = nex.n
    checked = 0
    for side in ("covariant", "contravariant"):
        for pos in range(1, n + 1):
            for ti, T in enumerate(cat.generators):
                checked += 1
                if side == "contravariant":
                    src_obj = nex.terms[pos - 1]
                    mid_obj = nex.terms[pos]
                    image = {
                        fr.class_index(T, mid_obj, fr.postcompose(
                            T, src_obj, it, nex.diffs[pos - 1]))
                        for it in fr.reps(T, src_obj)}
                    zero = fr.zero_index(T, nex.terms[pos + 1])
                    kernel = {
                        i for i, it in enumerate(fr.reps(T, mid_obj))
                        if fr.class_index(T, nex.terms[pos + 1], fr.postcompose(
                            T, mid_obj, it, nex.diffs[pos])) == zero}
                else:
                    mid_obj = nex.terms[pos]
                    image = {
                        fr.class_index(mid_obj, T, fr.precompose(
                            nex.terms[pos + 1], T, it, nex.diffs[pos]))
                        for it in fr.reps(nex.terms[pos + 1], T)}
                    zero = fr.zero_index(nex.terms[pos - 1], T)
                    kernel = {
                        i for i, it in enumerate(fr.reps(mid_obj, T))
                        if fr.class_index(nex.terms[pos - 1], T, fr.precompose(
                            mid_obj, T, it, nex.diffs[pos - 1])) == zero}
                if image != kernel:
                    return (side, pos, cat.labels[ti]), checked
    return None, checked


# -- the axiom suite on the materialized quotient (iso mode) --------------------


class LocalizedEngine(MemoOwner):
    """The localized category in iso mode, as an engine of the shared
    C1-C4 drivers (`exangulated.check_c1` and on).  Its classes are the
    identity roofs over E-bar(C, A), its complexes `TableComplex`es that
    carry their roof, and a complex is distinguished when it is homotopy
    equivalent in C-bar to the realization of its class
    (`homotopy_equivalent`).

    The cones and cocones that C3/C3' test are `TableCone`s.  C-bar is
    additive, so Hom(T, cone f) is the cone of Hom(T, f): the Hom sequences
    of a cone and its lift system are written block by block from the
    memoized `_post_matrix`/`_pre_matrix` of its pieces, and no sum module
    of a cone is built.  Many cones share these matrices, so each test is
    first looked up by the values of its pieces, and built only on a miss
    (`sequence_homology`, `identity_lift_exists`)."""

    def __init__(self, cat: ExCategory, spec: MorphismClassSpec,
                 q: IdealQuotient) -> None:
        self.cat, self.spec, self.q = cat, spec, q
        self.n, self.generators, self.labels = cat.n, cat.generators, cat.labels
        self.p, self.basis_reps, self.project, self.qdim = (
            q.p, q.basis_reps, q.project, q.qdim)
        self.universe, self.format_object = q.universe, cat.format_object
        self._memo: defaultdict = defaultdict(dict)

    def _ebar(self, roof: Roof) -> EbarSpace:
        return ebar_group(self.spec, self.q, roof.end_C, roof.end_A)

    def ext_elements(self, C: Module, A: Module) -> list[Roof]:
        return [identity_roof(self.spec, self.q, C, A, coords)
                for coords in ebar_group(self.spec, self.q, C, A).classes()]

    @memo
    def realize(self, roof: Roof) -> TableComplex:
        return s_tilde(self.cat, self.spec, self.q, roof)

    def _pair_tag(self, roof: Roof) -> str:
        return (f"the class {list(roof.delta_coords)} in E-bar("
                f"{self.q.fmt(roof.end_C)}, {self.q.fmt(roof.end_A)})")

    def _hom_sequence(self, cx: TableComplex | TableCone, T: Module,
                      variance: str) -> list[Matrix]:
        """The maps of a Hom sequence of C-bar ending in E-bar."""
        contra = variance == "contravariant"
        if isinstance(cx, TableCone):
            maps = [self._cone_map(cx, i, T, contra) for i in range(cx.n + 1)]
            if not contra:
                maps.reverse()
        else:
            maps = _diff_maps(self.q, cx, T, contra)
        maps.append(self._ebar_column(cx.roof, T, variance))
        return maps

    def _cone_map(self, cx: TableCone, i: int, T: Module, contra: bool
                  ) -> Matrix:
        """Differential i of a cone under C-bar(T, -) (contra) or C-bar(-, T),
        over the summands of its ends: the `_post_matrix` of each block in
        the block's place, or the `_pre_matrix` in the transposed place."""
        # every summand of both ends is an end of some block
        q = self.q
        if contra:
            return _from_blocks(q.p, [(r, c, _post_matrix(q, T, g), sign)
                                      for r, c, g, sign in cx.layout[i]])
        return _from_blocks(q.p, [(c, r, _pre_matrix(q, g, T), sign)
                                  for r, c, g, sign in cx.layout[i]])

    # -- cone tests keyed by the values of their pieces
    #
    # C3/C3' test many cones whose Hom sequences and lift systems are equal
    # as matrices.  So a cone test is looked up before anything is built, by
    # a key of small integers: `_number` numbers each matrix by its value,
    # and each piece (a block's `_post_matrix`/`_pre_matrix` at a test
    # object, an E-bar column) is numbered through a table keyed by the
    # modules, which hash by identity, and the int tuples that determine it
    # (a block's `flat` coordinates, a roof's class).  No key holds a
    # `ModMorphism`, `Matrix` or `Roof`, so each hashes in C; a miss builds
    # with the builders above.

    def _number(self, m: Matrix) -> int:
        """m's number in the engine's value table: equal values, one number."""
        table = self._memo[LocalizedEngine._number]
        return table.setdefault(m, len(table))

    def _piece(self, T: Module, g: ModMorphism, contra: bool) -> int:
        """The number of `_post_matrix(q, T, g)` (contra) or
        `_pre_matrix(q, g, T)`."""
        pieces = self._memo[LocalizedEngine._piece]
        key = (T, contra, g.source, g.target, g.flat)
        got = pieces.get(key)
        if got is None:
            q = self.q
            got = pieces[key] = self._number(
                _post_matrix(q, T, g) if contra else _pre_matrix(q, g, T))
        return got

    def _pieces(self, cx: TableCone, tests, contra: bool) -> tuple:
        """(i, row, column, sign, piece) of each block of each differential
        i of cx, its piece taken at the test object tests[i]; `_piece` is
        inlined where the number is known."""
        pieces = self._memo[LocalizedEngine._piece]
        out = []
        for i, blocks in enumerate(cx.layout):
            T = tests[i]
            for r, c, g, sign in blocks:
                got = pieces.get((T, contra, g.source, g.target, g.flat))
                if got is None:
                    got = self._piece(T, g, contra)
                out.append((i, r, c, sign, got))
        return tuple(out)

    def _ebar_number(self, roof: Roof, T: Module, variance: str) -> int:
        """The number of `_ebar_column(roof, T, variance)`, which reads only
        the roof's ends and class."""
        table = self._memo[LocalizedEngine._ebar_number]
        key = (T, variance, roof.end_C, roof.end_A, roof.delta_coords)
        got = table.get(key)
        if got is None:
            got = table[key] = self._number(self._ebar_column(roof, T, variance))
        return got

    def sequence_homology(self, cx: TableComplex | TableCone, T: Module,
                          variance: str) -> tuple[int | None, ...]:
        """`built_homology`; for a cone, looked up by the pieces of its maps
        and the number of its E-bar column."""
        if not isinstance(cx, TableCone):
            return built_homology(self, cx, T, variance)
        key = (variance, self._ebar_number(cx.roof, T, variance),
               self._pieces(cx, (T,) * len(cx.layout),
                            variance == "contravariant"))
        table = self._memo[LocalizedEngine.sequence_homology]
        got = table.get(key)
        if got is None:
            got = table[key] = built_homology(self, cx, T, variance)
        return got

    @memo
    def _ebar_column(self, roof: Roof, T: Module, variance: str) -> Matrix:
        """The last map of a Hom sequence: the roof's class pulled back along
        each basis class of C-bar(T, C), or pushed forward along each of
        C-bar(A, T), in E-bar coordinates; each column is one product with
        the `_ebar_matrix` of a basis representative.  Every complex of the
        roof's class shares it, so it is cached per (roof, T, variance)."""
        q, spec, C, A = self.q, self.spec, roof.end_C, roof.end_A
        contra = variance == "contravariant"
        reps = q.basis_reps(T, C) if contra else q.basis_reps(A, T)
        eb = ebar_group(spec, q, *((T, A) if contra else (C, T)))
        return from_columns(q.p, eb.dim, [
            _apply(_ebar_matrix(spec, q, C, A, r, contra), roof.delta_coords)
            for r in reps])

    def is_split(self, cx: TableComplex) -> bool:
        # the split complex is contractible, so an n-exangle in C-bar too
        split = self.cat.split_realization(
            self.cat.ext(cx.terms[-1], cx.terms[0]).zero())
        return homotopy_equivalent(
            self, cx, TableComplex(split.terms, split.diffs), True)

    def arrows(self, X: Module, Y: Module):
        return (self.q.rep(X, Y, c) for c in self.q.classes(X, Y))

    def push(self, roof: Roof, f: ModMorphism) -> Roof:
        coords = ebar_push(self.spec, self.q, self._ebar(roof),
                           roof.delta_coords, f)
        return identity_roof(self.spec, self.q, roof.end_C, f.target, coords)

    def pull(self, roof: Roof, f: ModMorphism) -> Roof:
        coords = ebar_pull(self.spec, self.q, self._ebar(roof),
                           roof.delta_coords, f)
        return identity_roof(self.spec, self.q, f.source, roof.end_A, coords)

    def identity_lift_exists(self, cx: TableComplex | TableCone,
                             ref: TableComplex) -> bool:
        """One lift cx -> ref of the identity ends exists.  For a cone this
        is `_block_lift_exists`, looked up by the pieces of its system: the
        pre pieces of each cone differential at ref's terms, the post pieces
        of ref's differentials at each cone summand, ref's d_0 and its
        right end."""
        if not isinstance(cx, TableCone):
            return has_identity_lift(cx, ref, self.q)
        n, d0 = cx.n, ref.diffs[0]
        pre = self._pieces(cx, ref.terms[1:], False)
        post = tuple(tuple(self._piece(X, ref.diffs[i], True) for X in
                           cone_summands(cx.src, cx.dst, cx.shift, i))
                     for i in range(1, n + 1))
        key = (pre, post, d0.source, d0.target, d0.flat, ref.terms[n + 1])
        table = self._memo[LocalizedEngine.identity_lift_exists]
        got = table.get(key)
        if got is None:
            got = table[key] = self._block_lift_exists(cx, ref)
        return got

    def _block_lift_exists(self, cx: TableCone, ref: TableComplex) -> bool:
        """The lift test of a cone: the system of `solve_lift`, written as
        one block matrix over the summands.  u_i lies in C-bar(X_i, ref_i),
        one column block per summand of X_i, and square i reads
        u_{i+1} . d_i - d'_i . u_i = 0, one row block per summand of X_i.
        A block g of d_i puts `_pre_matrix(g, ref_{i+1})` at (the summand g
        leaves, the summand of u_{i+1} it enters), as in the covariant Hom
        sequences, and each summand X of X_i puts minus
        `_post_matrix(X, d'_i)` at (X, X of u_i).  u_0 and u_{n+1} are the
        identities, so squares 0 and n put d'_0 and -d_n on the right."""
        q = self.q
        n, p = cx.n, q.p
        parts = [cone_summands(cx.src, cx.dst, cx.shift, i)
                 for i in range(n + 1)]
        # the first block of square i, and of u_{i+1}
        row0 = list(accumulate(map(len, parts), initial=0))
        col0 = list(accumulate(map(len, parts[1:]), initial=0))
        blocks = [(row0[i] + c, col0[i] + r,
                   _pre_matrix(q, g, ref.terms[i + 1]), sign)
                  for i in range(n) for r, c, g, sign in cx.layout[i]]
        blocks += [(row0[i] + k, col0[i - 1] + k,
                    _post_matrix(q, X, ref.diffs[i]), -1)
                   for i in range(1, n + 1) for k, X in enumerate(parts[i])]
        system = _from_blocks(p, blocks)
        ids = q.identity_class(ref.terms[n + 1])
        last = -(self._cone_map(cx, n, ref.terms[n + 1], False)
                 @ Matrix._trusted(p, len(ids), 1, ids))
        first = q.project(ref.diffs[0])
        rhs = (first + (0,) * (system.rows - len(first) - last.rows)
               + last.entries)
        return rref_solve(system,
                          Matrix._trusted(p, len(rhs), 1, rhs)) is not None

    def mapping_cone(self, src, dst, f, roof: Roof) -> TableCone:
        return TableCone(src, dst, f, 1, roof)

    def mapping_cocone(self, src, dst, f, roof: Roof) -> TableCone:
        return TableCone(src, dst, f, 0, roof)

    def is_distinguished(self, cx: TableComplex | TableCone) -> bool:
        return homotopy_equivalent(self, cx, self.realize(cx.roof),
                                   realization_is_exangle(self, cx.roof))

    # -- C4: localized inflations are F-member conjugates of realized edges

    edge_qualifier = "localized "

    def outer_ends(self) -> list[tuple[int, Module]]:
        """The generators that stay nonzero in the quotient."""
        return [(i, g) for i, g in enumerate(self.generators)
                if any(self.q.identity_class(g))]

    def edges(self, X: Module, Y: Module, dual: bool) -> list[ModMorphism]:
        return [self.q.rep(X, Y, c) for c in sorted(self.edge_classes(X, Y, dual))]

    @memo
    def far_classes(self, mid: Module, far: Module, dual: bool
                    ) -> tuple[tuple[int, ...], ...]:
        """The classes of the far factors mid -> far (dual: far -> mid):
        realized edges with an F-member factor at mid, e . m over m: mid -> Z
        (dual: m . e over m: Z -> mid), member-major.  The class of e . m is
        the class of e under `_pre(q, m, far)`, so no composite is built."""
        q = self.q
        out: list[tuple[int, ...]] = []
        for Z, members in self._members_at(mid, dual):
            edges = self.cat.edges(*((far, Z) if dual else (Z, far)), dual)
            if not edges:
                continue
            classes = [q.project(e) for e in edges]
            for m in members:
                out.extend(_images(_post(q, far, m) if dual else _pre(q, m, far),
                                   classes))
        return tuple(out)

    @memo
    def _members_at(self, X: Module, dual: bool) -> list:
        """(Z, F-member representatives X -> Z; dual: Z -> X) for every Z of
        the universe that has one."""
        out = []
        for Z in self.universe:
            ends = (Z, X) if dual else (X, Z)
            members = member_classes(self.spec, self.q, *ends)
            if members:
                out.append((Z, [self.q.rep(*ends, c) for c in sorted(members)]))
        return out

    @memo
    def edge_classes(self, X: Module, Y: Module, dual: bool) -> frozenset:
        """Classes X -> Y that are inflations (dual: deflations) of the
        localized structure: F-member conjugates h . e . s of realized edges
        e.  Post-isomorphism orbits are materialized, so membership tests
        against these sets may drop any leading isomorphism factor."""
        out = set()
        for Z, pre in self._members_at(X, False):
            for W, post in self._members_at(Y, True):
                for e in self.cat.edges(Z, W, dual):
                    for s in pre:
                        es = e.compose(s)
                        out.update(self.q.project(h.compose(es)) for h in post)
        return frozenset(out)


def _tilde_wic(eng: LocalizedEngine) -> CheckResult:
    """Weak cancellation in the localized structure: if some composite
    through a factor class is a localized inflation, the first factor must
    be one (dually for deflations and second factors)."""
    q, labels = eng.q, eng.labels
    checked = 0
    survivors = eng.outer_ends()
    for gi, g in survivors:
        for hj, h in survivors:
            infl_tot = eng.edge_classes(g, h, False)
            defl_tot = eng.edge_classes(g, h, True)
            if not infl_tot and not defl_tot:
                continue
            for mid in q.universe:
                infl_first = (eng.edge_classes(g, mid, False)
                              if infl_tot else frozenset())
                defl_second = (eng.edge_classes(mid, h, True)
                               if defl_tot else frozenset())
                for sc in q.classes(mid, h):
                    lhs = _post(q, g, q.rep(mid, h, sc))
                    if infl_tot:
                        for tot in sorted(infl_tot):
                            rhs = Matrix.column(q.p, list(tot))
                            sol = rref_solve(lhs, rhs)
                            if sol is None:
                                continue
                            checked += 1
                            fc = tuple(sol.col_list(0))
                            if fc not in infl_first:
                                return CheckResult(
                                    "WIC", False,
                                    f"composite {labels[gi]} -> "
                                    f"{q.fmt(mid)} -> {labels[hj]} is a "
                                    "localized inflation but its first "
                                    "factor is not", checked)
                    if defl_tot and sc not in defl_second:
                        for tot in sorted(defl_tot):
                            rhs = Matrix.column(q.p, list(tot))
                            if rref_solve(lhs, rhs) is not None:
                                checked += 1
                                return CheckResult(
                                    "WIC", False,
                                    f"composite {labels[gi]} -> "
                                    f"{q.fmt(mid)} -> {labels[hj]} is a "
                                    "localized deflation but its second "
                                    "factor is not", checked)
                    elif defl_tot:
                        checked += 1
    return CheckResult("WIC", True, None, checked)


# -- the comparison functor and the iso-mode equivalence ------------------------


def _check_equivalence(cat, spec, q) -> CheckResult:
    """In iso mode the localized theory must agree with the quotient tables:
    the comparison map is a natural bijection on every generator pair."""
    checked = 0
    for C in cat.generators:
        for A in cat.generators:
            et = etilde_group(spec, q, C, A)
            checked += 1
            if len(set(et.mu_map)) != len(et.mu_map):
                return CheckResult(
                    "equivalence", False,
                    f"comparison map not injective on E-bar({q.fmt(C)}, "
                    f"{q.fmt(A)})", checked)
            if set(et.mu_map) != set(range(len(et.reps))):
                return CheckResult(
                    "equivalence", False,
                    f"comparison map not surjective on E-bar({q.fmt(C)}, "
                    f"{q.fmt(A)})", checked)
            # additivity against the roof addition table
            eb = et.ebar
            cls = eb.classes()
            for i, u in enumerate(cls):
                for j, v in enumerate(cls):
                    total = tuple((x + y) % q.p for x, y in zip(u, v))
                    ti = cls.index(total)
                    checked += 1
                    if et.add_table[et.mu_map[i]][et.mu_map[j]] != et.mu_map[ti]:
                        return CheckResult(
                            "equivalence", False,
                            f"comparison map not additive on E-bar({q.fmt(C)}, "
                            f"{q.fmt(A)})", checked)
    # naturality against pushes and pulls along generator morphisms
    for C in cat.generators:
        for A in cat.generators:
            eb = ebar_group(spec, q, C, A)
            for B in cat.generators:
                for kind, maps, roof_move, ebar_move, ends in (
                        ("pushes", hom_basis(A, B), roof_push, ebar_push, (C, B)),
                        ("pulls", hom_basis(B, C), roof_pull, ebar_pull, (B, A))):
                    for m in maps:
                        for coords in eb.classes():
                            checked += 1
                            lhs = roof_move(spec, q, identity_roof(
                                spec, q, C, A, coords), m)
                            rhs = identity_roof(spec, q, *ends, ebar_move(
                                spec, q, eb, coords, m))
                            if not roof_equal(spec, q, lhs, rhs):
                                return CheckResult(
                                    "equivalence", False,
                                    f"comparison map not natural for {kind} "
                                    f"E-bar({q.fmt(C)}, {q.fmt(A)}) -> E-bar("
                                    f"{q.fmt(ends[0])}, {q.fmt(ends[1])})",
                                    checked)
    return CheckResult("equivalence", True, None, checked)


def _check_functor(eng: LocalizedEngine) -> CheckResult:
    """The projection to the quotient with the comparison map preserves
    composition, identities, and distinguished realizations."""
    cat, spec, q = eng.cat, eng.spec, eng.q
    checked = 0
    objects = q.universe[:FUNCTOR_UNIVERSE]
    for X in objects:
        for Y in objects:
            for f in hom_basis(X, Y):
                for Z in objects:
                    for g in hom_basis(Y, Z):
                        checked += 1
                        if q.project(g.compose(f)) != q.compose_classes(
                                X, Y, Z, q.project(f), q.project(g)):
                            return CheckResult(
                                "functor", False,
                                f"projection not functorial at {q.fmt(X)} -> "
                                f"{q.fmt(Y)} -> {q.fmt(Z)}", checked)
    for C in cat.generators:
        for A in cat.generators:
            eb = ebar_group(spec, q, C, A)
            space = cat.ext(C, A)
            for el in space.basis():
                checked += 1
                nex = cat.realize(el)
                image = TableComplex(nex.terms, nex.diffs, identity_roof(
                    spec, q, C, A, eb.project(el)))
                if not eng.is_distinguished(image):
                    return CheckResult(
                        "functor", False,
                        f"distinguished complex for {cat._pair_tag(el)} does "
                        "not stay distinguished in the localization", checked)
    return CheckResult("functor", True, None, checked)


# -- the top-level driver -------------------------------------------------------


def _verdict_exit(verdict: str) -> int:
    if verdict == "fails weak-kc":
        return 20
    if verdict == "MR precondition failed":
        return 30
    if verdict.startswith("weakly "):
        return 10
    return 0


class LocalizationReport(Record):
    """Everything the pipeline established, with witnesses."""

    _fields = ("verdict", "checks", "skipped", "kc_details", "nf_labels",
               "mode", "bounds")

    def __init__(self, verdict: str, checks: dict[str, CheckResult],
                 skipped: dict[str, str],
                 kc_details: tuple[tuple[str, bool, str | None], ...],
                 nf_labels: tuple[str, ...], mode: str,
                 bounds: dict[str, int]) -> None:
        self.__dict__.update(verdict=verdict, checks=checks, skipped=skipped,
                             kc_details=kc_details, nf_labels=nf_labels,
                             mode=mode, bounds=bounds)

    @property
    def exit_code(self) -> int:
        return _verdict_exit(self.verdict)


_AXIOM_NAMES = ("C1", "C2", "C2'", "C3", "C3'", "C4", "WIC")


def localize(cat: ExCategory, spec: MorphismClassSpec,
             nf_indices: Sequence[int]) -> LocalizationReport:
    """Run the whole localization pipeline and classify the result.

    Axiom failures land in the report with witnesses; BoundExceeded is raised
    for exhausted bounds, LocalizationError for internal inconsistencies.
    """
    if cat.n < 1:
        raise ValueError("the extension degree must be at least 1")
    q = IdealQuotient(cat, nf_indices)
    bounds = {
        "multiplicity": cat.objects.multiplicity_bound,
        "endpoint_summands": ENDPOINT_SUMMANDS,
        "path_length": cat.alg.path_length_bound,
    }
    checks: dict[str, CheckResult] = {}
    skipped: dict[str, str] = {}
    checks.update(check_mr(spec, q))
    if not all(c.passed for c in checks.values()):
        for name in ("weak-kc",) + _AXIOM_NAMES:
            skipped[name] = "not checked (MR precondition failed)"
        return LocalizationReport(
            "MR precondition failed", checks, skipped, (), q.nf_labels,
            spec.mode, bounds)

    kc_details: list[tuple[str, bool, str | None]] = []
    first_fail: str | None = None
    kc_checked = 0
    for C in cat.generators:
        for A in cat.generators:
            for delta in cat.ext_elements(C, A):
                nex = cat.realize(delta)
                res = weak_kc_check(cat, spec, q, nex)
                kc_checked += res.checked
                tag = cat._pair_tag(delta)
                kc_details.append((tag, res.passed, res.witness))
                if not res.passed and first_fail is None:
                    first_fail = f"{tag}: {res.witness}"
    checks["weak-kc"] = CheckResult("weak-kc", first_fail is None,
                                    first_fail, kc_checked)

    eng = LocalizedEngine(cat, spec, q)
    if spec.mode == "iso":
        checks["C1"] = check_c1(eng)
        checks["C2"] = check_c2(eng, dual=False)
        checks["C2'"] = check_c2(eng, dual=True)
        checks["C3"] = check_c3(eng, dual=False)
        checks["C3'"] = check_c3(eng, dual=True)
        weak_names = ("C1", "C2", "C2'", "C3", "C3'")
        weak_pass = all(checks[nm].passed for nm in weak_names)
        if weak_pass != (first_fail is None):
            raise LocalizationError(
                "internal inconsistency: the weak kernel-cokernel criterion "
                "and the localized axiom checks disagree")
        if first_fail is None:
            checks["C4"] = check_c4(eng)
            checks["WIC"] = _tilde_wic(eng)
        else:
            skipped["C4"] = "not checked (weak-kc already failed)"
            skipped["WIC"] = "not checked (weak-kc already failed)"
    else:
        for name in _AXIOM_NAMES:
            skipped[name] = "not computed in saturate mode"

    if first_fail is not None:
        verdict = "fails weak-kc"
    elif ("C4" in checks and checks["C4"].passed
          and "WIC" in checks and checks["WIC"].passed):
        verdict = f"{cat.n}-exangulated"
    else:
        verdict = f"weakly {cat.n}-exangulated"

    if spec.mode == "iso" and first_fail is None:
        checks["equivalence"] = _check_equivalence(cat, spec, q)
        checks["functor"] = _check_functor(eng)
    elif spec.mode != "iso":
        skipped["equivalence"] = "not computed in saturate mode"
        skipped["functor"] = "not computed in saturate mode"
    else:
        skipped["equivalence"] = "not checked (weak-kc already failed)"
        skipped["functor"] = "not checked (weak-kc already failed)"

    return LocalizationReport(verdict, checks, skipped, tuple(kc_details),
                              q.nf_labels, spec.mode, bounds)
