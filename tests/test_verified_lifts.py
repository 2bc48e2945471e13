"""C3/C3' check each property of a candidate once.

* `enumerate_lifts` checks every solution against its system, one product
  each, and yields it as a `VerifiedLift` (a, f_1, .., f_n, c).  Over C the
  hom coordinates are faithful, so a verified lift is a chain map.
* `ExCategory.mapping_cone`/`mapping_cocone` build the cone of a lift
  verified over that category between the same two complexes with
  `NExangle._of`, which skips the composites; `is_distinguished` composes
  them.  Any other family is checked square by square, as through the
  public API.
* The lift system of a pair of complexes is built once per hom space
  (`lift_system`); the right side is built per call.

These tests compare the trusted path with the validating one on every
C3/C3' candidate of `bench/inputs`, the three A4 fixtures and A2 at p = 3,
and pin the work that `check` no longer does.
"""

from functools import lru_cache
from pathlib import Path

import pytest

import exangulate
import exangulate.exangulated as exangulated
from exangulate.cli import build_category, parse_input
from exangulate.exangulated import (ExCategory, NExangle, VerifiedLift,
                                    check_c3, cocone_sign, cone,
                                    enumerate_lifts, lift_system)
from exangulate.linalg import Matrix
from exangulate.localization import IdealQuotient
from exangulate.quiver import (AlgebraPresentation, Arrow, Quiver, hom_basis,
                               identity_morphism, interval_module)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ["bench/inputs/a3-rad2.exg", "fixtures/a4-cluster.exg",
          "fixtures/a4-projinj.exg", "fixtures/a4-trivial.exg", "a2-at-p3"]


@lru_cache(maxsize=None)
def category(case: str) -> ExCategory:
    if case != "a2-at-p3":
        return build_category(parse_input((ROOT / case).read_text()))
    alg = AlgebraPresentation(Quiver(2, (Arrow("a", 1, 2),)), (), p=3,
                              path_length_bound=8)
    spans = {"2": (2, 2), "1/2": (1, 2), "1": (1, 1)}
    return ExCategory(alg, 1, [interval_module(alg, *s) for s in spans.values()],
                      labels=list(spans))


def c3_problems(cat: ExCategory):
    """(dual, src, dst, a, c, cls) for every lift problem of C3 (dual False:
    push-forward along A -> B, cocones) and C3' (dual True: pull-back along
    B -> C, cones), in the order `check_c3` visits them; cls is the class
    that src realizes (dual: dst)."""
    for dual in (False, True):
        for C in cat.generators:
            for A in cat.generators:
                for cls in cat.ext_elements(C, A):
                    X = cat.realize(cls)
                    for B in cat.generators:
                        for arrow in (cat.arrows(B, C) if dual
                                      else cat.arrows(A, B)):
                            if dual:
                                yield (dual, cat.realize(cat.pull(cls, arrow)),
                                       X, identity_morphism(A), arrow, cls)
                            else:
                                yield (dual, X, cat.realize(cat.push(cls, arrow)),
                                       arrow, identity_morphism(C), cls)


def is_chain_map(src, dst, f) -> bool:
    return all(f[i + 1].compose(src.diffs[i]) == dst.diffs[i].compose(f[i])
               for i in range(len(src.diffs)))


def candidate_class(cat: ExCategory, dual: bool, src, dst, cls):
    """The class `check_c3` gives the cone (dual) or cocone of a lift."""
    if dual:
        return cat.push(cls, src.diffs[0])
    d_n = dst.diffs[cat.n]
    return cat.pull(cls, d_n if cocone_sign(cat.n) > 0 else -d_n)


def broken_families(cat: ExCategory):
    """(dual, src, dst, family, class) with one inner component of a lift
    moved by a hom-basis morphism so that some square no longer commutes:
    at most one per lift problem that has a lift."""
    for dual, src, dst, a, c, cls in c3_problems(cat):
        if cat.lift_space(src, dst, a, c) is None:
            continue
        full = [a] + cat.lift_morphism(src, dst, a, c) + [c]
        assert is_chain_map(src, dst, full)
        broken = next(
            (bad for i in range(1, len(full) - 1)
             for b in hom_basis(full[i].source, full[i].target)
             if not is_chain_map(
                 src, dst, bad := full[:i] + [full[i] + b] + full[i + 1:])),
            None)
        if broken is not None:
            yield dual, src, dst, broken, candidate_class(cat, dual, src, dst, cls)


@pytest.mark.parametrize("case", ["bench/inputs/a3-rad2.exg", "a2-at-p3"])
def test_the_public_cone_api_rejects_a_family_that_is_not_a_chain_map(case):
    """One inner component of a lift of every C3/C3' problem is perturbed;
    both the method and the module-level function raise on the result."""
    cat = category(case)
    seen = {False: 0, True: 0}
    for dual, src, dst, family, eps in broken_families(cat):
        calls = ((cat.mapping_cone, exangulate.mapping_cone) if dual
                 else (cat.mapping_cocone, exangulate.mapping_cocone))
        with pytest.raises(ValueError, match="do not form a chain map"):
            calls[0](src, dst, family, eps)
        with pytest.raises(ValueError, match="do not form a chain map"):
            calls[1](cat, src, dst, family, eps)
        seen[dual] += 1
    assert seen[False] >= 3 and seen[True] >= 3


# -- verified lifts --------------------------------------------------------------


@pytest.mark.parametrize("case", INPUTS)
def test_every_yielded_lift_is_a_chain_map(case):
    """Every lift of every C3/C3' problem is a `VerifiedLift` over the
    category, with the given ends, that passes the module-level square
    check `_check_chain_map`."""
    cat = category(case)
    lifts = 0
    for _, src, dst, a, c, _ in c3_problems(cat):
        for lift in enumerate_lifts(src, dst, a, c, cat):
            assert type(lift) is VerifiedLift
            assert lift.space is cat and lift.src is src and lift.dst is dst
            assert len(lift) == cat.n + 2 and lift[0] is a and lift[-1] is c
            cat._check_chain_map(src, dst, lift)
            lifts += 1
    assert lifts >= 20


def lift_cases(cat: ExCategory):
    """(src, dst, a, c) of the C3/C3' problems that have a lift and a
    nonzero lift system."""
    for _, src, dst, a, c, _ in c3_problems(cat):
        if (lift_system(cat, src.diffs, dst.diffs)[2].entries
                and cat.lift_space(src, dst, a, c) is not None):
            yield src, dst, a, c


def nonzero_column(mat: Matrix) -> int:
    return next(k for k in range(mat.cols)
                if any(mat.entries[r * mat.cols + k] for r in range(mat.rows)))


@pytest.mark.parametrize("case", ["bench/inputs/a3-rad2.exg", "a2-at-p3"])
def test_a_wrong_particular_solution_is_never_yielded(case, monkeypatch):
    """With `rref_solve` returning a solution moved along a nonzero column
    of the system, `enumerate_lifts` raises before its first lift."""
    cat = category(case)
    real = exangulated.rref_solve

    def wrong(mat, rhs):
        got = real(mat, rhs)
        if got is None:
            return None
        k = nonzero_column(mat)
        return got + Matrix.column(mat.p, [int(i == k) for i in range(mat.cols)])

    monkeypatch.setattr(exangulated, "rref_solve", wrong)
    cases = 0
    for src, dst, a, c in lift_cases(cat):
        with pytest.raises(ArithmeticError, match="non-solution"):
            next(enumerate_lifts(src, dst, a, c, cat))
        cases += 1
    assert cases >= 10


def test_a_wrong_kernel_vector_is_never_yielded(monkeypatch):
    """With `kernel_basis` giving a vector outside the kernel, the
    particular lift is yielded and the next one raises."""
    cat = category("bench/inputs/a3-rad2.exg")
    real = exangulated.kernel_basis

    def wrong(mat):
        k = nonzero_column(mat)
        return real(mat) + (
            Matrix.column(mat.p, [int(i == k) for i in range(mat.cols)]),)

    monkeypatch.setattr(exangulated, "kernel_basis", wrong)
    src, dst, a, c = next(lift_cases(cat))
    lifts = enumerate_lifts(src, dst, a, c, cat)
    cat._check_chain_map(src, dst, next(lifts))
    with pytest.raises(ArithmeticError, match="non-solution"):
        next(lifts)


# -- cones of verified lifts ---------------------------------------------------------


def recorded_candidates(cat: ExCategory, monkeypatch):
    """Run C3 and C3' on cat and return (shift, src, dst, f, delta, cone)
    for every candidate they build."""
    out = []
    for name, shift in (("mapping_cone", 1), ("mapping_cocone", 0)):
        real = getattr(ExCategory, name)

        def recording(self, src, dst, f, delta, real=real, shift=shift):
            got = real(self, src, dst, f, delta)
            out.append((shift, src, dst, f, delta, got))
            return got

        monkeypatch.setattr(ExCategory, name, recording)
    check_c3(cat, False)
    check_c3(cat, True)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("case", INPUTS)
def test_a_trusted_cone_is_the_validated_one(case, monkeypatch):
    """Every C3/C3' candidate is built from a verified lift, and equals the
    `NExangle` that the validating path builds from the same components
    as a list; `is_distinguished` says the same of both."""
    cat = category(case)
    candidates = recorded_candidates(cat, monkeypatch)
    assert len({shift for shift, *_ in candidates}) == 2
    distinguished = 0
    for shift, src, dst, f, delta, cand in candidates:
        assert type(f) is VerifiedLift and f.space is cat
        build = cat.mapping_cone if shift else cat.mapping_cocone
        checked = build(src, dst, list(f), delta)
        assert checked == cand and checked is not cand
        assert checked == NExangle(*cone(src, dst, list(f), shift), delta)
        verdict = cat.is_distinguished(cand)
        assert cat.is_distinguished(checked) == verdict
        distinguished += verdict
    assert distinguished >= 2


def test_a_lift_verified_elsewhere_is_checked(monkeypatch):
    """A lift verified over an ideal quotient commutes only modulo the
    ideal, and one verified between other complexes says nothing of these:
    `ExCategory` checks both square by square, and rejects the first where
    a square does not commute in C."""
    cat = category("bench/inputs/a3-rad2.exg")
    checked = []
    real = ExCategory._check_chain_map

    def counting(self, src, dst, f):
        checked.append(f)
        return real(self, src, dst, f)

    monkeypatch.setattr(ExCategory, "_check_chain_map", counting)
    q = IdealQuotient(cat, [1])
    rejected = 0
    for dual, src, dst, a, c, cls in c3_problems(cat):
        eps = candidate_class(cat, dual, src, dst, cls)
        build = cat.mapping_cone if dual else cat.mapping_cocone
        for lift in enumerate_lifts(src, dst, a, c, q):
            assert lift.space is q
            if is_chain_map(src, dst, lift):
                build(src, dst, lift, eps)
            else:
                with pytest.raises(ValueError, match="chain map"):
                    build(src, dst, lift, eps)
                rejected += 1
            assert checked[-1] is lift
        for lift in enumerate_lifts(src, dst, a, c, cat):
            # the same components as a plain tuple, or marked verified over
            # another space or between other complexes, are checked; the
            # lift itself is not
            others = [tuple(lift), VerifiedLift._of(q, src, dst, lift)]
            if src is not dst:
                others.append(VerifiedLift._of(cat, dst, src, lift))
            for other in others:
                build(src, dst, other, eps)
                assert checked[-1] is other
            before = len(checked)
            build(src, dst, lift, eps)
            assert len(checked) == before
            break
    assert rejected >= 1


# -- work ----------------------------------------------------------------------------


def test_c3_composes_no_square_and_builds_each_lift_system_once(monkeypatch):
    """On `bench/inputs`, C3 and C3' check no chain map in modules and build
    at most one lift system per pair of realizations (121 pairs for 196
    solves); a second pass on the same category builds none.  The systems
    live in the category's `_memo`, so no global cache is added
    (`tests/test_caches.py`)."""
    cat = build_category(parse_input((ROOT / INPUTS[0]).read_text()))
    calls = []
    monkeypatch.setattr(ExCategory, "_check_chain_map",
                        lambda self, *args: calls.append(args))
    solves = []
    real = exangulated._lift_equations
    monkeypatch.setattr(exangulated, "_lift_equations",
                        lambda *args: solves.append(args) or real(*args))
    systems = cat._memo[lift_system.__wrapped__]
    results = [check_c3(cat, dual) for dual in (False, True)]
    assert all(r.passed for r in results)
    assert calls == [] and len(solves) == 196
    built = len(systems)
    assert 0 < built <= 121
    again = [check_c3(cat, dual) for dual in (False, True)]
    assert again == results and len(systems) == built
    assert calls == [] and len(solves) == 2 * 196
