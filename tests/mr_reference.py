"""Per-pair MR1 and MR2 checks, kept as the reference that the linear-map
versions in `localization` (`_check_mr1`, `_check_mr2`) are tested against.

Both take the member table of `localization.member_table` and walk the same
loops in the same order as the engine.  MR1 composes each member with each
class one pair at a time, and MR2 solves one linear system per class; so
both are slow, and they decide each pair without using that composition
with a fixed member is linear.
"""

from exangulate.exangulated import CheckResult, _post, _pre
from exangulate.linalg import Matrix, rref_solve
from exangulate.localization import LocalizationError, ore_left, ore_right


def check_mr1(spec, q, mem, keys) -> CheckResult:
    checked = 0
    for X, Y in keys:
        for fc in sorted(mem[(X, Y)]):
            for Z in q.universe:
                mem_xz = mem.get((X, Z), frozenset())
                mem_yz = mem.get((Y, Z), frozenset())
                for gc in q.classes(Y, Z):
                    checked += 1
                    if (q.compose_classes(X, Y, Z, fc, gc) in mem_xz
                            and gc not in mem_yz):
                        return CheckResult(
                            "MR1", False,
                            f"{q.fmt(X)} -> {q.fmt(Y)} -> {q.fmt(Z)}: the first "
                            "factor and the composite are in F-bar but the "
                            "second factor is not", checked)
    for Y, Z in keys:
        for gc in sorted(mem[(Y, Z)]):
            for X in q.universe:
                mem_xz = mem.get((X, Z), frozenset())
                mem_xy = mem.get((X, Y), frozenset())
                for fc in q.classes(X, Y):
                    checked += 1
                    if (q.compose_classes(X, Y, Z, fc, gc) in mem_xz
                            and fc not in mem_xy):
                        return CheckResult(
                            "MR1", False,
                            f"{q.fmt(X)} -> {q.fmt(Y)} -> {q.fmt(Z)}: the second "
                            "factor and the composite are in F-bar but the "
                            "first factor is not", checked)
    return CheckResult("MR1", True, None, checked)


def check_mr2(spec, q, mem, keys) -> CheckResult:
    checked = 0
    for X, Y in keys:
        for sc in sorted(mem[(X, Y)]):
            s = q.rep(X, Y, sc)
            for Z in q.universe:
                # fast path: W = Z, s2 = identity
                lhs = _pre(q, s, Z)
                for fc in q.classes(X, Z):
                    checked += 1
                    rhs = Matrix.column(q.p, list(fc))
                    if rref_solve(lhs, rhs) is not None:
                        continue
                    try:
                        ore_right(spec, q, s, q.rep(X, Z, fc))
                    except LocalizationError:
                        return CheckResult(
                            "MR2", False,
                            f"no right Ore completion for the span "
                            f"{q.fmt(Y)} <- {q.fmt(X)} -> {q.fmt(Z)}", checked)
    for Y, X in keys:
        for sc in sorted(mem[(Y, X)]):
            s = q.rep(Y, X, sc)
            for Z in q.universe:
                lhs = _post(q, Z, s)
                for fc in q.classes(Z, X):
                    checked += 1
                    rhs = Matrix.column(q.p, list(fc))
                    if rref_solve(lhs, rhs) is not None:
                        continue
                    try:
                        ore_left(spec, q, s, q.rep(Z, X, fc))
                    except LocalizationError:
                        return CheckResult(
                            "MR2", False,
                            f"no left Ore completion for the cospan "
                            f"{q.fmt(Y)} -> {q.fmt(X)} <- {q.fmt(Z)}", checked)
    return CheckResult("MR2", True, None, checked)
