"""The per-pair C4 loop, kept as the reference that `exangulated.check_c4`
(composite classes by one matrix per near edge) is tested against.

It walks the same loops in the same order as the driver, but composes each
near edge with each far factor as morphisms and takes the coordinates of
every composite one at a time.  In C the far factors are the edges; in the
quotient they are the realized edges e . m with an F-member m at the end
they share with the near edge (dual: m . e), built afresh for each use.
"""

from exangulate.exangulated import CheckResult
from exangulate.localization import LocalizedEngine


def far_factors(engine, X, Y, dual):
    if not isinstance(engine, LocalizedEngine):
        return engine.edges(X, Y, dual)
    out = []
    for Z, members in engine._members_at(Y if dual else X, dual):
        edges = engine.cat.edges(*((X, Z) if dual else (Z, Y)), dual)
        for m in members:
            out.extend(m.compose(e) if dual else e.compose(m) for e in edges)
    return out


def check_c4(engine) -> CheckResult:
    checked = 0
    for dual in (False, True):
        kind = "deflation" if dual else "inflation"

        def way(a, b):
            return (b, a) if dual else (a, b)

        for gi, g in engine.outer_ends():
            for mid in engine.universe:
                near = engine.edges(*way(g, mid), dual)
                if not near:
                    continue
                for far in engine.universe:
                    fars = far_factors(engine, *way(mid, far), dual)
                    if not fars:
                        continue
                    target = engine.edge_classes(*way(g, far), dual)
                    for f in near:
                        for t in fars:
                            checked += 1
                            comp = f.compose(t) if dual else t.compose(f)
                            if engine.hom_coords(comp) not in target:
                                path = (engine.labels[gi], engine.format_object(mid),
                                        engine.format_object(far))[::-1 if dual else 1]
                                return CheckResult(
                                    "C4", False,
                                    f"{engine.edge_qualifier}{kind}s "
                                    f"{' -> '.join(path)} compose to a non-{kind}",
                                    checked)
    return CheckResult("C4", True, None, checked)
