"""End-to-end acceptance runs on the A4 fixtures.

Each test covers one acceptance criterion, prints a single pass/FAIL line,
and enforces the stated runtime budget.  Run with ``pytest -s`` to see the
lines on success; on failure the line is in the captured output anyway.
"""

import importlib.util
import pathlib
import re
import time

from decompose_reference import decompose
from exangulate import quiver
from exangulate.cli import (build_category, build_probe, build_spec,
                            parse_input, probe_verdicts)
from exangulate.localization import localize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'pass' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _config(name):
    return parse_input((FIXTURES / name).read_text())


def _load_sibling(stem):
    path = pathlib.Path(__file__).resolve().parent / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_criterion_1_six_indecomposable_generators():
    t0 = time.perf_counter()
    cat = build_category(_config("a4-cluster.exg"))
    dimvecs = {g.dims for g in cat.generators}
    elapsed = time.perf_counter() - t0
    expected = {(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
                (1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0)}
    ok = (len(cat.generators) == 6 and dimvecs == expected
          and all(len(decompose(g)) == 1 for g in cat.generators)
          and elapsed < 1.0)
    _report(1, ok, f"6 indecomposables, dim vectors match ({elapsed:.2f}s)")


def test_criterion_2_ext_square_of_the_outer_simples():
    cat = build_category(_config("a4-cluster.exg"))
    by_label = dict(zip(cat.labels, cat.generators))
    t0 = time.perf_counter()
    dim = cat.ext(by_label["1"], by_label["4"]).dim
    elapsed = time.perf_counter() - t0
    ok = dim == 1 and elapsed < 1.0
    _report(2, ok, f"dim Ext^2(1, 4) = {dim} ({elapsed:.2f}s)")


def test_criterion_3_core_axioms_all_pass():
    cat = build_category(_config("a4-cluster.exg"))
    t0 = time.perf_counter()
    results = cat.check_core_axioms()
    elapsed = time.perf_counter() - t0
    names = ("C1", "C2", "C2'", "C3", "C3'", "C4", "WIC")
    failed = [n for n in names if not results[n].passed]
    ok = set(results) == set(names) and not failed and elapsed < 60.0
    _report(3, ok, f"C1-C4 and WIC all pass ({elapsed:.1f}s)"
            if ok else f"failed: {failed}")


def test_criterion_4_cluster_null_system_fails_weak_kc():
    cfg = _config("a4-cluster.exg")
    cat = build_category(cfg)
    spec = build_spec(cfg, cat)
    t0 = time.perf_counter()
    report = localize(cat, spec, [cfg.generators.index(l) for l in cfg.nf])
    probes = probe_verdicts(cfg, cat)
    elapsed = time.perf_counter() - t0
    printed_ok = (probes["printed"].startswith("not an exangle")
                  and "test object 3/4" in probes["printed"])
    ok = (report.verdict == "fails weak-kc"
          and printed_ok
          and probes["corrected"] == "distinguished"
          and elapsed < 60.0)
    _report(4, ok, f"verdict {report.verdict!r}; printed probe: "
                   f"{probes['printed']!r}; corrected probe: "
                   f"{probes['corrected']!r} ({elapsed:.1f}s)")


def test_criterion_5_empty_null_system_recovers_the_category():
    cfg = _config("a4-trivial.exg")
    cat = build_category(cfg)
    spec = build_spec(cfg, cat)
    t0 = time.perf_counter()
    report = localize(cat, spec, [])
    elapsed = time.perf_counter() - t0
    ok = (report.verdict == "2-exangulated"
          and report.checks["equivalence"].passed
          and report.checks["functor"].passed
          and elapsed < 60.0)
    _report(5, ok, f"verdict {report.verdict!r}, equivalence with a natural "
                   f"isomorphism on all generator pairs ({elapsed:.1f}s)")


def test_criterion_6_property_suites():
    props = _load_sibling("test_properties")
    suites = [name for name in dir(props) if name.startswith("test_")]
    t0 = time.perf_counter()
    for name in sorted(suites):
        getattr(props, name)()
    elapsed = time.perf_counter() - t0
    ok = len(suites) == 8 and elapsed < 300.0
    _report(6, ok, f"{len(suites)} property suites, each >= 200 cases, "
                   f"fixed seeds ({elapsed:.1f}s)")


_TAG = re.compile(r"^E\((.+), (.+)\) coords \[(.*)\]$")


def _kc_by_class(report):
    """Map the engine's per-class verdicts onto (pair label, kind) keys."""
    out = {}
    for tag, passed, _ in report.kc_details:
        m = _TAG.match(tag)
        assert m, tag
        coords = [int(x) for x in m.group(3).split(",")] if m.group(3) else []
        kind = "nonzero" if any(coords) else "zero"
        key = f"{m.group(1)}|{m.group(2)}"
        assert (key, kind) not in out, f"duplicate class {tag}"
        out[(key, kind)] = passed
    return out


def test_criterion_7_independent_oracle_agrees():
    oracle = _load_sibling("oracle")
    t0 = time.perf_counter()
    got = oracle.compute()

    cfg = _config("a4-cluster.exg")
    cat = build_category(cfg)
    labels = list(cat.labels)
    assert labels == oracle.LABELS
    hom_ok = got["hom"] == [[quiver.hom_dim(a, b) for b in cat.generators]
                            for a in cat.generators]
    ext_ok = got["ext2"] == [[cat.ext(c, a).dim for a in cat.generators]
                             for c in cat.generators]

    kc_ok = True
    for fixture, nf_labels in (("a4-cluster.exg", ["2/3/4"]),
                               ("a4-projinj.exg", ["2/3/4", "1/2/3"])):
        fcfg = _config(fixture)
        assert list(fcfg.nf) == nf_labels
        fcat = build_category(fcfg)
        spec = build_spec(fcfg, fcat)
        report = localize(
            fcat, spec, [fcfg.generators.index(l) for l in fcfg.nf])
        engine = _kc_by_class(report)
        mine = got["kc"]["cluster" if len(nf_labels) == 1 else "projinj"]
        expected = {(key, kind): v
                    for key, entry in mine.items()
                    for kind, v in entry.items()}
        if engine != expected:
            kc_ok = False
    elapsed = time.perf_counter() - t0
    ok = hom_ok and ext_ok and kc_ok
    _report(7, ok, "oracle and engine agree on Hom dims, Ext^2 dims, and "
                   f"all weak-kc verdicts for both null systems ({elapsed:.1f}s)")
