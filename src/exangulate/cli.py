"""Command-line front end: declarative session files in, verdicts out.

A session file is a small stanza text (see the grammar below) that pins down
a quiver algebra with relations, a finite subcategory with an extension
degree, and — for localization runs — the null system N_F, the morphism class
F-bar, and the search bounds.  Four commands consume it:

    exangulate check <file>                 core axiom suite on the category
    exangulate localize <file>              full localization report
    exangulate hom <file> <obj> <obj>       dim Hom(X, Y)
    exangulate ext <file> <obj> <obj>       dim of the degree-n extension group

Only `localize` imports the localization layer; the others load `linalg`,
`quiver` and `exangulated` alone.

`check` exits 0 when every axiom passes and 20 otherwise; `localize` exits
with the report's code (0 = n-exangulated, 10 = weakly n-exangulated,
20 = fails weak-kc, 30 = MR precondition failed); inspection commands exit 0.
Internal errors exit 1; unreadable or ill-formed input exits 2; a run that
would pass one of the enumeration bounds or search budgets stops undecided
and exits 3.  `--json
PATH` additionally writes a machine-readable report (schema 1) whose bytes
are identical across runs for identical inputs.

Grammar (lines; `#` starts a comment; keys are `name = value`)::

    [quiver]
    vertices = 4
    arrow = a: 1 -> 2            # repeatable; name: source -> target
    relation = a b c             # repeatable; `+`-separated paths, each
                                 # optionally prefixed `coeff *`
    prime = 2                    # optional, overridden by --prime

    [category]
    n = 2
    generators = 4, 3/4, 2/3/4, 1/2/3, 1/2, 1

    [nf]
    generators = 2/3/4           # optional; omit for the empty null system

    [fbar]
    mode = iso                   # or saturate
    seed = 3/4 -> 2/3/4          # repeatable, saturate only: the unique
                                 # nonzero map between the named generators

    [bounds]
    multiplicity = 2
    path_length = 16

    [probe NAME]                 # repeatable; verdict appears in reports
    terms = 4, 2/3/4, 1/2, 1
    class = 1                    # coordinates in Ext^n(last, first)

Generator tokens name interval modules by their composition factors, top to
socle: `2/3/4` is the module supported on vertices 2..4.  Object arguments
of `hom`/`ext` are generator labels joined by `+`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .exangulated import ExCategory, NExangle, format_failure
from .linalg import BoundExceeded, is_prime
from .quiver import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    hom_basis,
    interval_module,
    zero_morphism,
)
from .values import Value

if TYPE_CHECKING:
    from .localization import MorphismClassSpec

_REPORT_ORDER = ("M0", "MR1", "MR2", "MR3", "weak-kc",
                 "C1", "C2", "C2'", "C3", "C3'", "C4", "WIC",
                 "equivalence", "functor")


class ParseError(ValueError):
    """Ill-formed or semantically invalid session file, with a location."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class RelationSpec(Value):
    _fields = ("coeffs", "paths", "line")

    def __init__(self, coeffs: tuple[int, ...], paths: tuple[tuple[str, ...], ...],
                 line: int) -> None:
        self.__dict__.update(coeffs=coeffs, paths=paths, line=line)


class SeedSpec(Value):
    _fields = ("source", "target", "line")

    def __init__(self, source: str, target: str, line: int) -> None:
        self.__dict__.update(source=source, target=target, line=line)


class ProbeSpec(Value):
    _fields = ("name", "terms", "coords", "line")

    def __init__(self, name: str, terms: tuple[str, ...], coords: tuple[int, ...],
                 line: int) -> None:
        self.__dict__.update(name=name, terms=terms, coords=coords, line=line)


class SessionConfig(Value):
    _fields = ("prime", "quiver", "relations", "n", "generators", "nf",
               "fbar_mode", "seeds", "multiplicity", "path_length", "probes")

    def __init__(self, prime: int, quiver: Quiver,
                 relations: tuple[RelationSpec, ...], n: int,
                 generators: tuple[str, ...], nf: tuple[str, ...],
                 fbar_mode: str, seeds: tuple[SeedSpec, ...], multiplicity: int,
                 path_length: int, probes: tuple[ProbeSpec, ...]) -> None:
        self.__dict__.update(
            prime=prime, quiver=quiver, relations=relations, n=n,
            generators=generators, nf=nf, fbar_mode=fbar_mode, seeds=seeds,
            multiplicity=multiplicity, path_length=path_length, probes=probes)

    def replace(self, **changes) -> "SessionConfig":
        """A copy with the named fields changed, built by the constructor."""
        return SessionConfig(**{**{f: getattr(self, f) for f in self._fields},
                                **changes})


# -- parsing ---------------------------------------------------------------------

_STANZA_KEYS = {
    "quiver": {"vertices", "arrow", "relation", "prime"},
    "category": {"n", "generators"},
    "nf": {"generators"},
    "fbar": {"mode", "seed"},
    "bounds": {"multiplicity", "path_length"},
    "probe": {"terms", "class"},
}
_REPEATABLE = {("quiver", "arrow"), ("quiver", "relation"), ("fbar", "seed")}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ARROW_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\d+)\s*->\s*(\d+)\Z")
_SEED_RE = re.compile(r"(\S+)\s*->\s*(\S+)\Z")


def _split_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _int_value(text: str, line: int, col: int, what: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}", line, col)
    if value < minimum:
        raise ParseError(f"{what} must be at least {minimum}", line, col)
    return value


def _comma_list(text: str) -> list[str]:
    if not text.strip():
        return []
    return [tok.strip() for tok in text.split(",")]


class _Stanza:
    def __init__(self, kind: str, name: str | None, line: int) -> None:
        self.kind = kind
        self.name = name
        self.line = line
        # key -> (value, line, column); repeatable keys collect lists
        self.scalars: dict[str, tuple[str, int, int]] = {}
        self.lists: dict[str, list[tuple[str, int, int]]] = {}


def _scan_stanzas(text: str) -> list[_Stanza]:
    stanzas: list[_Stanza] = []
    current: _Stanza | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _split_comment(raw)
        if not body.strip():
            continue
        stripped = body.strip()
        col = body.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated stanza header", lineno, col)
            inner = stripped[1:-1].strip()
            parts = inner.split()
            if len(parts) == 2 and parts[0] == "probe":
                if not re.fullmatch(r"[A-Za-z0-9_-]+", parts[1]):
                    raise ParseError(
                        f"bad probe name {parts[1]!r}", lineno, col)
                current = _Stanza("probe", parts[1], lineno)
            elif len(parts) == 1 and parts[0] in _STANZA_KEYS and parts[0] != "probe":
                kind = parts[0]
                if any(s.kind == kind for s in stanzas):
                    raise ParseError(f"duplicate [{kind}] stanza", lineno, col)
                current = _Stanza(kind, None, lineno)
            else:
                raise ParseError(f"unknown stanza [{inner}]", lineno, col)
            if current.kind == "probe" and any(
                    s.kind == "probe" and s.name == current.name for s in stanzas):
                raise ParseError(
                    f"duplicate [probe {current.name}] stanza", lineno, col)
            stanzas.append(current)
            continue
        if current is None:
            raise ParseError("key outside any stanza", lineno, col)
        eq = body.find("=")
        if eq < 0:
            raise ParseError("expected 'key = value'", lineno, col)
        key = body[:eq].strip()
        if not key:
            raise ParseError("missing key before '='", lineno, col)
        key_col = body.index(key[0]) + 1
        if key not in _STANZA_KEYS[current.kind]:
            raise ParseError(
                f"unknown key {key!r} in [{current.kind}]", lineno, key_col)
        value = body[eq + 1:].strip()
        value_col = eq + 2 + max(len(body[eq + 1:]) - len(body[eq + 1:].lstrip()), 0)
        if (current.kind, key) in _REPEATABLE:
            current.lists.setdefault(key, []).append((value, lineno, value_col))
        else:
            if key in current.scalars:
                raise ParseError(
                    f"duplicate key {key!r} in [{current.kind}]", lineno, key_col)
            current.scalars[key] = (value, lineno, value_col)
    return stanzas


def _require(stanza: _Stanza, key: str) -> tuple[str, int, int]:
    got = stanza.scalars.get(key)
    if got is None:
        raise ParseError(
            f"missing key {key!r} in [{stanza.kind}]", stanza.line, 1)
    return got


def _parse_quiver(stanza: _Stanza) -> tuple[Quiver, tuple[RelationSpec, ...], int]:
    vtext, vline, vcol = _require(stanza, "vertices")
    vertex_count = _int_value(vtext, vline, vcol, "vertices", 1)
    prime = 2
    if "prime" in stanza.scalars:
        ptext, pline, pcol = stanza.scalars["prime"]
        prime = _int_value(ptext, pline, pcol, "prime", 2)
        if not is_prime(prime):
            raise ParseError(f"{prime} is not prime", pline, pcol)
    arrows: list[Arrow] = []
    by_name: dict[str, Arrow] = {}
    for value, line, col in stanza.lists.get("arrow", []):
        m = _ARROW_RE.fullmatch(value)
        if m is None:
            raise ParseError(
                "expected 'name: source -> target'", line, col)
        name, src, tgt = m.group(1), int(m.group(2)), int(m.group(3))
        if name in by_name:
            raise ParseError(f"duplicate arrow name {name!r}", line, col)
        for v in (src, tgt):
            if not 1 <= v <= vertex_count:
                raise ParseError(
                    f"vertex {v} out of range 1..{vertex_count}", line, col)
        arrow = Arrow(name, src, tgt)
        arrows.append(arrow)
        by_name[name] = arrow
    relations: list[RelationSpec] = []
    for value, line, col in stanza.lists.get("relation", []):
        coeffs: list[int] = []
        paths: list[tuple[str, ...]] = []
        ends: tuple[int, int] | None = None
        for term in value.split("+"):
            term = term.strip()
            coeff = 1
            if "*" in term:
                ctext, _, term = term.partition("*")
                coeff = _int_value(ctext.strip(), line, col, "coefficient", 0)
                term = term.strip()
            names = term.split()
            if len(names) < 2:
                raise ParseError(
                    "relation paths need at least two arrows", line, col)
            for nm in names:
                if nm not in by_name:
                    raise ParseError(f"unknown arrow {nm!r}", line, col)
            for first, second in zip(names, names[1:]):
                if by_name[first].target != by_name[second].source:
                    raise ParseError(
                        f"arrows {first!r} and {second!r} do not compose",
                        line, col)
            span = (by_name[names[0]].source, by_name[names[-1]].target)
            if ends is None:
                ends = span
            elif span != ends:
                raise ParseError(
                    "relation paths are not parallel", line, col)
            coeffs.append(coeff)
            paths.append(tuple(names))
        relations.append(RelationSpec(tuple(coeffs), tuple(paths), line))
    return Quiver(vertex_count, tuple(arrows)), tuple(relations), prime


def _check_interval(label: str, vertex_count: int, line: int, col: int) -> None:
    parts = label.split("/")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"bad generator token {label!r}", line, col)
    if any(not 1 <= v <= vertex_count for v in values):
        raise ParseError(
            f"generator {label!r} uses a vertex outside 1..{vertex_count}",
            line, col)
    if any(b != a + 1 for a, b in zip(values, values[1:])):
        raise ParseError(
            f"generator {label!r} is not a consecutive interval", line, col)


def _parse_category(stanza: _Stanza, vertex_count: int
                    ) -> tuple[int, tuple[str, ...]]:
    ntext, nline, ncol = _require(stanza, "n")
    n = _int_value(ntext, nline, ncol, "n", 1)
    gtext, gline, gcol = _require(stanza, "generators")
    labels = _comma_list(gtext)
    if not labels:
        raise ParseError("generators list is empty", gline, gcol)
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise ParseError(f"duplicate generator {label!r}", gline, gcol)
        seen.add(label)
        _check_interval(label, vertex_count, gline, gcol)
    return n, tuple(labels)


def _parse_labels(stanza: _Stanza, key: str, generators: tuple[str, ...]
                  ) -> tuple[str, ...]:
    if key not in stanza.scalars:
        return ()
    text, line, col = stanza.scalars[key]
    labels = _comma_list(text)
    for label in labels:
        if label not in generators:
            raise ParseError(
                f"{label!r} is not a declared generator", line, col)
    return tuple(labels)


def parse_input(text: str) -> SessionConfig:
    """Parse a session file; raises ParseError with a 1-based location."""
    stanzas = _scan_stanzas(text)
    by_kind = {s.kind: s for s in stanzas if s.kind != "probe"}
    if "quiver" not in by_kind:
        raise ParseError("missing [quiver] stanza", 1, 1)
    if "category" not in by_kind:
        raise ParseError("missing [category] stanza", 1, 1)
    quiver, relations, prime = _parse_quiver(by_kind["quiver"])
    n, generators = _parse_category(
        by_kind["category"], quiver.vertex_count)

    nf: tuple[str, ...] = ()
    if "nf" in by_kind:
        nf = _parse_labels(by_kind["nf"], "generators", generators)

    fbar_mode = "iso"
    seeds: list[SeedSpec] = []
    if "fbar" in by_kind:
        stanza = by_kind["fbar"]
        if "mode" in stanza.scalars:
            mtext, mline, mcol = stanza.scalars["mode"]
            if mtext not in ("iso", "saturate"):
                raise ParseError(
                    f"mode must be 'iso' or 'saturate', got {mtext!r}",
                    mline, mcol)
            fbar_mode = mtext
        for value, line, col in stanza.lists.get("seed", []):
            if fbar_mode != "saturate":
                raise ParseError(
                    "seed keys require mode = saturate", line, col)
            m = _SEED_RE.fullmatch(value)
            if m is None:
                raise ParseError("expected 'source -> target'", line, col)
            src, tgt = m.group(1), m.group(2)
            for label in (src, tgt):
                if label not in generators:
                    raise ParseError(
                        f"{label!r} is not a declared generator", line, col)
            seeds.append(SeedSpec(src, tgt, line))

    multiplicity, path_length = 2, 16
    if "bounds" in by_kind:
        stanza = by_kind["bounds"]
        if "multiplicity" in stanza.scalars:
            tx, ln, cl = stanza.scalars["multiplicity"]
            multiplicity = _int_value(tx, ln, cl, "multiplicity", 1)
        if "path_length" in stanza.scalars:
            tx, ln, cl = stanza.scalars["path_length"]
            path_length = _int_value(tx, ln, cl, "path_length", 1)

    probes: list[ProbeSpec] = []
    for stanza in stanzas:
        if stanza.kind != "probe":
            continue
        ttext, tline, tcol = _require(stanza, "terms")
        terms = _comma_list(ttext)
        if len(terms) != n + 2:
            raise ParseError(
                f"probe needs {n + 2} terms for degree {n}, got {len(terms)}",
                tline, tcol)
        for label in terms:
            if label not in generators:
                raise ParseError(
                    f"{label!r} is not a declared generator", tline, tcol)
        ctext, cline, ccol = _require(stanza, "class")
        coords = tuple(
            _int_value(tok, cline, ccol, "class coordinate", 0)
            for tok in _comma_list(ctext))
        probes.append(ProbeSpec(stanza.name or "", tuple(terms), coords,
                                stanza.line))

    return SessionConfig(
        prime=prime, quiver=quiver, relations=relations, n=n,
        generators=generators, nf=nf, fbar_mode=fbar_mode,
        seeds=tuple(seeds), multiplicity=multiplicity,
        path_length=path_length, probes=tuple(probes))


# -- building the engine objects --------------------------------------------------


def build_category(cfg: SessionConfig) -> ExCategory:
    relations = tuple(
        Relation(tuple(c % cfg.prime for c in spec.coeffs), spec.paths)
        for spec in cfg.relations)
    alg = AlgebraPresentation(cfg.quiver, relations, p=cfg.prime,
                              path_length_bound=cfg.path_length)
    gens = []
    for label in cfg.generators:
        values = [int(tok) for tok in label.split("/")]
        gens.append(interval_module(alg, values[0], values[-1]))
    return ExCategory(alg, cfg.n, gens, labels=cfg.generators,
                      multiplicity_bound=cfg.multiplicity)


def _the_map(cat: ExCategory, src: str, tgt: str, line: int):
    basis = hom_basis(cat.generators[cat.labels.index(src)],
                      cat.generators[cat.labels.index(tgt)])
    if len(basis) != 1:
        raise ParseError(
            f"no unique nonzero morphism {src} -> {tgt} "
            f"(hom space has dimension {len(basis)})", line, 1)
    return basis[0]


def build_spec(cfg: SessionConfig, cat: ExCategory) -> MorphismClassSpec:
    from .localization import MorphismClassSpec
    if cfg.fbar_mode == "iso":
        return MorphismClassSpec("iso")
    seeds = tuple(_the_map(cat, s.source, s.target, s.line)
                  for s in cfg.seeds)
    return MorphismClassSpec("saturate", seeds)


def build_probe(cfg: SessionConfig, cat: ExCategory, probe: ProbeSpec) -> NExangle:
    terms = [cat.generators[cat.labels.index(label)] for label in probe.terms]
    diffs = []
    for src, tgt in zip(terms, terms[1:]):
        basis = hom_basis(src, tgt)
        if len(basis) > 1:
            raise ParseError(
                "ambiguous probe differential (hom space has dimension "
                f"{len(basis)})", probe.line, 1)
        diffs.append(basis[0] if basis else zero_morphism(src, tgt))
    space = cat.ext(terms[-1], terms[0])
    if len(probe.coords) != space.dim:
        raise ParseError(
            f"class coordinates have length {len(probe.coords)}, "
            f"expected {space.dim}", probe.line, 1)
    return NExangle(tuple(terms), tuple(diffs), space.element(list(probe.coords)))


def probe_verdicts(cfg: SessionConfig, cat: ExCategory) -> dict[str, str]:
    out: dict[str, str] = {}
    for probe in cfg.probes:
        nex = build_probe(cfg, cat, probe)
        verdict = cat.is_n_exangle(nex)
        if not verdict.ok:
            out[probe.name] = ("not an exangle: " + format_failure(
                cat.labels, verdict.first_failure))
        elif cat.is_distinguished(nex):
            out[probe.name] = "distinguished"
        else:
            out[probe.name] = "an exangle, but not distinguished"
    return out


# -- report rendering --------------------------------------------------------------


def _check_payload(results) -> dict:
    return {
        name: {"passed": res.passed, "checked": res.checked,
               "witness": res.witness}
        for name, res in results.items()
    }


def _write_json(path: str, payload: dict) -> None:
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(blob, encoding="utf-8")


def _print_result(name: str, res, out) -> None:
    if res.passed:
        print(f"{name}: pass ({res.checked} checks)", file=out)
    else:
        print(f"{name}: FAIL — {res.witness} ({res.checked} checks)", file=out)


def _base_payload(command: str, cfg: SessionConfig) -> dict:
    return {
        "schema": 1,
        "command": command,
        "prime": cfg.prime,
        "n": cfg.n,
        "generators": list(cfg.generators),
    }


def run_check(cfg: SessionConfig, args, out) -> int:
    cat = build_category(cfg)
    results = cat.check_core_axioms()
    probes = probe_verdicts(cfg, cat)
    for name, res in results.items():
        _print_result(name, res, out)
    for name, verdict in probes.items():
        print(f"probe {name}: {verdict}", file=out)
    failing = [name for name, res in results.items() if not res.passed]
    if failing:
        print(f"verdict: core axiom {failing[0]} fails", file=out)
        code = 20
    else:
        print("verdict: all core axioms hold", file=out)
        code = 0
    if args.json:
        payload = _base_payload("check", cfg)
        payload.update({
            "bounds": {"multiplicity": cfg.multiplicity,
                       "path_length": cfg.path_length},
            "checks": _check_payload(results),
            "probes": probes,
            "exit_code": code,
        })
        _write_json(args.json, payload)
    return code


def run_localize(cfg: SessionConfig, args, out) -> int:
    # loaded before build_category, so the setup stage still includes it
    from . import localization
    cat = build_category(cfg)
    spec = build_spec(cfg, cat)
    nf_indices = [cfg.generators.index(label) for label in cfg.nf]
    report = localization.localize(cat, spec, nf_indices)
    probes = probe_verdicts(cfg, cat)

    print(f"nf: {', '.join(report.nf_labels) if report.nf_labels else '(empty)'}",
          file=out)
    print(f"mode: {report.mode}", file=out)
    for name in _REPORT_ORDER:
        if name in report.checks:
            _print_result(name, report.checks[name], out)
        elif name in report.skipped:
            print(f"{name}: skipped — {report.skipped[name]}", file=out)
    if args.verbose:
        for tag, ok, witness in report.kc_details:
            status = "pass" if ok else f"FAIL — {witness}"
            print(f"  kc {tag}: {status}", file=out)
    for name, verdict in probes.items():
        print(f"probe {name}: {verdict}", file=out)
    print(f"verdict: {report.verdict}", file=out)

    if args.json:
        payload = _base_payload("localize", cfg)
        payload.update({
            "nf": list(report.nf_labels),
            "mode": report.mode,
            "bounds": dict(report.bounds),
            "verdict": report.verdict,
            "exit_code": report.exit_code,
            "checks": _check_payload(report.checks),
            "skipped": dict(report.skipped),
            "kc": [{"class": tag, "passed": ok, "witness": witness}
                   for tag, ok, witness in report.kc_details],
            "probes": probes,
        })
        _write_json(args.json, payload)
    return report.exit_code


def _parse_object(cat: ExCategory, token: str, what: str):
    labels = [part.strip() for part in token.split("+")]
    indices = []
    for label in labels:
        if label not in cat.labels:
            raise ParseError(
                f"{what} {label!r} is not a declared generator", 1, 1)
        indices.append(cat.labels.index(label))
    return cat.materialize(sorted(indices))


def run_hom(cfg: SessionConfig, args, out) -> int:
    cat = build_category(cfg)
    src = _parse_object(cat, args.source, "source")
    tgt = _parse_object(cat, args.target, "target")
    dim = len(hom_basis(src, tgt))
    src_str = cat.format_object(src)
    tgt_str = cat.format_object(tgt)
    print(f"dim Hom({src_str}, {tgt_str}) = {dim}", file=out)
    if args.verbose:
        print(f"source dimension vector: {src.dims}", file=out)
        print(f"target dimension vector: {tgt.dims}", file=out)
    if args.json:
        payload = _base_payload("hom", cfg)
        payload.update({"source": src_str, "target": tgt_str,
                        "dimension": dim, "exit_code": 0})
        _write_json(args.json, payload)
    return 0


def run_ext(cfg: SessionConfig, args, out) -> int:
    cat = build_category(cfg)
    end_c = _parse_object(cat, args.source, "source")
    end_a = _parse_object(cat, args.target, "target")
    space = cat.ext(end_c, end_a)
    c_str = cat.format_object(end_c)
    a_str = cat.format_object(end_a)
    print(f"dim Ext^{cfg.n}({c_str}, {a_str}) = {space.dim}", file=out)
    if args.verbose:
        for i in range(space.dim):
            coords = [1 if j == i else 0 for j in range(space.dim)]
            nex = cat.realize(space.element(coords))
            chain = " -> ".join(cat.format_object(t) for t in nex.terms)
            print(f"class {coords}: {chain}", file=out)
    if args.json:
        payload = _base_payload("ext", cfg)
        payload.update({"source": c_str, "target": a_str,
                        "degree": cfg.n, "dimension": space.dim,
                        "exit_code": 0})
        _write_json(args.json, payload)
    return 0


# -- entry point --------------------------------------------------------------------


def _prime_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exangulate",
        description="Axiom checking and localization for finite "
                    "higher-degree extension categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="session file")
        p.add_argument("--prime", type=_prime_flag, default=None,
                       help="override the coefficient prime")
        p.add_argument("--multiplicity-bound", type=int, default=None,
                       metavar="B", help="override the per-generator "
                       "multiplicity bound")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write a JSON report to PATH")
        p.add_argument("-v", "--verbose", action="store_true")

    p_check = sub.add_parser("check", help="run the core axiom suite")
    common(p_check)
    p_loc = sub.add_parser("localize", help="run the localization pipeline")
    common(p_loc)
    p_hom = sub.add_parser("hom", help="dimension of a Hom space")
    common(p_hom)
    p_hom.add_argument("source")
    p_hom.add_argument("target")
    p_ext = sub.add_parser("ext", help="dimension of an extension group")
    common(p_ext)
    p_ext.add_argument("source")
    p_ext.add_argument("target")
    return parser


_RUNNERS = {"check": run_check, "localize": run_localize,
            "hom": run_hom, "ext": run_ext}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_input(text)
        if args.prime is not None:
            cfg = cfg.replace(prime=args.prime)
        if args.multiplicity_bound is not None:
            cfg = cfg.replace(multiplicity=args.multiplicity_bound)
        return _RUNNERS[args.command](cfg, args, sys.stdout)
    except ParseError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # LocalizationError among them
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
