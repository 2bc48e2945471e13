"""Command-line surface: session-file parsing, verdicts, exit codes, JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exangulate.localization as localization
from exangulate.cli import ParseError, main, parse_input

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH = ROOT / "bench"
CLUSTER = str(FIXTURES / "a4-cluster.exg")
PROJINJ = str(FIXTURES / "a4-projinj.exg")
TRIVIAL = str(FIXTURES / "a4-trivial.exg")

MINIMAL = """\
[quiver]
vertices = 4
arrow = a: 1 -> 2
arrow = b: 2 -> 3
arrow = c: 3 -> 4
relation = a b c

[category]
n = 2
generators = 4, 3/4, 2/3/4, 1/2/3, 1/2, 1
"""

A2 = """\
[quiver]
vertices = 2
arrow = a: 1 -> 2

[category]
n = 1
generators = 2, 1/2, 1
"""


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_golden(name, out, json_path):
    """stdout and --json bytes equal the recorded `tests/golden/<name>.*`."""
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert json_path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# -- parsing ----------------------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_input(MINIMAL)
    assert cfg.prime == 2
    assert cfg.quiver.vertex_count == 4
    assert [a.name for a in cfg.quiver.arrows] == ["a", "b", "c"]
    assert cfg.relations[0].paths == (("a", "b", "c"),)
    assert cfg.n == 2
    assert cfg.generators == ("4", "3/4", "2/3/4", "1/2/3", "1/2", "1")
    assert cfg.nf == ()
    assert cfg.fbar_mode == "iso"
    assert cfg.multiplicity == 2
    assert cfg.path_length == 16
    assert cfg.probes == ()


def test_parse_cluster_fixture():
    cfg = parse_input(Path(CLUSTER).read_text())
    assert cfg.nf == ("2/3/4",)
    assert cfg.path_length == 8
    assert [p.name for p in cfg.probes] == ["printed", "corrected"]
    assert cfg.probes[0].terms == ("4", "2/3/4", "1/2", "1")
    assert cfg.probes[0].coords == (1,)


def test_empty_file_is_missing_quiver():
    with pytest.raises(ParseError, match=r"missing \[quiver\]"):
        parse_input("")


def test_missing_category_stanza():
    with pytest.raises(ParseError, match=r"missing \[category\]"):
        parse_input("[quiver]\nvertices = 1\n")


def test_unknown_key_has_location():
    text = "[quiver]\nvertices = 2\n  volume = 11\n"
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert err.value.line == 3
    assert err.value.column == 3
    assert "unknown key 'volume'" in str(err.value)


def test_unknown_stanza_rejected():
    with pytest.raises(ParseError, match=r"unknown stanza \[frobnicate\]"):
        parse_input(MINIMAL + "\n[frobnicate]\nx = 1\n")


def test_relation_with_unknown_arrow():
    text = MINIMAL.replace("relation = a b c", "relation = a b d")
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert "unknown arrow 'd'" in str(err.value)
    assert err.value.line == 6


def test_arrow_vertex_out_of_range():
    text = MINIMAL.replace("arrow = c: 3 -> 4", "arrow = c: 3 -> 9")
    with pytest.raises(ParseError, match="vertex 9 out of range"):
        parse_input(text)


def test_noncomposable_relation_rejected():
    with pytest.raises(ParseError, match="do not compose"):
        parse_input(MINIMAL.replace("relation = a b c", "relation = a c"))


def test_nonparallel_relation_rejected():
    with pytest.raises(ParseError, match="not parallel"):
        parse_input(MINIMAL.replace("relation = a b c",
                                    "relation = a b c + a b"))


def test_missing_equals_sign():
    with pytest.raises(ParseError, match="expected 'key = value'"):
        parse_input("[quiver]\nvertices 4\n")


def test_duplicate_stanza_rejected():
    with pytest.raises(ParseError, match=r"duplicate \[quiver\]"):
        parse_input(MINIMAL + "\n[quiver]\nvertices = 4\n")


def test_interval_labels_must_be_consecutive():
    text = MINIMAL.replace("generators = 4, 3/4, 2/3/4, 1/2/3, 1/2, 1",
                           "generators = 4, 1/3")
    with pytest.raises(ParseError, match="not a consecutive interval"):
        parse_input(text)


def test_nf_must_name_declared_generators():
    with pytest.raises(ParseError, match="not a declared generator"):
        parse_input(MINIMAL + "\n[nf]\ngenerators = 7\n")


def test_seed_requires_saturate_mode():
    text = MINIMAL + "\n[fbar]\nmode = iso\nseed = 4 -> 3/4\n"
    with pytest.raises(ParseError, match="require mode = saturate"):
        parse_input(text)


def test_probe_term_count_checked():
    text = MINIMAL + "\n[probe short]\nterms = 4, 1\nclass = 1\n"
    with pytest.raises(ParseError, match="needs 4 terms for degree 2"):
        parse_input(text)


def test_comments_and_blank_lines_ignored():
    noisy = "# leading\n\n" + MINIMAL.replace(
        "vertices = 4", "vertices = 4   # trailing")
    assert parse_input(noisy).quiver.vertex_count == 4


@pytest.mark.parametrize("value", ["cluster-tilting", "declared"])
def test_backend_key_is_unknown(capsys, tmp_path, value):
    """The `[category] backend` key is gone: with any value, the one it
    used to accept included, it is an unknown key located at the key, and
    `check` exits 2."""
    line = f"backend = {value}"
    text = A2.replace("n = 1\n", f"n = 1\n{line}\n")
    assert text.splitlines()[6] == line
    with pytest.raises(ParseError, match="unknown key 'backend'") as err:
        parse_input(text)
    assert (err.value.line, err.value.column) == (7, 1)
    f = tmp_path / "keyed.exg"
    f.write_text(text)
    code, out, err = run(["check", str(f)], capsys)
    assert code == 2 and out == ""
    assert "unknown key 'backend' in [category]" in err


# -- inspection commands ------------------------------------------------------------


def test_hom_command(capsys):
    code, out, _ = run(["hom", CLUSTER, "4", "3/4"], capsys)
    assert code == 0
    assert out == "dim Hom(4, 3/4) = 1\n"


def test_hom_of_sum(capsys):
    code, out, _ = run(["hom", CLUSTER, "4+3/4", "2/3/4"], capsys)
    assert code == 0
    assert out == "dim Hom(4 + 3/4, 2/3/4) = 2\n"


def test_ext_command_with_realizations(capsys):
    code, out, _ = run(["ext", CLUSTER, "1", "4", "--verbose"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "dim Ext^2(1, 4) = 1",
        "class [1]: 4 -> 2/3/4 -> 1/2/3 -> 1",
    ]


def test_ext_vanishes_off_the_table(capsys):
    code, out, _ = run(["ext", CLUSTER, "4", "1"], capsys)
    assert code == 0
    assert out == "dim Ext^2(4, 1) = 0\n"


def test_unknown_object_label_is_an_input_error(capsys):
    code, _, err = run(["hom", CLUSTER, "4", "5/6"], capsys)
    assert code == 2
    assert "not a declared generator" in err


# -- check and localize --------------------------------------------------------------


def test_check_passes_on_the_fixture_category(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(["check", TRIVIAL, "--json", str(json_path)], capsys)
    assert code == 0
    assert_golden("check-a4-trivial", out, json_path)
    lines = out.splitlines()
    assert lines[0] == "C1: pass (39 checks)"
    assert lines[-1] == "verdict: all core axioms hold"
    assert sum(1 for ln in lines if ": pass (" in ln) == 7


def test_localize_cluster_report(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(
        ["localize", CLUSTER, "--json", str(json_path)], capsys)
    assert code == 20
    assert_golden("localize-a4-cluster", out, json_path)
    assert "verdict: fails weak-kc" in out
    assert ("weak-kc: FAIL — E(1/2, 4) coords [1]: covariant sequence "
            "not exact at position 2 with test object 1/2/3 "
            "(895 checks)") in out
    assert ("probe printed: not an exangle: contravariant sequence fails "
            "at position 1 with test object 3/4 (homology)") in out
    assert "probe corrected: distinguished" in out

    data = json.loads(json_path.read_text())
    assert data["schema"] == 1
    assert data["verdict"] == "fails weak-kc"
    assert data["exit_code"] == 20
    assert data["nf"] == ["2/3/4"]
    assert data["bounds"] == {"endpoint_summands": 2, "multiplicity": 2,
                              "path_length": 8}
    assert data["probes"] == {
        "printed": "not an exangle: contravariant sequence fails at "
                   "position 1 with test object 3/4 (homology)",
        "corrected": "distinguished",
    }
    assert [e["class"] for e in data["kc"] if not e["passed"]] == [
        "E(1/2, 4) coords [1]", "E(1, 4) coords [1]", "E(1, 3/4) coords [1]"]
    assert data["skipped"]["C4"] == "not checked (weak-kc already failed)"
    assert len(data["kc"]) == 39


def test_localize_trivial_is_2_exangulated(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(["localize", TRIVIAL, "--json", str(json_path)], capsys)
    assert code == 0
    assert_golden("localize-a4-trivial", out, json_path)
    assert "verdict: 2-exangulated" in out
    assert "equivalence: pass" in out
    assert "nf: (empty)" in out


def test_localize_projinj_also_fails_weak_kc(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(["localize", PROJINJ, "--json", str(json_path)], capsys)
    assert code == 20
    assert_golden("localize-a4-projinj", out, json_path)
    assert "verdict: fails weak-kc" in out


@pytest.mark.parametrize("command, name", [
    ("check", "check-a3"), ("localize", "localize-a3-trivial")])
def test_benchmark_invocations_match_their_expected_output(
        capsys, tmp_path, command, name):
    """The benchmark compares each run's stdout and --json bytes with
    bench/expected/; this compares the same two invocations here."""
    json_path = tmp_path / "report.json"
    code, out, _ = run([command, str(BENCH / "inputs" / "a3-rad2.exg"),
                        "--json", str(json_path)], capsys)
    assert code == 0
    assert out == (BENCH / "expected" / f"{name}.stdout").read_text(
        encoding="utf-8")
    assert json_path.read_bytes() == (BENCH / "expected" / f"{name}.json"
                                      ).read_bytes()


def test_localize_mr_violation_exits_30(capsys, tmp_path):
    control = tmp_path / "control.exg"
    control.write_text(MINIMAL + "\n".join([
        "", "[fbar]", "mode = saturate",
        "seed = 4 -> 3/4", "seed = 4 -> 2/3/4",
        "", "[bounds]", "path_length = 8", ""]))
    code, out, _ = run(["localize", str(control)], capsys)
    assert code == 30
    assert "verdict: MR precondition failed" in out
    assert "MR1: FAIL" in out


def test_exhausted_bound_exits_3(capsys, monkeypatch):
    """Running out of an enumeration bound is its own outcome, not an
    internal error."""
    monkeypatch.setattr(localization, "CLASS_ENUM_LIMIT", 1)
    code, out, err = run(["localize", str(BENCH / "inputs" / "a3-rad2.exg")],
                         capsys)
    assert code == 3
    assert out == ""
    assert err == "bound exceeded: quotient hom space too large to enumerate\n"


def test_localization_error_exits_1(capsys, monkeypatch):
    """A LocalizationError is an internal error.  The CLI calls the module's
    `localize` when it runs, so a rebound attribute takes effect."""
    def fail(*args):
        raise localization.LocalizationError("boom")

    monkeypatch.setattr(localization, "localize", fail)
    code, out, err = run(["localize", str(BENCH / "inputs" / "a3-rad2.exg")],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "internal error: boom\n"


def test_localize_saturate_without_seeds_is_weakly_exangulated(capsys, tmp_path):
    f = tmp_path / "weak.exg"
    f.write_text(MINIMAL + "\n[fbar]\nmode = saturate\n\n"
                 "[bounds]\npath_length = 8\n")
    code, out, _ = run(["localize", str(f)], capsys)
    assert code == 10
    assert "verdict: weakly 2-exangulated" in out
    assert "C1: skipped — not computed in saturate mode" in out


@pytest.mark.parametrize("command, verdict", [
    ("check", "all core axioms hold"), ("localize", "1-exangulated")])
def test_a2_at_p3_is_1_exangulated(capsys, tmp_path, command, verdict):
    """mod kA2 is abelian, so 1-exangulated.  At p = 3 the C3 check sees
    the sign of the cocone's class, which p = 2 cannot show."""
    f = tmp_path / "a2.exg"
    f.write_text(A2)
    code, out, _ = run([command, str(f), "--prime", "3"], capsys)
    assert code == 0
    assert "C3: pass" in out
    assert f"verdict: {verdict}" in out


A3_MB1_CHECK = """\
C1: pass (17 checks)
C2: pass (4 checks)
C2': pass (4 checks)
C3: pass (98 checks)
C3': pass (98 checks)
C4: FAIL — inflations 3 -> 2/3 -> 2/3 + 1/2 compose to a non-inflation (20 checks)
WIC: FAIL — composite 3 -> 2/3 + 1/2 -> 2/3 is an inflation but its first factor is not (45 checks)
verdict: core axiom C4 fails
"""

A3_MB1_LOCALIZE = """\
nf: (empty)
mode: iso
M0: pass (218 checks)
MR1: pass (4532 checks)
MR2: pass (4532 checks)
MR3: pass (17 checks)
weak-kc: pass (272 checks)
C1: pass (17 checks)
C2: pass (4 checks)
C2': pass (4 checks)
C3: pass (98 checks)
C3': pass (98 checks)
C4: FAIL — localized inflations 3 -> 2/3 -> 2/3 + 1/2 compose to a non-inflation (20 checks)
WIC: FAIL — composite 3 -> 2/3 + 1/2 -> 2/3 is a localized inflation but its first factor is not (28 checks)
equivalence: pass (95 checks)
functor: pass (441 checks)
verdict: weakly 2-exangulated
"""


@pytest.mark.parametrize("command, code, expected", [
    ("check", 20, A3_MB1_CHECK), ("localize", 10, A3_MB1_LOCALIZE)])
def test_c4_and_wic_witnesses_at_multiplicity_one(capsys, command, code,
                                                  expected):
    """At multiplicity bound one the bench input's 2/3 + 1/2 has no
    completion, so C4 and WIC fail on both engines; the witnesses and
    their check counts are pinned."""
    got = run([command, str(BENCH / "inputs" / "a3-rad2.exg"),
               "--multiplicity-bound", "1"], capsys)
    assert got[:2] == (code, expected)


def test_verbose_lists_every_kc_class(capsys):
    code, out, _ = run(["localize", CLUSTER, "--verbose"], capsys)
    assert code == 20
    kc_lines = [ln for ln in out.splitlines() if ln.startswith("  kc ")]
    assert len(kc_lines) == 39
    assert "  kc E(1, 4) coords [0]: pass" in out


# -- process-level behavior -----------------------------------------------------------


def test_json_bytes_identical_across_hash_seeds(tmp_path):
    """Two separate interpreter runs with different string-hash seeds must
    produce the same report bytes."""
    blobs = []
    for hash_seed in ("0", "1"):
        target = tmp_path / f"run{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "exangulate.cli", "localize", CLUSTER,
             "--json", str(target)],
            capture_output=True, env=env, cwd=str(FIXTURES.parent))
        assert proc.returncode == 20
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_localize_json_bytes_identical_across_hash_seeds(tmp_path):
    """The bench input under `localize`: the same report bytes whatever the
    string-hash seed, so whatever the order in which objects were made."""
    blobs = []
    for hash_seed in ("0", "1"):
        target = tmp_path / f"run{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "exangulate.cli", "localize",
             str(BENCH / "inputs" / "a3-rad2.exg"), "--json", str(target)],
            capture_output=True, env=env, cwd=str(ROOT))
        assert proc.returncode == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(["check", "/nonexistent/nowhere.exg"], capsys)
    assert code == 2
    assert "error:" in err


def test_seed_env_accepted(capsys, monkeypatch):
    # EXANGULATE_SEED is ignored: every randomized search is seeded with 0
    for value in ("7", "not-a-number"):
        monkeypatch.setenv("EXANGULATE_SEED", value)
        code, out, _ = run(["hom", CLUSTER, "4", "4"], capsys)
        assert code == 0
        assert out == "dim Hom(4, 4) = 1\n"
