import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylbn.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jobs_option_is_gone(capsys):
    assert run(capsys, ["lemma2", "--jobs", "2"])[0] == 2


def test_exit_code_usage_errors(capsys):
    assert run(capsys, ["lemma2", "--max-rank", "1"])[0] == 2
    assert run(capsys, ["lemma2", "--max-rank", "13"])[0] == 2
    assert run(capsys, ["bn", "--example", "nope"])[0] == 2
    assert run(capsys, ["bn"])[0] == 2
    assert run(capsys, ["roots", "E", "5"])[0] == 2
    assert run(capsys, ["definitely-not-a-command"])[0] == 2
    assert run(capsys, ["report"])[0] == 2
    for argv in (
        ["bn", "--sl", "2", "2", "--affine", "5"],
        ["report", "--all", "--max-rank", "1"],
        ["report", "--all", "--max-rank", "13"],
    ):
        assert run(capsys, argv)[:2] == (2, "")


def test_lemma2_small_sweep(capsys):
    code, out, _ = run(capsys, ["lemma2", "--max-rank", "2"])
    assert code == 0
    assert "failed=0" in out
    assert "count/A2/n1" in out and "expected=2" in out
    assert "count/G2/n1" in out


def test_lemma2_family_filter(capsys):
    code, out, _ = run(capsys, ["lemma2", "--family", "A", "--max-rank", "3"])
    assert code == 0
    assert "count/A3/n1" in out and "B2" not in out


def test_json_byte_stable(capsys):
    code, out1, _ = run(capsys, ["lemma2", "--max-rank", "2", "--format", "json"])
    assert code == 0
    code, out2, _ = run(capsys, ["lemma2", "--max-rank", "2", "--format", "json"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["summary"]["failed"] == 0
    ids = [c["id"] for c in doc["cases"]]
    assert ids == sorted(ids)


def test_csv_format(capsys):
    code, out, _ = run(capsys, ["lemma2", "--max-rank", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,inputs,expected,actual,pass"
    assert len(lines) > 10


def test_bn_sl32(capsys):
    code, out, _ = run(capsys, ["bn", "--sl", "3", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    cells_case = next(c for c in doc["cases"] if c["id"].startswith("cells/"))
    assert sorted(cells_case["inputs"]["cells"].values()) == [8, 16, 16, 32, 32, 64]


def test_bn_affine(capsys):
    code, out, _ = run(capsys, ["bn", "--affine", "5"])
    assert code == 0
    assert "affine-5" in out and "failed=0" in out


def test_bn_nonstandard_example(capsys):
    code, out, _ = run(capsys, ["bn", "--example", "psl3f2-nonstandard"])
    assert code == 0
    assert "failed=0" in out


def test_bn_rank1_variants(capsys):
    code, out, _ = run(capsys, ["bn", "--sl-rank1", "2", "3"])
    assert code == 0 and "failed=0" in out
    code, out, _ = run(capsys, ["bn", "--projective", "2", "5"])
    assert code == 0 and "failed=0" in out


def test_bn_nonprime_affine(capsys):
    code, _, err = run(capsys, ["bn", "--affine", "4"])
    assert code == 2
    assert "prime" in err


def test_roots_listing(capsys):
    code, out, _ = run(capsys, ["roots", "G", "2"])
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(rows) == 12
    code, out, _ = run(capsys, ["roots", "A", "2", "--format", "json"])
    doc = json.loads(out)
    assert len(doc["roots"]) == 6


def test_reduced_words_listing(capsys):
    code, out, _ = run(capsys, ["reduced-words", "A", "3", "2 1 3 2"])
    assert code == 0
    assert out.splitlines()[0] == "2 reduced words"
    assert "2 1 3 2" in out and "2 3 1 2" in out
    code, out, _ = run(capsys, ["reduced-words", "A", "2", ""])
    assert code == 0
    assert out.splitlines()[0] == "1 reduced words"


def test_reduced_words_cap(capsys):
    code, out, err = run(capsys, ["reduced-words", "A", "3", "1 2 1 3 2 1", "--cap", "2"])
    assert code == 1
    assert "cap exceeded" in err


def test_reduced_words_cap_defaults_to_the_library_cap():
    from weylbn.cli import build_parser
    from weylbn.weyl import DEFAULT_WORD_CAP

    assert build_parser().parse_args(["reduced-words", "A", "2", "1"]).cap == DEFAULT_WORD_CAP


def test_reduced_words_d4_longest_json_golden(capsys):
    # D4's longest element: 2,316 words, the largest listing a golden pins.
    word = "1 2 1 3 2 1 4 2 1 3 2 4"
    code, out, _ = run(capsys, ["reduced-words", "D", "4", word, "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["words"]) == 2316
    assert len(out.encode()) == 60259
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "433cd87fb5f21fdc87674521bb7e2153d150f1f5f63e2d832ef9a76abd8d3c04"
    )


def test_reduced_words_json_holds_the_listing_once():
    # D4's longest element again.  The JSON listing may take more memory
    # than the text one by at most the document it writes: the tuples are
    # formatted in place and the document is dumped a piece at a time.
    import contextlib
    import tracemalloc

    class Sink:
        length = 0

        def write(self, s):
            self.length += len(s)

    def peak(fmt):
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["reduced-words", "D", "4", word, "--format", fmt]) == 0
                return tracemalloc.get_traced_memory()[1], sink.length
            finally:
                tracemalloc.stop()

    word = "1 2 1 3 2 1 4 2 1 3 2 4"
    peak("text")  # fills the caches of the root system
    text, _ = peak("text")
    listing, length = peak("json")
    assert length == 60259
    assert listing <= text + length


def test_report_small(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "400")
    code, out, _ = run(capsys, ["report", "--all", "--max-rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    names = [s["suite"] for s in doc["suites"]]
    assert names == sorted(names)
    assert set(names) == {
        "bn-nonstandard",
        "bn-rank1",
        "bn-standard",
        "lemma2",
        "oracle",
        "weights",
    }
    for s in doc["suites"]:
        assert s["summary"]["failed"] == 0
    std = next(s for s in doc["suites"] if s["suite"] == "bn-standard")
    assert any("over cap" in note for note in std.get("skipped", ()))


def test_bad_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "lots")
    code, _, err = run(capsys, ["bn", "--sl", "2", "2"])
    assert code == 2
    assert "WEYL_BN_MAX_GROUP" in err


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
@pytest.mark.parametrize("argv", [["bn", "--sl", "2", "2"], ["report", "--all", "--max-rank", "2"]])
def test_cap_must_be_a_positive_integer(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", value)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: WEYL_BN_MAX_GROUP must be a positive integer, got {value!r}\n"


def test_cap_is_at_most_the_enumeration_bound(capsys, monkeypatch):
    # No group over 100000 is ever enumerated, so a larger cap is refused
    # rather than silently lowered.
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "100001")
    code, out, err = run(capsys, ["bn", "--sl", "2", "2"])
    assert (code, out) == (2, "")
    assert err == "error: WEYL_BN_MAX_GROUP must be at most 100000, got '100001'\n"
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "100000")
    assert run(capsys, ["bn", "--sl", "2", "2"])[0] == 0


def test_report_cap_applies_to_every_bn_suite(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "100")
    code, out, _ = run(capsys, ["report", "--all", "--max-rank", "2"])
    assert code == 0
    suites = {s["suite"]: s for s in json.loads(out)["suites"]}
    assert suites["bn-rank1"]["skipped"] == ["sl-rank1-3-2: order over cap 100"]
    assert suites["bn-nonstandard"]["skipped"] == ["psl3f2-nonstandard: order over cap 100"]
    assert suites["bn-nonstandard"]["cases"] == []
    assert "sl-3-2: order over cap 100" in suites["bn-standard"]["skipped"]
    ids = [c["id"] for name in suites if name.startswith("bn-") for c in suites[name]["cases"]]
    assert "agree/sl-rank1-2-3" in ids and "affine/7" in ids
    for bad in ("sl-2-5", "sl-3-2", "sl-rank1-3-2", "psl3f2"):
        assert not any(bad in case_id for case_id in ids)


@pytest.mark.parametrize("cap", [100, 400, 21000])
def test_every_dropped_coxeter_order_case_has_a_skip_note(capsys, monkeypatch, cap):
    # Each system of report's Coxeter-order list whose group is over the
    # cap must leave a skip note in bn-standard, like every other group
    # over the cap, and no coxeter-order case; each other one has its case.
    from weylbn import cli, fingrp

    names = {f"sl-{n}-{p}": fingrp.sl_order(n, p) for _, n, p in cli.COXETER_SPECS}
    dropped = {name for name, order in names.items() if order > cap}
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", str(cap))
    code, out, _ = run(capsys, ["report", "--all", "--max-rank", "2"])
    assert code == 0
    std = next(s for s in json.loads(out)["suites"] if s["suite"] == "bn-standard")
    noted = {note.split(":")[0] for note in std.get("skipped", ())}
    assert dropped <= noted
    listed = {c["id"].split("/")[1] for c in std["cases"] if c["id"].startswith("coxeter-order/")}
    assert listed == set(names) - dropped


def test_bn_example_honours_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "100")
    code, out, err = run(capsys, ["bn", "--example", "psl3f2-nonstandard"])
    assert (code, out) == (1, "")
    assert err == "error: GroupTooLarge: group order 168 exceeds the cap 100\n"


def test_bn_sl33_json_golden(capsys):
    # The digest of this stdout at the tuple-multiplication implementation.
    import hashlib

    code, out, _ = run(capsys, ["bn", "--sl", "3", "3", "--format", "json"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f545bbdd8891f1d72dcf4dd45c2a801bcc967e3c429468ac81dbb6c959f4d7ab"
    )


def test_bn_sl42_json_golden(capsys):
    # SL4(F2), order 20160: the largest group of the golden outputs.
    import hashlib

    code, out, _ = run(capsys, ["bn", "--sl", "4", "2", "--format", "json"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "4f3be832eec1ba88223c7eeb268f3ad2d337d6d5264dc36a0375c82a95707bbd"
    )


@pytest.mark.parametrize(
    "spec,digest",
    [
        (
            ["--sl-rank1", "3", "3"],
            "2302f245a7624fac9dea3f7aa0ef01d5296ac4af6cfda7e8fc9fe0507701324a",
        ),
        (
            ["--projective", "3", "3"],
            "5ec3ea757c2cb82501961921fafa420b327bad6206aa037a599a3ed5f628b88d",
        ),
        (
            ["--affine", "7"],
            "ffeb3c9a7b5c313cf4a1202a000d7ab4f97723b02b41eb725ffd2a8cbd142011",
        ),
        (
            ["--example", "psl3f2-nonstandard"],
            "24c79017c8229de48a35d0c7ea6eebf064d63b5bf7f6dca14d40fdf3fb9606bd",
        ),
    ],
    ids=["sl-rank1-3-3", "projective-3-3", "affine-7", "psl3f2-nonstandard"],
)
def test_bn_rank1_json_golden(capsys, monkeypatch, spec, digest):
    # The standalone rank-1 systems, whose B, N and H each index their
    # own elements; no other golden runs them outside ``report --all``.
    import hashlib

    monkeypatch.delenv("WEYL_BN_MAX_GROUP", raising=False)
    code, out, _ = run(capsys, ["bn", *spec, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bn_cap_checked_before_building(capsys, monkeypatch):
    import time

    monkeypatch.delenv("WEYL_BN_MAX_GROUP", raising=False)
    start = time.monotonic()
    code, out, err = run(capsys, ["bn", "--sl", "2", "41"])
    assert time.monotonic() - start < 5
    assert code == 1 and out == ""
    assert "GroupTooLarge" in err and "68880" in err and "21000" in err
    # A P over fingrp.SL_ENUM_CAP puts |G| >= P over every cap: a prime one
    # is refused with no trial division, and a composite one by the cap too.
    for p in ("10000000000000061", "100001"):
        start = time.monotonic()
        code, out, err = run(capsys, ["bn", "--sl", "2", p])
        assert time.monotonic() - start < 5
        assert code == 1 and out == "" and "GroupTooLarge" in err
    monkeypatch.setenv("WEYL_BN_MAX_GROUP", "19")
    for argv in (
        ["bn", "--affine", "5"],
        ["bn", "--projective", "2", "3"],
        ["bn", "--sl-rank1", "2", "3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 1 and "exceeds the cap 19" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bn", "--sl", "120", "2"],
        ["bn", "--sl", "4000", "2"],
        ["bn", "--projective", "7", "2"],
        ["bn", "--sl-rank1", "50", "3"],
    ],
)
def test_large_n_refused_by_a_bound(capsys, monkeypatch, argv):
    # |SL_N(F_P)| > 2^(N(N-1)/2), past every cap from N = 7 on: the refusal
    # names that bound, so the order, with thousands of digits at N = 120,
    # is neither formed nor printed.
    import time

    monkeypatch.delenv("WEYL_BN_MAX_GROUP", raising=False)
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 5
    assert (code, out) == (1, "")
    assert "GroupTooLarge" in err and "exceeds the cap" in err and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["bn", "--affine", "9" * 3001],
        ["bn", "--sl", "2", "9" * 1501],
        ["bn", "--sl", "9" * 3000, "2"],
    ],
    ids=["affine-3001-digits", "sl-2-1501-digits", "sl-3000-digits-2"],
)
def test_huge_spec_refused_by_a_bound(capsys, monkeypatch, argv):
    # |G| >= P for every kind, so a P over SL_ENUM_CAP is refused by that
    # bound; so is an N of 7 or more.  Neither the order nor N(N-1)/2, past
    # Python's 4,300-digit limit for int-to-text here, is formed or printed.
    import time

    monkeypatch.delenv("WEYL_BN_MAX_GROUP", raising=False)
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 5
    assert (code, out) == (1, "")
    assert "group order over 100000 exceeds the cap 21000" in err and len(err) < 200


def test_run_suite_turns_internal_errors_into_failed_cases():
    from weylbn.cli import CaseResult, run_suite

    def broken():
        raise AssertionError("definition check failed")

    def fine():
        return {}, "x", "x", True

    result = run_suite("s", [("b", fine), ("a", broken)])
    assert [c.id for c in result.cases] == ["a", "b"]
    assert result.cases[1] == CaseResult("b", {}, "x", "x", True)
    assert result.failed == 1 and result.passed == 1
    assert result.cases[0].actual == "AssertionError: definition check failed"


def test_csv_rows_well_formed(capsys):
    import csv
    import hashlib
    import io

    from weylbn.cli import CaseResult, SuiteResult, emit_suite
    from weylbn.fingrp import special_linear_group, upper_triangular_subgroup
    from weylbn.titssys import TitsSystemCandidate, check_axioms

    # A failed axioms case carries the report as JSON, commas and quotes included.
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)
    rep = check_axioms(TitsSystemCandidate(G, B, B))
    actual = json.dumps(rep.to_record(), sort_keys=True)
    case = CaseResult("axioms/bb", {"system": "bb"}, "pass", actual, False)
    buf = io.StringIO()
    emit_suite(SuiteResult("bn", [case], 0), "csv", buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [len(r) for r in rows] == [5, 5]
    assert rows[1][3] == actual
    # Passing rows keep the bytes of the hand-written format.
    code, out, _ = run(capsys, ["bn", "--sl", "3", "2", "--format", "csv"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "6ac6c75cc0d91dbb647e894e9e6b8a948775fb7290031e0df05c68bca952466d"
    )


def test_lemma2_r7_json_golden(capsys):
    # The digest of this stdout at the hash-set orbit search and the
    # rational root-coefficient solve.
    import hashlib

    code, out, _ = run(capsys, ["lemma2", "--max-rank", "7", "--format", "json"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "90c70208402f66e05f16b28685733ee48a81b4c2f14ff40cc4489b1443b58d46"
    )


def test_failed_witness_names_its_sub_checks(capsys, monkeypatch):
    from weylbn import cosets

    real = cosets.WitnessReport

    def broken(**fields):
        return real(**{**fields, "length_ok": False, "coset_distinct": False})

    monkeypatch.setattr(cosets, "WitnessReport", broken)
    code, out, _ = run(capsys, ["lemma2", "--max-rank", "3", "--format", "json"])
    assert code == 1
    cases = {c["id"]: c for c in json.loads(out)["cases"]}
    case = cases["witness/A3/n2"]
    assert case["actual"] == "fail: length_ok,coset_distinct" and not case["pass"]
    assert cases["witness/A3/n1"]["actual"] == "not-applicable"


def test_report_all_golden(capsys, monkeypatch):
    # The digest of ``report --all`` at the closure-built cases; it pins
    # every suite builder, including oracle, weights and the bn suites.
    import hashlib

    monkeypatch.delenv("WEYL_BN_MAX_GROUP", raising=False)
    code, out, _ = run(capsys, ["report", "--all"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "9adb546d2870a3eead96777fdfa3e1098abefd917e431a7f4c5a24d6b46666d5"
    )
    for suite in json.loads(out)["suites"]:
        ids = [c["id"] for c in suite["cases"]]
        assert len(ids) == len(set(ids)), suite["suite"]


def test_lemma2_r12_json_golden(capsys):
    # The digest of the second contract command, as in perfbench's
    # "sweep" workload; the only command with E8, the rank-8 to rank-12
    # classical types and the BC cores past rank 7.
    import hashlib

    code, out, _ = run(capsys, ["lemma2", "--max-rank", "12", "--format", "json"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "115aaacd030fdfd235170a2516e35bdd7e1c231694d01f9dfd50fbcd2475f132"
    )


def test_roots_golden(capsys):
    # One digest over the text and JSON `roots` stdout of 63 types, taken
    # at the per-family root tables and the integer adjugate solve.
    import hashlib

    from weylbn.cosets import sweep_cases

    types = sorted(sweep_cases(12) + [("A", 1), ("B", 1), ("C", 1), ("BC", 1), ("D", 3)])
    digest = hashlib.sha256()
    for fam, rank in types:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, ["roots", fam, str(rank), "--format", fmt])
            assert code == 0
            digest.update(out.encode())
    assert len(types) == 63
    assert digest.hexdigest() == "ff89599bbbffea08cd50a5b794dcfa5d1e899a58d1eb0fecb505c826b5be2fdd"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bn", "--sl", "3", "4"], "4 is not prime"),
        (["bn", "--sl", "-1", "2"], "--sl needs N >= 2, got -1"),
        (["bn", "--projective", "1", "2"], "--projective needs N >= 2, got 1"),
        (["bn", "--sl", "0", "2"], "--sl needs N >= 2, got 0"),
        (["bn", "--sl-rank1", "0", "3"], "--sl-rank1 needs N >= 2, got 0"),
        (["bn", "--affine", "200"], "200 is not prime"),
        (["roots", "A", "13"], "rank must be at most 12, got 13"),
        (["reduced-words", "A", "13", "1"], "rank must be at most 12, got 13"),
        (["lemma2", "--family", "D", "--max-rank", "3"], "no type of family D has rank <= 3"),
        (["lemma2", "--family", "E", "--max-rank", "5"], "no type of family E has rank <= 5"),
        (["bn", "--affine", "2"], "--affine needs P >= 3, got 2"),
        (["bn", "--affine", "0"], "--affine needs P >= 3, got 0"),
    ],
)
def test_malformed_specs_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_importing_the_cli_loads_every_traced_module():
    # perfbench/tracer.py reads sys.modules["weylbn.<mod>"] for these six
    # modules right after `import weylbn.cli`, to wrap their functions.  The
    # CLI registers the five it does not define there lazily, and the
    # tracer's getattr runs each one; a module missing from sys.modules would
    # make the traced benchmark fail with a KeyError.
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, weylbn.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    for mod in ("rootsys", "weyl", "cosets", "fingrp", "titssys", "cli"):
        assert f"weylbn.{mod}" in loaded


ROOT = Path(__file__).resolve().parents[1]


def _fresh_python(argv, **kw):
    """Run ``python argv`` in a new interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, cwd=ROOT, **kw)


def _loaded_after(statement):
    """The weylbn submodules a fresh interpreter holds after ``statement``."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    out = _fresh_python(["-c", code], text=True)
    assert out.returncode == 0, out.stderr
    return {n.split(".", 1)[1] for n in out.stdout.split() if n.startswith("weylbn.")}


@pytest.mark.parametrize(
    "module,barred",
    [
        ("titssys", {"rootsys", "weyl", "cosets"}),
        ("fingrp", {"rootsys", "weyl", "cosets"}),
        ("rootsys", {"fingrp", "titssys"}),
        ("weyl", {"fingrp", "titssys"}),
        ("cosets", {"fingrp", "titssys"}),
    ],
)
def test_each_half_imports_without_the_other(module, barred):
    # The Weyl side (rootsys, weyl, cosets) and the group side (fingrp,
    # titssys) import apart; only the CLI joins them.
    loaded = _loaded_after(f"import weylbn.{module}")
    assert module in loaded and not loaded & barred


LAZY = {"cosets", "fingrp", "rootsys", "titssys", "weyl"}


def _ran_after(statement):
    """The weylbn submodules a fresh interpreter has run after ``statement``.
    One the CLI registered lazily stays a lazy module, not a plain one,
    until an attribute read runs it; ``type`` reads none."""
    code = (
        f"import sys, types\n{statement}\n"
        "print(' '.join(n for n, m in sys.modules.items() if type(m) is types.ModuleType))"
    )
    out = _fresh_python(["-c", code], text=True)
    assert out.returncode == 0, out.stderr
    names = out.stdout.splitlines()[-1].split()
    return {n.split(".", 1)[1] for n in names if n.startswith("weylbn.")}


@pytest.mark.parametrize(
    "statement,idle",
    [
        ("import weylbn.cli", LAZY),
        ("from weylbn.cli import main; main(['lemma2', '--max-rank', '3', '--format', 'json'])",
         {"fingrp", "titssys"}),
        ("from weylbn.cli import main; main(['bn', '--sl', '2', '2', '--format', 'json'])",
         {"cosets"}),
    ],
)
def test_the_cli_runs_only_the_half_a_command_uses(statement, idle):
    assert _ran_after(statement) & LAZY == LAZY - idle


def test_a_module_imported_before_the_cli_stays_one_module():
    code = (
        "import weylbn.fingrp as early\n"
        "from weylbn import cli\n"
        "G = cli.titssys.affine_rank1_system(5).G\n"
        "print(cli.fingrp is early, isinstance(G, early.FiniteGroup))"
    )
    out = _fresh_python(["-c", code], text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import weylbn") == set()


def test_every_public_name_resolves_on_first_use():
    code = (
        "import json, weylbn\n"
        "listed = [n for n in weylbn.__all__ if n not in dir(weylbn)]\n"
        "missing = [n for n in weylbn.__all__ if getattr(weylbn, n, None) is None]\n"
        "modules = [weylbn.rootsys.__name__, weylbn.errors.__name__]\n"
        "try:\n"
        "    weylbn.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as e:\n"
        "    unknown = str(e)\n"
        "print(json.dumps([len(weylbn.__all__), listed, missing, modules, unknown]))\n"
    )
    out = _fresh_python(["-c", code], text=True)
    assert out.returncode == 0, out.stderr
    count, listed, missing, modules, unknown = json.loads(out.stdout)
    assert count == 41 and listed == [] and missing == []
    assert modules == ["weylbn.rootsys", "weylbn.errors"]
    assert unknown == "module 'weylbn' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "argv",
    [["bn", "--sl", "2", "2", "--format", "json"], ["lemma2", "--max-rank", "3", "--format", "json"]],
)
def test_traced_run_prints_the_untraced_bytes(tmp_path, argv):
    # perfbench/tracer.py wraps the functions of every module the CLI loads
    # and runs it in-process; a change to the package namespace that breaks
    # it should fail here, not only in a benchmark run.
    plain = _fresh_python(["-m", "weylbn.cli", *argv])
    assert plain.returncode == 0, plain.stderr
    record = tmp_path / "trace.json"
    traced = _fresh_python([str(ROOT / "perfbench" / "tracer.py"), str(record), *argv])
    assert traced.returncode == 0, traced.stderr
    doc = json.loads(record.read_text())
    assert doc["exit"] == 0
    assert doc["stdout_sha256"] == hashlib.sha256(plain.stdout).hexdigest()


def test_closed_pipe_exits_without_a_traceback():
    # The reader takes one line and closes the pipe, as `| head -1` does.
    # The CSV sweep is 135 kB, past what the pipe and stdout's buffer hold,
    # so the CLI is still writing when the pipe closes.
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "weylbn.cli", "lemma2", "--max-rank", "12", "--format", "csv"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"id,inputs,expected,actual,pass\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err
