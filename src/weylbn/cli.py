"""Command-line verification suites with machine-readable reports.

Subcommands: ``lemma2`` (double-coset sweep with witnesses, root-count
gaps, and longest-element classification), ``bn`` (axioms, Bruhat cells,
double-coset product law, intersection identity, and classification for
one example system), ``roots`` and ``reduced-words`` (listings), and
``report`` (every suite, one JSON document).

Exit codes: 0 all cases passed, 1 at least one case failed, 2 usage or
parse error, 141 stdout closed early (``| head``).  Formats: text
(default), json, csv.  The JSON format is byte-stable across runs
(sorted keys, canonical case order, no timings); wall time is shown in
the text format only.  All numbers are exact integers.  The environment
variable WEYL_BN_MAX_GROUP, a positive integer at most
``fingrp.SL_ENUM_CAP`` (100000, the largest group the enumeration
builds), overrides the group-size cap of every bn system and suite: a
system over it is refused, and ``report`` skips it with a note.
The parser checks the shape of the arguments (one ``bn`` system flag, a
known ``--example``, a ``--max-rank`` of 2 to 12, ``report --all``) and
refuses any other with an argparse usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from functools import partial
from itertools import permutations

from . import cosets, fingrp, rootsys, titssys
from .errors import EnumerationCapExceeded, GroupTooLarge, WeylBNError, WitnessNotApplicable
from .rootsys import branch_node, build_root_system, coxeter_matrix, is_end_node, reduced_form
from .weyl import (
    element_of,
    format_word,
    is_minus_one,
    longest_element,
    parse_word,
    reduced_words,
)

SCHEMA_VERSION = 1
MAX_RANK = 12
MAX_GROUP_ENV = "WEYL_BN_MAX_GROUP"
DEFAULT_MAX_GROUP = 21000

# Each bn system kind: the name of its titssys constructor, and the order
# of its group G (listed or not), which the cap compares, as a function of
# the spec's arguments.  The constructor is looked up by name when called,
# so the wrappers perfbench/tracer.py puts in titssys still run.
SYSTEM_KINDS = {
    "sl": ("standard_sl_system", fingrp.sl_order),
    "sl-rank1": ("sl_rank1_column_system", fingrp.sl_order),
    "projective": ("projective_rank1_system", fingrp.sl_order),
    "affine": ("affine_rank1_system", lambda q: q * (q - 1)),
    "psl3f2-nonstandard": ("psl3_f2_nonstandard_system", lambda: fingrp.sl_order(3, 2)),
}

# The systems of report's bn suites, each list filtered by the cap in cmd_report.
STANDARD_SPECS = [("sl", n, p) for n, p in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]]
COXETER_SPECS = [("sl", n, p) for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]]
AGREE_SPECS = [("sl-rank1", n, p) for n, p in [(2, 2), (2, 3), (3, 2)]]
AFFINE_SPECS = [("affine", q) for q in (3, 5, 7)]
NONSTANDARD_SPECS = [("psl3f2-nonstandard",)]


def _max_group():
    raw = os.environ.get(MAX_GROUP_ENV)
    if not raw:
        return DEFAULT_MAX_GROUP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise UsageError(f"{MAX_GROUP_ENV} must be a positive integer, got {raw!r}")
    if int(raw) > fingrp.SL_ENUM_CAP:
        raise UsageError(f"{MAX_GROUP_ENV} must be at most {fingrp.SL_ENUM_CAP}, got {raw!r}")
    return int(raw)


class UsageError(WeylBNError):
    pass


class CaseResult(namedtuple("CaseResult", "id inputs expected actual passed")):
    __slots__ = ()

    def to_record(self):
        return dict(zip(("id", "inputs", "expected", "actual", "pass"), self))


class SuiteResult(namedtuple("SuiteResult", "suite_id cases wall_time_ms skipped", defaults=((),))):
    __slots__ = ()

    @property
    def total(self):
        return len(self.cases)

    @property
    def passed(self):
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self):
        return self.total - self.passed

    def to_record(self):
        rec = {
            "suite": self.suite_id,
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
            "cases": [c.to_record() for c in self.cases],
        }
        if self.skipped:
            rec["skipped"] = list(self.skipped)
        return rec


def run_suite(suite_id, cases, skipped=()):
    """Run (case_id, fn) pairs and merge the results by case id.

    Each ``fn()`` returns ``(inputs, expected, actual, passed)``; an
    exception inside it fails only that case, with the exception as the
    actual value.
    """
    start = time.monotonic_ns()
    results = []
    for case_id, fn in cases:
        try:
            results.append(CaseResult(case_id, *fn()))
        except Exception as exc:  # any failure inside a case fails only that case
            results.append(
                CaseResult(case_id, {}, "no error", f"{type(exc).__name__}: {exc}", False)
            )
    results.sort(key=lambda c: c.id)
    wall = (time.monotonic_ns() - start) // 10**6
    return SuiteResult(suite_id, results, wall, skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# Case kinds: each returns (inputs, expected, actual, passed).


def _minus_one_expected(family, rank):
    """Longest element acts as -1 except in the listed simply-laced types."""
    if family == "A" and rank > 1:
        return False
    if family == "D" and rank % 2 == 1:
        return False
    if family == "E" and rank == 6:
        return False
    return True


def minus_one_case(rs):
    fam, rank = rs.family, rs.rank
    expected = _minus_one_expected("B" if fam == "BC" else fam, rank)
    actual = is_minus_one(longest_element(reduced_form(rs)))
    return {"family": fam, "rank": rank}, str(expected), str(actual), expected == actual


def negation_case(rs):
    sigma = cosets.w0_negation_map(rs)
    ok = all(sigma[i] == rs.rank + 1 - i for i in sigma)
    return {"family": "A", "rank": rs.rank}, "reversal", "reversal" if ok else str(sigma), ok


def count_case(choice):
    rep = cosets.double_coset_count(choice)
    return rep.to_record(), "2" if rep.expected_two else ">2", str(rep.count), rep.passed


def witness_case(choice):
    inputs = {"family": choice.family, "rank": choice.rank, "node": choice.removed}
    try:
        rep = cosets.third_coset_witness(choice)
    except WitnessNotApplicable:
        expected = "not-applicable" if _witness_na_ok(choice) else "pass"
        return inputs, expected, "not-applicable", expected == "not-applicable"
    applicable_end = choice.family == "A" and is_end_node(choice.rs, choice.removed)
    inputs["word"] = format_word(rep.word)
    actual = "pass" if rep.passed else "fail: " + ",".join(rep.failed_checks)
    return inputs, "pass", actual, rep.passed and not applicable_end


def _witness_na_ok(choice):
    """Not-applicable is correct when no construction branch applies."""
    core = choice.core
    a = choice.removed
    if choice.family == "A" and is_end_node(choice.rs, a):
        return True
    return core.node_degree(a) == 1 and branch_node(core) is None


def gap_case(choice):
    psi, sub, holds = cosets.root_count_gap_check(choice)
    inputs = {
        "family": choice.family,
        "rank": choice.rank,
        "node": choice.removed,
        "psi": psi,
        "psi_prime": sub,
    }
    return inputs, "gap", "gap" if holds else "no-gap", holds


def oracle_case(choice, want):
    """Orbit-method count against full enumeration (and ``want`` if given)."""
    fast = cosets.double_coset_count(choice).count
    slow = cosets.double_coset_count_naive(choice)
    ok = fast == slow and (want is None or fast == want)
    inputs = {"family": choice.family, "rank": choice.rank, "node": choice.removed}
    return inputs, str(slow) if want is None else str(want), str(fast), ok


def weights_case(m):
    _, _, diff = cosets.end_node_weight_sets(m)
    return {"rank": m}, str(m), str(len(diff)), len(diff) == m


def axioms_case(c):
    rep = titssys.check_axioms(c)
    actual = "pass" if rep.passed else json.dumps(rep.to_record(), sort_keys=True)
    return {"system": c.label, "weyl_order": rep.weyl_order}, "pass", actual, rep.passed


def cells_case(c):
    cells = titssys.bruhat_cells(c)
    total = sum(cells.values())
    inputs = {"system": c.label, "cells": dict(sorted(cells.items()))}
    return inputs, str(c.G.order), str(total), total == c.G.order


def holds_case(c, check, *args):
    """A boolean check of the system ``c``, expected to hold."""
    ok = check(*args)
    return {"system": c.label}, "True", str(ok), ok


def classify_case(c):
    flags = titssys.classify(c)
    monotone = (not flags.split) or (flags.weakly_split and flags.saturated)
    actual = "monotone" if monotone else "violates split=>weakly-split&saturated"
    return {"system": c.label, "flags": flags.to_record()}, "monotone", actual, monotone


def coxeter_order_case(n, p):
    """Orders of generator products in standard SL_n match type A_{n-1}."""
    c = titssys.standard_sl_system(n, p)
    S = titssys.find_S(c)
    want = coxeter_matrix(build_root_system(("A", n - 1)))
    k = len(S)
    ok = k == n - 1 and any(
        all(
            titssys.order_of_product(c, S[perm[i]], S[perm[j]]) == want[i][j]
            for i in range(k)
            for j in range(k)
        )
        for perm in permutations(range(k))
    )
    return {"n": n, "p": p}, "A-type orders", "match" if ok else "mismatch", ok


def agree_case(n, p):
    col = titssys.sl_rank1_column_system(n, p)
    proj = titssys.projective_rank1_system(n, p)
    a = sorted(titssys.bruhat_cells(col).values())
    b = sorted(titssys.bruhat_cells(proj).values())
    ok = a == b and titssys.check_axioms(col).passed and titssys.check_axioms(proj).passed
    return {"n": n, "p": p}, str(a), str(b), ok


def affine_case(q):
    c = titssys.affine_rank1_system(q)
    rep = titssys.check_axioms(c)
    flags = titssys.classify(c)
    actual = ("pass" if rep.passed else "fail") + ("+split" if flags.split else "")
    return {"q": q, "flags": flags.to_record()}, "pass+split", actual, rep.passed and flags.split


def nonstandard_case():
    c = titssys.psl3_f2_nonstandard_system()
    flags = titssys.classify(c)
    rep = titssys.check_axioms(c)
    fit = fingrp.fitting_subgroup(c.B)
    std = titssys.standard_sl_system(3, 2)
    std_cells = titssys.bruhat_cells(std)
    b0 = std.B.order
    parabolic_orders = sorted(
        [b0] + [b0 + v for k, v in std_cells.items() if len(k.split()) == 1]
    )
    ok = (
        rep.passed
        and flags.split
        and c.B.order == 21
        and fit.order == 7
        and len(rep.cells) == 2
        and c.B.order not in parabolic_orders
    )
    inputs = {
        "b_order": c.B.order,
        "fit_order": fit.order,
        "standard_parabolic_orders": parabolic_orders,
    }
    return inputs, "rank1+split+|B|=21", "ok" if ok else "mismatch", ok


# ---------------------------------------------------------------------------
# Suite builders: each returns [(case_id, fn), ...] for run_suite.


def lemma2_cases(max_rank, families=None):
    cases = []
    for fam, rank in cosets.sweep_cases(max_rank, families):
        rs = build_root_system((fam, rank))
        label = f"{fam}{rank}"
        cases.append((f"minus-one/{label}", partial(minus_one_case, rs)))
        if fam == "A":
            cases.append((f"negation/{label}", partial(negation_case, rs)))
        for node in range(1, rank + 1):
            choice = cosets.ParabolicChoice(rs, node)
            for kind, fn in (("count", count_case), ("witness", witness_case), ("gap", gap_case)):
                cases.append((f"{kind}/{label}/n{node}", partial(fn, choice)))
    return cases


def oracle_cases():
    """Orbit-method counts equal full-enumeration counts."""
    specs = [
        ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("BC", 2), ("BC", 3),
        ("C", 2), ("C", 3), ("G", 2), ("F", 4),
    ]
    frozen = {("A", 3, 1): 2, ("A", 3, 2): 3, ("B", 2, 1): 3, ("G", 2, 1): 4}
    cases = []
    for fam, rank in specs:
        rs = build_root_system((fam, rank))
        for node in range(1, rank + 1):
            choice = cosets.ParabolicChoice(rs, node)
            want = frozen.get((fam, rank, node))
            cases.append((f"oracle/{fam}{rank}/n{node}", partial(oracle_case, choice, want)))
    return cases


def weight_set_cases(max_rank=8):
    return [(f"weights/A{m}", partial(weights_case, m)) for m in range(2, max_rank + 1)]


def _order_over_cap(spec, max_group):
    """The order of the group G of the system named by ``spec``, as text,
    when it is over ``max_group``; else None.  As |SL_N(F_P)| >
    2^(N(N-1)/2) and 2^17 > SL_ENUM_CAP >= max_group, an N of 7 or more
    is refused by that bound alone, and its huge order is never formed."""
    kind, *args = spec
    if kind in ("sl", "sl-rank1", "projective"):
        exponent = args[0] * (args[0] - 1) // 2
        if exponent >= fingrp.SL_ENUM_CAP.bit_length():
            return f"over 2^{exponent}"
    order = SYSTEM_KINDS[kind][1](*args)
    return str(order) if order > max_group else None


def _within_cap(specs, max_group):
    """The specs whose group order is at most ``max_group``, and a skip
    note for each other one."""
    kept, skipped = [], []
    for spec in specs:
        if _order_over_cap(spec, max_group):
            skipped.append(f"{'-'.join(map(str, spec))}: order over cap {max_group}")
        else:
            kept.append(spec)
    return kept, skipped


def bn_cases(spec):
    c = getattr(titssys, SYSTEM_KINDS[spec[0]][0])(*spec[1:])
    cases = [
        (f"axioms/{c.label}", partial(axioms_case, c)),
        (f"cells/{c.label}", partial(cells_case, c)),
        (f"star/{c.label}", partial(holds_case, c, titssys.star_property_check, c)),
        (f"intersection/{c.label}", partial(holds_case, c, titssys.intersection_identity_check, c)),
        (f"classify/{c.label}", partial(classify_case, c)),
    ]
    if spec[0] == "sl":
        formula = partial(holds_case, c, titssys.cell_size_formula_check, *spec[1:])
        cases.append((f"cell-formula/{c.label}", formula))
    return cases


def coxeter_order_cases(specs):
    return [(f"coxeter-order/sl-{n}-{p}", partial(coxeter_order_case, n, p)) for _, n, p in specs]


def rank1_agreement_cases(agree_specs, affine_specs):
    cases = [(f"agree/sl-rank1-{n}-{p}", partial(agree_case, n, p)) for _, n, p in agree_specs]
    return cases + [(f"affine/{q}", partial(affine_case, q)) for _, q in affine_specs]


def nonstandard_cases(specs):
    return [("psl3f2/nonstandard", nonstandard_case) for _ in specs]


# ---------------------------------------------------------------------------
# Output formatting


def emit_suite(result, fmt, out):
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION}
        doc.update(result.to_record())
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if fmt == "csv":
        import csv  # only here, so the import of the CLI does not pay for it

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "inputs", "expected", "actual", "pass"])
        for case in result.cases:
            inputs = json.dumps(case.inputs, sort_keys=True, separators=(",", ":"))
            writer.writerow([case.id, inputs, case.expected, case.actual, case.passed])
        return
    width = max((len(c.id) for c in result.cases), default=10)
    out.write(
        f"suite {result.suite_id}: total={result.total} passed={result.passed} "
        f"failed={result.failed} wall_ms={result.wall_time_ms}\n"
    )
    for case in result.cases:
        mark = "pass" if case.passed else "FAIL"
        out.write(f"  [{mark}] {case.id:<{width}} expected={case.expected} actual={case.actual}\n")
    for note in result.skipped:
        out.write(f"  [skip] {note}\n")


def _exit_code(results):
    return 0 if all(r.failed == 0 for r in results) else 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_lemma2(args):
    families = set(args.family) if args.family else None
    cases = lemma2_cases(args.max_rank, families)
    if not cases:
        chosen = " or ".join(sorted(families))
        raise UsageError(f"no type of family {chosen} has rank <= {args.max_rank}")
    result = run_suite("lemma2", cases)
    emit_suite(result, args.format, sys.stdout)
    return _exit_code([result])


def cmd_bn(args):
    spec = _parse_bn_spec(args)
    max_group = _max_group()
    # Refused before the system is built, so no group over the cap is enumerated.
    order = _order_over_cap(spec, max_group)
    if order:
        raise GroupTooLarge(f"group order {order} exceeds the cap {max_group}")
    result = run_suite("bn", bn_cases(spec))
    emit_suite(result, args.format, sys.stdout)
    return _exit_code([result])


def _parse_bn_spec(args):
    """The spec of the one system flag the parser let through."""
    if args.example:
        return (args.example,)
    if args.affine is not None:
        # AGL1(F2) acts on 2 points: B = G_0 is trivial, and sBs = B.
        if args.affine < 3:
            raise UsageError(f"--affine needs P >= 3, got {args.affine}")
        spec = ("affine", args.affine)
    else:
        flags = {"sl": args.sl, "sl-rank1": args.sl_rank1, "projective": args.projective}
        kind, (n, p) = next((k, v) for k, v in flags.items() if v)
        if n < 2:
            raise UsageError(f"--{kind} needs N >= 2, got {n}")
        spec = (kind, n, p)
    # Checked here, before cmd_bn compares the group order with the cap.
    # No trial division past SL_ENUM_CAP: |G| >= P puts G over every cap.
    if spec[-1] <= fingrp.SL_ENUM_CAP and not fingrp._is_prime(spec[-1]):
        raise UsageError(f"{spec[-1]} is not prime")
    return spec


def _root_system(args):
    """The root system named by the arguments; a usage error when it is
    inadmissible or its rank is over MAX_RANK."""
    if args.rank > MAX_RANK:
        raise UsageError(f"rank must be at most {MAX_RANK}, got {args.rank}")
    try:
        return build_root_system((args.family, args.rank))
    except WeylBNError as exc:
        raise UsageError(str(exc))


def cmd_roots(args):
    rs = _root_system(args)
    if args.format == "json":
        sys.stdout.write(rs.to_json() + "\n")
        return 0
    sys.stdout.write(f"{rs.spec.label()}: {len(rs.roots)} roots, scale={rs.scale}\n")
    for i, v in enumerate(rs.roots):
        sign = "+" if i in rs.positive_set else "-"
        coeff = " ".join(str(x) for x in rs.coeffs[i])
        vec = " ".join(str(x) for x in v)
        sys.stdout.write(f"  {i:>3} {sign} [{vec}] coeffs [{coeff}]\n")
    return 0


def cmd_reduced_words(args):
    rs = _root_system(args)
    try:
        word = parse_word(args.word)
        w = element_of(rs, word)
    except (WeylBNError, ValueError) as exc:
        raise UsageError(str(exc))
    try:
        words = sorted(reduced_words(w, cap=args.cap))
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 1
    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "element_length": len(words[0]) if words else 0,
            "words": [format_word(u) for u in words],
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return 0
    sys.stdout.write(f"{len(words)} reduced words\n")
    for u in words:
        sys.stdout.write(format_word(u) + "\n")
    return 0


def cmd_report(args):
    max_group = _max_group()
    suites = []
    suites.append(run_suite("lemma2", lemma2_cases(args.max_rank)))
    suites.append(run_suite("oracle", oracle_cases()))
    suites.append(run_suite("weights", weight_set_cases(min(args.max_rank, 8))))
    standard, skipped = _within_cap(STANDARD_SPECS, max_group)
    coxeter, more = _within_cap(COXETER_SPECS, max_group)
    skipped += [note for note in more if note not in skipped]
    cases = [case for spec in standard for case in bn_cases(spec)] + coxeter_order_cases(coxeter)
    suites.append(run_suite("bn-standard", cases, skipped=skipped))
    agree, skipped = _within_cap(AGREE_SPECS, max_group)
    affine, more = _within_cap(AFFINE_SPECS, max_group)
    suites.append(run_suite("bn-rank1", rank1_agreement_cases(agree, affine), skipped + more))
    kept, skipped = _within_cap(NONSTANDARD_SPECS, max_group)
    suites.append(run_suite("bn-nonstandard", nonstandard_cases(kept), skipped))
    doc = {
        "schema": SCHEMA_VERSION,
        "suites": [s.to_record() for s in sorted(suites, key=lambda s: s.suite_id)],
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return _exit_code(suites)


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylbn",
        description="Exact verification suites for root-system and Tits-system combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(rootsys.FAMILIES)
    max_rank = dict(type=int, default=8, choices=range(2, MAX_RANK + 1), metavar=f"2..{MAX_RANK}")

    p = sub.add_parser("lemma2", help="double-coset sweep with witnesses and gap checks")
    p.add_argument("--max-rank", **max_rank)
    p.add_argument("--family", action="append", choices=families)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("bn", help="verify one example Tits system")
    system = p.add_mutually_exclusive_group(required=True)
    system.add_argument("--sl", nargs=2, type=int, metavar=("N", "P"))
    system.add_argument("--sl-rank1", nargs=2, type=int, metavar=("N", "P"))
    system.add_argument("--projective", nargs=2, type=int, metavar=("N", "P"))
    system.add_argument("--affine", type=int, metavar="P")
    system.add_argument("--example", choices=["psl3f2-nonstandard"])
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_bn)

    p = sub.add_parser("roots", help="list the roots of one system")
    p.add_argument("family", choices=families)
    p.add_argument("rank", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("reduced-words", help="enumerate the reduced words of a word's element")
    p.add_argument("family", choices=families)
    p.add_argument("rank", type=int)
    p.add_argument("word", type=str)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_reduced_words)

    p = sub.add_parser("report", help="run every suite and emit one JSON document")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--max-rank", **max_rank)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WeylBNError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``): point it at devnull, so the
        # flush at exit cannot raise again, and exit 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
