"""One traced, in-process run of the weylbn CLI.

    python3 perfbench/tracer.py OUT.json CLI-ARGS...

Wraps the public functions of the modules rootsys, weyl, cosets, fingrp,
titssys and cli at every module global that names them (titssys and cli
import several of them by name, so patching the defining module alone
would miss those calls), then calls ``cli.main(CLI-ARGS)`` with stdout
captured.  Each wrapped call records a span (name, parent span, start,
end, matrix multiplications so far at start and end, and a note taken
from the result) in memory; the matrix primitives ``mat_mul`` and
``mat_inv`` are only counted, since a span per call would cost more than
the call.  At the end OUT.json receives the spans, the per-layer metrics
computed from them, the exit code and the sha256 and length of the
captured stdout.  ``weylbn`` must be importable (``PYTHONPATH=src``).

``trace.overhead_ratio`` is the traced wall time over that time less the
wrappers' own cost (spans and counted calls times a per-call cost measured
before the run); the untraced time of the same command is in the
``wall_s`` samples of a ``--trace 0`` run's record, to be compared with
``trace.wall_s``.

A function a later version of the program no longer has is skipped and
its metrics read 0.  The spans assume one thread: the CLI runs its cases
on threads only when ``--jobs`` is given, and the benchmark never gives it.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import statistics
import sys
import time


class Tracer:
    """Spans and call counts of one run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, t0, t1, mul0, mul1, note]
        self.stack = []
        self.counts = {}
        self.muls = self.counter_box("fingrp.mat_mul")
        self.returned = {}  # id -> object, for cache-hit notes

    def counter_box(self, name):
        return self.counts.setdefault(name, [0])

    def span(self, name, fn, note=None, prepare=None):
        """``fn`` wrapped to record one span per call."""
        spans, stack, muls, clock = self.spans, self.stack, self.muls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(self, args)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, muls[0], 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[5] = muls[0]
                stack.pop()
            if note is not None:
                rec[6] = note(self, out)
            return out

        return wrapper

    def counter(self, name, fn):
        """``fn`` wrapped to count its calls only."""
        box = self.counter_box(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def seen_before(self, out):
        """True when ``out`` is an object an earlier call already returned."""
        hit = id(out) in self.returned
        self.returned[id(out)] = out
        return hit


def _size(_, out):
    return len(out)


def _quotient_size(_, out):
    return out.quotient_size


def _suite_note(_, out):
    return [out.suite_id, len(out.cases), sum(1 for c in out.cases if not c.passed)]


def _time_cases(tracer, args):
    """run_suite's (case_id, fn) pairs, each fn wrapped in a ``cli.case`` span."""
    if len(args) < 2:
        return args
    cases = [
        (item[0], tracer.span("cli.case", item[1]))
        if isinstance(item, tuple) and len(item) == 2 and callable(item[1])
        else item
        for item in args[1]
    ]
    return (args[0], cases) + tuple(args[2:])


# (module, function, note, prepare); every entry records spans.
SPANNED = [
    ("rootsys", "build_root_system", None, None),
    ("weyl", "longest_element", None, None),
    ("weyl", "reduced_words", _size, None),
    ("cosets", "parabolic_orbit", _size, None),
    ("cosets", "double_coset_count", _quotient_size, None),
    ("cosets", "double_coset_count_naive", None, None),
    ("cosets", "third_coset_witness", None, None),
    ("fingrp", "special_linear_group", Tracer.seen_before, None),
    ("fingrp", "closure", _size, None),
    ("fingrp", "fitting_subgroup", None, None),
    ("fingrp", "normal_subgroups", None, None),
    ("fingrp", "orbits", None, None),
    ("fingrp", "stabilizer", None, None),
    ("fingrp", "setwise_stabilizer", None, None),
    ("fingrp", "is_2transitive", None, None),
    ("fingrp", "coset_action", None, None),
    ("fingrp", "projective_space_action", None, None),
    ("fingrp", "affine_line_action", None, None),
    # Private, but it is where the derived data (Weyl quotient, Bruhat
    # cells, S, words) is built, which check_axioms' self time must exclude.
    ("titssys", "_derived", None, None),
    ("titssys", "find_S", None, None),
    ("titssys", "check_axioms", None, None),
    ("titssys", "star_property_check", None, None),
    ("titssys", "intersection_identity_check", None, None),
    ("titssys", "classify", None, None),
    ("titssys", "standard_sl_system", Tracer.seen_before, None),
    ("titssys", "sl_rank1_column_system", None, None),
    ("titssys", "projective_rank1_system", None, None),
    ("titssys", "affine_rank1_system", None, None),
    ("titssys", "psl3_f2_nonstandard_system", None, None),
    ("cli", "lemma2_cases", None, None),
    ("cli", "oracle_cases", None, None),
    ("cli", "weight_set_cases", None, None),
    ("cli", "bn_cases", None, None),
    ("cli", "coxeter_order_cases", None, None),
    ("cli", "rank1_agreement_cases", None, None),
    ("cli", "nonstandard_cases", None, None),
    ("cli", "run_suite", _suite_note, _time_cases),
    ("cli", "emit_suite", None, None),
    ("cli", "cmd_lemma2", None, None),
    ("cli", "cmd_bn", None, None),
    ("cli", "cmd_report", None, None),
]
COUNTED = [("fingrp", "mat_mul"), ("fingrp", "mat_inv")]

SUITES = ("lemma2", "bn", "oracle", "weights", "bn-standard", "bn-rank1", "bn-nonstandard")
ACTIONS = (
    "fingrp.orbits", "fingrp.stabilizer", "fingrp.setwise_stabilizer",
    "fingrp.is_2transitive", "fingrp.coset_action",
    "fingrp.projective_space_action", "fingrp.affine_line_action",
)
SYSTEMS = (
    "titssys.standard_sl_system", "titssys.sl_rank1_column_system",
    "titssys.projective_rank1_system", "titssys.affine_rank1_system",
    "titssys.psl3_f2_nonstandard_system",
)
BUILDERS = (
    "cli.lemma2_cases", "cli.oracle_cases", "cli.weight_set_cases", "cli.bn_cases",
    "cli.coxeter_order_cases", "cli.rank1_agreement_cases", "cli.nonstandard_cases",
)


def install(tracer):
    """Replace every weylbn module global bound to a traced function."""
    import weylbn.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for n, m in list(sys.modules.items()) if n == "weylbn" or n.startswith("weylbn.")]

    def patch(mod, fn, wrap):
        orig = getattr(sys.modules[f"weylbn.{mod}"], fn, None)
        if orig is None:
            return
        wrapped = wrap(f"{mod}.{fn}", orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    for mod, fn, note, prepare in SPANNED:
        patch(mod, fn, lambda name, f: tracer.span(name, f, note, prepare))
    for mod, fn in COUNTED:
        patch(mod, fn, tracer.counter)


def per_call_cost(repeat=20000):
    """Seconds one span wrapper and one counting wrapper add to a call."""

    def noop():
        return None

    t = Tracer()
    spanned, counted = t.span("noop", noop), t.counter("noop", noop)

    def loop(f):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(repeat):
                f()
            best = min(best, time.perf_counter() - t0)
            del t.spans[:]
        return best / repeat

    base = loop(noop)
    return max(loop(spanned) - base, 0.0), max(loop(counted) - base, 0.0)


def layer_metrics(tracer, wall_s, cpu_s, cost):
    """The per-layer metrics named in BENCHMARK.json, from the spans."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    inner = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            inner[s[1]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def total(*names):
        """Time inside any of ``names``, counting nested calls once."""
        group = set(names)
        out = 0.0
        for i in idx(*names):
            p = spans[i][1]
            while p >= 0 and spans[p][0] not in group:
                p = spans[p][1]
            if p < 0:
                out += dur[i]
        return out

    def self_time(name):
        return sum(dur[i] - inner[i] for i in idx(name))

    def notes(name):
        return [spans[i][6] for i in idx(name)]

    count_s = [dur[i] for i in idx("cosets.double_coset_count")]
    points = sum(notes("cosets.double_coset_count"))
    checks = idx("titssys.check_axioms")
    check_muls = sum(spans[i][5] - spans[i][4] for i in checks)
    cache = notes("fingrp.special_linear_group") + notes("titssys.standard_sl_system")
    suites = [n for n in notes("cli.run_suite") if n]
    case_s = sorted(dur[i] for i in idx("cli.case"))
    emit = 0.0
    for i in idx("cli.cmd_lemma2", "cli.cmd_bn", "cli.cmd_report"):
        ends = [spans[j][3] for j in idx("cli.run_suite") if spans[j][1] == i]
        if ends:
            emit += spans[i][3] - max(ends)
    counted = sum(box[0] for box in tracer.counts.values())
    overhead = len(spans) * cost[0] + counted * cost[1]

    m = {
        "cosets.parabolic_orbit_s": total("cosets.parabolic_orbit"),
        "cosets.double_coset_count_s": self_time("cosets.double_coset_count"),
        "cosets.orbit_points": points,
        "cosets.points_per_s": points / sum(count_s) if count_s else 0.0,
        "cosets.slowest_count_s": max(count_s, default=0.0),
        "cosets.naive_s": total("cosets.double_coset_count_naive"),
        "cosets.witness_s": total("cosets.third_coset_witness"),
        "weyl.reduced_words_s": total("weyl.reduced_words"),
        "weyl.reduced_words_calls": len(idx("weyl.reduced_words")),
        "weyl.words_out": sum(notes("weyl.reduced_words")),
        "weyl.longest_element_s": total("weyl.longest_element"),
        "rootsys.build_s": total("rootsys.build_root_system"),
        "fingrp.sl_enum_s": total("fingrp.special_linear_group"),
        "fingrp.closure_s": total("fingrp.closure"),
        "fingrp.closure_elements": sum(notes("fingrp.closure")),
        "fingrp.mat_mul_calls": tracer.counter_box("fingrp.mat_mul")[0],
        "fingrp.mat_inv_calls": tracer.counter_box("fingrp.mat_inv")[0],
        "fingrp.fitting_s": total("fingrp.fitting_subgroup"),
        "fingrp.normal_subgroups_s": total("fingrp.normal_subgroups"),
        "fingrp.actions_s": total(*ACTIONS),
        "fingrp.sl_cache_hit_ratio": sum(cache) / len(cache) if cache else 0.0,
        "titssys.check_axioms_s": self_time("titssys.check_axioms"),
        "titssys.derived_s": total("titssys._derived"),
        "titssys.find_S_s": total("titssys.find_S"),
        "titssys.star_s": total("titssys.star_property_check"),
        "titssys.intersection_s": total("titssys.intersection_identity_check"),
        "titssys.classify_s": total("titssys.classify"),
        "titssys.system_build_s": total(*SYSTEMS),
        "titssys.mul_per_check": check_muls / len(checks) if checks else 0.0,
        "cli.case_build_s": total(*BUILDERS),
        "cli.emit_s": emit,
        "cli.cases": sum(n for _, n, _ in suites),
        "cli.cases_failed": sum(f for _, _, f in suites),
        "cli.case_p50_ms": statistics.median(case_s) * 1000 if case_s else 0.0,
        "cli.case_max_s": case_s[-1] if case_s else 0.0,
        "cli.cpu_s": cpu_s,
        "trace.overhead_ratio": wall_s / (wall_s - overhead) if wall_s > overhead else 0.0,
    }
    for suite in SUITES:
        m[f"cli.suite_s.{suite}"] = sum(
            dur[i] for i in idx("cli.run_suite") if spans[i][6] and spans[i][6][0] == suite
        )
    return m


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    cost = per_call_cost()
    tracer = Tracer()
    install(tracer)
    from weylbn import cli

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        sys.stdout = real_stdout
    data = captured.getvalue().encode()
    doc = {
        "exit": code,
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
        "stdout_bytes": len(data),
        "metrics": layer_metrics(tracer, wall, cpu, cost),
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
