"""The weylbn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is a workload below or
``all``, which runs every workload in one process.  The program is not
installed: every child runs ``python3 -m weylbn.cli`` with
``PYTHONPATH=src`` and ``WEYL_BN_MAX_GROUP`` removed from its environment
(it changes which ``report`` cases run).

With ``--trace 0`` the CLI runs from outside, one fresh child process per
invocation and one child at a time (a closed loop with one client).  Each
invocation runs from spawn to exit with stdout fully read; its CPU seconds
(user plus system) and ``ru_maxrss`` are read through ``os.wait4``, and its
stdout is checked against the golden sha256 and length in ``golden.json``.
A repetition is one invocation of each chosen workload plus
``SETUP_SPAWNS`` fresh interpreters that only ``import weylbn.cli``, in an
order drawn from the seed.  After the first repetition another starts only
while it would still end (judged by the last one's length) within S
seconds.  Printed: ``cpu_s`` and ``peak_rss_mb``, the largest over the
run's invocations, and ``setup_s``, the median CPU seconds of one import.

Why CPU seconds and the largest: the host's two cores are shared with
other tenants.  Time spent waiting for a core shows in wall time, not in
CPU time, and the CLI is single-threaded without ``--jobs``, so its CPU
seconds are its wall time less that wait.  What is left still depends on
the host's load, but with a ceiling: an invocation runs at one steady
slowest speed while the host is busy and up to a third faster while it is
quiet, never slower.  The slowest invocation of a run sits on that ceiling
and repeats within a few percent from run to run, where the median and
the 90th percentile move by a tenth and more with the share of quiet
spells.  The 0.2 s imports do have a long tail, so ``setup_s`` is the
median of the dozens a run makes.  Wall seconds are kept in the run
record.

With ``--trace 1`` each chosen workload runs once under ``tracer.py``,
which wraps the public functions of every module in-process, and the
per-layer metrics are printed.  The exact counters must equal those of the
previous traced run of the same workload on the same ``src/`` tree (kept
in ``.perfbench/``), or the run is not correct.

The CLI inputs are fixed: they are the contract commands, whose stdout
must stay byte-identical, and the program is deterministic, so there is
nothing to draw from a seed.  The seed only shuffles the order of the
jobs within each repetition, which spreads machine drift over them.

``attempted`` and ``failed`` in the last line count cases; a case fails
when its ``"pass"`` is false, and every case of an invocation fails when
the invocation exits nonzero, times out or prints other bytes than the
golden ones, so ``failed / attempted`` is the run's fail ratio.  Each run
also appends a record (seed, job order, nproc, Python version, ``src/``
line count, a fixed calibration loop's time, every sample, including the
children's CPU seconds, and the metrics) to
``.perfbench/runs.jsonl`` and prints it, so machine drift can be told
apart from a program change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Default flags only; no --jobs.  BENCHMARK.json lists bn-sl3 (group side
# only) and lemma2-r7 (Weyl side only), so each change has one workload
# that exercises it and one that must not move.  They take 2-4 s, so a run
# holds a dozen or more invocations: on a shared 2-core host one
# invocation's time swings by a fifth, and only the slowest of many is
# steady.  sweep and report are the contract commands (50-80 s and
# 35-45 s) and bn-sl4 the largest group (15-20 s); they are kept for runs
# by hand, with their golden outputs, but leave too few samples per run.
WORKLOADS = {
    "lemma2-r7": ["lemma2", "--max-rank", "7", "--format", "json"],
    "bn-sl3": ["bn", "--sl", "3", "3", "--format", "json"],
    "sweep": ["lemma2", "--max-rank", "12", "--format", "json"],
    "bn-sl4": ["bn", "--sl", "4", "2", "--format", "json"],
    "report": ["report", "--all"],
}
SETUP_SPAWNS = 3
TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env(root):
    env = dict(os.environ)
    env.pop("WEYL_BN_MAX_GROUP", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv, env, cwd, timeout):
    """Run one child to its exit: (wall seconds, exit code, stdout bytes, its rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage


def check_program(root, env):
    """Compile and import the CLI once, untimed, from this checkout's src/."""
    if not (root / "src" / "weylbn" / "cli.py").is_file():
        raise BenchError(f"no weylbn sources under {root / 'src'}")
    code = "import weylbn.cli; print(weylbn.cli.__file__)"
    _, rc, out, _ = spawn([sys.executable, "-c", code], env, root, SETUP_TIMEOUT_S)
    where = Path(out.decode().strip() or ".").resolve()
    if rc != 0 or (root / "src").resolve() not in where.parents:
        raise BenchError(f"weylbn.cli did not import from {root / 'src'} (got {where})")


def count_cases(out):
    """(cases, failed cases) of one JSON document printed by the CLI."""
    doc = json.loads(out)
    cases = [c for suite in doc.get("suites", [doc]) for c in suite["cases"]]
    return len(cases), sum(1 for c in cases if not c["pass"])


def judge(out, code, golden):
    """(ok, cases, failed cases) of one invocation against its golden record."""
    ok = (
        code == 0
        and len(out) == golden["bytes"]
        and hashlib.sha256(out).hexdigest() == golden["sha256"]
    )
    if not ok:
        return False, golden["cases"], golden["cases"]
    cases, failed = count_cases(out)
    return failed == 0, cases, failed


def src_record(root):
    """(line count, sha256) of the Python sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def calibrate():
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def measure(root, names, workloads, golden, seed, seconds):
    """Timed invocations, closed loop with one client.

    Returns (samples per workload and series, ok, attempted, failed, job order).
    """
    env = child_env(root)
    rng = random.Random(seed)
    series = {n: {k: [] for k in ("cpu_s", "wall_s", "peak_rss_mb")} for n in names}
    setup = {"setup_s": [], "setup_wall_s": []}
    ok, attempted, failed, order = True, 0, 0, []
    setup_argv = [sys.executable, "-c", "import weylbn.cli"]
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        jobs = [None] * SETUP_SPAWNS + list(names)
        rng.shuffle(jobs)
        order.append([n or "setup" for n in jobs])
        for name in jobs:
            if name is None:
                wall, rc, _, usage = spawn(setup_argv, env, root, SETUP_TIMEOUT_S)
                setup["setup_s"].append(usage.ru_utime + usage.ru_stime)
                setup["setup_wall_s"].append(wall)
                ok = ok and rc == 0
                continue
            argv = [sys.executable, "-m", "weylbn.cli"] + workloads[name]
            wall, rc, out, usage = spawn(argv, env, root, TIMEOUT_S)
            good, cases, bad = judge(out, rc, golden[name])
            ok = ok and good
            attempted += cases
            failed += bad
            series[name]["wall_s"].append(wall)
            series[name]["cpu_s"].append(usage.ru_utime + usage.ru_stime)
            series[name]["peak_rss_mb"].append(usage.ru_maxrss / 1024)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    per = {n: dict(series[n], **setup) for n in names}
    return per, ok, attempted, failed, order


def state_dir(root):
    path = root / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def check_repeat(root, name, counts):
    """True unless the exact counters differ from the last traced run on the same src/."""
    _, src_sha = src_record(root)
    path = state_dir(root) / f"counters-{name}.json"
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev["src"] == src_sha:
            return prev["counts"] == counts
    path.write_text(json.dumps({"src": src_sha, "counts": counts}, sort_keys=True))
    return True


def trace(root, names, workloads, golden, seed, units):
    """One traced in-process run per workload; same return shape as ``measure``."""
    env = child_env(root)
    order = list(names)
    random.Random(seed).shuffle(order)
    per, ok, attempted, failed = {}, True, 0, 0
    for name in order:
        out_path = state_dir(root) / f"trace-{name}.json"
        out_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(out_path)] + workloads[name]
        wall, rc, _, _ = spawn(argv, env, root, TIMEOUT_S)
        g = golden[name]
        doc = load_json(out_path) if rc == 0 and out_path.is_file() else None
        m = dict.fromkeys(units, 0)
        m.update(doc["metrics"] if doc else {})
        m["trace.wall_s"] = wall
        counts = {k: v for k, v in m.items() if units[k] == "count"}
        good = (
            doc is not None
            and doc["exit"] == 0
            and doc["stdout_sha256"] == g["sha256"]
            and doc["stdout_bytes"] == g["bytes"]
            and m["cli.cases"] == g["cases"]
            and m["cli.cases_failed"] == 0
            and check_repeat(root, name, counts)
        )
        ok = ok and good
        attempted += m["cli.cases"] if good else g["cases"]
        failed += m["cli.cases_failed"] if good else g["cases"]
        per[name] = {k: [v] for k, v in m.items()}
    return per, ok, attempted, failed, [order]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(root, names, seed, seconds, traced, workloads=WORKLOADS, golden=None):
    """One benchmark run: (result object for the last line, run record)."""
    spec = load_json(root / "BENCHMARK.json")
    golden = golden if golden is not None else load_json(HERE / "golden.json")
    check_program(root, child_env(root))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    lines, _ = src_record(root)
    calib = calibrate()
    if traced:
        per, ok, attempted, failed, order = trace(root, names, workloads, golden, seed, units)
    else:
        per, ok, attempted, failed, order = measure(root, names, workloads, golden, seed, seconds)
    metrics, samples = {}, {}
    for name, by_series in per.items():
        if not set(units) <= set(by_series):
            raise BenchError(f"{name}: metrics differ from BENCHMARK.json: {sorted(by_series)}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, values in by_series.items():
            samples[prefix + key] = values
            if key in units:
                value = statistics.median(values) if key == "setup_s" else max(values)
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "time": time.time(),
        "workloads": names,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "order": order,
        "samples": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": lines,
        "calib_s": calib,
        "result": result,
    }
    with open(state_dir(root) / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        result, record = run(ROOT, names, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(
        f"# nproc={record['nproc']} python={record['python']} src_lines={record['src_lines']} "
        f"calib_s={record['calib_s']:.4f} seed={args.seed} order={record['order']}"
    )
    for name, m in result["metrics"].items():
        n = len(record["samples"][name])
        stat = "median" if name.endswith("setup_s") else "largest"
        print(f"# {name} = {m['value']:.6g} {m['unit']} ({stat} of {n} sample{'s' * (n != 1)})")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
