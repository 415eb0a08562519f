"""Tests of the benchmark harness itself, on tiny CLI commands.

    python3 -m pytest perfbench -q

Each test runs the harness in a temporary root that shares this
checkout's ``src/`` and ``BENCHMARK.json``, so its state files stay out
of the checkout.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "tiny": ["lemma2", "--max-rank", "3", "--format", "json"],
    "tiny-bn": ["bn", "--sl", "2", "2", "--format", "json"],
    "bad-exit": ["lemma2", "--max-rank", "1", "--format", "json"],
}


@pytest.fixture(scope="module")
def golden():
    env = run.child_env(run.ROOT)
    out = {}
    for name in ("tiny", "tiny-bn"):
        argv = [sys.executable, "-m", "weylbn.cli"] + TINY[name]
        _, code, data, _ = run.spawn(argv, env, run.ROOT, 60)
        assert code == 0
        cases, failed = run.count_cases(data)
        assert cases > 0 and failed == 0
        out[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "cases": cases}
    out["bad-exit"] = {"sha256": "0" * 64, "bytes": 0, "cases": 5}
    return out


@pytest.fixture
def root(tmp_path):
    (tmp_path / "src").symlink_to(run.ROOT / "src")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def spec_units(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(root, name, golden, traced=False, seed=1):
    result, _ = run.run(root, [name], seed, 0, traced, TINY, golden)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("traced, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_printed_with_name_and_unit(root, golden, traced, kind):
    result = bench(root, "tiny", golden, traced)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == golden["tiny"]["cases"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == spec_units(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_all_workloads_in_one_run_are_prefixed(root, golden):
    result, record = run.run(root, ["tiny", "tiny-bn"], 3, 0, False, TINY, golden)
    assert result["correct"]
    names = {f"{w}.{m}" for w in ("tiny", "tiny-bn") for m in spec_units("end_to_end")}
    assert set(result["metrics"]) == names
    assert sorted(record["order"][0]) == sorted(["setup"] * run.SETUP_SPAWNS + ["tiny", "tiny-bn"])


def test_seed_only_shuffles_job_order(root, golden):
    def order(seed):
        return run.run(root, ["tiny", "tiny-bn"], seed, 0, False, TINY, golden)[1]["order"][0]

    first, again, other = order(5), order(5), order(6)
    assert first == again
    assert first != other and sorted(first) == sorted(other)


def test_exact_counters_repeat_across_traced_runs(root, golden):
    counts = [k for k, u in spec_units("per_layer").items() if u == "count"]
    first = bench(root, "tiny-bn", golden, traced=True)
    second = bench(root, "tiny-bn", golden, traced=True)
    assert first["correct"] and second["correct"]
    assert first["metrics"]["fingrp.mat_mul_calls"]["value"] > 0
    assert first["metrics"]["cli.cases"]["value"] == golden["tiny-bn"]["cases"]
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_changed_counter_fails_the_traced_run(root, golden):
    bench(root, "tiny-bn", golden, traced=True)
    path = root / ".perfbench" / "counters-tiny-bn.json"
    state = json.loads(path.read_text())
    state["counts"]["fingrp.mat_mul_calls"] += 1
    path.write_text(json.dumps(state))
    result = bench(root, "tiny-bn", golden, traced=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_wrong_golden_digest_fails_every_case(root, golden, traced):
    wrong = dict(golden, tiny=dict(golden["tiny"], sha256="f" * 64))
    result = bench(root, "tiny", wrong, traced)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == golden["tiny"]["cases"]


def test_nonzero_exit_fails_every_case(root, golden):
    result = bench(root, "bad-exit", golden)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 5


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bn-sl3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
