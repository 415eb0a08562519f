"""Record golden.json: the sha256, byte length and case count of each workload's stdout.

    python3 perfbench/record_golden.py

Run it only on a commit whose output is the reference (the golden digests
were recorded at the seed commit); the benchmark checks every invocation
against them.
"""

import hashlib
import json
import sys

import run


def main():
    env = run.child_env(run.ROOT)
    golden = {}
    for name, args in run.WORKLOADS.items():
        argv = [sys.executable, "-m", "weylbn.cli"] + args
        _, code, out, _ = run.spawn(argv, env, run.ROOT, run.TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        cases, failed = run.count_cases(out)
        if failed:
            raise SystemExit(f"{name}: {failed} failed cases")
        golden[name] = {
            "sha256": hashlib.sha256(out).hexdigest(),
            "bytes": len(out),
            "cases": cases,
        }
    with open(run.HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
