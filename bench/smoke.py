"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

For each workload: every declared metric is reported with its unit, traced
and untraced; no case fails on the seed; another seed makes other inputs.
Finally the benchmark must refuse to run, without printing a result, in a
directory holding only BENCHMARK.json and bench/.  Exits 0 when all hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys

import run
import workloads


def describe(rq, x):
    io = rq.serialize
    for cls, dump in ((rq.quiver.RationalQuiver, io.dump_quiver),
                      (rq.reps.SpeciesRep, io.dump_species_rep),
                      (rq.reps.QuiverRep, io.dump_rep),
                      (rq.hc.HCModule, io.dump_hc)):
        if isinstance(x, cls):
            return json.dumps(dump(x), sort_keys=True)
    return repr(x)


def inputs_digest(workload, seed):
    *_, rq, blocks = run.setup(workload, seed, 2)
    h = hashlib.sha256()
    for case in (case for block in blocks for case in block):
        for x in case.inputs:
            h.update(describe(rq, x).encode())
    return h.hexdigest()


def check_result(result, key):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[key]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    assert len(result["metrics"]) == len(declared)


def check_refuses_without_sources():
    bare = run.BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "hc_roundtrip",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, done
    assert '"metrics"' not in done.stdout, done.stdout


def main():
    for workload in workloads.WORKLOADS:
        check_result(run.measure(workload, 1, 0, n_blocks=1), "end_to_end")
        check_result(run.measure(workload, 1, 1, n_blocks=1), "per_layer")
        assert inputs_digest(workload, 1) == inputs_digest(workload, 1), workload
        assert inputs_digest(workload, 1) != inputs_digest(workload, 2), workload
        print(f"smoke {workload}: ok")
    check_refuses_without_sources()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
