#!/usr/bin/env python3
"""Determinism guard for the map-fig9a workload.

Runs map-fig9a twice with different workload seeds (so the job order
differs) and asserts that every fixed-II job did exactly the same work:
same verdict, SA restarts, route calls, heap pops, relaxations and ILP*
trials. A difference means a (seed, threads) nondeterminism in the mapper
stack, or a change to the search trajectory rather than only its speed.

    python3 perfbench/test_determinism.py

Takes about two map-fig9a passes (~30 s). Exits 0 when the counts repeat.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK_COUNTS = ("mapped", "restarts", "route_calls", "route_pops",
               "route_relaxations", "trials")


def job_counts(binary, seed):
    detail = run.run_binary(binary, "map-fig9a", seed, 1, 0)
    if not detail["correct"]:
        run.fail(f"seed {seed}: correctness check failed: {detail['failures']}")
    return {(r["mapper"], r["kernel"], r["ii"]):
            tuple(r[k] for k in WORK_COUNTS)
            for r in detail["rows"] if r["pass"] == 0}


def main():
    os.chdir(run.ROOT)
    binary = run.build()
    first = job_counts(binary, 1)
    second = job_counts(binary, 2)
    if not first or first.keys() != second.keys():
        run.fail("the two runs did not run the same jobs")
    diffs = [job for job in sorted(first) if first[job] != second[job]]
    for job in diffs:
        print(f"{job}: {dict(zip(WORK_COUNTS, first[job]))} != "
              f"{dict(zip(WORK_COUNTS, second[job]))}", file=sys.stderr)
    if diffs:
        run.fail(f"{len(diffs)} of {len(first)} jobs did different work")
    print(f"ok: {len(first)} jobs repeat their work counts exactly")


if __name__ == "__main__":
    main()
