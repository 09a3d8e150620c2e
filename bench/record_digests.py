"""Record the output digests that benchmark runs are checked against.

Usage, from the root of a checkout::

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

Runs one operation per workload and seed and adds its digest to
``digests.json``.  A seed already recorded must reproduce its digest:
outputs for the same flags never change, so a mismatch is an error and
nothing is written.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run


def main(first, last):
    from workloads import WORKLOADS

    path = run.BENCH / "digests.json"
    digests = json.loads(path.read_text())
    env = run.child_env()
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        recorded = digests.setdefault(workload.name, {})
        for seed in range(first, last + 1):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
            try:
                workload.prepare(work, seed)
                op = run.run_op_child(workload, seed, work, env, perf_counter() + 600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if op.problems:
                sys.exit(f"{workload.name} seed {seed}: {'; '.join(op.problems)}")
            if recorded.setdefault(str(seed), op.digest) != op.digest:
                sys.exit(f"{workload.name} seed {seed}: outputs differ from the recorded digest")
            print(workload.name, seed, op.digest, flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
