"""Record the reference outputs that the benchmark checks every op against.

For each workload and each seed in [0, SEEDS) it stores the SHA-256 of
the op's rendered transcripts (with the CLI output for attack-t5) and the
modeled ``total_us`` of each scenario run in the op; for each kind of op
it stores the per-op operation counts of one traced op. Record only at a commit whose behaviour is the
reference, since a later run fails every op that differs from it:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = 1024
JOBS = 2


def _digest(task):
    name, seed = task
    workload = workloads.WORKLOADS[name]
    inp = workload.make_input(seed)
    digest, totals, problems = workload.digest_and_problems(inp, workload.call(inp), None)
    if problems:
        raise RuntimeError(f"{name} seed {seed}: {'; '.join(problems)}")
    return name, seed, digest, totals


def _counts(name) -> dict:
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    counts = {}
    for seed in range(len(workloads.ATTACK_MODES)):
        kind = workload.kind(seed)
        if kind in counts:
            continue
        tracer.install()
        try:
            workload.call(workload.make_input(seed))
        finally:
            tracer.uninstall()
        metrics, _ = tracing.summarize(tracer.take())
        counts[kind] = {m: metrics[m] for m in tracing.COUNT_METRICS}
    return counts


def main() -> int:
    names = list(workloads.WORKLOADS)
    digests = {name: [None] * SEEDS for name in names}
    totals = {name: set() for name in names}
    tasks = [(name, seed) for name in names for seed in range(SEEDS)]
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, seed, digest, op_totals in pool.imap_unordered(_digest, tasks, chunksize=8):
            digests[name][seed] = digest
            totals[name].add(tuple(op_totals))
        counts = pool.map(_counts, names)

    golden = {"seeds": SEEDS, "workloads": {}}
    for name, kinds in zip(names, counts):
        if len(totals[name]) != 1:
            raise RuntimeError(f"{name}: modeled total varies with the seed: {totals[name]}")
        golden["workloads"][name] = {"total_us": list(totals[name].pop()), "counts": kinds,
                                     "digests": digests[name]}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"recorded {SEEDS} seeds of {len(names)} workloads in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
