"""The benchmark under ``bench/`` wraps package attributes by name and
checks every op it runs; a rename that drops one of those names, or a
change that fails an op's check, must fail here, not in a benchmark run."""

import os

import pytest

from swarmauth import simnet

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
WORKLOAD_NAMES = ("inclusion-t10", "bulk-n100", "merge-n5000", "attack-t5")


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workloads  # fails on a renamed simnet or cli name

    # the constructor looks up every wrapped method and function
    tracing.Tracer()
    assert callable(simnet._run)
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import workloads
    return workloads


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_ops_pass_their_checks(workloads, name):
    # seeds 0-2 cover the three attack modes (replay, eavesdrop, mitm)
    workload = workloads.WORKLOADS[name]
    checker = workloads.Checker(workload)
    for seed in range(3):
        inp = workload.make_input(seed)
        assert checker.check(seed, inp, workload.call(inp)) == [], (name, seed)
    assert checker.digests_checked == 3
