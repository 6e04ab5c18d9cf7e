"""The benchmark under ``bench/`` wraps package attributes by name; a
rename that drops one of them must fail here, not in a traced run."""

import os

from swarmauth import simnet

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workloads  # noqa: F401  (fails on a renamed simnet or cli name)

    # the constructor looks up every wrapped method and function
    tracing.Tracer()
    assert callable(simnet._run)
