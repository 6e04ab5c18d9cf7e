"""One workload process: a single closed-loop client with no threads.

It imports the package from ``<root>/src``, runs op 0 and reports the time
from the parent's spawn timestamp to the end of that op as the set-up time,
then runs ops 1, 2, ... back to back until ``--seconds`` have passed. Only
the call into the program is timed; checks and digests run between ops.

With ``--trace 1`` every op runs twice, untraced and traced (alternating
which goes first), so the per-layer numbers and the tracing overhead come
from the same seeds. The first traced op of each kind is traced once more
to confirm that its operation counts repeat for a fixed seed, and its spans
are written as JSONL when the run ends.

On a VM that shares its cores, speed drifts by a quarter within a minute.
A fixed calibration loop therefore runs between ops, and each op's wall
time is reported with the mean of the calibrations just before and just
after it, so that ``run.py`` can scale it to a fixed machine speed.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout holding src/swarmauth")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="timed loop length; 0 runs only op 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() taken by the parent just before spawning")
    ap.add_argument("--spans-out", default=None, help="JSONL path for traced spans")
    return ap.parse_args(argv)


class Run:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.ended = 0.0  # time.monotonic() at the end of the last call
        self.check_ms = 0.0  # wall ms of the last op's check

    def op(self, seed: int, tracer=None):
        """One checked op; returns (ms, spans) or None when the op failed."""
        self.check_ms = 0.0
        inp = self.workload.make_input(seed)
        self.attempted += 1
        spans = None
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            output = self.workload.call(inp)
            ms = (time.perf_counter() - start) * 1e3
        except Exception:
            self.failures.append(f"seed {seed}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.ended = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.take()
        start = time.perf_counter()
        problems = self.checker.check(seed, inp, output)
        self.check_ms = (time.perf_counter() - start) * 1e3
        if problems:
            self.failures.append(f"seed {seed}: " + "; ".join(problems))
            return None
        return ms, spans


# secp256k1's field prime: the loop does the 256-bit modular arithmetic
# that dominates the program, in interpreted Python like the curve code.
_P = 2**256 - 2**32 - 977
_CALIBRATION_ITERATIONS = 20_000


def calibrate() -> float:
    """Wall ms of a fixed loop of 256-bit modular multiply-adds."""
    x, y = 3**160 % _P, 5**110 % _P
    start = time.perf_counter()
    for _ in range(_CALIBRATION_ITERATIONS):
        x = (x * y + 7) % _P
    return (time.perf_counter() - start) * 1e3


def _deadline_loop(args):
    """Yield (op index, seed) until --seconds have passed; at least one op
    when --seconds is positive."""
    deadline = time.monotonic() + args.seconds
    i = 1
    while args.seconds > 0 and (i == 1 or time.monotonic() < deadline):
        yield i, args.seed + i
        i += 1


def _plain_loop(run, args, result):
    """Per timed op: the call's wall ms (None when the op failed), the wall
    ms of the whole op but its check, and the calibration beside it."""
    op_ms, op_span_ms, op_cal_ms = [], [], []
    before = calibrate()
    for _, seed in _deadline_loop(args):
        start = time.perf_counter()
        done = run.op(seed)
        op_span_ms.append((time.perf_counter() - start) * 1e3 - run.check_ms)
        after = calibrate()
        op_ms.append(None if done is None else done[0])
        op_cal_ms.append((before + after) / 2)
        before = after
    result.update(op_ms=op_ms, op_span_ms=op_span_ms, op_cal_ms=op_cal_ms)


def _traced_loop(run, args, result):
    import tracing
    tracer = tracing.Tracer()
    plain_ms, traced_ms = [], []
    cal_ms = [calibrate()]
    samples: dict = {}          # kind -> [per-op metrics]
    kept_spans = []             # [(op, seed, rows)], written at the end
    for i, seed in _deadline_loop(args):
        cal_ms.append(calibrate())
        for traced in ((False, True) if i % 2 else (True, False)):
            done = run.op(seed, tracer if traced else None)
            if done is None:
                continue
            if not traced:
                plain_ms.append(done[0])
                continue
            traced_ms.append(done[0])
            metrics, rows = tracing.summarize(done[1])
            kind = run.workload.kind(seed)
            if kind not in samples:
                # every run must be a pure function of (config, seed)
                repeat = run.op(seed, tracer)
                differ = repeat and tracing.differing_counts(
                    metrics, tracing.summarize(repeat[1])[0])
                if differ:
                    run.failures.append(f"seed {seed}: counts differ between two "
                                        f"traced runs: {', '.join(differ)}")
                kept_spans.append((i, seed, rows))
            samples.setdefault(kind, []).append(metrics)
    result.update(op_ms=plain_ms, traced_op_ms=traced_ms, cal_ms=cal_ms,
                  layers=tracing.per_op_values(samples),
                  count_drift=tracing.count_drift(samples, run.checker.golden["counts"]))
    if args.spans_out:
        tracing.write_spans(args.spans_out, kept_spans)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    import swarmauth
    import workloads
    if not os.path.abspath(swarmauth.__file__).startswith(
            os.path.join(os.path.abspath(args.root), "src") + os.sep):
        print(f"swarmauth imported from {swarmauth.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, workloads.Checker(workload))

    run.op(args.seed)
    result = {"setup_s": run.ended - args.t0,
              "setup_cal_ms": [calibrate() for _ in range(3)]}
    (_traced_loop if args.trace else _plain_loop)(run, args, result)
    result.update(attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures[:5],
                  digests_checked=run.checker.digests_checked,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
