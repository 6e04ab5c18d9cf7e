"""Per-layer tracing from outside the program.

The tracer wraps functions of ``swarmauth`` in place while a traced op
runs. Module-level functions are replaced at every module attribute that
holds them, because the package calls them through different modules:
``simnet`` reaches ``open_sealed`` as ``simnet.open_sealed`` and
``verify_group`` as ``protocol.verify_group``. Methods are replaced on
their class. The private protocol helpers that ``simnet`` calls across the
module boundary are wrapped so that their work is charged to ``protocol``;
the curve's inner helpers (``_jac_add``, ``_jac_double``) are not, because
a wrapper there would cost more than the work it measures.

Each call records a span (name, start, end, parent). Code that no wrapper
covers is charged to the innermost wrapped caller, so a layer's self time
is the time of its spans minus the child spans they contain.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import statistics
from collections import defaultdict

from swarmauth import algebra, cli, protocol, shares, simnet

LAYERS = ("algebra", "shares", "protocol", "simnet", "cli")

# (owner, attribute, span name). Span names start with their layer.
_METHODS = (
    (algebra.CurveGroup, "mul", "algebra.mul"),
    (algebra.CurveGroup, "add", "algebra.add"),
    (algebra.CurveGroup, "decode", "algebra.decode"),
    (algebra.ScalarField, "inv", "algebra.inv"),
    (protocol.Transport, "deliver", "protocol.deliver"),
    (protocol.AuthTranscript, "record", "protocol.transcript"),
    (protocol.CoreNetwork, "provision_swarm", "protocol.provision"),
    (protocol.CoreNetwork, "issue_candidate", "protocol.provision"),
    (protocol.CoreNetwork, "core_issue_cross_share", "protocol.cross_issue"),
    (simnet.EventLoop, "schedule_at", "simnet.schedule_at"),
    (simnet.Adversary, "intercept", "simnet.intercept"),
)

_FUNCTIONS = (
    (algebra, "make_group", "algebra.make_group"),
    (shares, "gen_polynomial", "shares.gen_polynomial"),
    (shares, "issue_share", "shares.issue_share"),
    (shares, "public_share", "shares.public_share"),
    (shares, "group_commitment", "shares.group_commitment"),
    (shares, "lagrange_coeff_at_zero", "shares.lagrange"),
    (shares, "verify_group", "shares.verify_group"),
    (shares, "recover_group_key", "shares.recover_group_key"),
    (shares, "encode_private_share", "shares.encode_private_share"),
    (shares, "decode_private_share", "shares.decode_private_share"),
    (shares, "encode_public_share", "shares.encode_public_share"),
    (shares, "decode_public_share", "shares.decode_public_share"),
    (protocol, "fresh_nonce", "protocol.fresh_nonce"),
    (protocol, "derive_pairwise_key", "protocol.pairwise_key"),
    (protocol, "group_key_cipher_key", "protocol.group_key_cipher_key"),
    (protocol, "seal", "protocol.seal"),
    (protocol, "open_sealed", "protocol.open"),
    (protocol, "deliver_group_key", "protocol.deliver_group_key"),
    (protocol, "open_group_key", "protocol.open_group_key"),
    (protocol, "run_inclusion", "protocol.run_inclusion"),
    (protocol, "run_unification", "protocol.run_unification"),
    (protocol, "_publish_share", "protocol.publish_share"),
    (protocol, "_send_verdict", "protocol.send_verdict"),
    (protocol, "_send_group_key", "protocol.send_group_key"),
    (protocol, "_open_cross_share", "protocol.open_cross_share"),
    (simnet, "run_scenario", "simnet.run_scenario"),
    (simnet, "inject_adversary", "simnet.inject_adversary"),
    (cli, "main", "cli.main"),
)

# Per-op counts that depend only on the code and the workload kind; the
# traced run compares them between two runs of one seed and with the values
# recorded in golden.json.
COUNT_METRICS = (
    "algebra.mul_var.calls", "algebra.mul_base.calls", "algebra.mul.repeat_ratio",
    "algebra.add.calls", "algebra.decode.calls", "algebra.inv.calls",
    "shares.verify_group.calls", "shares.verify_group.rejected",
    "shares.lagrange.calls", "shares.public_share.calls",
    "shares.group_commitment.calls",
    "protocol.deliver.calls", "protocol.deliver.replays_rejected",
    "protocol.wire_bytes", "protocol.seal.calls", "protocol.open.calls",
    "protocol.open.failed", "protocol.pairwise_key.calls", "simnet.events",
)

# Inclusive wall time per op of these spans, in ms.
_MS_METRICS = {
    "algebra.mul_var": "algebra.mul_var.ms",
    "algebra.mul_base": "algebra.mul_base.ms",
    "algebra.decode": "algebra.decode.ms",
    "shares.verify_group": "shares.verify_group.ms",
    "shares.lagrange": "shares.lagrange.ms",
    "protocol.deliver": "protocol.deliver.ms",
    "protocol.seal": "protocol.seal.ms",
    "protocol.open": "protocol.open.ms",
    "protocol.provision": "protocol.provision.ms",
    "protocol.transcript": "protocol.transcript.ms",
}

_CALL_METRICS = {
    "algebra.mul_var": "algebra.mul_var.calls",
    "algebra.mul_base": "algebra.mul_base.calls",
    "algebra.add": "algebra.add.calls",
    "algebra.decode": "algebra.decode.calls",
    "algebra.inv": "algebra.inv.calls",
    "shares.verify_group": "shares.verify_group.calls",
    "shares.lagrange": "shares.lagrange.calls",
    "shares.public_share": "shares.public_share.calls",
    "shares.group_commitment": "shares.group_commitment.calls",
    "protocol.deliver": "protocol.deliver.calls",
    "protocol.seal": "protocol.seal.calls",
    "protocol.open": "protocol.open.calls",
    "protocol.pairwise_key": "protocol.pairwise_key.calls",
    "simnet.schedule_at": "simnet.events",
}

OP_METRICS = tuple(sorted(set(COUNT_METRICS) | set(_MS_METRICS.values())
                          | {f"{layer}.self_ms" for layer in LAYERS}))


class Tracer:
    """Wraps the package's functions while installed and keeps the spans of
    the current op in memory as [name, start_ns, end_ns, parent, args,
    result, raised]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches = []
        for owner, attr, name in _METHODS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrap(name, original)))
        for module, attr, name in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in _package_modules():
                for key, value in vars(holder).items():
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, args, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                rec[5] = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            return rec[5]
        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> list:
        """Remove and return the spans recorded since the last take."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "swarmauth" or n.startswith("swarmauth."))]


def _resolve_name(rec) -> str:
    name, args = rec[0], rec[4]
    if name == "algebra.mul":
        group, point = args[0], args[2]
        return "algebra.mul_base" if point == group.generator else "algebra.mul_var"
    return name


def summarize(spans: list) -> tuple[dict, list]:
    """Per-op metrics from one op's spans, and the spans as compact rows
    (name, start_ns, end_ns, parent) with the mul kind resolved."""
    n = len(spans)
    child_ns = [0] * n
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    metrics = dict.fromkeys(OP_METRICS, 0)
    calls = defaultdict(int)
    incl_ns = defaultdict(int)
    self_ns = defaultdict(int)
    mul_keys = set()
    mul_repeats = 0
    rows = []
    for i, rec in enumerate(spans):
        name = _resolve_name(rec)
        dur = rec[2] - rec[1]
        calls[name] += 1
        incl_ns[name] += dur
        self_ns[name.split(".", 1)[0]] += dur - child_ns[i]
        rows.append((name, rec[1], rec[2], rec[3]))
        args, result, raised = rec[4], rec[5], rec[6]
        if name in ("algebra.mul_base", "algebra.mul_var"):
            key = (args[1] % args[0].order, args[2])
            mul_repeats += key in mul_keys
            mul_keys.add(key)
        elif name == "protocol.deliver":
            metrics["protocol.wire_bytes"] += len(args[1].to_bytes())
            metrics["protocol.deliver.replays_rejected"] += not raised and result is None
        elif name == "shares.verify_group":
            metrics["shares.verify_group.rejected"] += not raised and result is False
        elif name == "protocol.open":
            metrics["protocol.open.failed"] += raised
    for name, metric in _CALL_METRICS.items():
        metrics[metric] = calls[name]
    for name, metric in _MS_METRICS.items():
        metrics[metric] = incl_ns[name] / 1e6
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ns[layer] / 1e6
    muls = calls["algebra.mul_base"] + calls["algebra.mul_var"]
    metrics["algebra.mul.repeat_ratio"] = mul_repeats / muls if muls else 0.0
    return metrics, rows


def write_spans(path: str, ops: list):
    """Write [(op, seed, rows)] as JSONL, times in us from the op's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, seed, rows in ops:
            origin = rows[0][1] if rows else 0
            for name, start, end, parent in rows:
                fh.write(json.dumps({
                    "op": op, "seed": seed, "name": name,
                    "start_us": round((start - origin) / 1e3, 3),
                    "end_us": round((end - origin) / 1e3, 3), "parent": parent,
                }) + "\n")


def differing_counts(a: dict, b: dict) -> list:
    return [m for m in COUNT_METRICS if a[m] != b[m]]


def per_op_values(samples: dict) -> dict:
    """{metric: value} from {kind: [per-op metrics]}: the median over each
    kind's ops, then the mean over kinds, so that the attack workload
    weighs its three modes equally."""
    if not samples:
        return {}
    return {m: statistics.fmean(statistics.median(op[m] for op in ops)
                                for ops in samples.values())
            for m in OP_METRICS}


def count_drift(samples: dict, recorded: dict) -> list:
    """Count metrics whose median per-op value differs from the one
    recorded for the same kind of op."""
    drift = []
    for kind, ops in samples.items():
        want = recorded.get(kind, {})
        for m in COUNT_METRICS:
            got = statistics.median(op[m] for op in ops)
            if want.get(m) != got:
                drift.append(f"{kind or 'op'}:{m} {want.get(m)} -> {got}")
    return drift
