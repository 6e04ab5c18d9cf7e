"""Recorded outputs: reports, transcripts, CLI output and CSVs.

Each case renders one run to text and compares it byte for byte with its
file ``tests/golden/<case>.txt`` (UTF-8, no newline translation). A change
that must keep behaviour byte-identical (a refactor or a speed-up) leaves
every file in place. A change that moves behaviour on purpose re-records
them with ``PYTHONPATH=src python tests/test_golden.py``, which rewrites
every file, deletes the file of any case that no longer exists and prints
the names it changed; the diff of ``tests/golden/`` shows what moved.
"""

import contextlib
import difflib
import io
import os
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from swarmauth.algebra import ToyGroup
from swarmauth.cli import main
from swarmauth.protocol import (
    CoreNetwork,
    MessageKind,
    Transport,
    run_inclusion,
    run_unification,
)
from swarmauth.shares import PublicShare, decode_public_share, encode_public_share
from swarmauth.simnet import (
    LatencyModel,
    ScenarioConfig,
    inject_adversary,
    run_scenario,
)

# Values with no exact binary form, so that summation order shows.
FRACTIONAL = LatencyModel(ue_core_round_trip=9876.3, asym_encrypt=100.7,
                          asym_decrypt=1499.9, hash_op=0.3,
                          drone_to_drone=600.7, ec_point_mul=612.1)
ZERO = LatencyModel(**{name: 0.0 for name in LatencyModel.__dataclass_fields__})


def _scenario(**fields) -> str:
    fields.setdefault("group", "toy")
    report, transcript = run_scenario(ScenarioConfig(**fields))
    return (f"{report.render()}\n{report.total_us!r} {report.phases!r}\n"
            f"{transcript.render()}")


def _attack(**fields) -> str:
    config = ScenarioConfig(group="toy", **fields)
    outcome = inject_adversary(config)
    return f"{outcome}\n{_scenario(**fields)}"


def _protocol_inclusion(seed: int, t: int) -> str:
    rng = random.Random(seed)
    core = CoreNetwork(ToyGroup(), rng)
    swarm = core.provision_swarm("A", t, n_drones=t + 1)
    candidate = core.issue_candidate("A")
    outcome, transcript = run_inclusion(swarm, candidate, rng)
    return f"{outcome} {candidate.group_key}\n{transcript.render()}"


def _corrupt_from(label: str, group):
    def intercept(msg, receiver):
        if msg.kind is MessageKind.SHARE_PUBLISH and str(msg.sender) == label:
            share = decode_public_share(group, msg.payload)
            fake = PublicShare(share.x, group.add(share.point, 1))
            return replace(msg, payload=encode_public_share(group, fake))
        return msg
    return intercept


def _tamper_response(msg, receiver):
    if msg.kind is MessageKind.CROSS_ISSUE_RESPONSE:
        return replace(msg, payload=bytes([msg.payload[0] ^ 1]) + msg.payload[1:])
    return msg


def _protocol_unification(seed: int, t: int, mutual=False, attack=None) -> str:
    rng = random.Random(seed)
    group = ToyGroup()
    core = CoreNetwork(group, rng)
    swarm_a = core.provision_swarm("A", t, n_drones=t + 2)
    swarm_b = core.provision_swarm("B", t, n_drones=t + 1)
    intercept = None
    if attack == "corrupt":
        intercept = _corrupt_from("A/1", group)
    elif attack == "tamper":
        intercept = _tamper_response
    outcome, transcript = run_unification(swarm_a, swarm_b, core, rng,
                                          Transport(intercept=intercept),
                                          mutual=mutual)
    keys = [d.group_key for d in swarm_a.members() + swarm_b.members()]
    return f"{outcome} {keys}\n{transcript.render()}"


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _cli_attack(mode: str, seed: int) -> str:
    code, text = _cli("attack", "--mode", mode, "--seed", str(seed))
    return f"{code}\n{text}"


def _sweep(variable: str, lo: int, hi: int, step: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        code, text = _cli("sweep", "--variable", variable, "--from", str(lo),
                          "--to", str(hi), "--step", str(step), "--out", path)
        with open(path, encoding="utf-8") as fh:
            csv_text = fh.read()
    return f"{code}\n{text.replace(path, 'OUT')}{csv_text}"


def _cases() -> dict:
    cases = {}
    for t in range(2, 10):
        cases[f"inclusion-t{t}"] = lambda t=t: _scenario(scenario="inclusion",
                                                         threshold=t, seed=t)
        cases[f"unification-t{t}"] = lambda t=t: _scenario(
            scenario="unification", threshold=t, seed=t)
    for t in (2, 5, 9):
        for scenario in ("inclusion", "unification"):
            cases[f"{scenario}-t{t}-parallel"] = lambda s=scenario, t=t: _scenario(
                scenario=s, threshold=t, seed=40 + t, parallel_guards=True)
    for name, model in (("fractional", FRACTIONAL), ("zero", ZERO)):
        for scenario in ("inclusion", "unification", "nr5g", "bulk"):
            cases[f"{scenario}-{name}"] = lambda s=scenario, m=model: _scenario(
                scenario=s, threshold=6, seed=7, latency=m)
            if scenario in ("inclusion", "unification"):
                cases[f"{scenario}-{name}-parallel"] = lambda s=scenario, m=model: (
                    _scenario(scenario=s, threshold=6, seed=8, latency=m,
                              parallel_guards=True))
    for mode in ("replay", "eavesdrop", "mitm"):
        for scenario in ("inclusion", "unification"):
            cases[f"{scenario}-{mode}"] = lambda s=scenario, m=mode: _attack(
                scenario=s, adversary=m, seed=11)
    cases["inclusion-extra-guards"] = lambda: _scenario(
        scenario="inclusion", threshold=4, n_drones=8, seed=3)
    cases["unification-extra-members"] = lambda: _scenario(
        scenario="unification", threshold=4, n_drones=9, seed=3)
    # a merge whose rebroadcast reaches 299 members of swarm A
    cases["unification-n300"] = lambda: _scenario(
        scenario="unification", threshold=5, n_drones=300, seed=300)
    cases["nr5g-default"] = lambda: _scenario(scenario="nr5g", seed=5)
    for n in (0, 1, 25):
        cases[f"bulk-n{n}"] = lambda n=n: _scenario(scenario="bulk", n_drones=n,
                                                    seed=n)
    for scenario in ("inclusion", "unification"):
        cases[f"{scenario}-production"] = lambda s=scenario: _scenario(
            scenario=s, threshold=3, seed=1, group="production")
    cases["inclusion-production-t10"] = lambda: _scenario(
        scenario="inclusion", threshold=10, seed=10, group="production")
    cases["bulk-production"] = lambda: _scenario(
        scenario="bulk", n_drones=25, threshold=5, seed=25, group="production")
    for seed, t in ((0, 2), (1, 3), (2, 5)):
        cases[f"protocol-inclusion-{seed}"] = lambda s=seed, t=t: (
            _protocol_inclusion(s, t))
    for seed, t in ((0, 2), (1, 4)):
        cases[f"protocol-unification-{seed}"] = lambda s=seed, t=t: (
            _protocol_unification(s, t))
        cases[f"protocol-unification-{seed}-mutual"] = lambda s=seed, t=t: (
            _protocol_unification(s, t, mutual=True))
    for attack in ("corrupt", "tamper"):
        cases[f"protocol-unification-{attack}"] = lambda a=attack: (
            _protocol_unification(3, 3, attack=a))
        cases[f"protocol-unification-{attack}-mutual"] = lambda a=attack: (
            _protocol_unification(3, 3, mutual=True, attack=a))
    for mode in ("replay", "eavesdrop", "mitm"):
        cases[f"cli-attack-{mode}"] = lambda m=mode: _cli_attack(m, 2)
    cases["sweep-threshold"] = lambda: _sweep("threshold", 2, 20, 1)
    cases["sweep-n_drones"] = lambda: _sweep("n_drones", 0, 100, 25)
    return cases


CASES = _cases()
GOLDEN_DIR = Path(__file__).with_name("golden")


def _golden_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.txt"


def _render(case: str) -> bytes:
    return CASES[case]().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_file(case):
    path = _golden_path(case)
    if not path.exists():
        pytest.fail(f"{path.name} is missing; re-record with "
                    "PYTHONPATH=src python tests/test_golden.py", pytrace=False)
    recorded, rendered = path.read_bytes(), _render(case)
    if rendered != recorded:
        diff = difflib.unified_diff(
            recorded.decode("utf-8", "replace").splitlines(keepends=True),
            rendered.decode("utf-8", "replace").splitlines(keepends=True),
            fromfile=f"tests/golden/{path.name}", tofile=f"{case} (rendered)")
        pytest.fail("".join(diff), pytrace=False)


PASS_THROUGH_CASES = sorted(c for c in CASES if "inclusion" in c or "unification" in c)


@pytest.mark.parametrize("case", PASS_THROUGH_CASES)
def test_pass_through_hook_leaves_output_unchanged(case, monkeypatch):
    # every transport built without an intercept hook gets one that passes
    # each message on: a rebroadcast then makes each copy a message and
    # delivers it, where without a hook it makes none, and a member built
    # late reads its receipts from the swarm's set either way
    init = Transport.__init__

    def hooked(self, intercept=None, costs=None):
        init(self, intercept or (lambda msg, receiver: msg), costs)

    monkeypatch.setattr(Transport, "__init__", hooked)
    assert _render(case) == _golden_path(case).read_bytes()


def test_golden_directory_holds_one_file_per_case():
    recorded = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    orphans, missing = sorted(recorded - CASES.keys()), sorted(CASES.keys() - recorded)
    assert not orphans and not missing, f"orphan files {orphans}, missing files {missing}"


def record() -> list[str]:
    """Rewrites every golden file; returns the cases whose file changed."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    changed = []
    for case in sorted(CASES):
        path, rendered = _golden_path(case), _render(case)
        if not path.exists() or path.read_bytes() != rendered:
            path.write_bytes(rendered)
            changed.append(case)
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        if path.stem not in CASES:
            path.unlink()
            changed.append(path.stem)
    return changed


if __name__ == "__main__":
    for name in record():
        print(name)
