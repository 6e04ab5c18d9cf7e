"""Recorded output digests: reports, transcripts, CLI output and CSVs.

Each case renders one run to text and compares its SHA-256 with the value
recorded below. A change that must keep behaviour byte-identical (a
refactor or a speed-up) leaves every digest in place. A change that moves
behaviour on purpose re-records them with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from dataclasses import replace

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
        scenario="inclusion", threshold=4, guards=6, n_drones=8, seed=3)
    cases["unification-extra-members"] = lambda: _scenario(
        scenario="unification", threshold=4, guards=5, n_drones=9, seed=3)
    cases["nr5g-default"] = lambda: _scenario(scenario="nr5g", seed=5)
    for n in (0, 1, 25):
        cases[f"bulk-n{n}"] = lambda n=n: _scenario(scenario="bulk", n_drones=n,
                                                    seed=n)
    for scenario in ("inclusion", "unification"):
        cases[f"{scenario}-production"] = lambda s=scenario: _scenario(
            scenario=s, threshold=3, seed=1, group="production")
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


def digest(case: str) -> str:
    return hashlib.sha256(CASES[case]().encode()).hexdigest()[:32]


GOLDEN = {
    'bulk-fractional': '9031732842a55c8958d1939bb74ced37',
    'bulk-n0': 'cd12eff8eae91e4df5777fe3f96e2660',
    'bulk-n1': '48e8d32d4c6dd56455017982869b0856',
    'bulk-n25': '3faa8c5750bbeea1586f6ed7e2581e88',
    'bulk-zero': 'd315e4c1dd4420d17950e703f8a67d42',
    'cli-attack-eavesdrop': '2bd9b2aac41c0525a2d5040282ee266c',
    'cli-attack-mitm': 'a7a9700ab64095c992983947d8110036',
    'cli-attack-replay': '0bce921f85fd2816fd8bd9d8a3d5b867',
    'inclusion-eavesdrop': 'a24ef72494fbe85695a3333ec6ded1dc',
    'inclusion-extra-guards': 'ff049b1e89ada5e0e9b2b4823a33bdba',
    'inclusion-fractional': '0617928be87b7c3848265da6e1f0fec5',
    'inclusion-fractional-parallel': 'ae7cb39fb12f27436563592d43c322b4',
    'inclusion-mitm': '7b009a20033d305ae538caa8bf8af06b',
    'inclusion-production': '43cdaf3155d223103396357cb06ff637',
    'inclusion-replay': '565ec418eb88788b9ad722eab7b0026d',
    'inclusion-t2': '7a8d1dc6628e645b1c44aea61b768f2c',
    'inclusion-t2-parallel': 'f6f29214405fb57a8792e35651674fab',
    'inclusion-t3': '08c68fcfdc50f225e210981e314a9544',
    'inclusion-t4': '098991ea6d93a9b46fbd693f9badb6da',
    'inclusion-t5': '8c92b2eb59856eda669d65393f8fc102',
    'inclusion-t5-parallel': 'c3115bb230c8d32f081b6d4d95c5918f',
    'inclusion-t6': 'a8dc7976882648765d74b07e10cb3551',
    'inclusion-t7': '13058160731823f5c01444bc8b07a811',
    'inclusion-t8': 'b7b0780a7c57278b22d1adf17044b266',
    'inclusion-t9': '6a5a5e4a38b275c65d7447f77fadb62e',
    'inclusion-t9-parallel': 'aab085e0ededd4cf97919ef0d9f4c083',
    'inclusion-zero': '4978aa0a3f5d58279ce6660c66fe31af',
    'inclusion-zero-parallel': '6b380a3f47888be30f1566ccb70b3a0f',
    'nr5g-default': '130625a49b0e4eea1febec160d795996',
    'nr5g-fractional': '79012d8655fa7ba4f693024ac99bdc51',
    'nr5g-zero': '506cc4caccb169f104baf98899a69a1f',
    'protocol-inclusion-0': '9da99f21a44a5372361be8826e3da015',
    'protocol-inclusion-1': '44cea4d4c254a5e8c61f693582b3a5e6',
    'protocol-inclusion-2': '55c3523d1c1d0e4e6e031c1349ab657a',
    'protocol-unification-0': '6e4629e22ef61fef2f60b944f8e4b491',
    'protocol-unification-0-mutual': '3a53712c93d5cedd3146c566717d6ec1',
    'protocol-unification-1': '69beb5f15d33f867a2848f125aad23c5',
    'protocol-unification-1-mutual': '2e1dfa3b1949b497397d1c049bb2e157',
    'protocol-unification-corrupt': '0de73d95fea52a7378e325a80ce65366',
    'protocol-unification-corrupt-mutual': '0de73d95fea52a7378e325a80ce65366',
    'protocol-unification-tamper': 'd479497e9cb252c926aabac0d01dfc55',
    'protocol-unification-tamper-mutual': 'd479497e9cb252c926aabac0d01dfc55',
    'sweep-n_drones': '21653ae7ac398c9bfd62bdcba9ab4c1e',
    'sweep-threshold': '79ab747a05e70e418d3c5a8f291dd59e',
    'unification-eavesdrop': '23d4462bc6253f63c396e44b3c5daa9e',
    'unification-extra-members': '1f79df0115c2a5d4e423689e5a0ab936',
    'unification-fractional': '1f2aea9a47fc217d6a3f8b97137ee07a',
    'unification-fractional-parallel': 'be849de3ed15c2f40a7b7a9b0db7079e',
    'unification-mitm': 'f5f1b54a574009afe1615a2d75049001',
    'unification-production': 'd5eb6441c426499c2e2a8c772dd17d3a',
    'unification-replay': '8c5923787f29f5a67b4d08e7b4e8a9d8',
    'unification-t2': '619a7f5219ef46bd713506014bd0f052',
    'unification-t2-parallel': 'c561c5fd3dd6545511a602de5f001979',
    'unification-t3': 'fdc4de96e8af3a4e9e2cfda4ffc5b0ac',
    'unification-t4': '4ca271d800e1d6047ad24339e7110e7f',
    'unification-t5': 'd9fb65641ad06dec8a7d15fb554a766c',
    'unification-t5-parallel': 'cb33d709c1c7ab925b48d4fc13c016a3',
    'unification-t6': '26df24397d97b43c086e90efc0dd2bad',
    'unification-t7': 'baf68855ae3de100bf7e9e2de13502e1',
    'unification-t8': '682cab44c45f2cb363eed55d1ffcf52f',
    'unification-t9': '3160f57ab02216219c7743cc87950606',
    'unification-t9-parallel': '559dae530732febe3cea1e0b347ecd73',
    'unification-zero': '5b2c4a0ba73482f0bd952a1e6d874286',
    'unification-zero-parallel': '6022964e7a06c7e0145dd0f40eb66648',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recorded_digest(case):
    assert digest(case) == GOLDEN[case]


if __name__ == "__main__":
    # re-record: prints the GOLDEN table for the current behaviour
    sys.stdout.write("GOLDEN = {\n")
    for name in sorted(CASES):
        sys.stdout.write(f"    {name!r}: {digest(name)!r},\n")
    sys.stdout.write("}\n")
