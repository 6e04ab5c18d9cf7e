"""The benchmark's workloads: inputs made from a seed, the call into the
program, and the check of every output.

Op i of a run uses seed = workload seed + i. The program receives only the
generated ``ScenarioConfig`` (or CLI argv for the attack workload); the
checks and the transcript digests run outside the timed call.

An op fails when the call raises, when the outcome is not the expected one,
when a modeled ``total_us`` differs from the closed form or from the value
recorded in ``golden.json``, or when the transcript digest differs from the
one recorded there for that seed. An attack op runs two scenarios inside
the CLI; each of their totals is checked, and its digest covers the CLI
output and both transcripts. Seeds outside the recorded range are checked
on everything except the digest, and the run reports how many digests it
checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

from swarmauth import cli, simnet

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
ATTACK_MODES = ("replay", "eavesdrop", "mitm")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _unification_total(config) -> float:
    model = config.latency
    return (model.ue_core_round_trip + simnet.time_group_auth(config.threshold, model)
            + 2 * model.drone_to_drone)


# Modeled total_us of one scenario run, in closed form.
_CLOSED_FORMS = {
    "inclusion": lambda c: simnet.time_group_auth(c.threshold, c.latency, c.parallel_guards),
    "bulk": lambda c: simnet.time_bulk_admission(c.n_drones, c.threshold, c.latency)[0],
    "unification": _unification_total,
}


def _total_problems(runs: list, golden_totals) -> tuple[list, list]:
    """The totals of [(config, report)] and what is wrong with them."""
    totals = [report.total_us for _, report in runs]
    problems = []
    for config, report in runs:
        expected = _CLOSED_FORMS[config.scenario](config)
        if not math.isclose(report.total_us, expected, rel_tol=1e-12, abs_tol=1e-9):
            problems.append(f"{config.scenario} total_us {report.total_us!r} "
                            f"!= closed form {expected!r}")
    if golden_totals is not None and totals != golden_totals:
        problems.append(f"total_us {totals!r} != recorded {golden_totals!r}")
    return totals, problems


class ScenarioWorkload:
    """One ``run_scenario`` call per op; accepted outcome expected."""

    def __init__(self, name: str, **fields):
        self.name = name
        self._fields = fields

    def kind(self, seed: int) -> str:
        return ""

    def make_input(self, seed: int) -> simnet.ScenarioConfig:
        return simnet.ScenarioConfig(seed=seed, **self._fields)

    def call(self, config):
        return simnet.run_scenario(config)

    def digest_and_problems(self, config, output, golden_totals):
        report, transcript = output
        totals, problems = _total_problems([(config, report)], golden_totals)
        if report.outcome != "accepted":
            problems.insert(0, f"outcome {report.outcome}")
        return _sha256(transcript.render()), totals, problems


class AttackWorkload:
    """``swarmauth attack`` through ``cli.main``; the mode cycles with the
    seed (replay, eavesdrop, mitm) and every attack must be thwarted."""

    name = "attack-t5"

    def kind(self, seed: int) -> str:
        return ATTACK_MODES[seed % len(ATTACK_MODES)]

    def make_input(self, seed: int) -> list:
        return ["attack", "--mode", self.kind(seed), "--seed", str(seed)]

    def call(self, argv):
        """Runs the CLI and keeps each scenario run it makes, as
        (config, result), for the check."""
        runs = []
        run = simnet._run

        def keep(config):
            runs.append((config, run(config)))
            return runs[-1][1]

        out = io.StringIO()
        simnet._run = keep
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            simnet._run = run
        return code, out.getvalue(), runs

    def digest_and_problems(self, argv, output, golden_totals):
        code, text, runs = output
        totals, problems = _total_problems(
            [(config, result.report) for config, result in runs], golden_totals)
        if code != 0:
            problems.insert(0, f"exit {code}: {text.strip()!r}")
        digest = _sha256(text + "".join(result.transcript.render() for _, result in runs))
        return digest, totals, problems


WORKLOADS = {
    w.name: w for w in (
        ScenarioWorkload("inclusion-t10", scenario="inclusion", threshold=10),
        ScenarioWorkload("bulk-n100", scenario="bulk", n_drones=100, threshold=5),
        ScenarioWorkload("merge-n5000", scenario="unification", n_drones=5000, threshold=5),
        AttackWorkload(),
    )
}


class Checker:
    """Checks op outputs of one workload against the closed forms and the
    recorded digests, modeled totals and per-op operation counts. The
    recorded values are read at the first check, after the first op."""

    def __init__(self, workload):
        self.workload = workload
        self._golden = None
        self.digests_checked = 0

    @property
    def golden(self) -> dict:
        if self._golden is None:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                self._golden = json.load(fh)["workloads"][self.workload.name]
        return self._golden

    def check(self, seed: int, inp, output) -> list:
        digest, _, problems = self.workload.digest_and_problems(
            inp, output, self.golden["total_us"])
        digests = self.golden["digests"]
        if 0 <= seed < len(digests):
            self.digests_checked += 1
            if digest != digests[seed]:
                problems.append(f"transcript digest {digest[:16]} != recorded "
                                f"{digests[seed][:16]}")
        return problems
