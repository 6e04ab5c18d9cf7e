"""Deterministic simulation of the authentication scenarios.

A scenario (5G NR, inclusion, unification, bulk admission) is its
function in ``SCENARIOS``: it provisions the scenario, runs its flow, a
plain function from ``baseline5g`` or ``protocol``, with real
cryptography on a transport whose clock assigns modeled timestamps from a
configurable latency model, and returns the closed-form phases its report
charges. The group-authentication critical path is serialized per share
(one drone-to-drone transfer followed by one curve multiplication per
participant), so an inclusion at threshold t costs t * (drone_to_drone +
ec_point_mul) and a bulk admission of n drones n * drone_to_drone plus
one such check; the 5G NR baseline costs 2 * round_trip + asym_encrypt +
asym_decrypt + 2 * hash_op.

Every flow step waits its cost on an exact clock: the transport sums the
costs as fractions, so a timestamp is the float nearest the exact sum of
the costs of the steps before it, however many steps there are.

Identical (config, seed) pairs produce identical timing reports and
byte-identical transcripts: a flow takes its steps in one fixed order, and
every nonce and key draw comes from the scenario's seeded RNG.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import protocol
from .algebra import make_group
from .baseline5g import (
    AuthenticationFailure,
    OpCounter,
    gen_bs_keys,
    random_supi,
    ue_authentication_flow,
)
from .protocol import (
    AuthTranscript,
    CoreNetwork,
    MessageKind,
    Outcome,
    Transport,
)
from .shares import PublicShare, decode_public_share, encode_public_share

__all__ = [
    "ConfigError",
    "LatencyModel",
    "EventLoop",
    "TimingReport",
    "ScenarioConfig",
    "Adversary",
    "AttackOutcome",
    "ATTACK_MODES", "ATTACK_SCENARIOS",
    "ADVERTISED_PREFERABLE_BOUND",
    "CrossoverReport",
    "parse_duration",
    "parse_config",
    "baseline_phases",
    "baseline_total_us",
    "group_auth_phases",
    "time_group_auth",
    "time_bulk_admission",
    "crossover_report",
    "run_scenario",
    "inject_adversary",
]

# The scenarios an adversary may attack; the attack modes and their judges
# are ``ATTACKS``, at the end of the module.
ATTACK_SCENARIOS = ("inclusion", "unification")

# Threshold bound below which the scheme is advertised as preferable to
# the 5G NR baseline; the crossover report checks it against the model.
ADVERTISED_PREFERABLE_BOUND = 10

# The order q of each group kind: share identifiers lie in 1..q-1.
_GROUP_ORDERS = {kind: make_group(kind).order for kind in ("production", "toy")}


class ConfigError(ValueError):
    """Scenario configuration is malformed; message names the field."""


@dataclass(frozen=True)
class LatencyModel:
    """Cost constants in microseconds."""

    ue_core_round_trip: float = 10_000.0
    asym_encrypt: float = 100.0
    asym_decrypt: float = 1_500.0
    hash_op: float = 0.0
    drone_to_drone: float = 600.0
    ec_point_mul: float = 612.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"latency field {name} must be finite and >= 0, "
                                  f"got {value}")
            if value == 0:  # -0.0 would print as "-0.000"
                object.__setattr__(self, name, 0.0)


def parse_duration(text: str, field_name: str = "duration") -> float:
    """Parse "600us" or "1.5ms" into microseconds."""
    text = text.strip()
    for suffix, scale in (("us", 1.0), ("ms", 1000.0)):
        if text.endswith(suffix):
            try:
                value = float(text[:-len(suffix)])
            except ValueError:
                raise ConfigError(f"{field_name}: bad duration literal {text!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"{field_name}: duration {text!r} is not finite")
            return value * scale
    raise ConfigError(f"{field_name}: duration {text!r} needs a us or ms suffix")


@dataclass
class ScenarioConfig:
    scenario: str
    threshold: int = 5
    n_drones: int | None = None
    seed: int = 0
    adversary: str = "none"
    group: str = "production"
    # serialized per-share transfer+multiply is the default critical path;
    # parallel mode overlaps the transfers into a single broadcast slot
    parallel_guards: bool = False
    latency: LatencyModel = dc_field(default_factory=LatencyModel)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {tuple(SCENARIOS)}, "
                              f"got {self.scenario!r}")
        if self.threshold < 2:
            raise ConfigError(f"threshold: must be >= 2, got {self.threshold}")
        if self.adversary not in ADVERSARY_MODES:
            raise ConfigError(f"adversary: must be one of {ADVERSARY_MODES}, "
                              f"got {self.adversary!r}")
        if self.adversary != "none" and self.scenario not in ATTACK_SCENARIOS:
            raise ConfigError(f"adversary: mode {self.adversary!r} requires an "
                              f"{' or '.join(ATTACK_SCENARIOS)} scenario")
        if self.group not in _GROUP_ORDERS:
            raise ConfigError(f"group: must be production or toy, got {self.group!r}")
        if self.scenario == "nr5g":
            if self.n_drones is not None:
                raise ConfigError("n_drones: does not apply to nr5g, which "
                                  "authenticates one UE")
        elif self.n_drones is None:
            self.n_drones = 100 if self.scenario == "bulk" else self.threshold - 1
        elif self.n_drones < 0:
            raise ConfigError(f"n_drones: must be >= 0, got {self.n_drones}")
        if self.parallel_guards and self.scenario in ("bulk", "nr5g"):
            raise ConfigError(f"parallel_guards: applies to inclusion and "
                              f"unification only, not {self.scenario}")
        if (self.scenario in ("inclusion", "unification")
                and self.n_drones < self.threshold - 1):
            raise ConfigError(f"n_drones: a threshold-{self.threshold} check needs "
                              f"{self.threshold - 1} guards, got a swarm of "
                              f"{self.n_drones}")
        # Every modeled time a run computes (a step cost, a clock stamp, a
        # phase, the total) sums at most n + 2t + 3 latency values; below
        # half the float range no rounding of such a sum reaches infinity.
        name, us = max(vars(self.latency).items(), key=lambda item: item[1])
        if ((self.n_drones or 0) + 2 * self.threshold + 3) * Fraction(us) >= 2 ** 1023:
            raise ConfigError(f"latency field {name}: (n_drones + 2 * threshold + 3) * "
                              f"{us}us reaches 2**1023us: modeled times may overflow")
        # the dealer issues identifiers 1, 2, 3, ... below q: the swarm's
        # drones, the core's share, then the candidate or the cross share
        # (bulk: the t - 1 guards, the core's share, then the arrivals)
        issued = (self.n_drones or 0) + (self.threshold if self.scenario == "bulk" else 2)
        q = _GROUP_ORDERS[self.group]
        if issued >= q:
            raise ConfigError(f"n_drones: {self.scenario} with {self.n_drones} drones "
                              f"issues {issued} identifiers, but only {q - 1} lie "
                              f"below the {self.group} group's order")
        # a bulk report is compared with n_drones nr-5g runs, a time the
        # bound above does not cover
        if self.scenario == "bulk" and not math.isfinite(
                self.n_drones * baseline_total_us(self.latency)):
            name = max(("ue_core_round_trip", "asym_encrypt", "asym_decrypt", "hash_op"),
                       key=lambda key: getattr(self.latency, key))
            raise ConfigError(f"latency field {name}: n_drones * the nr-5g baseline "
                              f"overflows a float in the bulk comparison")


_INT_KEYS = ("threshold", "n_drones", "seed")
_LATENCY_KEYS = tuple(LatencyModel.__dataclass_fields__)


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat "key = value" scenario file format.

    Lines are "key = value"; blank lines and "#" comments are ignored.
    Latency overrides use the model's field names with us/ms-suffixed
    values, e.g. "hash_op = 0.2ms".
    """
    fields: dict = {}
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in fields or key in overrides:
            raise ConfigError(f"{key}: duplicate entry at line {lineno}")
        if key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
        elif key in ("scenario", "adversary", "group"):
            fields[key] = value
        elif key == "parallel_guards":
            if value not in ("true", "false"):
                raise ConfigError(f"parallel_guards: expected true or false, "
                                  f"got {value!r}")
            fields[key] = value == "true"
        elif key in _LATENCY_KEYS:
            overrides[key] = parse_duration(value, key)
        else:
            raise ConfigError(f"{key}: unknown configuration key (line {lineno})")
    if "scenario" not in fields:
        raise ConfigError("scenario: required key missing")
    return ScenarioConfig(latency=LatencyModel(**overrides), **fields)


# No scenario schedules on an event loop: each flow waits on its
# transport's clock. The class stays while the benchmark's tracer wraps
# ``schedule_at``.
class EventLoop:
    """Heap-ordered event queue; ties fire in insertion order. The clock
    starts at an exact zero, so times scheduled as fractions stay exact."""

    def __init__(self):
        self._queue: list = []
        self._seq = 0
        self.now_us = Fraction(0)

    def schedule_at(self, time_us: float | Fraction, action):
        heapq.heappush(self._queue, (time_us, self._seq, action))
        self._seq += 1

    def run(self):
        while self._queue:
            time_us, _, action = heapq.heappop(self._queue)
            self.now_us = time_us
            action()


@dataclass(frozen=True)
class TimingReport:
    """Per-scenario authentication-time result; total is the phase sum."""

    scenario: str
    threshold: int
    n_drones: int
    phases: dict
    outcome: str

    @property
    def method(self) -> str:
        return "nr-5g" if self.scenario == "nr5g" else "group-auth"

    @property
    def total_us(self) -> float:
        return sum(self.phases.values(), 0.0)

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    def render(self) -> str:
        lines = [f"scenario={self.scenario} method={self.method} t={self.threshold} "
                 f"n_drones={self.n_drones} outcome={self.outcome} "
                 f"total_ms={self.total_ms:.3f}"]
        for name, us in self.phases.items():
            lines.append(f"  phase {name}_ms={us / 1000.0:.3f}")
        return "\n".join(lines)


# Closed forms. Phase dictionaries are the single source of truth so the
# reported totals equal the analytic values exactly, not just within
# floating-point noise.

def baseline_phases(model: LatencyModel) -> dict:
    return {
        "suci_encrypt": model.asym_encrypt,
        "transit": 2.0 * model.ue_core_round_trip,
        "udm_decrypt": model.asym_decrypt,
        "hash": 2.0 * model.hash_op,
    }


def baseline_total_us(model: LatencyModel) -> float:
    return sum(baseline_phases(model).values())


def group_auth_phases(t: int, model: LatencyModel, parallel: bool = False) -> dict:
    """Serialized mode pays t transfers and t multiplies back to back;
    parallel mode overlaps the transfers into one broadcast slot."""
    if t < 2:
        raise ValueError(f"threshold must be >= 2, got {t}")
    transfers = 1 if parallel else t
    return {
        "share_transfer": transfers * model.drone_to_drone,
        "point_mul": t * model.ec_point_mul,
    }


def time_group_auth(t: int, model: LatencyModel, parallel: bool = False) -> float:
    """Authentication time of one threshold-t group check, in us."""
    return sum(group_auth_phases(t, model, parallel).values())


def time_bulk_admission(n: int, t: int, model: LatencyModel) -> tuple[float, float]:
    """(group_us, nr5g_us) for admitting n drones.

    The baseline authenticates each drone separately; the group method
    pays one broadcast slot per drone plus a single threshold check.
    """
    if n < 0:
        raise ValueError(f"drone count must be >= 0, got {n}")
    if n == 0:
        return 0.0, 0.0
    nr5g = n * baseline_total_us(model)
    group = n * model.drone_to_drone + time_group_auth(t, model)
    return group, nr5g


@dataclass(frozen=True)
class CrossoverReport:
    """Where the group method stops beating the baseline, checked against
    the advertised preferable range (thresholds below the bound)."""

    baseline_us: float
    crossover_threshold: int | None
    advertised_bound = ADVERTISED_PREFERABLE_BOUND

    @property
    def advertised_bound_holds(self) -> bool:
        return (self.crossover_threshold is None
                or self.crossover_threshold >= self.advertised_bound)

    @property
    def advertised_bound_conservative(self) -> bool:
        return (self.crossover_threshold is None
                or self.crossover_threshold > self.advertised_bound)

    def summary(self) -> str:
        base_ms = self.baseline_us / 1000.0
        if self.crossover_threshold is None:
            return (f"group-auth never exceeds the nr-5g baseline "
                    f"({base_ms:.3f} ms) in the searched range")
        if self.advertised_bound_conservative:
            verdict = "conservative relative to the computed crossover"
        elif self.advertised_bound_holds:
            verdict = "exactly tight against the computed crossover"
        else:
            verdict = "NOT supported by the computed crossover"
        return (f"group-auth exceeds the nr-5g baseline ({base_ms:.3f} ms) "
                f"at t={self.crossover_threshold}; the advertised preferable "
                f"range t<{self.advertised_bound} is {verdict}")


def crossover_report(model: LatencyModel, parallel: bool = False) -> CrossoverReport:
    """The first t in 2..10 000 whose group check, serialized or with
    ``parallel`` guards, takes longer than the nr-5g baseline."""
    baseline = baseline_total_us(model)
    crossover = next((t for t in range(2, 10_001)
                      if time_group_auth(t, model, parallel) > baseline), None)
    return CrossoverReport(baseline, crossover)


@dataclass
class Adversary:
    """In-path attacker: reads every delivery, may reinject or substitute.

    Holds no private share. In mitm mode it substitutes the share
    publishes of the first drone it sees publish a share: in both flows
    that is the drone the guards check, the joining candidate or swarm
    A's designated guard.
    """

    mode: str
    group: object
    rng: random.Random
    captured: list = dc_field(init=False, default_factory=list)
    _target: str | None = dc_field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"unknown adversary mode {self.mode!r}")

    def intercept(self, msg, receiver):
        self.captured.append((msg, receiver))
        if self.mode == "mitm" and msg.kind is MessageKind.SHARE_PUBLISH:
            self._target = self._target or msg.sender.label
            if msg.sender.label == self._target:
                share = decode_public_share(self.group, msg.payload)
                fake_point = self.group.mul(self.group.field.rand_nonzero(self.rng),
                                            self.group.generator)
                fake = PublicShare(share.x, fake_point)
                return replace(msg, payload=encode_public_share(self.group, fake))
        return msg


@dataclass(frozen=True)
class AttackOutcome:
    thwarted: bool
    detail: str


@dataclass
class _ScenarioResult:
    report: TimingReport
    transcript: AuthTranscript
    core: CoreNetwork | None
    adversary: Adversary | None


def run_scenario(config: ScenarioConfig):
    """Execute one configured scenario; returns (TimingReport, AuthTranscript)."""
    result = _run(config)
    return result.report, result.transcript


def _run(config: ScenarioConfig) -> _ScenarioResult:
    """Run the configured scenario's function on a transport on the
    config's modeled clock, through the configured in-path adversary if
    any, and report the closed-form phases it charges with the flow's
    outcome."""
    group, rng = make_group(config.group), random.Random(config.seed)
    adversary = None if config.adversary == "none" else Adversary(config.adversary, group, rng)
    transport = Transport(intercept=adversary and adversary.intercept, costs=_costs(config))
    outcome, core, n_drones, phases = SCENARIOS[config.scenario](config, group, rng, transport)
    transport.transcript.set_outcome(outcome)
    report = TimingReport(config.scenario, config.threshold, n_drones, phases,
                          str(outcome))
    return _ScenarioResult(report, transport.transcript, core, adversary)


def _costs(config: ScenarioConfig) -> dict:
    """The modeled cost in us of each step a flow waits on, as a Fraction
    of the float the latency model charges."""
    model, t = config.latency, config.threshold
    d2d, ecmul = model.drone_to_drone, model.ec_point_mul
    parallel = config.parallel_guards
    costs = {"core": model.ue_core_round_trip / 2.0, "transfer": d2d,
             "round": 0.0 if parallel else d2d + ecmul,
             "verdict": t * ecmul if parallel else ecmul,
             "hop": d2d, "broadcast": d2d, "check": time_group_auth(t, model),
             "encrypt": model.asym_encrypt, "decrypt": model.asym_decrypt,
             "hash": model.hash_op}
    return {step: Fraction(cost) for step, cost in costs.items()}


# Each runs its flow on the transport it is given and returns (outcome,
# core, reported drone count, phases).

def _run_nr5g(config: ScenarioConfig, group, rng, transport):
    """One UE authenticates through the core (the 5G NR baseline)."""
    keys = gen_bs_keys(group, rng)
    supi = random_supi(rng)
    try:
        recovered = ue_authentication_flow(group, supi, keys, rng, OpCounter(), transport)
    except AuthenticationFailure:
        recovered = None
    outcome = Outcome(True) if recovered == supi else Outcome(False, "confirmation-failed")
    return outcome, None, 1, baseline_phases(config.latency)


def _run_inclusion(config: ScenarioConfig, group, rng, transport):
    """One candidate is checked by the guards of a provisioned swarm."""
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", config.threshold, n_drones=config.n_drones)
    candidate = core.issue_candidate("A")
    outcome = protocol.inclusion_flow(swarm, candidate, rng, transport)
    return outcome, core, 1, group_auth_phases(
        config.threshold, config.latency, config.parallel_guards)


def _run_unification(config: ScenarioConfig, group, rng, transport):
    """Two swarms of n drones merge. The report charges the full modeled
    path (cross issue, guard check, key return, rebroadcast) whatever the
    outcome."""
    model = config.latency
    core = CoreNetwork(group, rng)
    swarm_a = core.provision_swarm("A", config.threshold, n_drones=config.n_drones)
    swarm_b = core.provision_swarm("B", config.threshold, n_drones=config.n_drones)
    outcome = protocol.unification_flow(swarm_a, swarm_b, core, rng, transport)
    phases = {"cross_issue": model.ue_core_round_trip,
              **group_auth_phases(config.threshold, model, config.parallel_guards),
              "key_return": model.drone_to_drone,
              "unified_broadcast": model.drone_to_drone}
    return outcome, core, 2 * config.n_drones, phases


def _run_bulk(config: ScenarioConfig, group, rng, transport):
    """Admit n drones as one batch: n broadcast slots, one group check."""
    n, model = config.n_drones, config.latency
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", config.threshold, n_drones=config.threshold - 1)
    arrivals = [core.issue_candidate("A") for _ in range(n)]
    phases = {"broadcast": n * model.drone_to_drone,
              **group_auth_phases(config.threshold, model)} if n else {}
    return protocol.bulk_flow(swarm, arrivals, transport), core, n, phases


SCENARIOS = {"inclusion": _run_inclusion, "unification": _run_unification,
             "nr5g": _run_nr5g, "bulk": _run_bulk}


# The attack judges: each judges the prevention of its attack on the
# result of a run under it.

def _judge_mitm(result: _ScenarioResult) -> AttackOutcome:
    """The guard check must reject the substituted share, ending the run
    ``rejected(verification-failed)``."""
    outcome = result.transcript.outcome
    # only the guard check may stop a substituted share: a later
    # rejection means the guards accepted it
    if outcome != Outcome(False, "verification-failed"):
        return AttackOutcome(False, f"guard check did not reject the "
                                    f"substituted share: {outcome}")
    return AttackOutcome(True, f"protocol rejected the substituted share: {outcome}")


def _judge_replay(result: _ScenarioResult) -> AttackOutcome:
    """Every captured message is re-delivered once and must be rejected by
    the receivers' nonce caches: a member's swarm's receipt set, or a
    non-member's own cache."""
    outcome, captured = result.transcript.outcome, result.adversary.captured
    if not outcome.accepted:
        return AttackOutcome(False, f"honest run failed under observation: {outcome}")
    replay_transport = Transport()
    accepted = sum(1 for msg, receiver in captured
                   if replay_transport.deliver(msg, receiver) is not None)
    if accepted:
        return AttackOutcome(False, f"{accepted} replayed messages accepted")
    return AttackOutcome(True, f"all {len(captured)} replayed messages "
                               f"rejected by nonce caches")


def _judge_eavesdrop(result: _ScenarioResult) -> AttackOutcome:
    """The run must succeed while the attacker's captures contain no
    private scalar and decrypt no key-transport ciphertext with any key
    derivable from captured points."""
    outcome, captured = result.transcript.outcome, result.adversary.captured
    if not outcome.accepted:
        return AttackOutcome(False, f"honest run failed under observation: {outcome}")
    blob = b"".join(msg.payload for msg, _ in captured)
    core, group = result.core, result.core.group
    # every scalar the core dealt: each group key and every evaluated
    # share, the core's own and the cross-issued shares included. The core
    # evaluates shares only in Dealer.shares_at, and a rebroadcast reaches
    # an unbuilt member with no share (see protocol.Swarm), so the share of
    # a member still in its swarm's unbuilt range was never computed and
    # cannot be on the wire: the scan skips that range.
    for swarm_id, swarm in core.swarms.items():
        dealer, unbuilt = core.dealer(swarm_id), swarm.unbuilt
        xs = [*range(1, unbuilt.start),
              *range(unbuilt.stop, dealer.issued_identifiers().stop)]
        secrets = [dealer.group_key, *map(dealer.poly.evaluate, xs)]
        if any(group.field.encode(secret) in blob for secret in secrets):
            return AttackOutcome(False, "private material visible in captured traffic")
    # the run was accepted, so every receiver decoded these payloads; every
    # share is published to many guards, so each distinct payload is
    # decoded once and each distinct point kept once
    payloads = dict.fromkeys(msg.payload for msg, _ in captured
                             if msg.kind in (MessageKind.SHARE_PUBLISH,
                                             MessageKind.KEY_AGREEMENT_INIT))
    points = list(dict.fromkeys(decode_public_share(group, payload).point
                                for payload in payloads))
    # everything the attacker can derive without a private scalar: the keys
    # of captured points and of their pairwise sums (one batch), and hashes
    # of raw payloads
    sums = group.add_all([(p, q) for i, p in enumerate(points) for q in points[i:]])
    candidate_keys = {protocol.point_key(group, p) for p in points + sums}
    for msg, _ in captured:
        if msg.payload:
            candidate_keys.add(hashlib.sha256(msg.payload).digest())
    sealed = [(msg, receiver.label) for msg, receiver in captured
              if msg.kind in (MessageKind.ENCRYPTED_GROUP_KEY,
                              MessageKind.CROSS_ISSUE_RESPONSE,
                              MessageKind.UNIFIED_KEY_BROADCAST)]
    if not sealed:
        return AttackOutcome(False, "no key-transport traffic observed")
    # Group the sealed messages by the key that sealed them: a swarm's
    # UNIFIED_KEY_BROADCAST copies that its relay key (derived from the
    # group key the core dealt it) opens are one group, and every other
    # sealed message is a group of its own. Each candidate key is tried on
    # the first message of each group: the candidates come from captured
    # public data, so one that is not a group's key opens a message of the
    # group only by a 128-bit tag forgery, no likelier on one copy than on
    # another.
    relays = {swarm_id: AESGCM(protocol.group_key_cipher_key(
                  group.field, core.dealer(swarm_id).group_key))
              for swarm_id in core.swarms}
    groups = {}
    for i, (msg, receiver) in enumerate(sealed):
        tag = i
        if msg.kind is MessageKind.UNIFIED_KEY_BROADCAST and msg.sender.swarm in relays:
            try:
                protocol.open_sealed(relays[msg.sender.swarm], msg, receiver)
                tag = msg.sender.swarm
            except protocol.DecryptionFailed:
                pass
        groups.setdefault(tag, (msg, receiver))
    # each candidate key's AES-GCM context is built once
    for key in candidate_keys:
        cipher = AESGCM(key)
        for msg, receiver in groups.values():
            try:
                protocol.open_sealed(cipher, msg, receiver)
                return AttackOutcome(False, "captured material decrypted a "
                                            "key-transport message")
            except protocol.DecryptionFailed:
                continue
    return AttackOutcome(True,
                         f"{len(captured)} captured messages leak no private "
                         f"share; {len(candidate_keys)} derivable keys open none "
                         f"of {len(sealed)} sealed messages")


ATTACKS = {"replay": _judge_replay, "eavesdrop": _judge_eavesdrop, "mitm": _judge_mitm}
ATTACK_MODES = tuple(ATTACKS)
ADVERSARY_MODES = ("none", *ATTACK_MODES)


def inject_adversary(config: ScenarioConfig) -> AttackOutcome:
    """Run the configured attack scenario and judge the prevention with
    the judge of its mode in ``ATTACKS``."""
    if config.adversary not in ATTACKS:
        raise ValueError(f"not an attack mode: {config.adversary!r}")
    return ATTACKS[config.adversary](_run(config))
