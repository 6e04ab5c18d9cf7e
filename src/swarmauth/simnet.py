"""Deterministic simulation of the authentication scenarios.

Each scenario (5G NR, inclusion, unification, bulk admission) runs its
flow, a plain function from ``baseline5g`` or ``protocol``, with real
cryptography on a transport whose clock assigns modeled timestamps from a
configurable latency model. The group-authentication critical
path is serialized per share (one drone-to-drone transfer followed by one
curve multiplication per participant), so an inclusion at threshold t
costs t * (drone_to_drone + ec_point_mul) and a bulk admission of n
drones n * drone_to_drone plus one such check; the 5G NR baseline costs
2 * round_trip + asym_encrypt + asym_decrypt + 2 * hash_op.

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
    Drone,
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
    "ATTACK_MODES",
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

SCENARIOS = ("inclusion", "unification", "nr5g", "bulk")
ADVERSARY_MODES = ("none", "replay", "eavesdrop", "mitm")
ATTACK_MODES = ADVERSARY_MODES[1:]

# Threshold bound below which the scheme is advertised as preferable to
# the 5G NR baseline; the crossover report checks it against the model.
ADVERTISED_PREFERABLE_BOUND = 10


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
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.threshold < 2:
            raise ConfigError(f"threshold: must be >= 2, got {self.threshold}")
        if self.adversary not in ADVERSARY_MODES:
            raise ConfigError(f"adversary: must be one of {ADVERSARY_MODES}, "
                              f"got {self.adversary!r}")
        if self.adversary != "none" and self.scenario not in ("inclusion", "unification"):
            raise ConfigError(f"adversary: mode {self.adversary!r} requires an "
                              f"inclusion or unification scenario")
        if self.group not in ("production", "toy"):
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

    Holds no private share; mitm substitution targets the share publishes
    of one sender (the joining entity on the attacked link).
    """

    mode: str = "none"
    group: object = None
    rng: random.Random | None = None
    mitm_target: str | None = None
    captured: list = dc_field(init=False, default_factory=list)

    def __post_init__(self):
        if self.mode not in ADVERSARY_MODES:
            raise ValueError(f"unknown adversary mode {self.mode!r}")

    def intercept(self, msg, receiver):
        self.captured.append((msg, receiver))
        if (self.mode == "mitm" and msg.kind is MessageKind.SHARE_PUBLISH
                and msg.sender.label == self.mitm_target):
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
    core: CoreNetwork | None = None
    adversary: Adversary | None = None


def run_scenario(config: ScenarioConfig):
    """Execute one configured scenario; returns (TimingReport, AuthTranscript)."""
    result = _run(config)
    return result.report, result.transcript


def _run(config: ScenarioConfig) -> _ScenarioResult:
    """Provision the configured scenario, run its flow on the modeled clock
    and report the closed-form phases with the flow's outcome."""
    rng = random.Random(config.seed)
    group = make_group(config.group)
    setup = {
        "nr5g": _setup_nr5g,
        "inclusion": _setup_inclusion,
        "unification": _setup_unification,
        "bulk": _setup_bulk,
    }[config.scenario]
    outcome, transport, adversary, core = setup(config, group, rng)
    transport.transcript.set_outcome(outcome)
    n_drones = config.n_drones if config.scenario == "bulk" else (
        2 * config.n_drones if config.scenario == "unification" else 1)
    report = TimingReport(config.scenario, config.threshold, n_drones, _phases(config),
                          str(outcome))
    return _ScenarioResult(report, transport.transcript, core, adversary)


def _phases(config: ScenarioConfig) -> dict:
    """The closed-form phases a scenario's report charges. A unification
    is charged its full modeled path (cross issue, guard check, key
    return, rebroadcast) whatever the outcome."""
    model, t = config.latency, config.threshold
    if config.scenario == "nr5g":
        return baseline_phases(model)
    if config.scenario == "inclusion":
        return group_auth_phases(t, model, config.parallel_guards)
    if config.scenario == "unification":
        return {"cross_issue": model.ue_core_round_trip,
                **group_auth_phases(t, model, config.parallel_guards),
                "key_return": model.drone_to_drone,
                "unified_broadcast": model.drone_to_drone}
    if config.n_drones == 0:
        return {}
    return {"broadcast": config.n_drones * model.drone_to_drone,
            **group_auth_phases(t, model)}


def _transport_for(config: ScenarioConfig, group, rng, target: Drone | None = None):
    """(transport, adversary): a transport on the config's modeled clock.
    The configured in-path adversary, if any, aims its substitutions at
    ``target``'s share publishes."""
    costs = _costs(config)
    if config.adversary == "none":
        return Transport(costs=costs), None
    adversary = Adversary(mode=config.adversary, group=group, rng=rng,
                          mitm_target=target.id.label)
    return Transport(intercept=adversary.intercept, costs=costs), adversary


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


def _nr5g(group, supi, keys, rng, transport: Transport) -> Outcome:
    """The UE authentication flow with its verdict as an Outcome."""
    try:
        recovered = ue_authentication_flow(group, supi, keys, rng, OpCounter(),
                                           transport.record, transport.wait)
    except AuthenticationFailure:
        recovered = None
    return Outcome(True) if recovered == supi else Outcome(False, "confirmation-failed")


def _setup_nr5g(config: ScenarioConfig, group, rng):
    keys = gen_bs_keys(group, rng)
    supi = random_supi(rng)
    transport, _ = _transport_for(config, group, rng)
    return _nr5g(group, supi, keys, rng, transport), transport, None, None


def _setup_inclusion(config: ScenarioConfig, group, rng):
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", config.threshold, n_drones=config.n_drones)
    candidate = core.issue_candidate("A")
    transport, adversary = _transport_for(config, group, rng, candidate)
    return (protocol.inclusion_flow(swarm, candidate, rng, transport), transport,
            adversary, core)


def _setup_unification(config: ScenarioConfig, group, rng):
    core = CoreNetwork(group, rng)
    swarm_a = core.provision_swarm("A", config.threshold, n_drones=config.n_drones)
    swarm_b = core.provision_swarm("B", config.threshold, n_drones=config.n_drones)
    transport, adversary = _transport_for(config, group, rng, swarm_a.guards()[0])
    return (protocol.unification_flow(swarm_a, swarm_b, core, rng, transport),
            transport, adversary, core)


def _setup_bulk(config: ScenarioConfig, group, rng):
    """Admit n drones as one batch: n broadcast slots, one group check."""
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", config.threshold,
                                 n_drones=config.threshold - 1)
    arrivals = [core.issue_candidate("A") for _ in range(config.n_drones)]
    transport, _ = _transport_for(config, group, rng)
    return protocol.bulk_flow(swarm, arrivals, transport), transport, None, core


def inject_adversary(config: ScenarioConfig):
    """Run the configured attack scenario and judge the prevention.

    replay: every captured message is re-delivered once and must be
    rejected by the receivers' nonce caches. mitm: the guard check must
    reject the substituted share, ending the run
    ``rejected(verification-failed)``. eavesdrop: the run must succeed
    while the attacker's captures contain no private scalar and decrypt no
    key-transport ciphertext with any key derivable from captured points.
    """
    mode = config.adversary
    if mode not in ATTACK_MODES:
        raise ValueError(f"not an attack mode: {mode!r}")

    result = _run(config)
    adv = result.adversary
    outcome = result.transcript.outcome

    if mode == "mitm":
        # only the guard check may stop a substituted share: a later
        # rejection means the guards accepted it
        if outcome != Outcome(False, "verification-failed"):
            return AttackOutcome(False, f"guard check did not reject the "
                                        f"substituted share: {outcome}")
        return AttackOutcome(True, f"protocol rejected the substituted share: "
                                   f"{outcome}")

    if not outcome.accepted:
        return AttackOutcome(False, f"honest run failed under observation: {outcome}")

    if mode == "replay":
        replay_transport = Transport()
        accepted = sum(
            1 for msg, receiver in adv.captured
            if replay_transport.deliver(msg, receiver) is not None)
        if accepted:
            return AttackOutcome(False, f"{accepted} replayed messages accepted")
        return AttackOutcome(True, f"all {len(adv.captured)} replayed messages "
                                   f"rejected by nonce caches")

    # eavesdrop
    blob = b"".join(msg.payload for msg, _ in adv.captured)
    group = result.core.group
    # every scalar the core dealt: each group key and every issued share,
    # the core's own and the cross-issued shares included
    for swarm_id in result.core.swarms:
        dealer = result.core.dealer(swarm_id)
        secrets = [dealer.group_key,
                   *map(dealer.poly.evaluate, dealer.issued_identifiers())]
        if any(group.field.encode(secret) in blob for secret in secrets):
            return AttackOutcome(False, "private material visible in captured traffic")
    # the run was accepted, so every receiver decoded these payloads
    points = [decode_public_share(group, msg.payload).point
              for msg, _ in adv.captured
              if msg.kind in (MessageKind.SHARE_PUBLISH, MessageKind.KEY_AGREEMENT_INIT)]
    # everything the attacker can derive without a private scalar: hashes
    # of captured points, of their pairwise sums, and of raw payloads; each
    # distinct point once, since every share is published to many guards
    points = list(dict.fromkeys(points))
    candidate_keys = {hashlib.sha256(group.encode(p)).digest() for p in points}
    for i, p in enumerate(points):
        for q in points[i:]:
            candidate_keys.add(hashlib.sha256(group.encode(group.add(p, q))).digest())
    for msg, _ in adv.captured:
        if msg.payload:
            candidate_keys.add(hashlib.sha256(msg.payload).digest())
    sealed = [(msg, receiver.label) for msg, receiver in adv.captured
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
                  group.field, result.core.dealer(swarm_id).group_key))
              for swarm_id in result.core.swarms}
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
                         f"{len(adv.captured)} captured messages leak no private "
                         f"share; {len(candidate_keys)} derivable keys open none "
                         f"of {len(sealed)} sealed messages")
