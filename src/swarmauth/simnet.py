"""Deterministic discrete-event simulation of the authentication scenarios.

Each scenario (5G NR, inclusion, unification, bulk admission) runs its
flow, a step generator from ``baseline5g`` or ``protocol``, with real
cryptography while a heap-ordered event loop assigns modeled timestamps
from a configurable latency model. The group-authentication critical
path is serialized per share (one drone-to-drone transfer followed by one
curve multiplication per participant), so an inclusion at threshold t
costs t * (drone_to_drone + ec_point_mul) and a bulk admission of n
drones n * drone_to_drone plus one such check; the 5G NR baseline costs
2 * round_trip + asym_encrypt + asym_decrypt + 2 * hash_op.

Identical (config, seed) pairs produce identical timing reports and
byte-identical transcripts: event-queue ties break by insertion order
and every nonce and key draw comes from the scenario's seeded RNG.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field as dc_field, replace

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
    guards: int | None = None
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
        if self.guards is None:
            self.guards = self.threshold - 1
        if self.guards < 1:
            raise ConfigError(f"guards: must be >= 1, got {self.guards}")
        if self.n_drones is None:
            self.n_drones = 100 if self.scenario == "bulk" else (
                1 if self.scenario == "nr5g" else self.guards)
        if self.n_drones < 0:
            raise ConfigError(f"n_drones: must be >= 0, got {self.n_drones}")
        if self.scenario in ("inclusion", "unification"):
            if self.guards < self.threshold - 1:
                raise ConfigError(f"guards: a threshold-{self.threshold} check "
                                  f"needs {self.threshold - 1} guards, got {self.guards}")
            if self.n_drones < self.guards:
                raise ConfigError(f"n_drones: swarm of {self.n_drones} cannot hold "
                                  f"{self.guards} guards")


_INT_KEYS = ("threshold", "n_drones", "guards", "seed")
_LATENCY_KEYS = ("ue_core_round_trip", "asym_encrypt", "asym_decrypt",
                 "hash_op", "drone_to_drone", "ec_point_mul")


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


class EventLoop:
    """Heap-ordered event queue; ties fire in insertion order."""

    def __init__(self):
        self._queue: list = []
        self._seq = 0
        self.now_us = 0.0

    def schedule_at(self, time_us: float, action):
        heapq.heappush(self._queue, (time_us, self._seq, action))
        self._seq += 1

    def schedule(self, delay_us: float, action):
        self.schedule_at(self.now_us + delay_us, action)

    def run(self):
        while self._queue:
            time_us, _, action = heapq.heappop(self._queue)
            self.now_us = time_us
            action()


@dataclass(frozen=True)
class TimingReport:
    """Per-scenario authentication-time result; total is the phase sum."""

    scenario: str
    method: str
    threshold: int
    n_drones: int
    total_us: float
    phases: dict
    outcome: str

    def __post_init__(self):
        if not math.isclose(self.total_us, sum(self.phases.values()),
                            rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError("total_us must equal the sum of phase durations")

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
    advertised_bound: int
    advertised_bound_holds: bool
    advertised_bound_conservative: bool

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


def crossover_report(model: LatencyModel, t_max: int = 10_000) -> CrossoverReport:
    baseline = baseline_total_us(model)
    crossover = None
    for t in range(2, t_max + 1):
        if time_group_auth(t, model) > baseline:
            crossover = t
            break
    holds = crossover is None or crossover >= ADVERTISED_PREFERABLE_BOUND
    conservative = crossover is None or crossover > ADVERTISED_PREFERABLE_BOUND
    return CrossoverReport(baseline, crossover, ADVERTISED_PREFERABLE_BOUND,
                           holds, conservative)


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
    captured: list = dc_field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ADVERSARY_MODES:
            raise ValueError(f"unknown adversary mode {self.mode!r}")

    def intercept(self, msg, receiver):
        self.captured.append((msg, receiver))
        if (self.mode == "mitm" and msg.kind is MessageKind.SHARE_PUBLISH
                and str(msg.sender) == self.mitm_target):
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
    group: object = None
    secrets: list = dc_field(default_factory=list)
    adversary: Adversary | None = None


def run_scenario(config: ScenarioConfig):
    """Execute one configured scenario; returns (TimingReport, AuthTranscript)."""
    result = _run(config)
    return result.report, result.transcript


def _run(config: ScenarioConfig) -> _ScenarioResult:
    """Provision the configured scenario, run its flow on the event loop and
    report the closed-form phases with the flow's outcome."""
    rng = random.Random(config.seed)
    group = make_group(config.group)
    setup = {
        "nr5g": _setup_nr5g,
        "inclusion": _setup_inclusion,
        "unification": _setup_unification,
        "bulk": _setup_bulk,
    }[config.scenario]
    flow, transport, adversary, secrets = setup(config, group, rng)
    outcome = _drive(flow, config, transport)
    phases = _phases(config)
    n_drones = {"nr5g": 1, "inclusion": 1, "unification": 2 * config.n_drones,
                "bulk": config.n_drones}[config.scenario]
    report = TimingReport(config.scenario,
                          "nr-5g" if config.scenario == "nr5g" else "group-auth",
                          config.threshold, n_drones, sum(phases.values(), 0.0),
                          phases, str(outcome))
    return _ScenarioResult(report, transport.transcript, group, secrets, adversary)


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


def _transport_for(config: ScenarioConfig, group, rng, target: Drone):
    """(transport, adversary): the configured in-path adversary, if any,
    aims its substitutions at ``target``'s share publishes."""
    if config.adversary == "none":
        return Transport(), None
    adversary = Adversary(mode=config.adversary, group=group, rng=rng,
                          mitm_target=str(target.id))
    return Transport(intercept=adversary.intercept), adversary


def _scenario_secrets(group, core: CoreNetwork, *swarm_ids) -> list:
    secrets = []
    for sid in swarm_ids:
        dealer = core.dealer(sid)
        secrets.append(group.field.encode(dealer.group_key))
        for drone in core.swarms[sid].members():
            secrets.append(group.field.encode(drone.private_share.y))
    return secrets


def _drive(flow, config: ScenarioConfig, transport: Transport) -> Outcome:
    """Run a flow on the event loop and return its outcome.

    Each yielded step resumes the flow at its modeled time, with the
    transcript clock set to the loop's. Sums are formed as the closed
    forms form them, so event times round like them under fractional
    latency models: a guard check is timed from its start (serialized
    share k at k*(d2d + ecmul) + d2d, parallel shares at d2d, verdicts
    after the transfers and one multiply per share), bulk broadcast k
    lands at k*d2d, and every other step waits its cost from now.
    """
    model = config.latency
    parallel = config.parallel_guards
    slot = 0.0 if parallel else model.drone_to_drone + model.ec_point_mul
    waits = {"core": model.ue_core_round_trip / 2.0, "hop": model.drone_to_drone,
             "encrypt": model.asym_encrypt, "decrypt": model.asym_decrypt,
             "hash": model.hash_op,
             "check": time_group_auth(config.threshold, model)}
    loop = EventLoop()
    start, shares, broadcasts = 0.0, 0, 0
    done = []

    def resume():
        nonlocal start, shares, broadcasts
        transport.clock_us = now = loop.now_us
        try:
            step = next(flow)
        except StopIteration as stop:
            done.append(stop.value)
            return
        if step == "transfer":
            start, shares = now, 0
        if step in ("transfer", "round"):
            at = start + shares * slot + model.drone_to_drone
            shares += 1
        elif step == "verdict":
            transfers = 1 if parallel else shares
            at = start + (transfers * model.drone_to_drone
                          + shares * model.ec_point_mul)
        elif step == "broadcast":
            broadcasts += 1
            at = broadcasts * model.drone_to_drone
        else:
            at = now + waits[step]
        loop.schedule_at(at, resume)

    resume()
    loop.run()
    # resume refers to itself; break that cycle so that a finished run's
    # swarms are freed now rather than at the next garbage collection
    del resume
    transport.transcript.set_outcome(done[0])
    return done[0]


def _nr5g_flow(group, supi, keys, rng, transport: Transport):
    """The UE authentication flow with its verdict as an Outcome."""
    try:
        recovered = yield from ue_authentication_flow(group, supi, keys, rng,
                                                      OpCounter(), transport.record)
    except AuthenticationFailure:
        recovered = None
    return Outcome(True) if recovered == supi else Outcome(False, "confirmation-failed")


def _setup_nr5g(config: ScenarioConfig, group, rng):
    keys = gen_bs_keys(group, rng)
    supi = random_supi(rng)
    transport = Transport()
    return (_nr5g_flow(group, supi, keys, rng, transport), transport, None,
            [group.field.encode(keys.private)])


def _setup_inclusion(config: ScenarioConfig, group, rng):
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", config.threshold, n_drones=config.n_drones,
                                 n_guards=config.guards)
    candidate = core.issue_candidate("A")
    transport, adversary = _transport_for(config, group, rng, candidate)
    secrets = _scenario_secrets(group, core, "A")
    secrets.append(group.field.encode(candidate.private_share.y))
    return (protocol.inclusion_flow(swarm, candidate, rng, transport), transport,
            adversary, secrets)


def _setup_unification(config: ScenarioConfig, group, rng):
    core = CoreNetwork(group, rng)
    swarm_a = core.provision_swarm("A", config.threshold, n_drones=config.n_drones,
                                   n_guards=config.guards)
    swarm_b = core.provision_swarm("B", config.threshold, n_drones=config.n_drones,
                                   n_guards=config.guards)
    transport, adversary = _transport_for(config, group, rng, swarm_a.guards()[0])
    return (protocol.unification_flow(swarm_a, swarm_b, core, rng, transport),
            transport, adversary, _scenario_secrets(group, core, "A", "B"))


def _setup_bulk(config: ScenarioConfig, group, rng):
    """Admit n drones as one batch: n broadcast slots, one group check."""
    core = CoreNetwork(group, rng)
    guards = max(config.guards, config.threshold - 1)
    swarm = core.provision_swarm("A", config.threshold, n_drones=guards,
                                 n_guards=guards)
    arrivals = [core.issue_candidate("A") for _ in range(config.n_drones)]
    transport = Transport()
    return protocol.bulk_flow(swarm, arrivals, transport), transport, None, []


def inject_adversary(config: ScenarioConfig, adversary: Adversary | None = None):
    """Run the configured attack scenario and judge the prevention.

    replay: every captured message is re-delivered once and must be
    rejected by the receivers' nonce caches. mitm: the substituted share
    must cause protocol rejection. eavesdrop: the run must succeed while
    the attacker's captures contain no private scalar and decrypt no
    key-transport ciphertext with any key derivable from captured points.

    When an Adversary instance is supplied, its mode is used and its
    capture buffer is filled from the run.
    """
    mode = adversary.mode if adversary is not None else config.adversary
    if mode not in ("replay", "eavesdrop", "mitm"):
        raise ValueError(f"not an attack mode: {mode!r}")
    config = replace(config, adversary=mode)

    result = _run(config)
    adv = result.adversary
    if adversary is not None:
        adversary.captured.extend(adv.captured)
    outcome = result.transcript.outcome

    if mode == "mitm":
        if outcome.accepted:
            return AttackOutcome(False, "substituted share was accepted")
        return AttackOutcome(True, f"protocol rejected the substituted share: "
                                   f"{outcome}")

    if mode == "replay":
        if not outcome.accepted:
            return AttackOutcome(False, f"honest run failed under observation: "
                                        f"{outcome}")
        replay_transport = Transport(AuthTranscript())
        accepted = sum(
            1 for msg, receiver in adv.captured
            if replay_transport.deliver(msg, receiver) is not None)
        if accepted:
            return AttackOutcome(False, f"{accepted} replayed messages accepted")
        return AttackOutcome(True, f"all {len(adv.captured)} replayed messages "
                                   f"rejected by nonce caches")

    # eavesdrop
    if not outcome.accepted:
        return AttackOutcome(False, f"honest run failed under observation: {outcome}")
    blob = b"".join(msg.payload for msg, _ in adv.captured)
    for secret in result.secrets:
        if secret in blob:
            return AttackOutcome(False, "private material visible in captured traffic")
    group = result.group
    points = []
    for msg, _ in adv.captured:
        if msg.kind in (MessageKind.SHARE_PUBLISH, MessageKind.KEY_AGREEMENT_INIT):
            try:
                points.append(decode_public_share(group, msg.payload).point)
            except protocol.DecodeError:
                pass
    # everything the attacker can derive without a private scalar: hashes
    # of captured points, of their pairwise sums, and of raw payloads
    candidate_keys = {hashlib.sha256(group.encode(p)).digest() for p in points}
    for i, p in enumerate(points):
        for q in points[i:]:
            candidate_keys.add(hashlib.sha256(group.encode(group.add(p, q))).digest())
    for msg, _ in adv.captured:
        if msg.payload:
            candidate_keys.add(hashlib.sha256(msg.payload).digest())
    sealed = [msg for msg, _ in adv.captured
              if msg.kind in (MessageKind.ENCRYPTED_GROUP_KEY,
                              MessageKind.CROSS_ISSUE_RESPONSE,
                              MessageKind.UNIFIED_KEY_BROADCAST)]
    if not sealed:
        return AttackOutcome(False, "no key-transport traffic observed")
    for msg in sealed:
        aad = protocol._aad(msg.sender, msg.receiver, msg.nonce)
        for key in candidate_keys:
            try:
                protocol.open_sealed(key, msg.nonce, msg.payload, aad)
                return AttackOutcome(False, "captured material decrypted a "
                                            "key-transport message")
            except protocol.DecryptionFailed:
                continue
    return AttackOutcome(True,
                         f"{len(adv.captured)} captured messages leak no private "
                         f"share; {len(candidate_keys)} derivable keys open none "
                         f"of {len(sealed)} sealed messages")
