"""Swarm membership protocols over threshold shares.

Four flows are implemented as explicit message sequences:

* inclusion -- a new drone publishes its public share to the guard
  drones, every guard checks the t-share Lagrange sum against the group
  commitment, and on unanimous acceptance one guard sends the group key
  encrypted under a pairwise Diffie-Hellman key.
* group-key delivery -- AEAD under KDF(my_y * their_public_point), with
  sender, receiver, and a fresh 128-bit nonce bound as associated data.
* unification -- a designated guard of one swarm obtains a cross-issued
  share for the other swarm from the core network, is group-verified by
  the other swarm's guards, and relays that swarm's key back to its own.
* bulk admission -- n arrivals broadcast their public shares, and one
  threshold check of the guards plus the first arrival admits them all.

Inclusion, unification and bulk admission are step generators. Before
each modeled wait a flow yields the wait's name -- "core" (each half of
the cross-issue round trip), "transfer" (the first share round of a guard
check), "round" (each later share round), "verdict" (before the guards'
verdicts), "hop" (key delivery, key return, rebroadcast), "broadcast"
(each bulk arrival) or "check" (the bulk check) -- and returns its
Outcome. ``run_inclusion`` and ``run_unification`` run a flow with no
clock; ``simnet`` runs the same flows on its event loop.

Every message carries a fresh nonce; receivers keep a per-sender nonce
cache for the scenario lifetime, so replayed messages are rejected.
All randomness flows through a caller-provided ``random.Random``, which
makes transcripts reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field as dc_field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .algebra import DecodeError
from .shares import (
    Dealer,
    DuplicateIdentifier,
    GroupCommitment,
    PrivateShare,
    PublicShare,
    _lp,
    _read_lp,
    decode_private_share,
    decode_public_share,
    encode_private_share,
    encode_public_share,
    gen_polynomial,
    public_share,
    verify_group,
)

__all__ = [
    "NotEnoughGuards",
    "MissingGroupKey",
    "DecryptionFailed",
    "CrossIssueDenied",
    "UnknownRequester",
    "UnknownSwarm",
    "Role",
    "MessageKind",
    "DroneId",
    "ProtocolMessage",
    "AuthTranscript",
    "Outcome",
    "NonceCache",
    "Drone",
    "Swarm",
    "CoreNetwork",
    "Transport",
    "derive_pairwise_key",
    "group_key_cipher_key",
    "seal",
    "open_sealed",
    "deliver_group_key",
    "open_group_key",
    "inclusion_flow",
    "unification_flow",
    "bulk_flow",
    "run_inclusion",
    "run_unification",
]

NONCE_BYTES = 16


class NotEnoughGuards(RuntimeError):
    """Fewer than t-1 guards are available for a threshold-t check."""


class MissingGroupKey(RuntimeError):
    """The sending drone does not hold the group key."""


class DecryptionFailed(RuntimeError):
    """AEAD authentication failed (wrong key, tampering, or bad framing)."""


class CrossIssueDenied(RuntimeError):
    """The core network refused to issue a cross-swarm share."""


class UnknownRequester(CrossIssueDenied):
    """Requester is not a provisioned guard of its claimed swarm."""


class UnknownSwarm(CrossIssueDenied):
    """Target swarm is not provisioned at the core."""


class Role(enum.Enum):
    GUARD = "guard"
    MEMBER = "member"
    NEW_ARRIVAL = "new-arrival"


class MessageKind(enum.Enum):
    SHARE_PUBLISH = 1
    AUTH_VERDICT = 2
    KEY_AGREEMENT_INIT = 3
    ENCRYPTED_GROUP_KEY = 4
    CROSS_ISSUE_REQUEST = 5
    CROSS_ISSUE_RESPONSE = 6
    UNIFIED_KEY_BROADCAST = 7


@dataclass(frozen=True)
class DroneId:
    """Protocol identity: the share identifier x scoped by a swarm id."""

    swarm: str
    x: int

    def __str__(self):
        return f"{self.swarm}/{self.x}"

    def encode(self) -> bytes:
        swarm_b = self.swarm.encode()
        x_b = self.x.to_bytes((self.x.bit_length() + 7) // 8 or 1, "big")
        return _lp(swarm_b) + _lp(x_b)


@dataclass(frozen=True)
class ProtocolMessage:
    """One protocol message; receiver is delivery metadata, not wire data."""

    kind: MessageKind
    sender: DroneId
    receiver: str
    nonce: bytes
    payload: bytes

    def __post_init__(self):
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")

    def to_bytes(self) -> bytes:
        """Wire form: kind tag, sender id, nonce, length-prefixed payload."""
        return (bytes([self.kind.value]) + self.sender.encode()
                + self.nonce + _lp(self.payload))

    @classmethod
    def from_bytes(cls, data: bytes, receiver: str = "") -> "ProtocolMessage":
        if not data:
            raise DecodeError("empty message")
        try:
            kind = MessageKind(data[0])
        except ValueError:
            raise DecodeError(f"unknown message kind tag {data[0]}") from None
        swarm_b, off = _read_lp(data, 1)
        x_b, off = _read_lp(data, off)
        if off + NONCE_BYTES > len(data):
            raise DecodeError("truncated nonce")
        nonce = data[off:off + NONCE_BYTES]
        payload, off = _read_lp(data, off + NONCE_BYTES)
        if off != len(data):
            raise DecodeError("trailing bytes in message")
        try:
            swarm = swarm_b.decode()
        except UnicodeDecodeError:
            raise DecodeError("sender swarm id is not UTF-8") from None
        sender = DroneId(swarm, int.from_bytes(x_b, "big"))
        return cls(kind, sender, receiver, nonce, payload)


@dataclass(frozen=True)
class Outcome:
    accepted: bool
    reason: str = ""

    def __str__(self):
        return "accepted" if self.accepted else f"rejected({self.reason})"


@dataclass(frozen=True)
class TranscriptEntry:
    time_us: float
    kind: str
    sender: str
    receiver: str
    digest: str
    note: str = ""


class AuthTranscript:
    """Append-only record of deliveries; the outcome is set exactly once."""

    def __init__(self):
        self.entries: list[TranscriptEntry] = []
        self.outcome: Outcome | None = None

    def record(self, time_us: float, kind: str, sender: str, receiver: str,
               payload: bytes, note: str = ""):
        digest = hashlib.sha256(payload).hexdigest()[:16]
        self.entries.append(TranscriptEntry(time_us, kind, sender, receiver, digest, note))

    def set_outcome(self, outcome: Outcome):
        if self.outcome is not None:
            raise RuntimeError("transcript outcome already set")
        self.outcome = outcome

    def render(self) -> str:
        lines = []
        for e in self.entries:
            line = f"{e.time_us / 1000.0:.3f} {e.kind} {e.sender} -> {e.receiver} {e.digest}"
            if e.note:
                line += f" !{e.note}"
            lines.append(line)
        lines.append(f"outcome {self.outcome}" if self.outcome else "outcome pending")
        return "\n".join(lines) + "\n"


class NonceCache:
    """Per-sender nonce sets; a repeated (sender, nonce) pair is a replay."""

    def __init__(self):
        self._seen: dict[str, set[bytes]] = {}

    def check_and_store(self, sender: str, nonce: bytes) -> bool:
        seen = self._seen.setdefault(sender, set())
        if nonce in seen:
            return False
        seen.add(nonce)
        return True


@dataclass
class Drone:
    """A swarm participant and the key material it holds."""

    id: DroneId
    role: Role
    private_share: PrivateShare
    known_commitment: GroupCommitment
    group_key: int | None = None
    nonce_cache: NonceCache = dc_field(default_factory=NonceCache)

    @property
    def label(self) -> str:
        return str(self.id)

    def public_share(self, group) -> PublicShare:
        return public_share(self.private_share, group)


class Swarm:
    """Provisioned swarm state: members, guards, and the public commitment."""

    def __init__(self, swarm_id: str, group, threshold: int,
                 commitment: GroupCommitment, core_public_share: PublicShare):
        self.id = swarm_id
        self.group = group
        self.threshold = threshold
        self.commitment = commitment
        self.core_public_share = core_public_share
        self.drones: dict[int, Drone] = {}

    def add_drone(self, drone: Drone):
        if drone.id.x in self.drones:
            raise DuplicateIdentifier(f"identifier {drone.id.x} already present in swarm {self.id}")
        self.drones[drone.id.x] = drone

    def guards(self) -> list[Drone]:
        return sorted((d for d in self.drones.values() if d.role is Role.GUARD),
                      key=lambda d: d.id.x)

    def members(self) -> list[Drone]:
        return sorted(self.drones.values(), key=lambda d: d.id.x)


class Transport:
    """Message delivery with nonce freshness, transcript recording, and an
    optional in-path intercept hook (the adversary seam).

    Without an external clock the transcript uses a logical step counter.
    A simulator can set ``clock_us`` before each delivery to emit modeled
    timestamps instead.
    """

    def __init__(self, transcript: AuthTranscript | None = None, intercept=None):
        self.transcript = transcript if transcript is not None else AuthTranscript()
        self.intercept = intercept
        self.clock_us: float | None = None
        self._step = 0

    def _stamp(self) -> float:
        if self.clock_us is not None:
            return self.clock_us
        t = float(self._step)
        self._step += 1
        return t

    def record(self, kind: str, sender: str, receiver: str, payload: bytes):
        """Log a message that no receiver checks, stamped like a delivery."""
        self.transcript.record(self._stamp(), kind, sender, receiver, payload)

    def deliver(self, msg: ProtocolMessage, receiver) -> ProtocolMessage | None:
        """Deliver to anything with ``label`` and ``nonce_cache``; returns the
        (possibly intercepted) message, or None when rejected as a replay."""
        if self.intercept is not None:
            msg = self.intercept(msg, receiver)
        fresh = receiver.nonce_cache.check_and_store(str(msg.sender), msg.nonce)
        self.transcript.record(self._stamp(), msg.kind.name, str(msg.sender),
                               receiver.label, msg.payload,
                               note="" if fresh else "replay-rejected")
        return msg if fresh else None


def fresh_nonce(rng) -> bytes:
    return rng.getrandbits(8 * NONCE_BYTES).to_bytes(NONCE_BYTES, "big")


def _aad(sender: DroneId, receiver: str, nonce: bytes) -> bytes:
    return _lp(str(sender).encode()) + _lp(receiver.encode()) + nonce


def derive_pairwise_key(group, mine: PrivateShare, theirs: PublicShare) -> bytes:
    """Pairwise Diffie-Hellman key: SHA-256 of the encoded shared point
    my_y * their_point. Symmetric in the two parties because both arrive
    at (my_y * their_y) * P."""
    shared = group.mul(mine.y, theirs.point)
    return hashlib.sha256(group.encode(shared)).digest()


def group_key_cipher_key(field, group_key: int) -> bytes:
    """Symmetric key for intra-swarm traffic, derived from the group key."""
    return hashlib.sha256(field.encode(group_key)).digest()


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    return AESGCM(key).encrypt(nonce, plaintext, aad)


def open_sealed(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, aad)
    except InvalidTag:
        raise DecryptionFailed("AEAD authentication failed") from None


def deliver_group_key(group, guard: Drone, recipient_pub: PublicShare,
                      recipient_label: str, rng) -> ProtocolMessage:
    """Encrypt the group key for a recipient under the pairwise key.

    The AEAD plaintext is the group-key scalar; associated data binds
    (guard id, recipient, nonce) so the ciphertext cannot be redirected.
    """
    if guard.group_key is None:
        raise MissingGroupKey(f"{guard.label} holds no group key")
    key = derive_pairwise_key(group, guard.private_share, recipient_pub)
    nonce = fresh_nonce(rng)
    aad = _aad(guard.id, recipient_label, nonce)
    ct = seal(key, nonce, group.field.encode(guard.group_key), aad)
    return ProtocolMessage(MessageKind.ENCRYPTED_GROUP_KEY, guard.id,
                           recipient_label, nonce, ct)


def open_group_key(group, recipient: Drone, sender_pub: PublicShare,
                   msg: ProtocolMessage) -> int:
    """Recover the group-key scalar from an ENCRYPTED_GROUP_KEY message."""
    key = derive_pairwise_key(group, recipient.private_share, sender_pub)
    aad = _aad(msg.sender, recipient.label, msg.nonce)
    return group.field.decode(open_sealed(key, msg.nonce, msg.payload, aad))


def _publish_share(group, sender: Drone, share: PublicShare, receiver,
                   transport: Transport, rng) -> PublicShare | None:
    """Send a SHARE_PUBLISH and return the share as decoded by the receiver
    (the in-path intercept hook may have replaced it)."""
    msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, sender.id, receiver.label,
                          fresh_nonce(rng), encode_public_share(group, share))
    delivered = transport.deliver(msg, receiver)
    if delivered is None:
        return None
    return decode_public_share(group, delivered.payload)


def _send_verdict(guard: Drone, ok: bool, receiver, transport: Transport, rng):
    msg = ProtocolMessage(MessageKind.AUTH_VERDICT, guard.id, receiver.label,
                          fresh_nonce(rng), b"accept" if ok else b"reject")
    transport.deliver(msg, receiver)


def _send_group_key(group, deliverer: Drone, recipient: Drone,
                    recipient_pub: PublicShare, transport: Transport, rng) -> int | None:
    """KEY_AGREEMENT_INIT (deliverer's public share) followed by the
    encrypted group key; returns the key as recovered by the recipient, or
    None when the recipient rejects a message as a replay or cannot decode
    or authenticate it."""
    deliverer_pub = deliverer.public_share(group)
    init = ProtocolMessage(MessageKind.KEY_AGREEMENT_INIT, deliverer.id,
                           recipient.label, fresh_nonce(rng),
                           encode_public_share(group, deliverer_pub))
    try:
        delivered = transport.deliver(init, recipient)
        if delivered is None:
            return None
        seen_pub = decode_public_share(group, delivered.payload)
        key_msg = deliver_group_key(group, deliverer, recipient_pub,
                                    recipient.label, rng)
        delivered = transport.deliver(key_msg, recipient)
        if delivered is None:
            return None
        return open_group_key(group, recipient, seen_pub, delivered)
    except (DecryptionFailed, DecodeError):
        return None


def _quorum(swarm: Swarm) -> list[Drone]:
    """The t-1 lowest-x guards that take part in a threshold-t check."""
    t = swarm.threshold
    guards = swarm.guards()
    if len(guards) < t - 1:
        raise NotEnoughGuards(f"need {t - 1} guards in swarm {swarm.id}, "
                              f"have {len(guards)}")
    return guards[:t - 1]


def _guard_check(swarm: Swarm, guards: list[Drone], publisher: Drone,
                 share: PublicShare, transport: Transport, rng):
    """Step generator of one guard-quorum check of ``share``.

    The publisher sends the pair to every guard, the guards exchange their
    own pairs, and each guard checks the t-point Lagrange sum against the
    swarm's commitment and sends its verdict to the publisher. Returns
    (unanimous, views); views maps a guard's x to the published pair as
    that guard received it.
    """
    group = swarm.group
    t = swarm.threshold
    received: dict[int, dict[int, PublicShare]] = {g.id.x: {} for g in guards}
    views: dict[int, PublicShare] = {}
    yield "transfer"
    for g in guards:
        seen = _publish_share(group, publisher, share, g, transport, rng)
        if seen is not None:
            received[g.id.x][seen.x] = seen
            views[g.id.x] = seen
    for g in guards:
        yield "round"
        g_pub = g.public_share(group)
        for h in guards:
            if h.id.x != g.id.x:
                seen = _publish_share(group, g, g_pub, h, transport, rng)
                if seen is not None:
                    received[h.id.x][seen.x] = seen
    yield "verdict"
    unanimous = True
    for g in guards:
        shares = sorted([*received[g.id.x].values(), g.public_share(group)],
                        key=lambda s: s.x)
        ok = (len(shares) == t and len({s.x for s in shares}) == t
              and verify_group(shares, swarm.commitment, group, t))
        unanimous = unanimous and ok
        _send_verdict(g, ok, publisher, transport, rng)
    return unanimous, views


def inclusion_flow(swarm: Swarm, candidate: Drone, rng, transport: Transport):
    """Step generator of an inclusion; returns its Outcome.

    The candidate publishes its public share to the t-1 participating
    guards (the lowest identifiers when more are available), the guards
    exchange their own public shares, and each guard checks the t-point
    Lagrange sum against the commitment. Acceptance is unanimous; on
    acceptance the lowest-x guard delivers the group key and the
    candidate joins the swarm as a member.
    """
    guards = _quorum(swarm)
    if candidate.id.x in swarm.drones:
        raise DuplicateIdentifier(f"candidate identifier {candidate.id.x} collides")
    group = swarm.group
    ok, views = yield from _guard_check(swarm, guards, candidate,
                                        candidate.public_share(group), transport, rng)
    if not ok:
        return Outcome(False, "verification-failed")

    yield "hop"
    recovered = _send_group_key(group, guards[0], candidate,
                                views[guards[0].id.x], transport, rng)
    if recovered is None:
        return Outcome(False, "key-delivery-failed")
    candidate.group_key = recovered
    candidate.role = Role.MEMBER
    swarm.add_drone(candidate)
    return Outcome(True)


def bulk_flow(swarm: Swarm, arrivals: list[Drone], transport: Transport):
    """Step generator of a bulk admission; returns its Outcome.

    Each arrival broadcasts its public share to the swarm; one threshold
    check of the guard quorum plus the first arrival admits the batch, and
    the other arrivals are not verified. An empty batch needs no check.
    """
    group = swarm.group
    for arrival in arrivals:
        yield "broadcast"
        transport.record(MessageKind.SHARE_PUBLISH.name, arrival.label,
                         f"{swarm.id}/*",
                         encode_public_share(group, arrival.public_share(group)))
    if not arrivals:
        return Outcome(True)
    yield "check"
    shares = [g.public_share(group) for g in _quorum(swarm)]
    shares.append(arrivals[0].public_share(group))
    shares.sort(key=lambda s: s.x)
    if not verify_group(shares, swarm.commitment, group, swarm.threshold):
        return Outcome(False, "verification-failed")
    return Outcome(True)


def _drain(flow, transport: Transport):
    """Run a flow with no clock; returns (outcome, transcript)."""
    while True:
        try:
            next(flow)
        except StopIteration as stop:
            transport.transcript.set_outcome(stop.value)
            return stop.value, transport.transcript


def run_inclusion(swarm: Swarm, candidate: Drone, rng,
                  transport: Transport | None = None):
    """Authenticate a new arrival against the swarm's guards (see
    :func:`inclusion_flow`). The transport's step counter stamps the
    transcript.

    Returns (outcome, transcript).
    """
    transport = transport if transport is not None else Transport()
    return _drain(inclusion_flow(swarm, candidate, rng, transport), transport)


class CoreNetwork:
    """Trusted provisioner: holds every swarm's secret polynomial, issues
    shares, and answers cross-swarm share requests during unification."""

    label = "core"

    def __init__(self, group, rng):
        self.group = group
        self.rng = rng
        self.nonce_cache = NonceCache()
        self._dealers: dict[str, Dealer] = {}
        self._core_shares: dict[str, PrivateShare] = {}
        self.swarms: dict[str, Swarm] = {}

    def provision_swarm(self, swarm_id: str, threshold: int, n_drones: int,
                        n_guards: int | None = None) -> Swarm:
        """Create a swarm from a fresh polynomial and hand out shares.

        Drones get identifiers 1..n_drones; the lowest n_guards (default
        t-1) become guards. The core keeps one share of its own for key
        agreement with members, and the commitment Q is published to every
        drone at provisioning time.
        """
        if swarm_id in self._dealers:
            raise DuplicateIdentifier(f"swarm {swarm_id} already provisioned")
        n_guards = threshold - 1 if n_guards is None else n_guards
        if n_guards > n_drones:
            raise ValueError("more guards than drones")
        poly = gen_polynomial(self.group.field, threshold, self.rng)
        dealer = Dealer(poly, self.group)
        commitment = dealer.commitment()

        drone_shares = [dealer.issue_next() for _ in range(n_drones)]
        core_share = dealer.issue_at(n_drones + 1)
        swarm = Swarm(swarm_id, self.group, threshold, commitment,
                      dealer.public_share(core_share))
        for i, sh in enumerate(drone_shares):
            role = Role.GUARD if i < n_guards else Role.MEMBER
            swarm.add_drone(Drone(DroneId(swarm_id, sh.x), role, sh, commitment,
                                  group_key=dealer.group_key))

        self._dealers[swarm_id] = dealer
        self._core_shares[swarm_id] = core_share
        self.swarms[swarm_id] = swarm
        return swarm

    def dealer(self, swarm_id: str) -> Dealer:
        return self._dealers[swarm_id]

    def core_identity(self, swarm_id: str) -> DroneId:
        return DroneId(swarm_id, self._core_shares[swarm_id].x)

    def issue_candidate(self, swarm_id: str) -> Drone:
        """Provision a legitimate new arrival (share + commitment, no key)."""
        dealer = self._dealers[swarm_id]
        sh = dealer.issue_next()
        return Drone(DroneId(swarm_id, sh.x), Role.NEW_ARRIVAL, sh,
                     dealer.commitment())

    def core_issue_cross_share(self, requester: DroneId, target_swarm: str,
                               rng) -> ProtocolMessage:
        """Issue the requester a fresh share under the target swarm's
        polynomial, AEAD-encrypted under the pairwise key formed from the
        requester's share and the core's own share of the requester's swarm.
        """
        home = self.swarms.get(requester.swarm)
        if home is None:
            raise UnknownRequester(f"unknown swarm {requester.swarm!r} for requester")
        drone = home.drones.get(requester.x)
        if drone is None or drone.role is not Role.GUARD:
            raise UnknownRequester(f"{requester} is not a provisioned guard")
        target_dealer = self._dealers.get(target_swarm)
        if target_dealer is None:
            raise UnknownSwarm(f"unknown target swarm {target_swarm!r}")

        cross = target_dealer.issue_next()
        home_dealer = self._dealers[requester.swarm]
        requester_pub = home_dealer.public_share(
            PrivateShare(requester.x, home_dealer.poly.evaluate(requester.x)))
        key = derive_pairwise_key(self.group, self._core_shares[requester.swarm],
                                  requester_pub)
        nonce = fresh_nonce(rng)
        sender = self.core_identity(requester.swarm)
        aad = _aad(sender, str(requester), nonce)
        ct = seal(key, nonce, encode_private_share(self.group.field, cross), aad)
        return ProtocolMessage(MessageKind.CROSS_ISSUE_RESPONSE, sender,
                               str(requester), nonce, ct)


def _open_cross_share(group, swarm: Swarm, drone: Drone,
                      msg: ProtocolMessage) -> PrivateShare:
    key = derive_pairwise_key(group, drone.private_share, swarm.core_public_share)
    aad = _aad(msg.sender, drone.label, msg.nonce)
    return decode_private_share(group.field, open_sealed(key, msg.nonce, msg.payload, aad))


def _cross_pass(core: CoreNetwork, designated: Drone, home: Swarm, away: Swarm,
                away_guards: list[Drone], transport: Transport, rng):
    """Step generator of one direction of a unification: the designated
    guard of ``home`` obtains a share under ``away``'s polynomial and
    ``away``'s guards check it. Returns (failure reason or None, cross
    share, guard views of the cross public pair)."""
    group = home.group
    yield "core"
    request = ProtocolMessage(MessageKind.CROSS_ISSUE_REQUEST, designated.id,
                              core.label, fresh_nonce(rng), away.id.encode())
    transport.deliver(request, core)
    yield "core"
    response = core.core_issue_cross_share(designated.id, away.id, rng)
    delivered = transport.deliver(response, designated)
    if delivered is None:
        return "cross-issue-undelivered", None, None
    try:
        cross = _open_cross_share(group, home, designated, delivered)
    except (DecryptionFailed, DecodeError):
        return "cross-share-unusable", None, None
    ok, views = yield from _guard_check(away, away_guards, designated,
                                        public_share(cross, group), transport, rng)
    if not ok:
        return "verification-failed", None, None
    return None, cross, views


def unification_flow(swarm_a: Swarm, swarm_b: Swarm, core: CoreNetwork, rng,
                     transport: Transport, mutual: bool = False):
    """Step generator of a merge onto swarm B's group key; returns its Outcome.

    A designated guard of swarm A (lowest x) obtains a share under swarm
    B's polynomial from the core, swarm B's guards group-verify the cross
    public pair, and on success the designated guard receives swarm B's
    key and rebroadcasts it to swarm A under swarm A's current key. The
    verification is one-directional by default; ``mutual=True`` adds the
    mirrored pass (a swarm-B guard verified by swarm A) before any key
    moves.
    """
    if swarm_a.group is not swarm_b.group:
        raise ValueError("swarms must share one group configuration")
    group = swarm_a.group
    a_guards = swarm_a.guards()
    if not a_guards:
        raise NotEnoughGuards(f"swarm {swarm_a.id} has no guards")
    d_a = a_guards[0]
    if d_a.group_key is None:
        raise MissingGroupKey(f"{d_a.label} holds no group key to rebroadcast under")
    b_guards = _quorum(swarm_b)
    a_quorum = _quorum(swarm_a) if mutual else None

    failure, cross, views = yield from _cross_pass(core, d_a, swarm_a, swarm_b,
                                                   b_guards, transport, rng)
    if failure:
        return Outcome(False, failure)
    if mutual:
        failure, _, _ = yield from _cross_pass(core, b_guards[0], swarm_b, swarm_a,
                                               a_quorum, transport, rng)
        if failure:
            return Outcome(False, f"mutual-{failure}")

    # a swarm-B guard returns swarm B's key to the designated guard,
    # encrypted under the pairwise key of the cross share
    yield "hop"
    deliverer = b_guards[0]
    cross_holder = Drone(d_a.id, Role.GUARD, cross, swarm_b.commitment,
                         group_key=d_a.group_key, nonce_cache=d_a.nonce_cache)
    unified_key = _send_group_key(group, deliverer, cross_holder,
                                  views[deliverer.id.x], transport, rng)
    if unified_key is None:
        return Outcome(False, "key-return-failed")

    # rebroadcast under swarm A's current group key
    yield "hop"
    relay_key = group_key_cipher_key(group.field, d_a.group_key)
    for member in swarm_a.members():
        if member.id.x == d_a.id.x:
            continue
        nonce = fresh_nonce(rng)
        aad = _aad(d_a.id, member.label, nonce)
        ct = seal(relay_key, nonce, group.field.encode(unified_key), aad)
        msg = ProtocolMessage(MessageKind.UNIFIED_KEY_BROADCAST, d_a.id,
                              member.label, nonce, ct)
        delivered = transport.deliver(msg, member)
        if delivered is None:
            return Outcome(False, "broadcast-rejected")
        try:
            member.group_key = group.field.decode(
                open_sealed(relay_key, delivered.nonce, delivered.payload, aad))
        except (DecryptionFailed, DecodeError):
            return Outcome(False, "broadcast-tampered")
    d_a.group_key = unified_key
    # both swarms now share swarm B's key for intra-group traffic
    return Outcome(True)


def run_unification(swarm_a: Swarm, swarm_b: Swarm, core: CoreNetwork, rng,
                    transport: Transport | None = None, mutual: bool = False):
    """Merge two swarms onto swarm B's group key (see
    :func:`unification_flow`). The transport's step counter stamps the
    transcript.

    Returns (outcome, transcript).
    """
    transport = transport if transport is not None else Transport()
    return _drain(unification_flow(swarm_a, swarm_b, core, rng, transport, mutual),
                  transport)
