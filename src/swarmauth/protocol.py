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

Inclusion, unification and bulk admission are plain functions that
return their Outcome. Before each modeled wait a flow calls
``transport.wait`` with the wait's name -- "core" (each half of the
cross-issue round trip), "transfer" (the first share round of a guard
check), "round" (each later share round), "verdict" (before the guards'
verdicts), "hop" (key delivery, key return, rebroadcast), "broadcast"
(each bulk arrival) or "check" (the bulk check). A :class:`Transport`
built without costs ignores the waits and stamps its transcript with a
step counter, as ``run_inclusion`` and ``run_unification`` do; ``simnet``
gives the transport a cost per step, and its exact clock stamps the
modeled time.

A drone stores no role. A swarm's guards are its threshold - 1 lowest
identifiers, and a drone is a member once it is in the swarm's drone
table. A message holds only its wire fields (kind, sender, nonce,
payload); the delivery names its receiver.

Every message carries a fresh nonce; receivers keep the (sender, nonce)
pairs they have seen for the scenario lifetime, so replayed messages are
rejected.
All randomness flows through a caller-provided ``random.Random``, which
makes transcripts reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple

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
    public_shares,
    verify_group,
)

__all__ = [
    "NotEnoughGuards",
    "MissingGroupKey",
    "DecryptionFailed",
    "CrossIssueDenied",
    "UnknownRequester",
    "UnknownSwarm",
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


class MessageKind(enum.Enum):
    SHARE_PUBLISH = 1
    AUTH_VERDICT = 2
    KEY_AGREEMENT_INIT = 3
    ENCRYPTED_GROUP_KEY = 4
    CROSS_ISSUE_REQUEST = 5
    CROSS_ISSUE_RESPONSE = 6
    UNIFIED_KEY_BROADCAST = 7


@dataclass(frozen=True, slots=True)
class DroneId:
    """Protocol identity: the share identifier x scoped by a swarm id.

    ``label`` is the text form "swarm/x", built once with the id; it takes
    no part in equality, hashing or repr.
    """

    swarm: str
    x: int
    label: str = dc_field(init=False, repr=False, compare=False)

    # written out in place of the generated __init__ and a __post_init__,
    # since provisioning builds one id per drone (see PrivateShare)
    def __init__(self, swarm: str, x: int):
        _set_id_swarm(self, swarm)
        _set_id_x(self, x)
        _set_id_label(self, f"{swarm}/{x}")

    def __str__(self):
        return self.label

    def encode(self) -> bytes:
        swarm_b = self.swarm.encode()
        x_b = self.x.to_bytes((self.x.bit_length() + 7) // 8 or 1, "big")
        return _lp(swarm_b) + _lp(x_b)


# the slot descriptors of the class that @dataclass(slots=True) returned;
# setting through them skips the frozen __setattr__
_set_id_swarm, _set_id_x, _set_id_label = (
    DroneId.swarm.__set__, DroneId.x.__set__, DroneId.label.__set__)


@dataclass(frozen=True, slots=True)
class ProtocolMessage:
    """One protocol message: its wire fields. The receiver is named by
    the delivery (:meth:`Transport.deliver`), not by the message."""

    kind: MessageKind
    sender: DroneId
    nonce: bytes
    payload: bytes

    # written out in place of the generated __init__ and a __post_init__,
    # since a merge seals one message per rebroadcast receiver (see DroneId)
    def __init__(self, kind: MessageKind, sender: DroneId, nonce: bytes, payload: bytes):
        if len(nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
        _set_msg_kind(self, kind)
        _set_msg_sender(self, sender)
        _set_msg_nonce(self, nonce)
        _set_msg_payload(self, payload)

    def to_bytes(self) -> bytes:
        """Wire form: kind tag, sender id, nonce, length-prefixed payload."""
        return (bytes([self.kind.value]) + self.sender.encode()
                + self.nonce + _lp(self.payload))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProtocolMessage":
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
        return cls(kind, sender, nonce, payload)


_set_msg_kind, _set_msg_sender, _set_msg_nonce, _set_msg_payload = (
    ProtocolMessage.kind.__set__, ProtocolMessage.sender.__set__,
    ProtocolMessage.nonce.__set__, ProtocolMessage.payload.__set__)


@dataclass(frozen=True)
class Outcome:
    accepted: bool
    reason: str = ""

    def __str__(self):
        return "accepted" if self.accepted else f"rejected({self.reason})"


class TranscriptEntry(NamedTuple):
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
        # tuple.__new__ skips the NamedTuple's generated __new__, which
        # costs more than the tuple it builds; the row is the same
        self.entries.append(tuple.__new__(TranscriptEntry,
                                          (time_us, kind, sender, receiver, digest, note)))

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


class NonceCache(set):
    """The (sender, nonce) pairs a receiver has seen; a repeated pair is a
    replay. The cache is the set of pairs itself, one object per receiver."""

    __slots__ = ()

    def check_and_store(self, sender: str, nonce: bytes) -> bool:
        key = (sender, nonce)
        if key in self:
            return False
        self.add(key)
        return True


@dataclass(slots=True)
class Drone:
    """A swarm participant and the key material it holds. Its role follows
    from its swarm: see :meth:`Swarm.guards`.

    ``nonce_cache`` is built by the first delivery to the drone, so the
    members that never receive a message build none.
    """

    id: DroneId
    private_share: PrivateShare
    group_key: int | None = None
    nonce_cache: NonceCache | None = None

    @property
    def label(self) -> str:
        return self.id.label


class Swarm:
    """Provisioned swarm state: members, guards, and the public commitment.

    ``drones`` maps identifier to drone: the provisioned drones lowest
    first, then each admitted drone in order of admission. A swarm from
    :meth:`CoreNetwork.provision_swarm` builds its drones on first read.
    :meth:`guards` builds only the threshold - 1 lowest; reading
    ``drones``, :meth:`members` or :meth:`add_drone` builds every drone not
    yet built, in one pass of the dealer. The table is then what building
    every drone at provisioning gives, in the same order: a drone built
    late holds its share, the provisioning group key and no nonce cache,
    as an untouched drone would, since keys change and messages arrive only
    through drones that have been built.
    """

    def __init__(self, swarm_id: str, group, threshold: int,
                 commitment: GroupCommitment, core_public_share: PublicShare):
        self.id = swarm_id
        self.group = group
        self.threshold = threshold
        self.commitment = commitment
        self.core_public_share = core_public_share
        self._table: dict[int, Drone] = {}
        # identifiers registered with the dealer and not built yet,
        # ascending and above every built one (see CoreNetwork.provision_swarm)
        self._dealer: Dealer | None = None
        self._unbuilt: list[int] = []

    @property
    def drones(self) -> dict[int, Drone]:
        """The drone table, identifier to drone, with every drone built."""
        if self._unbuilt:
            self._build(len(self._unbuilt))
        return self._table

    def _build(self, k: int):
        """Build the drones of the k lowest unbuilt identifiers."""
        xs, self._unbuilt = self._unbuilt[:k], self._unbuilt[k:]
        swarm_id, group_key = self.id, self._dealer.group_key
        self._table.update({sh.x: Drone(DroneId(swarm_id, sh.x), sh, group_key)
                            for sh in self._dealer.shares_at(xs)})

    def add_drone(self, drone: Drone):
        if drone.id.x in self.drones:
            raise DuplicateIdentifier(f"identifier {drone.id.x} already present in swarm {self.id}")
        self._table[drone.id.x] = drone

    def guards(self) -> list[Drone]:
        """The drones of the threshold - 1 lowest identifiers."""
        k = self.threshold - 1
        table = self._table
        # every built identifier is below every unbuilt one
        if len(table) < k and self._unbuilt:
            self._build(k - len(table))
        return [table[x] for x in heapq.nsmallest(k, table)]

    def members(self) -> list[Drone]:
        table = self.drones
        return [table[x] for x in sorted(table)]


class Transport:
    """Message delivery with nonce freshness, transcript recording, an
    optional in-path intercept hook (the adversary seam) and the flow's
    modeled clock.

    ``costs`` maps each step name a flow waits on to its cost in us, as a
    Fraction. With costs, :meth:`wait` adds the step's cost to an exact
    clock, and every later record or delivery is stamped with the float
    nearest the exact sum, however many steps there are. Without costs,
    waits do nothing and the transcript uses a logical step counter.
    """

    def __init__(self, intercept=None, costs: dict[str, Fraction] | None = None):
        self.transcript = AuthTranscript()
        self.intercept = intercept
        self._costs = costs
        self._elapsed = Fraction(0)
        # the stamp of the current clock time, None without costs
        self._now = None if costs is None else 0.0
        self._step = 0

    def wait(self, step: str):
        """Let the modeled clock pass the cost of ``step``."""
        if self._costs is not None:
            self._elapsed += self._costs[step]
            self._now = float(self._elapsed)

    def _stamp(self) -> float:
        if self._now is not None:
            return self._now
        t = float(self._step)
        self._step += 1
        return t

    def record(self, kind: str, sender: str, receiver: str, payload: bytes):
        """Log a message that no receiver checks, stamped like a delivery."""
        self.transcript.record(self._stamp(), kind, sender, receiver, payload)

    def deliver(self, msg: ProtocolMessage, receiver) -> ProtocolMessage | None:
        """Deliver to anything with ``label`` and ``nonce_cache``, building
        the receiver's cache if it has none yet; returns the (possibly
        intercepted) message, or None when rejected as a replay."""
        if self.intercept is not None:
            msg = self.intercept(msg, receiver)
        sender = msg.sender.label
        cache = receiver.nonce_cache
        if cache is None:
            cache = receiver.nonce_cache = NonceCache()
        fresh = cache.check_and_store(sender, msg.nonce)
        # an enum's ``name`` is a property over the stored ``_name_``, and
        # hashing a member for a lookup runs Enum.__hash__ in Python
        self.transcript.record(self._stamp(), msg.kind._name_, sender,
                               receiver.label, msg.payload,
                               note="" if fresh else "replay-rejected")
        return msg if fresh else None


def fresh_nonce(rng) -> bytes:
    return rng.getrandbits(8 * NONCE_BYTES).to_bytes(NONCE_BYTES, "big")


def _aad(sender: DroneId, receiver: str, nonce: bytes) -> bytes:
    """The associated data (sender label, receiver label, nonce), each
    label length-prefixed as :func:`shares._lp` does. The prefixes are
    built inline: every rebroadcast receiver costs one seal and one open."""
    sender_b, receiver_b = sender.label.encode(), receiver.encode()
    if len(sender_b) > 0xFFFF or len(receiver_b) > 0xFFFF:
        raise ValueError(f"label of {max(len(sender_b), len(receiver_b))} bytes "
                         f"exceeds the 65535-byte length prefix")
    return b"".join((len(sender_b).to_bytes(2, "big"), sender_b,
                     len(receiver_b).to_bytes(2, "big"), receiver_b, nonce))


def derive_pairwise_key(group, mine: PrivateShare, theirs: PublicShare) -> bytes:
    """Pairwise Diffie-Hellman key: SHA-256 of the encoded shared point
    my_y * their_point. Symmetric in the two parties because both arrive
    at (my_y * their_y) * P."""
    shared = group.mul(mine.y, theirs.point)
    return hashlib.sha256(group.encode(shared)).digest()


def group_key_cipher_key(field, group_key: int) -> bytes:
    """Symmetric key for intra-swarm traffic, derived from the group key."""
    return hashlib.sha256(field.encode(group_key)).digest()


def seal(kind: MessageKind, cipher: AESGCM, sender: DroneId, receiver: str,
         plaintext: bytes, rng) -> ProtocolMessage:
    """A message whose payload is ``plaintext`` sealed with the AES-GCM
    context ``cipher`` under a fresh nonce; associated data binds (sender,
    receiver, nonce). The party that derives a key builds its context."""
    nonce = fresh_nonce(rng)
    aad = _aad(sender, receiver, nonce)
    return ProtocolMessage(kind, sender, nonce, cipher.encrypt(nonce, plaintext, aad))


def open_sealed(cipher: AESGCM, msg: ProtocolMessage, receiver: str) -> bytes:
    """The plaintext of a sealed message as opened by ``receiver``; raises
    DecryptionFailed unless it was sealed under ``cipher``'s key for
    ``receiver``."""
    try:
        return cipher.decrypt(msg.nonce, msg.payload,
                              _aad(msg.sender, receiver, msg.nonce))
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
    cipher = AESGCM(derive_pairwise_key(group, guard.private_share, recipient_pub))
    return seal(MessageKind.ENCRYPTED_GROUP_KEY, cipher, guard.id, recipient_label,
                group.field.encode(guard.group_key), rng)


def open_group_key(group, recipient: Drone, sender_pub: PublicShare,
                   msg: ProtocolMessage) -> int:
    """Recover the group-key scalar from an ENCRYPTED_GROUP_KEY message."""
    cipher = AESGCM(derive_pairwise_key(group, recipient.private_share, sender_pub))
    return group.field.decode(open_sealed(cipher, msg, recipient.label))


def _publish_share(sender: Drone, payload: bytes, receiver,
                   transport: Transport, rng) -> bytes | None:
    """Send a SHARE_PUBLISH of an encoded public pair; returns the payload
    as the receiver got it (the in-path intercept hook may have replaced
    it), or None when the receiver rejects it as a replay."""
    msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, sender.id, fresh_nonce(rng), payload)
    delivered = transport.deliver(msg, receiver)
    return None if delivered is None else delivered.payload


def _send_verdict(guard: Drone, ok: bool, receiver, transport: Transport, rng) -> bool:
    """Send a guard's verdict; returns whether the receiver got it as a
    fresh ``accept``."""
    msg = ProtocolMessage(MessageKind.AUTH_VERDICT, guard.id, fresh_nonce(rng),
                          b"accept" if ok else b"reject")
    delivered = transport.deliver(msg, receiver)
    return delivered is not None and delivered.payload == b"accept"


def _send_group_key(group, deliverer: Drone, deliverer_pub: PublicShare,
                    recipient: Drone, recipient_pub: PublicShare,
                    transport: Transport, rng) -> int | None:
    """KEY_AGREEMENT_INIT (the deliverer's public pair, as derived for the
    guard check) followed by the encrypted group key; returns the key as
    recovered by the recipient, or None when the recipient rejects a
    message as a replay or cannot decode or authenticate it."""
    init = ProtocolMessage(MessageKind.KEY_AGREEMENT_INIT, deliverer.id,
                           fresh_nonce(rng), encode_public_share(group, deliverer_pub))
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
    """The guards of the swarm, who take part in every threshold-t check."""
    t = swarm.threshold
    guards = swarm.guards()
    if len(guards) < t - 1:
        raise NotEnoughGuards(f"need {t - 1} guards in swarm {swarm.id}, "
                              f"have {len(guards)}")
    return guards


def _guard_check(swarm: Swarm, guards: list[Drone], publisher: Drone,
                 private: PrivateShare, transport: Transport, rng):
    """One guard-quorum check of the publisher's share.

    The publisher's public pair and the guards' own pairs come from one
    batched generator mul, and each sender's pair is encoded once. The
    publisher sends its pair to every guard, the guards exchange their own
    pairs, and each guard checks the t-point Lagrange sum against the
    swarm's commitment and sends its verdict to the publisher. Returns
    (unanimous, views, own); unanimous holds when every guard accepts and
    the publisher receives every guard's ``accept`` fresh. views maps a
    guard's x to the published pair as that guard received it, and own
    maps it to the guard's own pair.

    Each distinct delivered payload is decoded once and each distinct
    view is verified once. Decoding is a pure function of the bytes, and a
    guard's verdict is a pure function of the t pairs it holds, because
    the commitment, group and threshold are fixed for the check; a payload
    that fails to decode gives its receiver no pair. In an honest check
    the t payloads are decoded once each, all views agree and one
    ``verify_group`` runs; under a man-in-the-middle every substituted
    payload differs, so each is decoded, on-curve checked and verified on
    its own.
    """
    group = swarm.group
    t = swarm.threshold
    share, *pairs = public_shares([private, *(g.private_share for g in guards)], group)
    own = {g.id.x: pair for g, pair in zip(guards, pairs)}
    payload = encode_public_share(group, share)
    payloads = {g.id.x: encode_public_share(group, pair) for g, pair in zip(guards, pairs)}
    decoded: dict[bytes, PublicShare | None] = {}

    def receive(payload: bytes | None) -> PublicShare | None:
        if payload is None:
            return None
        if payload not in decoded:
            try:
                decoded[payload] = decode_public_share(group, payload)
            except DecodeError:
                decoded[payload] = None
        return decoded[payload]

    received: dict[int, dict[int, PublicShare]] = {g.id.x: {} for g in guards}
    views: dict[int, PublicShare] = {}
    transport.wait("transfer")
    for g in guards:
        seen = receive(_publish_share(publisher, payload, g, transport, rng))
        if seen is not None:
            received[g.id.x][seen.x] = seen
            views[g.id.x] = seen
    for g in guards:
        transport.wait("round")
        for h in guards:
            if h.id.x != g.id.x:
                seen = receive(_publish_share(g, payloads[g.id.x], h, transport, rng))
                if seen is not None:
                    received[h.id.x][seen.x] = seen
    transport.wait("verdict")
    unanimous = True
    verdicts: dict[tuple[PublicShare, ...], bool] = {}
    for g in guards:
        shares = tuple(sorted([*received[g.id.x].values(), own[g.id.x]],
                              key=lambda s: s.x))
        ok = verdicts.get(shares)
        if ok is None:
            ok = verdicts[shares] = (
                len(shares) == t and len({s.x for s in shares}) == t
                and verify_group(shares, swarm.commitment, group, t))
        heard = _send_verdict(g, ok, publisher, transport, rng)
        unanimous = unanimous and ok and heard
    return unanimous, views, own


def inclusion_flow(swarm: Swarm, candidate: Drone, rng, transport: Transport):
    """An inclusion; returns its Outcome.

    The candidate publishes its public share to the swarm's t-1 guards,
    the guards exchange their own public shares, and each guard checks
    the t-point Lagrange sum against the commitment. Acceptance is
    unanimous; on acceptance the lowest-x guard delivers the group key
    and the candidate joins the swarm as a member.
    """
    guards = _quorum(swarm)
    if candidate.id.x in swarm.drones:
        raise DuplicateIdentifier(f"candidate identifier {candidate.id.x} collides")
    group = swarm.group
    ok, views, own = _guard_check(swarm, guards, candidate, candidate.private_share,
                                  transport, rng)
    if not ok:
        return Outcome(False, "verification-failed")

    transport.wait("hop")
    deliverer = guards[0]
    recovered = _send_group_key(group, deliverer, own[deliverer.id.x], candidate,
                                views[deliverer.id.x], transport, rng)
    if recovered is None:
        return Outcome(False, "key-delivery-failed")
    candidate.group_key = recovered
    swarm.add_drone(candidate)
    return Outcome(True)


def bulk_flow(swarm: Swarm, arrivals: list[Drone], transport: Transport):
    """A bulk admission; returns its Outcome.

    The public pairs of every arrival and of the guard quorum are derived
    together, in one batched generator mul, before the first broadcast.
    Each arrival broadcasts its pair to the swarm; one threshold check of
    the quorum plus the first arrival admits the batch, and the other
    arrivals are not verified. An empty batch needs no quorum and no check.
    """
    if not arrivals:
        return Outcome(True)
    group = swarm.group
    quorum = _quorum(swarm)
    pubs = public_shares([d.private_share for d in arrivals + quorum], group)
    for arrival, pub in zip(arrivals, pubs):
        transport.wait("broadcast")
        transport.record(MessageKind.SHARE_PUBLISH.name, arrival.label,
                         f"{swarm.id}/*", encode_public_share(group, pub))
    transport.wait("check")
    shares = sorted([pubs[0], *pubs[len(arrivals):]], key=lambda s: s.x)
    if not verify_group(shares, swarm.commitment, group, swarm.threshold):
        return Outcome(False, "verification-failed")
    return Outcome(True)


def run_inclusion(swarm: Swarm, candidate: Drone, rng,
                  transport: Transport | None = None):
    """Authenticate a new arrival against the swarm's guards (see
    :func:`inclusion_flow`). The transport's step counter stamps the
    transcript.

    Returns (outcome, transcript).
    """
    transport = transport if transport is not None else Transport()
    outcome = inclusion_flow(swarm, candidate, rng, transport)
    transport.transcript.set_outcome(outcome)
    return outcome, transport.transcript


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

    def provision_swarm(self, swarm_id: str, threshold: int, n_drones: int) -> Swarm:
        """Create a swarm from a fresh polynomial and hand out shares.

        Drones get identifiers 1..n_drones, all registered with the dealer
        at once; the t-1 lowest become the guards, whose shares and a
        newcomer's make the t points of every check. The core keeps one
        share of its own, n_drones + 1, for key agreement with members. The
        commitment Q = f(0)*P and the core's public pair come from one
        batched generator mul; Q is held by the swarm, whose guards check
        every share against it. The drones themselves, with their shares,
        are built when the swarm first reads them (see :class:`Swarm`).
        """
        if swarm_id in self._dealers:
            raise DuplicateIdentifier(f"swarm {swarm_id} already provisioned")
        group = self.group
        poly = gen_polynomial(group.field, threshold, self.rng)
        dealer = Dealer(poly)
        xs = dealer.register_range(n_drones)
        core_share = dealer.issue_at(n_drones + 1)
        q_point, core_point = group.mul_generator([poly.group_key, core_share.y])
        swarm = Swarm(swarm_id, group, threshold, GroupCommitment(q_point),
                      PublicShare(core_share.x, core_point))
        swarm._dealer, swarm._unbuilt = dealer, xs

        self._dealers[swarm_id] = dealer
        self._core_shares[swarm_id] = core_share
        self.swarms[swarm_id] = swarm
        return swarm

    def dealer(self, swarm_id: str) -> Dealer:
        return self._dealers[swarm_id]

    def core_identity(self, swarm_id: str) -> DroneId:
        return DroneId(swarm_id, self._core_shares[swarm_id].x)

    def issue_candidate(self, swarm_id: str) -> Drone:
        """Provision a legitimate new arrival (a fresh share, no key)."""
        sh = self._dealers[swarm_id].issue_next()
        return Drone(DroneId(swarm_id, sh.x), sh)

    def core_issue_cross_share(self, requester: DroneId, target_swarm: str,
                               rng) -> ProtocolMessage:
        """Issue the requester a fresh share under the target swarm's
        polynomial, AEAD-encrypted under the pairwise key formed from the
        requester's share and the core's own share of the requester's swarm.
        """
        home = self.swarms.get(requester.swarm)
        if home is None:
            raise UnknownRequester(f"unknown swarm {requester.swarm!r} for requester")
        drone = next((g for g in home.guards() if g.id.x == requester.x), None)
        if drone is None:
            raise UnknownRequester(f"{requester} is not a provisioned guard")
        target_dealer = self._dealers.get(target_swarm)
        if target_dealer is None:
            raise UnknownSwarm(f"unknown target swarm {target_swarm!r}")

        cross = target_dealer.issue_next()
        cipher = AESGCM(derive_pairwise_key(self.group,
                                            self._core_shares[requester.swarm],
                                            public_share(drone.private_share,
                                                         self.group)))
        return seal(MessageKind.CROSS_ISSUE_RESPONSE, cipher,
                    self.core_identity(requester.swarm), requester.label,
                    encode_private_share(self.group.field, cross), rng)


def _open_cross_share(group, swarm: Swarm, drone: Drone,
                      msg: ProtocolMessage) -> PrivateShare:
    cipher = AESGCM(derive_pairwise_key(group, drone.private_share,
                                        swarm.core_public_share))
    return decode_private_share(group.field, open_sealed(cipher, msg, drone.label))


def _cross_pass(core: CoreNetwork, designated: Drone, home: Swarm, away: Swarm,
                away_guards: list[Drone], transport: Transport, rng):
    """One direction of a unification: the designated guard of ``home``
    obtains a share under ``away``'s polynomial and ``away``'s guards check
    it. Returns (failure reason or None, cross share, guard views of the
    cross public pair, the guards' own pairs)."""
    group = home.group
    transport.wait("core")
    request = ProtocolMessage(MessageKind.CROSS_ISSUE_REQUEST, designated.id,
                              fresh_nonce(rng), away.id.encode())
    transport.deliver(request, core)
    transport.wait("core")
    response = core.core_issue_cross_share(designated.id, away.id, rng)
    delivered = transport.deliver(response, designated)
    if delivered is None:
        return "cross-issue-undelivered", None, None, None
    try:
        cross = _open_cross_share(group, home, designated, delivered)
    except (DecryptionFailed, DecodeError):
        return "cross-share-unusable", None, None, None
    ok, views, own = _guard_check(away, away_guards, designated, cross, transport, rng)
    if not ok:
        return "verification-failed", None, None, None
    return None, cross, views, own


def unification_flow(swarm_a: Swarm, swarm_b: Swarm, core: CoreNetwork, rng,
                     transport: Transport, mutual: bool = False):
    """A merge onto swarm B's group key; returns its Outcome.

    A designated guard of swarm A (lowest x) obtains a share under swarm
    B's polynomial from the core, swarm B's guards group-verify the cross
    public pair, and on success the designated guard receives swarm B's
    key and rebroadcasts it to swarm A under swarm A's current key. Swarm
    A moves all or nothing: no member's key changes unless every member's
    copy opens. The verification is one-directional by default;
    ``mutual=True`` adds the mirrored pass (a swarm-B guard verified by
    swarm A) before any key moves.
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

    failure, cross, views, own = _cross_pass(core, d_a, swarm_a, swarm_b, b_guards,
                                             transport, rng)
    if failure:
        return Outcome(False, failure)
    if mutual:
        failure, _, _, _ = _cross_pass(core, b_guards[0], swarm_b, swarm_a, a_quorum,
                                       transport, rng)
        if failure:
            return Outcome(False, f"mutual-{failure}")

    # a swarm-B guard returns swarm B's key to the designated guard,
    # encrypted under the pairwise key of the cross share
    transport.wait("hop")
    deliverer = b_guards[0]
    # d_a's nonce cache was built by the cross-issue response's delivery
    cross_holder = Drone(d_a.id, cross, nonce_cache=d_a.nonce_cache)
    unified_key = _send_group_key(group, deliverer, own[deliverer.id.x], cross_holder,
                                  views[deliverer.id.x], transport, rng)
    if unified_key is None:
        return Outcome(False, "key-return-failed")

    # rebroadcast under swarm A's current group key: one AES-GCM context
    # seals and opens every member's copy, and each opened key is staged
    # until the last copy has opened
    transport.wait("hop")
    relay = AESGCM(group_key_cipher_key(group.field, d_a.group_key))
    unified_plain = group.field.encode(unified_key)
    kind, sender, deliver, decode = (MessageKind.UNIFIED_KEY_BROADCAST, d_a.id,
                                     transport.deliver, group.field.decode)
    members = [m for m in swarm_a.members() if m is not d_a]
    staged = []
    for member in members:
        label = member.id.label
        delivered = deliver(seal(kind, relay, sender, label, unified_plain, rng), member)
        if delivered is None:
            return Outcome(False, "broadcast-rejected")
        try:
            staged.append(decode(open_sealed(relay, delivered, label)))
        except (DecryptionFailed, DecodeError):
            return Outcome(False, "broadcast-tampered")
    for member, key in zip(members, staged):
        member.group_key = key
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
    outcome = unification_flow(swarm_a, swarm_b, core, rng, transport, mutual)
    transport.transcript.set_outcome(outcome)
    return outcome, transport.transcript
