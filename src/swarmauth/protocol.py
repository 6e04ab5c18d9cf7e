"""Swarm membership protocols over threshold shares.

Four flows are implemented as explicit message sequences:

* inclusion -- a new drone publishes its public share to the guard
  drones, every guard checks the t-share Lagrange sum against the group
  commitment, and on unanimous acceptance one guard sends the group key
  encrypted under a pairwise Diffie-Hellman key.
* group-key delivery -- AEAD under KDF(my_y * their_public_point), with
  sender, receiver, and a fresh 128-bit nonce bound as associated data.
* unification -- a designated guard of one swarm obtains a cross-issued
  share for the other swarm from the core network, sealed under the
  guard's pairwise key with the core, is group-verified by the other
  swarm's guards, and relays that swarm's key back to its own.
* bulk admission -- n arrivals broadcast their public shares, and one
  threshold check of the guards plus the first arrival admits them all.

Inclusion, unification and bulk admission are plain functions that
return their Outcome. Before each modeled wait a flow calls
``transport.wait`` with the wait's name -- "core" (each half of the
cross-issue round trip), "transfer" (the first share round of a guard
check), "round" (each later share round), "verdict" (before the guards'
verdicts), "hop" (key delivery, key return, rebroadcast), "broadcast"
(each bulk arrival) or "check" (the bulk check). A :class:`Transport`
built without costs ignores the waits and stamps each transcript entry
with its index, as ``run_inclusion`` and ``run_unification`` do;
``simnet`` gives the transport a cost per step, and its exact clock stamps
the modeled time.

A drone stores no role. A swarm's guards are its threshold - 1 lowest
identifiers, and a drone is a member once it is in the swarm's drone
table. A message holds only its wire fields (kind, sender, nonce,
payload); the delivery names its receiver.

Every message carries a fresh nonce; receivers keep the (sender, nonce)
pairs they have seen for the scenario lifetime, so replayed messages are
rejected. A swarm keeps the pairs of all its members in one set.
All randomness flows through a caller-provided ``random.Random``, which
makes transcripts reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .algebra import DecodeError, Point
from .shares import (
    Dealer,
    DuplicateIdentifier,
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
    "point_key",
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
# every identifier lies below a group order of at most 256 bits
_X_BYTES_MAX = 32


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

    ``label`` is the text form "swarm/x", and ``aad_label`` its UTF-8
    bytes length-prefixed as :func:`_aad` frames a sender. Both are built
    once with the id and take no part in equality, hashing or repr. A
    label too long for the 65535-byte prefix raises ValueError.
    """

    swarm: str
    x: int
    label: str = dc_field(init=False, repr=False, compare=False)
    aad_label: bytes = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        label = f"{self.swarm}/{self.x}"
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "aad_label", _lp(label.encode()))

    def __str__(self):
        return self.label

    def encode(self) -> bytes:
        swarm_b = self.swarm.encode()
        x_b = self.x.to_bytes((self.x.bit_length() + 7) // 8 or 1, "big")
        return _lp(swarm_b) + _lp(x_b)


@dataclass(frozen=True, slots=True)
class ProtocolMessage:
    """One protocol message: its wire fields. The receiver is named by
    the delivery (:meth:`Transport.deliver`), not by the message."""

    kind: MessageKind
    sender: DroneId
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
    def from_bytes(cls, data: bytes) -> "ProtocolMessage":
        if not data:
            raise DecodeError("empty message")
        try:
            kind = MessageKind(data[0])
        except ValueError:
            raise DecodeError(f"unknown message kind tag {data[0]}") from None
        swarm_b, off = _read_lp(data, 1)
        x_b, off = _read_lp(data, off)
        if len(x_b) > _X_BYTES_MAX:
            raise DecodeError(f"sender identifier x of {len(x_b)} bytes exceeds "
                              f"{_X_BYTES_MAX} bytes")
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
        try:
            sender = DroneId(swarm, int.from_bytes(x_b, "big"))
        except ValueError:
            # the label is too long for its associated-data frame
            raise DecodeError("sender identifier has no label") from None
        return cls(kind, sender, nonce, payload)


@dataclass(frozen=True)
class Outcome:
    accepted: bool
    reason: str = ""

    def __str__(self):
        return "accepted" if self.accepted else f"rejected({self.reason})"


# bound once: every delivery hashes its payload for the transcript
_sha256 = hashlib.sha256


class TranscriptEntry(NamedTuple):
    time_us: float
    kind: str
    sender: str
    receiver: str
    digest: str
    note: str = ""


_ROW_WIDTH = len(TranscriptEntry._fields)


class AuthTranscript:
    """Append-only record of deliveries; the outcome is set exactly once.

    The rows are stored in one flat list, the six :class:`TranscriptEntry`
    fields of each row after those of the row before, so a row adds no
    object of its own: a float and strings, none of which the cyclic
    garbage collector tracks. :attr:`entries` builds the rows anew.
    """

    def __init__(self):
        self._flat: list = []
        self.outcome: Outcome | None = None

    def _rows(self):
        """The rows recorded so far, each as a tuple of its fields."""
        return zip(*[iter(self._flat)] * _ROW_WIDTH)

    @property
    def entries(self) -> list[TranscriptEntry]:
        """The rows recorded so far, in order, each built anew."""
        return [TranscriptEntry._make(row) for row in self._rows()]

    def record(self, time_us: float, kind: str, sender: str, receiver: str,
               payload: bytes, note: str = ""):
        digest = _sha256(payload).hexdigest()[:16]
        self._flat.extend((time_us, kind, sender, receiver, digest, note))

    def set_outcome(self, outcome: Outcome):
        if self.outcome is not None:
            raise RuntimeError("transcript outcome already set")
        self.outcome = outcome

    def render(self) -> str:
        lines = []
        for time_us, kind, sender, receiver, digest, note in self._rows():
            line = f"{time_us / 1000.0:.3f} {kind} {sender} -> {receiver} {digest}"
            if note:
                line += f" !{note}"
            lines.append(line)
        lines.append(f"outcome {self.outcome}" if self.outcome else "outcome pending")
        return "\n".join(lines) + "\n"


class NonceCache(set):
    """The (sender, nonce) pairs its receivers have seen; a repeated pair
    is a replay to the same receiver.

    Each pair is stored as one ``bytes`` key: the ``scope`` the check is
    given, which a delivery sets to its receiver's label framed as
    :func:`_aad` frames it, then the nonce, then the sender's UTF-8 label.
    A nonce of any length but :data:`NONCE_BYTES` raises ValueError, so a
    key splits back into exactly one pair, and no key is an object the
    cyclic garbage collector tracks, as a tuple is. So one set rejects
    exactly what one cache per receiver would, and a swarm keeps one for
    all its members (see :class:`Swarm`).
    """

    __slots__ = ()

    def check_and_store(self, sender: str, nonce: bytes, scope: bytes) -> bool:
        if len(nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
        # the pair is fresh when storing its key grows the set
        size = len(self)
        self.add(scope + nonce + sender.encode())
        return len(self) > size


@dataclass(slots=True)
class Drone:
    """A swarm participant and the key material it holds. Its role follows
    from its swarm: see :meth:`Swarm.guards`.

    ``nonce_cache`` is its swarm's receipt set once the drone is a
    member (see :class:`Swarm`); a drone of no swarm builds its own at the
    first delivery to it.
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

    The members are the built drones and the unbuilt identifiers: one
    range the dealer handed out at provisioning, whose drones are built
    when first read. ``x in swarm`` asks both without building anything,
    so :meth:`add_drone` admits a drone without building the table.
    :meth:`guards` builds only the guards among the unbuilt; reading
    ``drones`` or :meth:`members` builds every drone not yet built, in one
    pass of the dealer. ``drones`` maps identifier to drone in order of
    building and admission; :meth:`members` lists them by identifier.

    A rebroadcast reaches the unbuilt members without building a drone or
    any other object per member, so the swarm holds their state once. A
    rebroadcast moves every member or none (see :func:`unification_flow`),
    so they all hold one key, ``_member_key``. Every member's receipts,
    built or not, are one :class:`NonceCache`, ``_receipts``, each key
    scoped by its receiver's label, and every member's ``nonce_cache`` is
    that set. So no receipt moves when a drone is built, and a drone built
    late equals the one eager provisioning and the same runs would have
    built.

    The two public points are derived on first read, each by a one-scalar
    generator mul, so a run pays only for the one it reads:
    ``commitment`` is Q = f(0)*P from the dealer's polynomial, which every
    guard check reads, and ``core_public_share`` is the core's pair from
    the core's share, which only a unification reads. A swarm built by
    hand, with no dealer, is given both by assignment after construction.
    """

    def __init__(self, swarm_id: str, group, threshold: int):
        self.id = swarm_id
        self.group = group
        self.threshold = threshold
        self._table: dict[int, Drone] = {}
        # set by CoreNetwork.provision_swarm
        self._dealer: Dealer | None = None
        self._core_share: PrivateShare | None = None
        self._unbuilt = range(0)
        # the key of the unbuilt members, and every member's receipts
        self._member_key: int | None = None
        self._receipts = NonceCache()

    @cached_property
    def commitment(self) -> Point:
        return self.group.mul_generator([self._dealer.group_key])[0]

    @cached_property
    def core_public_share(self) -> PublicShare:
        return public_share(self._core_share, self.group)

    def __contains__(self, x: int) -> bool:
        return x in self._table or x in self._unbuilt

    @property
    def unbuilt(self) -> range:
        """The identifiers whose drones, and so whose shares, are not built."""
        return self._unbuilt

    @property
    def drones(self) -> dict[int, Drone]:
        """The drone table, identifier to drone, with every drone built."""
        if self._unbuilt:
            self._build(self._unbuilt)
        return self._table

    def _build(self, xs: range):
        """Build the drones of ``xs``, a prefix of the unbuilt identifiers,
        each with the members' key and the swarm's receipts."""
        self._unbuilt = range(xs.stop, self._unbuilt.stop)
        swarm_id, key, receipts = self.id, self._member_key, self._receipts
        for sh in self._dealer.shares_at(xs):
            self._table[sh.x] = Drone(DroneId(swarm_id, sh.x), sh, key, receipts)

    def add_drone(self, drone: Drone):
        """Admit a drone, whose receipts join the swarm's set."""
        if drone.id.x in self:
            raise DuplicateIdentifier(f"identifier {drone.id.x} already present in swarm {self.id}")
        self._receipts.update(drone.nonce_cache or ())
        drone.nonce_cache = self._receipts
        self._table[drone.id.x] = drone

    def guards(self) -> list[Drone]:
        """The drones of the threshold - 1 lowest identifiers."""
        k = self.threshold - 1
        table = self._table
        xs = heapq.nsmallest(k, [*table, *self._unbuilt[:k]])
        # the unbuilt identifiers among them are a prefix of the range
        unbuilt = sum(x not in table for x in xs)
        if unbuilt:
            self._build(self._unbuilt[:unbuilt])
        return [table[x] for x in xs]

    def members(self) -> list[Drone]:
        table = self.drones
        return [table[x] for x in sorted(table)]


# An unbuilt member as a rebroadcast copy reaches it through an intercept
# hook: its label over its swarm's receipts, made per copy only when a
# hook is installed.
_UnbuiltMember = namedtuple("_UnbuiltMember", "label nonce_cache")


class Transport:
    """Message delivery with nonce freshness, transcript recording, an
    optional in-path intercept hook (the adversary seam) and the flow's
    modeled clock.

    ``costs`` maps each step name a flow waits on to its cost in us, as a
    Fraction. With costs, :meth:`wait` adds the step's cost to an exact
    clock, and every later record or delivery is stamped with the float
    nearest the exact sum, however many steps there are. Without costs,
    waits do nothing and each entry is stamped with its index in the
    transcript.
    """

    def __init__(self, intercept=None, costs: dict[str, Fraction] | None = None):
        self.transcript = AuthTranscript()
        self.intercept = intercept
        self._costs = costs
        self._elapsed = Fraction(0)
        # the stamp of the current clock time, None without costs
        self._now = None if costs is None else 0.0

    def wait(self, step: str):
        """Let the modeled clock pass the cost of ``step``."""
        if self._costs is not None:
            self._elapsed += self._costs[step]
            self._now = float(self._elapsed)

    def _stamp(self) -> float:
        """The clock's stamp, or without costs the index of the next entry."""
        if self._now is not None:
            return self._now
        return float(len(self.transcript._flat) // _ROW_WIDTH)

    def record(self, kind: str, sender: str, receiver: str, payload: bytes):
        """Log a message that no receiver checks, stamped like a delivery."""
        self.transcript.record(self._stamp(), kind, sender, receiver, payload)

    def deliver(self, msg: ProtocolMessage, receiver) -> ProtocolMessage | None:
        """Deliver to a drone, an unbuilt member's view or anything else
        with ``label`` and ``nonce_cache``, checked under the receiver's
        framed label; a receiver with no cache yet is given one. Returns
        the (possibly intercepted) message, or None when it is dropped or
        rejected as a replay.

        Every delivery passes the intercept hook. A hook that returns None
        drops the message: no row is recorded, and the flow takes the path
        of a rejected replay. Any other message is received through
        :meth:`_receive`, as each copy of a rebroadcast without a hook is.
        """
        if self.intercept is not None:
            msg = self.intercept(msg, receiver)
            if msg is None:
                return None
        if receiver.nonce_cache is None:
            receiver.nonce_cache = NonceCache()
        label = receiver.label
        # an enum's ``name`` is a property over the stored ``_name_``, and
        # hashing a member for a lookup runs Enum.__hash__ in Python
        return msg if self._receive(receiver.nonce_cache, _lp(label.encode()), msg.kind._name_,
                                    msg.sender.label, label, msg.nonce, msg.payload) else None

    def _receive(self, cache: NonceCache, scope: bytes, kind: str, sender: str,
                 receiver: str, nonce: bytes, payload: bytes) -> bool:
        """One receipt check of (sender, nonce) in ``cache`` under
        ``scope`` and its transcript row; returns whether the pair was
        fresh. A rebroadcast receives one copy per member, so the clock's
        stamp is read here rather than through :meth:`_stamp` when costs
        are set."""
        fresh = cache.check_and_store(sender, nonce, scope)
        self.transcript.record(self._stamp() if self._now is None else self._now, kind,
                               sender, receiver, payload, "" if fresh else "replay-rejected")
        return fresh


def fresh_nonce(rng) -> bytes:
    return rng.getrandbits(8 * NONCE_BYTES).to_bytes(NONCE_BYTES, "big")


def _aad(sender: DroneId, receiver: str, nonce: bytes) -> bytes:
    """The associated data (sender label, receiver label, nonce), each
    label length-prefixed by :func:`shares._lp`. The sender's frame is the
    one its id built (``DroneId.aad_label``), so a rebroadcast, which seals
    and opens one copy per member under one sender, frames the sender's
    label once."""
    return sender.aad_label + _lp(receiver.encode()) + nonce


def point_key(group, point) -> bytes:
    """The key derived from a shared point: SHA-256 of its encoding."""
    return hashlib.sha256(group.encode(point)).digest()


def derive_pairwise_key(group, mine: PrivateShare, theirs: PublicShare) -> bytes:
    """Pairwise Diffie-Hellman key: the :func:`point_key` of the shared
    point my_y * their_point. Symmetric in the two parties because both
    arrive at (my_y * their_y) * P."""
    return point_key(group, group.mul(mine.y, theirs.point))


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
    it), or None when it is dropped or the receiver rejects it as a
    replay."""
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
    recovered by the recipient, or None when a message is dropped, or the
    recipient rejects it as a replay or cannot decode or authenticate it."""
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
                 transport: Transport, rng):
    """One guard-quorum check of the share the publisher holds.

    The publisher's public pair and the guards' own pairs come from one
    batched generator mul, and each sender's pair is encoded once. The
    publisher sends its pair to every guard, the guards exchange their own
    pairs, and each guard checks the t-point Lagrange sum against the
    swarm's commitment and sends its verdict to the publisher. Returns
    (unanimous, view, own); unanimous holds when every guard accepts and
    the publisher receives every guard's ``accept`` fresh. view is the
    published pair as the first guard received it (None if it got none),
    and own is that guard's own pair.

    Each guard's view is one list: its own pair, then every pair as it
    received it, the publisher's first, with None for a replay or a
    payload that does not decode. Its verdict is taken on the view's
    pairs sorted by x, and holds only for t pairs of distinct x that pass
    ``verify_group``. Each distinct delivered payload is decoded once and
    each distinct sorted view is verified once: decoding is a pure
    function of the bytes, and a verdict a pure function of the pairs,
    since the commitment, group and threshold are fixed for the check. In
    an honest check the t payloads are decoded once each, all views agree
    and one ``verify_group`` runs; under a man-in-the-middle every
    substituted payload differs, so each is decoded, on-curve checked and
    verified on its own.
    """
    group = swarm.group
    t = swarm.threshold
    share, *pairs = public_shares([publisher.private_share,
                                   *(g.private_share for g in guards)], group)
    payload = encode_public_share(group, share)
    payloads = [encode_public_share(group, pair) for pair in pairs]
    decoded: dict[bytes | None, PublicShare | None] = {None: None}

    def receive(payload: bytes | None) -> PublicShare | None:
        if payload not in decoded:
            try:
                decoded[payload] = decode_public_share(group, payload)
            except DecodeError:
                decoded[payload] = None
        return decoded[payload]

    transport.wait("transfer")
    views = [[pair, receive(_publish_share(publisher, payload, g, transport, rng))]
             for g, pair in zip(guards, pairs)]
    for g, sent in zip(guards, payloads):
        transport.wait("round")
        for h, view in zip(guards, views):
            if h is not g:
                view.append(receive(_publish_share(g, sent, h, transport, rng)))
    transport.wait("verdict")
    unanimous = True
    verdicts: dict[tuple[PublicShare, ...], bool] = {}
    for g, view in zip(guards, views):
        shares = tuple(sorted([s for s in view if s is not None], key=lambda s: s.x))
        ok = verdicts.get(shares)
        if ok is None:
            ok = verdicts[shares] = (
                len(shares) == t and len({s.x for s in shares}) == t
                and verify_group(shares, swarm.commitment, group, t))
        heard = _send_verdict(g, ok, publisher, transport, rng)
        unanimous = unanimous and ok and heard
    return unanimous, views[0][1], pairs[0]


def inclusion_flow(swarm: Swarm, candidate: Drone, rng, transport: Transport):
    """An inclusion; returns its Outcome.

    The candidate publishes its public share to the swarm's t-1 guards,
    the guards exchange their own public shares, and each guard checks
    the t-point Lagrange sum against the commitment. Acceptance is
    unanimous; on acceptance the lowest-x guard delivers the group key
    and the candidate joins the swarm as a member.
    """
    guards = _quorum(swarm)
    if candidate.id.x in swarm:
        raise DuplicateIdentifier(f"candidate identifier {candidate.id.x} collides")
    group = swarm.group
    ok, view, own = _guard_check(swarm, guards, candidate, transport, rng)
    if not ok:
        return Outcome(False, "verification-failed")

    transport.wait("hop")
    recovered = _send_group_key(group, guards[0], own, candidate, view, transport, rng)
    if recovered is None:
        return Outcome(False, "key-delivery-failed")
    candidate.group_key = recovered
    swarm.add_drone(candidate)
    return Outcome(True)


def bulk_flow(swarm: Swarm, arrivals: list[Drone], transport: Transport):
    """A bulk admission; returns its Outcome.

    The public pairs of the arrivals, then those of the guard quorum, are
    derived before the first broadcast, in two calls of
    :func:`public_shares`. The arrivals hold consecutive identifiers of
    one polynomial, which public_shares walks by differences; the core's
    share lies between their run and the quorum's, so one call of both
    would not walk. Each arrival broadcasts its pair to the swarm; one
    threshold check of the quorum plus the first arrival admits the batch,
    and the other arrivals are not verified. An empty batch needs no
    quorum and no check.
    """
    if not arrivals:
        return Outcome(True)
    group = swarm.group
    quorum = _quorum(swarm)
    pubs = [*public_shares([d.private_share for d in arrivals], group),
            *public_shares([d.private_share for d in quorum], group)]
    for arrival, pub in zip(arrivals, pubs):
        transport.wait("broadcast")
        transport.record(MessageKind.SHARE_PUBLISH.name, arrival.label,
                         f"{swarm.id}/*", encode_public_share(group, pub))
    transport.wait("check")
    shares = [pubs[0], *pubs[len(arrivals):]]
    if not verify_group(shares, swarm.commitment, group, swarm.threshold):
        return Outcome(False, "verification-failed")
    return Outcome(True)


def run_inclusion(swarm: Swarm, candidate: Drone, rng,
                  transport: Transport | None = None):
    """Authenticate a new arrival against the swarm's guards (see
    :func:`inclusion_flow`). A transport without costs stamps each
    transcript entry with its index.

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
        self.swarms: dict[str, Swarm] = {}

    def provision_swarm(self, swarm_id: str, threshold: int, n_drones: int) -> Swarm:
        """Create a swarm from a fresh polynomial and hand out shares.

        The dealer hands the drones identifiers 1..n_drones as one range;
        the t-1 lowest become the guards, whose shares and a newcomer's
        make the t points of every check. The core keeps the next share,
        n_drones + 1, for key agreement with members. No curve work is
        done here: the commitment Q = f(0)*P, against which the guards
        check every share, and the core's public pair are derived when the
        swarm first reads them, and the drones, with their shares, when
        it first reads those (see :class:`Swarm`).
        """
        if swarm_id in self.swarms:
            raise DuplicateIdentifier(f"swarm {swarm_id} already provisioned")
        dealer = Dealer(gen_polynomial(self.group.field, threshold, self.rng))
        unbuilt = dealer.register_range(n_drones)
        swarm = Swarm(swarm_id, self.group, threshold)
        swarm._dealer, swarm._unbuilt = dealer, unbuilt
        swarm._member_key = dealer.group_key
        swarm._core_share = dealer.issue_next()
        self.swarms[swarm_id] = swarm
        return swarm

    def dealer(self, swarm_id: str) -> Dealer:
        return self.swarms[swarm_id]._dealer

    def core_identity(self, swarm_id: str) -> DroneId:
        return DroneId(swarm_id, self.swarms[swarm_id]._core_share.x)

    def issue_candidate(self, swarm_id: str) -> Drone:
        """Provision a legitimate new arrival (a fresh share, no key)."""
        sh = self.dealer(swarm_id).issue_next()
        return Drone(DroneId(swarm_id, sh.x), sh)

    def core_issue_cross_share(self, requester: DroneId, target_swarm: str,
                               rng) -> ProtocolMessage:
        """Issue the requester a fresh share under the target swarm's
        polynomial, AEAD-encrypted under the pairwise key formed from the
        requester's share and the core's own share of the requester's swarm.

        The core dealt both shares, so it forms the shared point as one
        generator mul of their product, (y_core * y_req) * P, where the
        requester forms y_req * (y_core * P) (see :func:`_open_cross_share`).
        """
        home = self.swarms.get(requester.swarm)
        if home is None:
            raise UnknownRequester(f"unknown swarm {requester.swarm!r} for requester")
        drone = next((g for g in home.guards() if g.id.x == requester.x), None)
        if drone is None:
            raise UnknownRequester(f"{requester} is not a provisioned guard")
        target = self.swarms.get(target_swarm)
        if target is None:
            raise UnknownSwarm(f"unknown target swarm {target_swarm!r}")

        cross = target._dealer.issue_next()
        product = home._core_share.y * drone.private_share.y
        cipher = AESGCM(point_key(self.group, self.group.mul_generator([product])[0]))
        return seal(MessageKind.CROSS_ISSUE_RESPONSE, cipher,
                    self.core_identity(requester.swarm), requester.label,
                    encode_private_share(self.group.field, cross), rng)


def _open_cross_share(swarm: Swarm, drone: Drone, msg: ProtocolMessage) -> PrivateShare:
    group = swarm.group
    cipher = AESGCM(derive_pairwise_key(group, drone.private_share,
                                        swarm.core_public_share))
    return decode_private_share(group.field, open_sealed(cipher, msg, drone.label))


def _cross_pass(core: CoreNetwork, designated: Drone, home: Swarm, away: Swarm,
                away_guards: list[Drone], transport: Transport, rng):
    """One direction of a unification: the designated guard of ``home``
    obtains a share under ``away``'s polynomial and ``away``'s guards check
    it. Returns (failure reason or None, the holder of the cross share,
    the cross public pair as the first guard received it, that guard's own
    pair)."""
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
        cross = _open_cross_share(home, designated, delivered)
    except (DecryptionFailed, DecodeError):
        return "cross-share-unusable", None, None, None
    # the holder is the designated guard, so it shares the guard's receipts
    holder = Drone(designated.id, cross, nonce_cache=designated.nonce_cache)
    ok, view, own = _guard_check(away, away_guards, holder, transport, rng)
    if not ok:
        return "verification-failed", None, None, None
    return None, holder, view, own


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

    Each member of swarm A but the designated guard gets its own copy, in
    order of identifier, sealed with one AES-GCM context of swarm A's key
    under a nonce drawn as :func:`fresh_nonce` draws it. A member's label
    is framed once, for the copy's associated data, which the open reuses
    when the copy arrives untouched, and for the scope of its receipt.
    Without an intercept hook a copy is no object: it is received through
    :meth:`Transport._receive`, the receipt check and transcript row of
    every delivery, into swarm A's one receipt set (see :class:`Swarm`).
    With a hook, each copy is a :class:`ProtocolMessage` delivered through
    :meth:`Transport.deliver` to the drone, or to an unbuilt member's view
    (:class:`_UnbuiltMember`); a hook that drops a copy ends the run as a
    rejected replay does. A copy that does not open to the key broadcast,
    such as one tampered with or an earlier rebroadcast's copy held back,
    ends it ``broadcast-tampered``.
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

    failure, holder, view, own = _cross_pass(core, d_a, swarm_a, swarm_b, b_guards,
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
    unified_key = _send_group_key(group, b_guards[0], own, holder, view, transport, rng)
    if unified_key is None:
        return Outcome(False, "key-return-failed")

    # rebroadcast under swarm A's current group key, built members and
    # unbuilt identifiers in one order; the loop's invariant lookups are
    # bound before it
    transport.wait("hop")
    relay = AESGCM(group_key_cipher_key(group.field, d_a.group_key))
    encrypt, decrypt, plain = relay.encrypt, relay.decrypt, group.field.encode(unified_key)
    kind, sender, prefix = MessageKind.UNIFIED_KEY_BROADCAST, d_a.id, f"{swarm_a.id}/"
    kind_name, sender_label, sender_frame = kind._name_, sender.label, sender.aad_label
    intercept, deliver, receive = transport.intercept, transport.deliver, transport._receive
    getrandbits, bits = rng.getrandbits, 8 * NONCE_BYTES
    table, unbuilt, receipts = swarm_a._table, swarm_a.unbuilt, swarm_a._receipts
    built = sorted(x for x in table if x != sender.x)
    # no built identifier lies inside the unbuilt range
    for x in chain([x for x in built if x < unbuilt.start], unbuilt,
                   [x for x in built if x >= unbuilt.stop]):
        drone = table.get(x)
        label = f"{prefix}{x}" if drone is None else drone.label
        frame = _lp(label.encode())
        nonce = getrandbits(bits).to_bytes(NONCE_BYTES, "big")
        aad = sender_frame + frame + nonce
        payload = encrypt(nonce, plain, aad)
        if intercept is None:
            if not receive(receipts, frame, kind_name, sender_label, label, nonce, payload):
                return Outcome(False, "broadcast-rejected")
        else:
            msg = ProtocolMessage(kind, sender, nonce, payload)
            got = deliver(msg, drone or _UnbuiltMember(label, receipts))
            if got is None:
                return Outcome(False, "broadcast-rejected")
            if got is not msg:
                nonce, payload = got.nonce, got.payload
                aad = got.sender.aad_label + frame + nonce
        try:
            if decrypt(nonce, payload, aad) != plain:
                return Outcome(False, "broadcast-tampered")
        except InvalidTag:
            return Outcome(False, "broadcast-tampered")
    # every copy opened: the whole swarm moves onto swarm B's key, which
    # both swarms now share for intra-group traffic
    for drone in table.values():
        drone.group_key = unified_key
    swarm_a._member_key = unified_key
    return Outcome(True)


def run_unification(swarm_a: Swarm, swarm_b: Swarm, core: CoreNetwork, rng,
                    transport: Transport | None = None, mutual: bool = False):
    """Merge two swarms onto swarm B's group key (see
    :func:`unification_flow`). A transport without costs stamps each
    transcript entry with its index.

    Returns (outcome, transcript).
    """
    transport = transport if transport is not None else Transport()
    outcome = unification_flow(swarm_a, swarm_b, core, rng, transport, mutual)
    transport.transcript.set_outcome(outcome)
    return outcome, transport.transcript
