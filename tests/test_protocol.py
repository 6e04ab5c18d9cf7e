"""Inclusion, key delivery, and unification flows on the toy group."""

import copy
import dataclasses
import gc
import hashlib
import pickle
import random
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from swarmauth import protocol
from swarmauth.algebra import CurveGroup, DecodeError, ToyGroup
from swarmauth.protocol import (
    AuthTranscript,
    CoreNetwork,
    DecryptionFailed,
    Drone,
    DroneId,
    MessageKind,
    MissingGroupKey,
    NonceCache,
    NotEnoughGuards,
    Outcome,
    ProtocolMessage,
    Swarm,
    Transport,
    TranscriptEntry,
    UnknownRequester,
    UnknownSwarm,
    bulk_flow,
    derive_pairwise_key,
    deliver_group_key,
    fresh_nonce,
    open_group_key,
    open_sealed,
    run_inclusion,
    run_unification,
    seal,
    _open_cross_share,
)
from swarmauth.shares import (
    Dealer,
    DuplicateIdentifier,
    GroupPolynomial,
    InvalidIdentifier,
    PrivateShare,
    PublicShare,
    _lp,
    _read_lp,
    decode_private_share,
    decode_public_share,
    encode_public_share,
    gen_polynomial,
    group_commitment,
    issue_share,
    public_share,
    public_shares,
    verify_group,
)

GROUPS = (ToyGroup(), CurveGroup())


def manual_swarm(toy101):
    """f(x) = 5 + 7x over q=101, threshold 2, one guard at x=1."""
    poly = GroupPolynomial(toy101.field, (5, 7))
    commitment = group_commitment(poly, toy101)
    core_pub = public_share(issue_share(poly, 50), toy101)
    swarm = Swarm("A", toy101, 2, commitment, core_pub)
    guard = Drone(DroneId("A", 1), issue_share(poly, 1), group_key=poly.group_key)
    swarm.add_drone(guard)
    return poly, swarm


class TestPairwiseKey:
    def test_toy_hand_example(self, toy101):
        # shares y=3 and y=4: both sides land on 12*P, so the key is
        # the hash of the encoding of 12
        a = PrivateShare(1, 3)
        b = PrivateShare(2, 4)
        key_ab = derive_pairwise_key(toy101, a, public_share(b, toy101))
        key_ba = derive_pairwise_key(toy101, b, public_share(a, toy101))
        expected = hashlib.sha256(toy101.encode(12)).digest()
        assert key_ab == key_ba == expected

    def test_symmetry_random_pairs(self, toy61, rng):
        for _ in range(100):
            a = PrivateShare(1, toy61.field.rand_nonzero(rng))
            b = PrivateShare(2, toy61.field.rand_nonzero(rng))
            assert (derive_pairwise_key(toy61, a, public_share(b, toy61))
                    == derive_pairwise_key(toy61, b, public_share(a, toy61)))

    def test_symmetry_on_curve(self, curve, rng):
        a = PrivateShare(1, curve.field.rand_nonzero(rng))
        b = PrivateShare(2, curve.field.rand_nonzero(rng))
        assert (derive_pairwise_key(curve, a, public_share(b, curve))
                == derive_pairwise_key(curve, b, public_share(a, curve)))

    def test_distinct_peers_distinct_keys(self, toy61, rng):
        for _ in range(50):
            a = PrivateShare(1, toy61.field.rand_nonzero(rng))
            b = PrivateShare(2, toy61.field.rand_nonzero(rng))
            c = PrivateShare(3, toy61.field.rand_nonzero(rng))
            if b.y == c.y:
                continue
            assert (derive_pairwise_key(toy61, a, public_share(b, toy61))
                    != derive_pairwise_key(toy61, a, public_share(c, toy61)))


def sealed(rng):
    return seal(MessageKind.ENCRYPTED_GROUP_KEY, AESGCM(bytes(32)), DroneId("A", 1),
                "A/2", b"payload", rng)


class TestAead:
    def test_round_trip(self, rng):
        msg = sealed(rng)
        assert (msg.kind, msg.sender) == (MessageKind.ENCRYPTED_GROUP_KEY,
                                          DroneId("A", 1))
        assert msg.payload != b"payload"
        assert open_sealed(AESGCM(bytes(32)), msg, "A/2") == b"payload"

    def test_wrong_key_fails(self, rng):
        msg = sealed(rng)
        with pytest.raises(DecryptionFailed):
            open_sealed(AESGCM(b"\x01" * 32), msg, "A/2")

    def test_tampered_ciphertext_fails(self, rng):
        msg = sealed(rng)
        ct = bytearray(msg.payload)
        ct[0] ^= 1
        with pytest.raises(DecryptionFailed):
            open_sealed(AESGCM(bytes(32)), replace(msg, payload=bytes(ct)), "A/2")

    def test_sealed_message_binds_sender_receiver_and_nonce(self, rng):
        msg = sealed(rng)
        for forged, receiver in ((msg, "A/3"),
                                 (replace(msg, sender=DroneId("A", 3)), "A/2"),
                                 (replace(msg, nonce=fresh_nonce(rng)), "A/2")):
            with pytest.raises(DecryptionFailed):
                open_sealed(AESGCM(bytes(32)), forged, receiver)


class TestGroupKeyDelivery:
    def test_honest_round_trip(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        recipient = Drone(DroneId("A", 2), issue_share(poly, 2))
        msg = deliver_group_key(toy101, guard,
                                public_share(recipient.private_share, toy101),
                                recipient.label, rng)
        assert msg.kind is MessageKind.ENCRYPTED_GROUP_KEY
        recovered = open_group_key(toy101, recipient,
                                   public_share(guard.private_share, toy101), msg)
        assert recovered == 5

    def test_wrong_private_share_fails_auth(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        honest = Drone(DroneId("A", 2), issue_share(poly, 2))
        msg = deliver_group_key(toy101, guard,
                                public_share(honest.private_share, toy101),
                                honest.label, rng)
        impostor = Drone(DroneId("A", 2), PrivateShare(2, 20))
        with pytest.raises(DecryptionFailed):
            open_group_key(toy101, impostor,
                           public_share(guard.private_share, toy101), msg)

    def test_missing_group_key(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        keyless = Drone(DroneId("A", 9), issue_share(poly, 9))
        with pytest.raises(MissingGroupKey):
            deliver_group_key(toy101, keyless,
                              public_share(keyless.private_share, toy101), "A/2", rng)

    def test_nonce_bound_in_aad(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        recipient = Drone(DroneId("A", 2), issue_share(poly, 2))
        msg = deliver_group_key(toy101, guard,
                                public_share(recipient.private_share, toy101),
                                recipient.label, rng)
        substituted = replace(msg, nonce=fresh_nonce(rng))
        with pytest.raises(DecryptionFailed):
            open_group_key(toy101, recipient,
                           public_share(guard.private_share, toy101), substituted)


class TestTransportFreshness:
    def test_replayed_message_rejected(self, toy101, rng):
        transport = Transport()
        receiver = Drone(DroneId("A", 1), PrivateShare(1, 12))
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 2),
                              fresh_nonce(rng), b"data")
        assert receiver.nonce_cache is None
        assert transport.deliver(msg, receiver) is not None
        assert transport.deliver(msg, receiver) is None
        assert transport.transcript.entries[-1].note == "replay-rejected"

    def test_nonce_cache_scoped_per_sender(self):
        cache = NonceCache()
        assert cache.check_and_store("A/1", b"n" * 16)
        assert not cache.check_and_store("A/1", b"n" * 16)
        assert cache.check_and_store("A/2", b"n" * 16)


class TestRunInclusion:
    def test_hand_example_accepts(self, toy101):
        poly, swarm = manual_swarm(toy101)
        candidate = Drone(DroneId("A", 2), issue_share(poly, 2))
        outcome, transcript = run_inclusion(swarm, candidate, random.Random(1))
        assert outcome == Outcome(True)
        assert candidate.group_key == 5
        assert swarm.drones[candidate.id.x] is candidate
        kinds = [e.kind for e in transcript.entries]
        assert kinds == ["SHARE_PUBLISH", "AUTH_VERDICT",
                         "KEY_AGREEMENT_INIT", "ENCRYPTED_GROUP_KEY"]

    def test_bogus_share_rejected(self, toy101):
        poly, swarm = manual_swarm(toy101)
        candidate = Drone(DroneId("A", 2), PrivateShare(2, 20))  # f(2) = 19
        outcome, _ = run_inclusion(swarm, candidate, random.Random(1))
        assert outcome == Outcome(False, "verification-failed")
        assert candidate.group_key is None
        assert 2 not in swarm.drones

    def test_not_enough_guards(self, toy101, rng):
        poly = GroupPolynomial(toy101.field, (5, 7, 3))  # t = 3 needs 2 guards
        commitment = group_commitment(poly, toy101)
        swarm = Swarm("A", toy101, 3, commitment,
                      public_share(issue_share(poly, 50), toy101))
        swarm.add_drone(Drone(DroneId("A", 1), issue_share(poly, 1), poly.group_key))
        candidate = Drone(DroneId("A", 2), issue_share(poly, 2))
        with pytest.raises(NotEnoughGuards):
            run_inclusion(swarm, candidate, rng)

    def test_duplicate_identifier(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        candidate = Drone(DroneId("A", 1), issue_share(poly, 2))
        with pytest.raises(DuplicateIdentifier):
            run_inclusion(swarm, candidate, rng)
        with pytest.raises(DuplicateIdentifier, match="already present"):
            swarm.add_drone(candidate)

    def test_completeness_provisioned_candidates(self, toy61):
        rng = random.Random(5150)
        for trial in range(50):
            t = rng.randrange(2, 5)
            core = CoreNetwork(toy61, rng)
            swarm = core.provision_swarm("A", t, n_drones=t - 1)
            candidate = core.issue_candidate("A")
            outcome, _ = run_inclusion(swarm, candidate, rng)
            assert outcome.accepted, trial
            assert candidate.group_key == core.dealer("A").group_key

    def test_soundness_random_candidates(self, toy61):
        rng = random.Random(6174)
        for trial in range(200):
            t = rng.randrange(2, 5)
            core = CoreNetwork(toy61, rng)
            swarm = core.provision_swarm("A", t, n_drones=t - 1)
            legit = core.issue_candidate("A")
            bad_y = toy61.field.rand(rng)
            while bad_y == legit.private_share.y:
                bad_y = toy61.field.rand(rng)
            impostor = Drone(legit.id, PrivateShare(legit.id.x, bad_y))
            outcome, _ = run_inclusion(swarm, impostor, rng)
            assert not outcome.accepted, trial
            assert impostor.group_key is None

    def test_unanimous_verdicts_required(self, toy61):
        # tamper one guard-to-guard exchange so only part of the guard set
        # fails; the inclusion must still be rejected
        rng = random.Random(31)
        core = CoreNetwork(toy61, rng)
        swarm = core.provision_swarm("A", 4, n_drones=3)
        candidate = core.issue_candidate("A")

        tampered = []

        def intercept(msg, receiver):
            if (msg.kind is MessageKind.SHARE_PUBLISH
                    and str(msg.sender) == "A/1" and receiver.label == "A/2"
                    and not tampered):
                tampered.append(True)
                share = decode_public_share(toy61, msg.payload)
                fake = PublicShare(share.x, toy61.add(share.point, 1))
                return replace(msg, payload=encode_public_share(toy61, fake))
            return msg

        outcome, transcript = run_inclusion(swarm, candidate, rng,
                                            Transport(intercept=intercept))
        assert tampered
        assert outcome == Outcome(False, "verification-failed")
        verdicts = [e for e in transcript.entries if e.kind == "AUTH_VERDICT"]
        assert len(verdicts) == 3


def guarded_inclusion(group, t, intercept, seed=77):
    """Run one inclusion into a fresh swarm of t-1 guards with every
    ``verify_group`` call spied on; returns (outcome, guard labels,
    verdict payload per guard label, share sets passed to verify_group)."""
    rng = random.Random(seed)
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", t, n_drones=t - 1)
    candidate = core.issue_candidate("A")
    guards = [f"A/{x}" for x in sorted(swarm.drones)]
    verdicts, verified = {}, []

    def spy(msg, receiver):
        if msg.kind is MessageKind.AUTH_VERDICT:
            verdicts[str(msg.sender)] = msg.payload
        return intercept(candidate, msg, receiver)

    def counting_verify_group(shares, *args):
        verified.append(shares)
        return verify_group(shares, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "verify_group", counting_verify_group)
        outcome, _ = run_inclusion(swarm, candidate, rng, Transport(intercept=spy))
    return outcome, guards, verdicts, verified


class TestGuardCheckVerdictReuse:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_one_verify_per_distinct_view(self, toy61, data):
        # substitute the candidate's published pair for the guards in S,
        # with a different off-polynomial point for each of them
        t = data.draw(st.integers(2, 7), label="t")
        subset = data.draw(st.sets(st.integers(0, t - 2)), label="S")
        substituted = {f"A/{k + 1}": k + 1 for k in subset}

        def intercept(candidate, msg, receiver):
            if (msg.kind is MessageKind.SHARE_PUBLISH
                    and msg.sender == candidate.id
                    and receiver.label in substituted):
                share = decode_public_share(toy61, msg.payload)
                fake = PublicShare(share.x, toy61.add(
                    share.point, substituted[receiver.label]))
                return replace(msg, payload=encode_public_share(toy61, fake))
            return msg

        outcome, guards, verdicts, verified = guarded_inclusion(toy61, t,
                                                                intercept)
        assert verdicts == {g: b"reject" if g in substituted else b"accept"
                            for g in guards}
        assert outcome == (Outcome(False, "verification-failed") if subset
                           else Outcome(True))
        assert len(verified) == len(subset) + (len(subset) < t - 1)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    def test_honest_check_verifies_once(self, group):
        outcome, guards, verdicts, verified = guarded_inclusion(
            group, 10, lambda candidate, msg, receiver: msg)
        assert outcome.accepted
        assert verdicts == dict.fromkeys(guards, b"accept")
        assert len(verified) == 1 and len(verified[0]) == 10

    def test_shortened_view_rejects_without_verifying(self, toy61):
        # A/1's exchange to A/2 claims the candidate's x, so it overwrites
        # the candidate's pair and A/2 holds only t - 1 pairs
        def intercept(candidate, msg, receiver):
            if (msg.kind is MessageKind.SHARE_PUBLISH
                    and str(msg.sender) == "A/1" and receiver.label == "A/2"):
                share = decode_public_share(toy61, msg.payload)
                fake = PublicShare(candidate.id.x, share.point)
                return replace(msg, payload=encode_public_share(toy61, fake))
            return msg

        outcome, guards, verdicts, verified = guarded_inclusion(toy61, 5,
                                                                intercept)
        assert outcome == Outcome(False, "verification-failed")
        assert verdicts == {g: b"reject" if g == "A/2" else b"accept"
                            for g in guards}
        assert len(verified) == 1 and len(verified[0]) == 5


def coded_inclusion(group, t, intercept=None, seed=78):
    """Run one inclusion into a fresh swarm of t-1 guards, with the share
    codec spied on in ``protocol``; returns (outcome, pairs encoded and
    payloads decoded when the guard check reaches its verdicts, the
    candidate, the guards)."""
    rng = random.Random(seed)
    core = CoreNetwork(group, rng)
    swarm = core.provision_swarm("A", t, n_drones=t - 1)
    candidate = core.issue_candidate("A")
    guards = swarm.guards()
    encoded, decoded, at_verdict = [], [], []

    def counting_encode(group, share):
        encoded.append(share)
        return encode_public_share(group, share)

    def counting_decode(group, payload):
        decoded.append(payload)
        return decode_public_share(group, payload)

    def wait(step):
        if step == "verdict":
            at_verdict.append((list(encoded), list(decoded)))

    transport = Transport(intercept=None if intercept is None
                          else lambda msg, receiver: intercept(candidate, msg, receiver))
    transport.wait = wait
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "encode_public_share", counting_encode)
        mp.setattr(protocol, "decode_public_share", counting_decode)
        outcome = protocol.inclusion_flow(swarm, candidate, rng, transport)
        return outcome, at_verdict[-1], candidate, guards


class TestGuardCheckCodec:
    """A guard check encodes each sender's pair once and decodes each
    distinct delivered payload once."""

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    def test_honest_check_codes_t_payloads(self, group):
        t = 10
        outcome, (encoded, decoded), candidate, guards = coded_inclusion(group, t)
        assert outcome.accepted
        assert len(encoded) == t and len(decoded) == t
        assert len(set(decoded)) == t
        pairs = public_shares([candidate.private_share]
                              + [g.private_share for g in guards], group)
        assert sorted(encoded, key=lambda s: s.x) == sorted(pairs, key=lambda s: s.x)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    def test_every_substituted_payload_is_decoded(self, group):
        # each guard receives its own forged pair for the candidate; on the
        # curve the last one is off the curve and fails its decode
        t = 6
        forged = {}

        def intercept(candidate, msg, receiver):
            if msg.kind is MessageKind.SHARE_PUBLISH and msg.sender == candidate.id:
                x = candidate.id.x
                point = group.mul(receiver.id.x + 1000, group.generator)
                payload = encode_public_share(group, PublicShare(x, point))
                if group.kind != "toy" and receiver.id.x == t - 1:
                    payload = payload[:-1] + bytes([payload[-1] ^ 1])
                forged[receiver.label] = payload
                return replace(msg, payload=payload)
            return msg

        outcome, (encoded, decoded), _, _ = coded_inclusion(group, t, intercept)
        assert outcome == Outcome(False, "verification-failed")
        assert len(forged) == t - 1 and len(set(forged.values())) == t - 1
        # the guards' own t - 1 payloads and every forged one, once each
        assert len(encoded) == t
        assert len(decoded) == len(set(decoded)) == 2 * (t - 1)
        assert set(forged.values()) <= set(decoded)


def bulk(swarm, arrivals, transport):
    """Run a bulk admission; returns (the steps it waited on, outcome)."""
    steps = []
    transport.wait = steps.append
    return steps, bulk_flow(swarm, arrivals, transport)


class TestBulkFlow:
    def setup_batch(self, group, n, seed=40):
        rng = random.Random(seed)
        core = CoreNetwork(group, rng)
        swarm = core.provision_swarm("A", 4, n_drones=3)
        return swarm, [core.issue_candidate("A") for _ in range(n)]

    def test_honest_batch_accepted(self, toy61):
        swarm, arrivals = self.setup_batch(toy61, 5)
        transport = Transport()
        steps, outcome = bulk(swarm, arrivals, transport)
        assert outcome == Outcome(True)
        assert steps == ["broadcast"] * 5 + ["check"]
        entries = transport.transcript.entries
        assert [(e.time_us, e.kind, e.sender, e.receiver) for e in entries] == [
            (float(i), "SHARE_PUBLISH", a.label, "A/*")
            for i, a in enumerate(arrivals)]

    def test_forged_first_arrival_rejected(self, toy61):
        swarm, arrivals = self.setup_batch(toy61, 5)
        first = arrivals[0]
        bad_y = (first.private_share.y + 1) % toy61.field.order
        arrivals[0] = Drone(first.id, PrivateShare(first.id.x, bad_y))
        steps, outcome = bulk(swarm, arrivals, Transport())
        assert outcome == Outcome(False, "verification-failed")
        assert steps[-1] == "check"

    def test_empty_batch_needs_no_check(self, toy61):
        swarm, _ = self.setup_batch(toy61, 0)
        transport = Transport()
        assert bulk(swarm, [], transport) == ([], Outcome(True))
        assert transport.transcript.entries == []


class TestHotPathTypes:
    def test_drone_label_is_its_text_form(self):
        for swarm, x in (("A", 1), ("swarm-b", 4999), ("", 2**70)):
            drone_id = DroneId(swarm, x)
            assert drone_id.label == str(drone_id) == f"{swarm}/{x}"
            assert repr(drone_id) == f"DroneId(swarm={swarm!r}, x={x!r})"

    def test_label_takes_no_part_in_equality_or_hash(self):
        a, b = DroneId("A", 3), DroneId("A", 3)
        object.__setattr__(b, "label", "stale")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_builds_a_fresh_label(self):
        a = DroneId("A", 3)
        assert replace(a, x=7).label == "A/7"
        assert replace(a, swarm="B").label == "B/3"
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.label = "B/3"
        share = PrivateShare(3, 9)
        assert replace(share, y=10) == PrivateShare(x=3, y=10)
        with pytest.raises(InvalidIdentifier):
            replace(share, x=0)
        with pytest.raises(InvalidIdentifier):
            PrivateShare(0, 9)

    # DroneId, PrivateShare and ProtocolMessage write their own __init__;
    # every field stays frozen, and copies and pickles bypass __init__ yet
    # keep each field
    @pytest.mark.parametrize("obj, names", [
        (DroneId("A", 3), ("swarm", "x", "label")),
        (PrivateShare(3, 9), ("x", "y")),
        (ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1), b"n" * 16, b"p"),
         ("kind", "sender", "nonce", "payload")),
    ], ids=["DroneId", "PrivateShare", "ProtocolMessage"])
    def test_every_field_frozen(self, obj, names):
        assert tuple(f.name for f in dataclasses.fields(obj)) == names
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trips(self, copier):
        drone_id, share = DroneId("A", 3), PrivateShare(3, 9)
        cache = NonceCache()
        cache.check_and_store("B/1", b"n" * 16)
        drone = Drone(drone_id, share, group_key=5, nonce_cache=cache)
        msg = ProtocolMessage(MessageKind.AUTH_VERDICT, drone_id, b"n" * 16, b"p")
        for obj in (drone_id, share, drone, msg):
            twin = copier(obj)
            assert type(twin) is type(obj) and twin == obj
        assert hash(copier(drone_id)) == hash(drone_id)
        assert hash(copier(share)) == hash(share)
        assert hash(copier(msg)) == hash(msg)
        twin = copier(drone)
        assert twin.label == twin.id.label == "A/3"
        assert type(twin.nonce_cache) is NonceCache
        assert not twin.nonce_cache.check_and_store("B/1", b"n" * 16)

    def test_drone_holds_no_role(self):
        assert [f.name for f in dataclasses.fields(Drone)] == [
            "id", "private_share", "group_key", "nonce_cache"]

    def test_drone_label_reads_its_id(self, toy101):
        _, swarm = manual_swarm(toy101)
        guard = swarm.guards()[0]
        assert guard.label == "A/1"
        assert guard.label is guard.id.label

    def test_replace_builds_a_checked_message(self):
        # the man-in-the-middle swaps a payload through dataclasses.replace
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1), b"n" * 16, b"p")
        fake = replace(msg, payload=b"q")
        assert fake == ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1),
                                       b"n" * 16, b"q")
        assert msg.payload == b"p"
        with pytest.raises(ValueError, match="nonce must be 16 bytes"):
            replace(msg, nonce=b"n" * 15)
        assert ProtocolMessage(kind=msg.kind, sender=msg.sender, nonce=msg.nonce,
                               payload=msg.payload) == msg

    def test_recorded_rows_are_transcript_entries(self):
        transcript = AuthTranscript()
        transcript.record(1.5, "AUTH_VERDICT", "A/1", "A/2", b"p")
        transcript.record(2.0, "SHARE_PUBLISH", "A/2", "A/*", b"", note="replay-rejected")
        digest = hashlib.sha256(b"p").hexdigest()[:16]
        empty = hashlib.sha256(b"").hexdigest()[:16]
        assert transcript.entries == [
            TranscriptEntry(1.5, "AUTH_VERDICT", "A/1", "A/2", digest),
            TranscriptEntry(2.0, "SHARE_PUBLISH", "A/2", "A/*", empty, "replay-rejected")]
        assert all(type(e) is TranscriptEntry for e in transcript.entries)
        assert transcript.entries[0].note == ""

    def test_transcript_entry_fields_by_name_and_immutable(self):
        entry = TranscriptEntry(1.5, "AUTH_VERDICT", "A/1", "A/2", "ab" * 8)
        assert (entry.time_us, entry.kind, entry.sender, entry.receiver,
                entry.digest, entry.note) == (1.5, "AUTH_VERDICT", "A/1", "A/2",
                                              "ab" * 8, "")
        with pytest.raises(AttributeError):
            entry.note = "replay-rejected"


class TestTranscript:
    def test_outcome_set_once(self):
        transcript = AuthTranscript()
        transcript.set_outcome(Outcome(True))
        with pytest.raises(RuntimeError):
            transcript.set_outcome(Outcome(False, "again"))

    def test_deterministic_render_for_seed(self, toy61):
        def one_run():
            rng = random.Random(99)
            core = CoreNetwork(toy61, rng)
            swarm = core.provision_swarm("A", 3, n_drones=2)
            candidate = core.issue_candidate("A")
            _, transcript = run_inclusion(swarm, candidate, rng)
            return transcript.render()

        assert one_run() == one_run()

    def test_different_seeds_differ(self, toy61):
        def one_run(seed):
            rng = random.Random(seed)
            core = CoreNetwork(toy61, rng)
            swarm = core.provision_swarm("A", 3, n_drones=2)
            candidate = core.issue_candidate("A")
            _, transcript = run_inclusion(swarm, candidate, rng)
            return transcript.render()

        assert one_run(1) != one_run(2)

    def test_all_nonces_fresh(self, toy61):
        rng = random.Random(123)
        captured = []

        def intercept(msg, receiver):
            captured.append(msg)
            return msg

        core = CoreNetwork(toy61, rng)
        swarm = core.provision_swarm("A", 4, n_drones=3)
        candidate = core.issue_candidate("A")
        run_inclusion(swarm, candidate, rng, Transport(intercept=intercept))
        nonces = [m.nonce for m in captured]
        assert len(nonces) == len(set(nonces))


class TestMessageWire:
    def test_round_trip(self, rng):
        msg = ProtocolMessage(MessageKind.AUTH_VERDICT, DroneId("swarm-b", 12),
                              fresh_nonce(rng), b"accept")
        decoded = ProtocolMessage.from_bytes(msg.to_bytes())
        assert decoded == msg

    def test_fields_are_the_wire_fields(self):
        assert [f.name for f in dataclasses.fields(ProtocolMessage)] == [
            "kind", "sender", "nonce", "payload"]

    def test_kind_tag_leads(self, rng):
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1),
                              fresh_nonce(rng), b"p")
        assert msg.to_bytes()[0] == MessageKind.SHARE_PUBLISH.value

    @pytest.mark.parametrize("width", (0, 15, 17))
    def test_nonce_length_enforced(self, width):
        with pytest.raises(ValueError, match="nonce must be 16 bytes"):
            ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1),
                            bytes(width), b"p")

    def test_malformed_rejected(self):
        with pytest.raises(DecodeError):
            ProtocolMessage.from_bytes(b"")
        with pytest.raises(DecodeError):
            ProtocolMessage.from_bytes(bytes([99]) + bytes(40))

    def test_non_utf8_sender_rejected(self):
        data = bytes([2]) + b"\x00\x02\xff\xfe\x00\x01\x01" + bytes(16) + b"\x00\x00"
        with pytest.raises(DecodeError):
            ProtocolMessage.from_bytes(data)

    def test_over_long_field_names_the_limit(self, rng):
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1),
                              fresh_nonce(rng), bytes(65_536))
        with pytest.raises(ValueError, match="65535"):
            msg.to_bytes()
        limit = replace(msg, payload=bytes(65_535))
        assert ProtocolMessage.from_bytes(limit.to_bytes()) == limit

    # Valid length prefixes around arbitrary bytes (some of them exactly
    # as wide as a toy or curve scalar or point), mixed with raw runs
    # (nonce-sized and short), reach the decoders' inner checks; raw random
    # bytes mostly stop at the first length prefix.
    _widths = st.sampled_from((8, 32, 65)).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))
    _pieces = st.lists(st.one_of(st.binary(max_size=70).map(_lp),
                                 _widths.map(_lp),
                                 st.binary(min_size=16, max_size=16),
                                 st.binary(max_size=2)), max_size=6)

    @settings(max_examples=400)
    @given(kind=st.integers(0, 8), pieces=_pieces)
    def test_decoders_fail_typed(self, kind, pieces):
        data = bytes([kind]) + b"".join(pieces)
        for blob in (data, data[1:]):
            for group in GROUPS:
                decoders = (group.field.decode, group.decode,
                            lambda b: decode_private_share(group.field, b),
                            lambda b: decode_public_share(group, b),
                            ProtocolMessage.from_bytes)
                for decode in decoders:
                    try:
                        decode(blob)
                    except DecodeError:
                        pass


class TestProvisioning:
    @staticmethod
    def reference_swarm(group, rng, t, n):
        """provision_swarm("A", t, n) built share by share from the public
        pieces: (swarm, dealer, core share)."""
        poly = gen_polynomial(group.field, t, rng)
        dealer = Dealer(poly)
        drone_shares = [dealer.issue_next() for _ in range(n)]
        core_share = dealer.issue_at(n + 1)
        swarm = Swarm("A", group, t, group_commitment(poly, group),
                      public_share(core_share, group))
        for sh in drone_shares:
            swarm.add_drone(Drone(DroneId("A", sh.x), sh, group_key=poly.group_key))
        return swarm, dealer, core_share

    def check_against_reference(self, group, n, read_guards_first):
        t = 4
        core = CoreNetwork(group, random.Random(n))
        swarm = core.provision_swarm("A", t, n)
        ref_rng = random.Random(n)
        ref, ref_dealer, ref_core_share = self.reference_swarm(group, ref_rng, t, n)
        if read_guards_first:
            guards = swarm.guards()
            assert [g.id.x for g in guards] == list(range(1, min(n, t - 1) + 1))
            # the guards stay the drones that the table holds
            assert all(swarm.drones[g.id.x] is g for g in guards)
        assert list(swarm.drones) == list(ref.drones) == list(range(1, n + 1))
        for got, want in zip(swarm.drones.values(), ref.drones.values()):
            assert got.id == want.id and got.label == want.label
            assert got.private_share == want.private_share
            assert got.group_key == want.group_key
        assert swarm.guards() == ref.guards()
        assert swarm.commitment == ref.commitment
        assert swarm.core_public_share == ref.core_public_share
        assert core.core_identity("A") == DroneId("A", ref_core_share.x)
        assert (core.dealer("A").issued_identifiers()
                == ref_dealer.issued_identifiers())
        assert core.dealer("A").issue_next() == ref_dealer.issue_next()
        assert core.rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("n", (0, 1, 3, 50))
    def test_one_pass_equals_share_by_share(self, group, n):
        self.check_against_reference(group, n, read_guards_first=False)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("n", (0, 1, 3, 50))
    def test_guards_read_first_equal_share_by_share(self, group, n):
        self.check_against_reference(group, n, read_guards_first=True)

    def test_merge_builds_only_the_drones_it_reads(self, toy61, monkeypatch):
        # swarm A is rebroadcast to, so all of it is built; of swarm B only
        # the t - 1 guards are read; the designated guard's cross share
        # makes one more drone
        built = []

        def counting_drone(*args, **kwargs):
            drone = Drone(*args, **kwargs)
            built.append(drone.id)
            return drone

        monkeypatch.setattr(protocol, "Drone", counting_drone)
        rng = random.Random(23)
        core = CoreNetwork(toy61, rng)
        swarm_a = core.provision_swarm("A", 4, 50)
        swarm_b = core.provision_swarm("B", 4, 50)
        assert built == []
        outcome, _ = run_unification(swarm_a, swarm_b, core, rng)
        assert outcome.accepted
        assert len(built) == 50 + 3 + 1
        assert sorted(d.label for d in built if d.swarm == "B") == ["B/1", "B/2", "B/3"]

    def test_swarm_provisioned_once(self, toy61):
        core = CoreNetwork(toy61, random.Random(3))
        core.provision_swarm("A", 3, 2)
        with pytest.raises(DuplicateIdentifier, match="already provisioned"):
            core.provision_swarm("A", 3, 2)

    def test_at_most_four_tracked_objects_per_drone(self, toy61):
        # every object the cyclic GC tracks is one it walks on each pass
        n = 1000
        core = CoreNetwork(toy61, random.Random(3))
        gc.collect()
        gc.disable()
        try:
            before = gc.get_objects()  # kept alive, so no id is reused
            seen = {id(o) for o in before}
            # reading the table builds every drone
            assert len(core.provision_swarm("A", 5, n).drones) == n
            tracked = sum(id(o) not in seen for o in gc.get_objects())
        finally:
            gc.enable()
        assert tracked <= 4 * n


class TestCrossIssue:
    def test_response_decrypts_to_valid_share(self, toy61):
        rng = random.Random(8)
        core = CoreNetwork(toy61, rng)
        swarm_a = core.provision_swarm("A", 3, n_drones=2)
        core.provision_swarm("B", 3, n_drones=2)
        d_a = swarm_a.guards()[0]
        response = core.core_issue_cross_share(d_a.id, "B", rng)
        cross = _open_cross_share(toy61, swarm_a, d_a, response)
        dealer_b = core.dealer("B")
        assert cross.y == dealer_b.poly.evaluate(cross.x)

    def test_unknown_requester(self, toy61):
        rng = random.Random(8)
        core = CoreNetwork(toy61, rng)
        core.provision_swarm("A", 3, n_drones=2)
        core.provision_swarm("B", 3, n_drones=2)
        with pytest.raises(UnknownRequester):
            core.core_issue_cross_share(DroneId("A", 77), "B", rng)
        with pytest.raises(UnknownRequester):
            core.core_issue_cross_share(DroneId("nope", 1), "B", rng)

    def test_member_cannot_request(self, toy61):
        rng = random.Random(8)
        core = CoreNetwork(toy61, rng)
        swarm_a = core.provision_swarm("A", 3, n_drones=3)
        core.provision_swarm("B", 3, n_drones=2)
        member = swarm_a.members()[2]  # above the two guards
        with pytest.raises(UnknownRequester):
            core.core_issue_cross_share(member.id, "B", rng)

    def test_unknown_swarm(self, toy61):
        rng = random.Random(8)
        core = CoreNetwork(toy61, rng)
        swarm_a = core.provision_swarm("A", 3, n_drones=2)
        with pytest.raises(UnknownSwarm):
            core.core_issue_cross_share(swarm_a.guards()[0].id, "Z", rng)

    def test_issued_identifiers_never_collide(self, toy61):
        rng = random.Random(8)
        core = CoreNetwork(toy61, rng)
        swarm_a = core.provision_swarm("A", 3, n_drones=2)
        core.provision_swarm("B", 3, n_drones=5)
        d_a = swarm_a.guards()[0]
        existing = set(core.dealer("B").issued_identifiers())
        seen = set()
        for _ in range(20):
            response = core.core_issue_cross_share(d_a.id, "B", rng)
            cross = _open_cross_share(toy61, swarm_a, d_a, response)
            assert cross.x not in existing
            assert cross.x not in seen
            seen.add(cross.x)


class TestRunUnification:
    def setup_swarms(self, group, seed, threshold=4):
        rng = random.Random(seed)
        core = CoreNetwork(group, rng)
        swarm_a = core.provision_swarm("A", threshold, n_drones=threshold)
        swarm_b = core.provision_swarm("B", threshold, n_drones=threshold)
        return core, swarm_a, swarm_b, rng

    def test_three_plus_one_guards_accepts(self, toy61):
        # threshold 4: three guards of the verifying swarm plus the
        # designated guard carrying the cross-issued share
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 21)
        outcome, _ = run_unification(swarm_a, swarm_b, core, rng)
        assert outcome == Outcome(True)
        g0 = core.dealer("B").group_key
        for drone in list(swarm_a.members()) + list(swarm_b.members()):
            assert drone.group_key == g0

    def test_corrupted_cross_share_rejected(self, toy61):
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 22)
        d_a_label = str(swarm_a.guards()[0].id)

        def intercept(msg, receiver):
            if (msg.kind is MessageKind.SHARE_PUBLISH
                    and str(msg.sender) == d_a_label):
                share = decode_public_share(toy61, msg.payload)
                fake = PublicShare(share.x, toy61.add(share.point, 1))
                return replace(msg, payload=encode_public_share(toy61, fake))
            return msg

        outcome, _ = run_unification(swarm_a, swarm_b, core, rng,
                                     Transport(intercept=intercept))
        assert outcome == Outcome(False, "verification-failed")
        # swarm A members keep their original key
        assert all(d.group_key == core.dealer("A").group_key
                   for d in swarm_a.members())

    def test_tampered_cross_response_rejected(self, toy61):
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 23)

        def intercept(msg, receiver):
            if msg.kind is MessageKind.CROSS_ISSUE_RESPONSE:
                payload = bytearray(msg.payload)
                payload[0] ^= 1
                return replace(msg, payload=bytes(payload))
            return msg

        outcome, _ = run_unification(swarm_a, swarm_b, core, rng,
                                     Transport(intercept=intercept))
        assert outcome == Outcome(False, "cross-share-unusable")

    def test_self_merge_keeps_key(self, toy61):
        rng = random.Random(24)
        core = CoreNetwork(toy61, rng)
        swarm = core.provision_swarm("A", 3, n_drones=3)
        key_before = core.dealer("A").group_key
        outcome, _ = run_unification(swarm, swarm, core, rng)
        assert outcome == Outcome(True)
        assert all(d.group_key == key_before for d in swarm.members())

    def test_mutual_pass(self, toy61):
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 25)
        outcome, transcript = run_unification(swarm_a, swarm_b, core, rng,
                                              mutual=True)
        assert outcome == Outcome(True)
        # both directions issued a cross share
        requests = [e for e in transcript.entries
                    if e.kind == "CROSS_ISSUE_REQUEST"]
        assert len(requests) == 2

    def test_swarms_in_different_groups_rejected(self, toy61):
        core, swarm_a, _, rng = self.setup_swarms(toy61, 29)
        other = CoreNetwork(ToyGroup(61), rng).provision_swarm("B", 4, 4)
        with pytest.raises(ValueError, match="one group configuration"):
            run_unification(swarm_a, other, core, rng)

    def test_swarm_a_without_drones_rejected(self, toy61):
        core, _, swarm_b, rng = self.setup_swarms(toy61, 30)
        empty = core.provision_swarm("C", 4, 0)
        transport = Transport()
        with pytest.raises(NotEnoughGuards, match="swarm C has no guards"):
            run_unification(empty, swarm_b, core, rng, transport)
        assert transport.transcript.entries == []

    def test_designated_guard_without_key(self, toy61):
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 27)
        swarm_a.guards()[0].group_key = None
        transport = Transport()
        with pytest.raises(MissingGroupKey):
            run_unification(swarm_a, swarm_b, core, rng, transport)
        assert transport.transcript.entries == []

    def test_aead_contexts_constant_in_swarm_size(self, toy61, monkeypatch):
        # the party that derives a key builds its AES-GCM context: the core
        # and the designated guard for the cross-issue key, a swarm-B guard
        # and the designated guard for the key-return key, and the
        # rebroadcast one context for the relay key, whatever the swarm size
        built = []

        def counting_aesgcm(key):
            built.append(key)
            return AESGCM(key)

        monkeypatch.setattr(protocol, "AESGCM", counting_aesgcm)

        def merge(n):
            built.clear()
            rng = random.Random(28)
            core = CoreNetwork(toy61, rng)
            swarm_a = core.provision_swarm("A", 4, n_drones=n)
            swarm_b = core.provision_swarm("B", 4, n_drones=n)
            outcome, transcript = run_unification(swarm_a, swarm_b, core, rng)
            assert outcome == Outcome(True)
            broadcasts = [e for e in transcript.entries
                          if e.kind == "UNIFIED_KEY_BROADCAST"]
            assert len(broadcasts) == n - 1
            return list(built)

        for n in (200, 2000):
            first = merge(n)
            assert (len(first), len(set(first))) == (5, 3)
            # an identical second run builds every context again
            assert merge(n) == first

        built.clear()
        rng = random.Random(28)
        core = CoreNetwork(toy61, rng)
        swarm = core.provision_swarm("A", 4, n_drones=3)
        outcome, _ = run_inclusion(swarm, core.issue_candidate("A"), rng)
        assert outcome == Outcome(True)
        assert (len(built), len(set(built))) == (2, 1)

    def test_deterministic_transcript(self, toy61):
        def one_run():
            core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 26)
            _, transcript = run_unification(swarm_a, swarm_b, core, rng)
            return transcript.render()

        assert one_run() == one_run()


def truncated(msg, earlier):
    return replace(msg, payload=msg.payload[:-1])


def zero_identifier(msg, earlier):
    x_b, off = _read_lp(msg.payload, 0)
    return replace(msg, payload=_lp(bytes(len(x_b))) + msg.payload[off:])


def verdict_payload(msg, earlier):
    return replace(msg, payload=b"accept")


def rejecting(msg, earlier):
    return replace(msg, payload=b"reject")


def garbled(msg, earlier):
    return replace(msg, payload=b"\x00garbage")


def flipped_byte(msg, earlier):
    return replace(msg, payload=bytes([msg.payload[0] ^ 1]) + msg.payload[1:])


def replayed(msg, earlier):
    # the message the same receiver got just before: its (sender, nonce)
    # pair is already in the receiver's cache
    return earlier


class TargetedIntercept:
    """Mutates the index-th message of one kind, counted from 0, and passes
    every other message through."""

    def __init__(self, kind, index, mutate):
        self.kind, self.index, self.mutate = kind, index, mutate
        self.seen = 0
        self.hit = False
        self.last = {}  # receiver label -> the last message it was handed

    def __call__(self, msg, receiver):
        if msg.kind is self.kind:
            if self.seen == self.index:
                msg = self.mutate(msg, self.last.get(receiver.label))
                self.hit = True
            self.seen += 1
        self.last[receiver.label] = msg
        return msg


def run_with_intercept(group, flow, intercept):
    """An inclusion into a threshold-4 swarm of three guards, or a merge of
    two threshold-4 swarms of four drones, one-directional ("unification")
    or mutual ("mutual"); returns (outcome, transcript)."""
    rng = random.Random(41)
    core = CoreNetwork(group, rng)
    swarm_a = core.provision_swarm("A", 4, n_drones=3 if flow == "inclusion" else 4)
    transport = Transport(intercept=intercept)
    if flow == "inclusion":
        return run_inclusion(swarm_a, core.issue_candidate("A"), rng, transport)
    swarm_b = core.provision_swarm("B", 4, n_drones=4)
    return run_unification(swarm_a, swarm_b, core, rng, transport,
                           mutual=flow == "mutual")


class TestTargetedIntercepts:
    """Each row changes one message in flight and names the exact outcome
    the run must end in; no row may end the run with an exception. Share
    publishes 0-2 go to the three guards, and publish 3 is the first
    guard-to-guard exchange; in a mutual merge, publishes 0-8 belong to
    the first pass and 9-17 to the second. A verdict the publisher does
    not receive as a fresh ``accept`` fails the check like a guard's own
    rejection."""

    ROWS = [
        ("inclusion", MessageKind.SHARE_PUBLISH, 0, truncated, "verification-failed"),
        ("inclusion", MessageKind.SHARE_PUBLISH, 0, zero_identifier, "verification-failed"),
        ("inclusion", MessageKind.SHARE_PUBLISH, 0, verdict_payload, "verification-failed"),
        ("inclusion", MessageKind.SHARE_PUBLISH, 3, truncated, "verification-failed"),
        ("inclusion", MessageKind.SHARE_PUBLISH, 3, replayed, "verification-failed"),
        ("unification", MessageKind.SHARE_PUBLISH, 0, zero_identifier, "verification-failed"),
        ("unification", MessageKind.SHARE_PUBLISH, 3, verdict_payload, "verification-failed"),
        ("mutual", MessageKind.SHARE_PUBLISH, 12, zero_identifier,
         "mutual-verification-failed"),
        ("inclusion", MessageKind.AUTH_VERDICT, 0, rejecting, "verification-failed"),
        ("inclusion", MessageKind.AUTH_VERDICT, 2, garbled, "verification-failed"),
        ("inclusion", MessageKind.AUTH_VERDICT, 1, replayed, "verification-failed"),
        ("unification", MessageKind.AUTH_VERDICT, 0, rejecting, "verification-failed"),
        ("unification", MessageKind.AUTH_VERDICT, 2, garbled, "verification-failed"),
        ("unification", MessageKind.AUTH_VERDICT, 1, replayed, "verification-failed"),
        ("inclusion", MessageKind.KEY_AGREEMENT_INIT, 0, replayed, "key-delivery-failed"),
        ("inclusion", MessageKind.ENCRYPTED_GROUP_KEY, 0, flipped_byte, "key-delivery-failed"),
        ("inclusion", MessageKind.ENCRYPTED_GROUP_KEY, 0, replayed, "key-delivery-failed"),
        ("mutual", MessageKind.CROSS_ISSUE_RESPONSE, 1, replayed,
         "mutual-cross-issue-undelivered"),
        ("unification", MessageKind.ENCRYPTED_GROUP_KEY, 0, flipped_byte, "key-return-failed"),
        ("unification", MessageKind.UNIFIED_KEY_BROADCAST, 1, flipped_byte,
         "broadcast-tampered"),
        ("mutual", MessageKind.UNIFIED_KEY_BROADCAST, 0, replayed, "broadcast-rejected"),
    ]

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("flow, kind, index, mutate, reason", ROWS,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_row_ends_in_its_outcome(self, group, flow, kind, index, mutate, reason):
        intercept = TargetedIntercept(kind, index, mutate)
        outcome, transcript = run_with_intercept(group, flow, intercept)
        assert intercept.hit
        assert outcome == Outcome(False, reason)
        rendered = transcript.render()
        assert rendered.endswith(f"outcome rejected({reason})\n")
        notes = [line for line in rendered.splitlines() if " !" in line]
        assert len(notes) == (mutate is replayed)
        assert all(line.endswith(" !replay-rejected") for line in notes)

    # A merge rejected in the rebroadcast moves no member of swarm A to
    # swarm B's key, however many copies opened before the failing one.
    # The designated guard is A/1, so copy k goes to A/(k + 2).
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("mutual, t, sizes, index, mutate, reason", [
        # A/5's copy, in a merge of swarms of 8 and 6 at t = 3
        (False, 3, (8, 6), 3, flipped_byte, "broadcast-tampered"),
        # A/3's copy, replaced by the publish A/3 got from A/2 in the
        # mutual pass
        (True, 4, (4, 4), 1, replayed, "broadcast-rejected"),
    ], ids=["tampered", "replayed"])
    def test_rejected_rebroadcast_keeps_swarm_a_on_its_key(
            self, group, mutual, t, sizes, index, mutate, reason):
        rng = random.Random(41)
        core = CoreNetwork(group, rng)
        swarm_a = core.provision_swarm("A", t, n_drones=sizes[0])
        swarm_b = core.provision_swarm("B", t, n_drones=sizes[1])
        intercept = TargetedIntercept(MessageKind.UNIFIED_KEY_BROADCAST, index, mutate)
        outcome, _ = run_unification(swarm_a, swarm_b, core, rng,
                                     Transport(intercept=intercept), mutual=mutual)
        assert intercept.hit
        assert outcome == Outcome(False, reason)
        key_a, key_b = core.dealer("A").group_key, core.dealer("B").group_key
        assert key_a != key_b
        assert [d.group_key for d in swarm_a.members()] == [key_a] * sizes[0]
