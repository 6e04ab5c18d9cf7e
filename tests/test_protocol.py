"""Inclusion, key delivery, and unification flows on the toy group."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
    Role,
    Swarm,
    Transport,
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
    DuplicateIdentifier,
    GroupCommitment,
    GroupPolynomial,
    PrivateShare,
    PublicShare,
    _lp,
    decode_commitment,
    decode_private_share,
    decode_public_share,
    encode_public_share,
    group_commitment,
    issue_share,
    public_share,
)

GROUPS = (ToyGroup(), CurveGroup())


def manual_swarm(toy101):
    """f(x) = 5 + 7x over q=101, threshold 2, one guard at x=1."""
    poly = GroupPolynomial(toy101.field, (5, 7))
    commitment = group_commitment(poly, toy101)
    core_pub = public_share(issue_share(poly, 50), toy101)
    swarm = Swarm("A", toy101, 2, commitment, core_pub)
    guard = Drone(DroneId("A", 1), Role.GUARD, issue_share(poly, 1),
                  commitment, group_key=poly.group_key)
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


class TestAead:
    def test_round_trip(self, rng):
        key = bytes(32)
        nonce = fresh_nonce(rng)
        ct = seal(key, nonce, b"payload", b"aad")
        assert open_sealed(key, nonce, ct, b"aad") == b"payload"

    def test_wrong_key_fails(self, rng):
        nonce = fresh_nonce(rng)
        ct = seal(bytes(32), nonce, b"payload", b"aad")
        with pytest.raises(DecryptionFailed):
            open_sealed(b"\x01" * 32, nonce, ct, b"aad")

    def test_tampered_ciphertext_fails(self, rng):
        key = bytes(32)
        nonce = fresh_nonce(rng)
        ct = bytearray(seal(key, nonce, b"payload", b"aad"))
        ct[0] ^= 1
        with pytest.raises(DecryptionFailed):
            open_sealed(key, nonce, bytes(ct), b"aad")

    def test_aad_mismatch_fails(self, rng):
        key = bytes(32)
        nonce = fresh_nonce(rng)
        ct = seal(key, nonce, b"payload", b"aad")
        with pytest.raises(DecryptionFailed):
            open_sealed(key, nonce, ct, b"other")


class TestGroupKeyDelivery:
    def test_honest_round_trip(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        recipient = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                          issue_share(poly, 2), swarm.commitment)
        msg = deliver_group_key(toy101, guard, recipient.public_share(toy101),
                                recipient.label, rng)
        assert msg.kind is MessageKind.ENCRYPTED_GROUP_KEY
        recovered = open_group_key(toy101, recipient,
                                   guard.public_share(toy101), msg)
        assert recovered == 5

    def test_wrong_private_share_fails_auth(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        honest = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                       issue_share(poly, 2), swarm.commitment)
        msg = deliver_group_key(toy101, guard, honest.public_share(toy101),
                                honest.label, rng)
        impostor = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                         PrivateShare(2, 20), swarm.commitment)
        with pytest.raises(DecryptionFailed):
            open_group_key(toy101, impostor, guard.public_share(toy101), msg)

    def test_missing_group_key(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        keyless = Drone(DroneId("A", 9), Role.GUARD, issue_share(poly, 9),
                        swarm.commitment)
        with pytest.raises(MissingGroupKey):
            deliver_group_key(toy101, keyless,
                              keyless.public_share(toy101), "A/2", rng)

    def test_nonce_bound_in_aad(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        guard = swarm.drones[1]
        recipient = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                          issue_share(poly, 2), swarm.commitment)
        msg = deliver_group_key(toy101, guard, recipient.public_share(toy101),
                                recipient.label, rng)
        substituted = replace(msg, nonce=fresh_nonce(rng))
        with pytest.raises(DecryptionFailed):
            open_group_key(toy101, recipient, guard.public_share(toy101),
                           substituted)


class TestTransportFreshness:
    def test_replayed_message_rejected(self, toy101, rng):
        transport = Transport()
        receiver = Drone(DroneId("A", 1), Role.GUARD,
                         PrivateShare(1, 12), GroupCommitment(5))
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 2),
                              receiver.label, fresh_nonce(rng), b"data")
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
        candidate = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                          issue_share(poly, 2), swarm.commitment)
        outcome, transcript = run_inclusion(swarm, candidate, random.Random(1))
        assert outcome == Outcome(True)
        assert candidate.group_key == 5
        assert candidate.role is Role.MEMBER
        assert swarm.drones[2] is candidate
        kinds = [e.kind for e in transcript.entries]
        assert kinds == ["SHARE_PUBLISH", "AUTH_VERDICT",
                         "KEY_AGREEMENT_INIT", "ENCRYPTED_GROUP_KEY"]

    def test_bogus_share_rejected(self, toy101):
        poly, swarm = manual_swarm(toy101)
        candidate = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                          PrivateShare(2, 20), swarm.commitment)  # f(2) = 19
        outcome, _ = run_inclusion(swarm, candidate, random.Random(1))
        assert outcome == Outcome(False, "verification-failed")
        assert candidate.group_key is None
        assert 2 not in swarm.drones

    def test_not_enough_guards(self, toy101, rng):
        poly = GroupPolynomial(toy101.field, (5, 7, 3))  # t = 3 needs 2 guards
        commitment = group_commitment(poly, toy101)
        swarm = Swarm("A", toy101, 3, commitment,
                      public_share(issue_share(poly, 50), toy101))
        swarm.add_drone(Drone(DroneId("A", 1), Role.GUARD, issue_share(poly, 1),
                              commitment, group_key=poly.group_key))
        candidate = Drone(DroneId("A", 2), Role.NEW_ARRIVAL,
                          issue_share(poly, 2), commitment)
        with pytest.raises(NotEnoughGuards):
            run_inclusion(swarm, candidate, rng)

    def test_duplicate_identifier(self, toy101, rng):
        poly, swarm = manual_swarm(toy101)
        candidate = Drone(DroneId("A", 1), Role.NEW_ARRIVAL,
                          issue_share(poly, 2), swarm.commitment)
        with pytest.raises(DuplicateIdentifier):
            run_inclusion(swarm, candidate, rng)

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
            impostor = Drone(legit.id, Role.NEW_ARRIVAL,
                             PrivateShare(legit.id.x, bad_y), swarm.commitment)
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


def drain(flow):
    """Run a flow with no clock; returns (yielded steps, outcome)."""
    steps = []
    while True:
        try:
            steps.append(next(flow))
        except StopIteration as stop:
            return steps, stop.value


class TestBulkFlow:
    def setup_batch(self, group, n, seed=40):
        rng = random.Random(seed)
        core = CoreNetwork(group, rng)
        swarm = core.provision_swarm("A", 4, n_drones=3)
        return swarm, [core.issue_candidate("A") for _ in range(n)]

    def test_honest_batch_accepted(self, toy61):
        swarm, arrivals = self.setup_batch(toy61, 5)
        transport = Transport()
        steps, outcome = drain(bulk_flow(swarm, arrivals, transport))
        assert outcome == Outcome(True)
        assert steps == ["broadcast"] * 5 + ["check"]
        entries = transport.transcript.entries
        assert [(e.time_us, e.kind, e.sender, e.receiver) for e in entries] == [
            (float(i), "SHARE_PUBLISH", a.label, "A/*")
            for i, a in enumerate(arrivals)]

    def test_forged_first_arrival_rejected(self, toy61):
        swarm, arrivals = self.setup_batch(toy61, 5)
        first = arrivals[0]
        bad_y = toy61.field.add(first.private_share.y, 1)
        arrivals[0] = Drone(first.id, Role.NEW_ARRIVAL,
                            PrivateShare(first.id.x, bad_y), swarm.commitment)
        steps, outcome = drain(bulk_flow(swarm, arrivals, Transport()))
        assert outcome == Outcome(False, "verification-failed")
        assert steps[-1] == "check"

    def test_empty_batch_needs_no_check(self, toy61):
        swarm, _ = self.setup_batch(toy61, 0)
        transport = Transport()
        assert drain(bulk_flow(swarm, [], transport)) == ([], Outcome(True))
        assert transport.transcript.entries == []


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
                              "A/3", fresh_nonce(rng), b"accept")
        decoded = ProtocolMessage.from_bytes(msg.to_bytes(), receiver="A/3")
        assert decoded == msg

    def test_kind_tag_leads(self, rng):
        msg = ProtocolMessage(MessageKind.SHARE_PUBLISH, DroneId("A", 1),
                              "A/2", fresh_nonce(rng), b"p")
        assert msg.to_bytes()[0] == MessageKind.SHARE_PUBLISH.value

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
                              "A/2", fresh_nonce(rng), bytes(65_536))
        with pytest.raises(ValueError, match="65535"):
            msg.to_bytes()
        limit = replace(msg, payload=bytes(65_535))
        assert ProtocolMessage.from_bytes(limit.to_bytes(), "A/2") == limit

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
                            lambda b: decode_commitment(group, b),
                            ProtocolMessage.from_bytes)
                for decode in decoders:
                    try:
                        decode(blob)
                    except DecodeError:
                        pass


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
        swarm_a = core.provision_swarm("A", 3, n_drones=3, n_guards=2)
        core.provision_swarm("B", 3, n_drones=2)
        member = [d for d in swarm_a.members() if d.role is Role.MEMBER][0]
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
    def setup_swarms(self, group, seed, threshold=4, guards=3):
        rng = random.Random(seed)
        core = CoreNetwork(group, rng)
        swarm_a = core.provision_swarm("A", threshold, n_drones=guards + 1,
                                       n_guards=guards)
        swarm_b = core.provision_swarm("B", threshold, n_drones=guards + 1,
                                       n_guards=guards)
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
        swarm = core.provision_swarm("A", 3, n_drones=3, n_guards=2)
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

    def test_designated_guard_without_key(self, toy61):
        core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 27)
        swarm_a.guards()[0].group_key = None
        transport = Transport()
        with pytest.raises(MissingGroupKey):
            run_unification(swarm_a, swarm_b, core, rng, transport)
        assert transport.transcript.entries == []

    def test_deterministic_transcript(self, toy61):
        def one_run():
            core, swarm_a, swarm_b, rng = self.setup_swarms(toy61, 26)
            _, transcript = run_unification(swarm_a, swarm_b, core, rng)
            return transcript.render()

        assert one_run() == one_run()
