"""A stateful test of swarm membership on the toy group.

Rules provision swarms, run inclusions, one-way and mutual merges and bulk
runs, admit a drone straight through ``add_drone``, and read a swarm's
table through ``guards()``, ``members()`` or ``drones``. An inclusion or
a merge may run over a transport that drops, replays or tampers with the
k-th delivery of one kind of message, each rebroadcast copy included; a
bulk run delivers nothing, so it runs unfaulted. A shadow of every swarm
is built eagerly, share by share, at provisioning and changes only as an
accepted run says it must; after every rule each swarm's built drones
must equal their shadow rows, each unbuilt identifier must be one whose
drone a build would give its shadow's key, every built drone must hold
the swarm's one receipt set, and every receipt in it must be scoped by a
member's label. So a rejected run changes no member's key and no swarm's
drones, and whatever a swarm has read, admitted or been merged onto so
far, its drones are the ones eager provisioning and the same runs build.
After every inclusion and merge, each message any run so far passed on
is delivered again to its receiver and must be rejected as a replay, so
no receipt is lost when a drone is built, admitted or merged.
"""

import random
from dataclasses import replace

from hypothesis import assume, event, settings, strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, initialize, invariant, multiple, rule)

from swarmauth.algebra import ToyGroup
from swarmauth.protocol import (
    CoreNetwork,
    Drone,
    DroneId,
    MessageKind,
    Transport,
    bulk_flow,
    run_inclusion,
    run_unification,
)
from swarmauth.shares import issue_share

GROUP = ToyGroup()

FAULTS = st.none() | st.tuples(st.sampled_from(("drop", "replay", "tamper")),
                               st.sampled_from(MessageKind), st.integers(0, 5))


class FaultyTransport(Transport):
    """A transport whose intercept hook drops the k-th delivery of one kind
    of message, counted from 0 (the receiver never gets it), replaces it
    with the message delivered just before it, or flips its first payload
    byte. The hook sees every delivery, each rebroadcast copy included.
    ``fault`` is None or (action, kind, k). ``passed`` lists each
    (message, receiver) the hook passes on."""

    def __init__(self, fault):
        super().__init__(intercept=self.inject)
        self.fault = fault
        self.seen = 0
        self.last = None
        self.passed = []

    def inject(self, msg, receiver):
        if self.fault is not None and msg.kind is self.fault[1]:
            action, _, k = self.fault
            hit = self.seen == k
            self.seen += 1
            if hit:
                if action == "drop":
                    return None
                if action == "replay" and self.last is not None:
                    msg = self.last
                elif action == "tamper" and msg.payload:
                    msg = replace(msg, payload=bytes([msg.payload[0] ^ 1]) + msg.payload[1:])
        self.last = msg
        self.passed.append((msg, receiver))
        return msg


def row(drone):
    return drone.id, drone.label, drone.private_share, drone.group_key


def late_key(swarm, x):
    """The key that building the unbuilt identifier x would give its drone:
    the one key the swarm holds for its unbuilt members."""
    assert x in swarm.unbuilt
    return swarm._member_key


def receipt_owners(swarm):
    """The labels whose receipts the swarm's set holds; each key is scoped
    by its receiver's framed label."""
    return {key[2:2 + int.from_bytes(key[:2], "big")].decode() for key in swarm._receipts}


class SwarmMachine(RuleBasedStateMachine):
    swarms = Bundle("swarms")

    @initialize(target=swarms, seed=st.integers(0, 2**32 - 1),
                thresholds=st.tuples(st.integers(2, 4), st.integers(2, 4)))
    def start(self, seed, thresholds):
        self.rng = random.Random(seed)
        self.core = CoreNetwork(GROUP, self.rng)
        # every (message, receiver) a faulty transport passed on
        self.passed = []
        # swarm id -> {x: row of the drone}
        self.shadow = {}
        # two swarms to merge from the first step on
        return multiple(*(self.provision(t, 3) for t in thresholds))

    def key_of(self, swarm_id):
        return next(iter(self.shadow[swarm_id].values()))[3]

    def replays_rejected(self, transport):
        """Deliver again every message passed on so far, this run's too:
        each receiver must still hold its receipt."""
        self.passed += transport.passed
        replay = Transport()
        assert all(replay.deliver(msg, receiver) is None for msg, receiver in self.passed)

    @rule(target=swarms, threshold=st.integers(2, 4), extra=st.integers(0, 5))
    def provision_swarm(self, threshold, extra):
        return self.provision(threshold, extra)

    def provision(self, threshold, extra):
        swarm_id = f"S{len(self.shadow)}"
        n = threshold - 1 + extra
        self.core.provision_swarm(swarm_id, threshold, n)
        poly = self.core.dealer(swarm_id).poly
        self.shadow[swarm_id] = {
            x: row(Drone(DroneId(swarm_id, x), issue_share(poly, x), poly.group_key))
            for x in range(1, n + 1)}
        return swarm_id

    @rule(swarm_id=swarms, fault=FAULTS)
    def include(self, swarm_id, fault):
        swarm = self.core.swarms[swarm_id]
        candidate = self.core.issue_candidate(swarm_id)
        transport = FaultyTransport(fault)
        outcome, _ = run_inclusion(swarm, candidate, self.rng, transport)
        event(f"inclusion {outcome}")
        if outcome.accepted:
            assert candidate.group_key == self.key_of(swarm_id)
            assert swarm.drones[candidate.id.x] is candidate
            self.shadow[swarm_id][candidate.id.x] = row(candidate)
        else:
            assert candidate.group_key is None
        self.replays_rejected(transport)

    @rule(a=swarms, b=swarms, mutual=st.booleans(), fault=FAULTS)
    def merge(self, a, b, mutual, fault):
        assume(a != b)
        swarm_a, swarm_b = self.core.swarms[a], self.core.swarms[b]
        key_b = self.key_of(b)
        transport = FaultyTransport(fault)
        outcome, _ = run_unification(swarm_a, swarm_b, self.core, self.rng,
                                     transport, mutual=mutual)
        event(f"{'mutual ' * mutual}merge {outcome}")
        if outcome.accepted:
            # read without building, so swarm A stays unbuilt
            assert all(d.group_key == key_b for d in swarm_a._table.values())
            assert not swarm_a.unbuilt or swarm_a._member_key == key_b
            if swarm_a._unbuilt:
                event("merged with members unbuilt")
            self.shadow[a] = {x: (*r[:3], key_b) for x, r in self.shadow[a].items()}
        self.replays_rejected(transport)

    @rule(swarm_id=swarms)
    def admit(self, swarm_id):
        # a fresh drone that holds the swarm's key, taken in without a
        # check, maybe before the swarm has built any drone
        drone = self.core.issue_candidate(swarm_id)
        drone.group_key = self.key_of(swarm_id)
        self.core.swarms[swarm_id].add_drone(drone)
        self.shadow[swarm_id][drone.id.x] = row(drone)

    @rule(swarm_id=swarms, arrivals=st.integers(0, 4))
    def bulk(self, swarm_id, arrivals):
        # today a bulk run admits nobody, so the shadow does not change
        swarm = self.core.swarms[swarm_id]
        batch = [self.core.issue_candidate(swarm_id) for _ in range(arrivals)]
        assert bulk_flow(swarm, batch, Transport()).accepted
        assert all(d.group_key is None for d in batch)

    @rule(swarm_id=swarms, how=st.sampled_from(("guards", "members", "drones")))
    def read(self, swarm_id, how):
        swarm = self.core.swarms[swarm_id]
        shadow = self.shadow[swarm_id]
        if how == "guards":
            got, want = swarm.guards(), sorted(shadow)[:swarm.threshold - 1]
        elif how == "members":
            got, want = swarm.members(), sorted(shadow)
        else:
            got, want = [d for _, d in sorted(swarm.drones.items())], sorted(shadow)
        assert [row(d) for d in got] == [shadow[x] for x in want]

    @invariant()
    def tables_equal_shadows(self):
        # read the table without building it, so that what is left unbuilt
        # stays unbuilt for the next rule
        for swarm_id, shadow in self.shadow.items():
            swarm = self.core.swarms[swarm_id]
            built, unbuilt = swarm._table, swarm._unbuilt
            assert sorted([*built, *unbuilt]) == sorted(shadow)
            assert all(row(d) == shadow[x] for x, d in built.items())
            # every member holds one key, and a drone built now would be
            # built with it
            keys = {r[3] for r in shadow.values()}
            assert len(keys) == 1
            assert all(late_key(swarm, x) == shadow[x][3] for x in unbuilt)
            # one receipt set holds every member's receipts, and no one
            # else's: each is scoped by a member's label, which names an
            # identifier the swarm's dealer issued
            assert all(d.nonce_cache is swarm._receipts for d in built.values())
            assert receipt_owners(swarm) <= {f"{swarm_id}/{x}" for x in shadow}


SwarmMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25)
TestSwarmMachine = SwarmMachine.TestCase
