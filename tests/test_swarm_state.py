"""A stateful test of swarm membership on the toy group.

Rules provision swarms, run inclusions, one-way and mutual merges and bulk
runs, and read a swarm's table through ``guards()``, ``members()`` or
``drones``. An inclusion or a merge may run over a transport that drops,
replays or tampers with the k-th delivery of one kind of message; a bulk
run delivers nothing, so it runs unfaulted. A shadow of every swarm is
built eagerly, share by share, at provisioning and changes only as an
accepted run says it must; after every rule each swarm's table must equal
its shadow. So a rejected run changes no member's key and no swarm's
drones, and whatever a swarm has read so far, its drones are the ones
eager provisioning builds.
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
    """A transport that drops the k-th delivery of one kind of message,
    counted from 0 (the receiver never gets it), replaces it with the
    message delivered just before it, or flips its first payload byte.
    ``fault`` is None or (action, kind, k)."""

    def __init__(self, fault):
        super().__init__()
        self.fault = fault
        self.seen = 0
        self.last = None

    def deliver(self, msg, receiver):
        if self.fault is not None and msg.kind is self.fault[1]:
            action, _, k = self.fault
            if self.seen == k:
                if action == "drop":
                    return None
                if action == "replay" and self.last is not None:
                    msg = self.last
                elif action == "tamper" and msg.payload:
                    msg = replace(msg, payload=bytes([msg.payload[0] ^ 1]) + msg.payload[1:])
            self.seen += 1
        self.last = msg
        return super().deliver(msg, receiver)


def row(drone):
    return drone.id, drone.label, drone.private_share, drone.group_key


class SwarmMachine(RuleBasedStateMachine):
    swarms = Bundle("swarms")

    @initialize(target=swarms, seed=st.integers(0, 2**32 - 1),
                thresholds=st.tuples(st.integers(2, 4), st.integers(2, 4)))
    def start(self, seed, thresholds):
        self.rng = random.Random(seed)
        self.core = CoreNetwork(GROUP, self.rng)
        # swarm id -> {x: row of the drone}, in table order
        self.shadow = {}
        # two swarms to merge from the first step on
        return multiple(*(self.provision(t, 3) for t in thresholds))

    def key_of(self, swarm_id):
        return next(iter(self.shadow[swarm_id].values()))[3]

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
        outcome, _ = run_inclusion(swarm, candidate, self.rng, FaultyTransport(fault))
        event(f"inclusion {outcome}")
        if outcome.accepted:
            assert candidate.group_key == self.key_of(swarm_id)
            assert swarm.drones[candidate.id.x] is candidate
            self.shadow[swarm_id][candidate.id.x] = row(candidate)
        else:
            assert candidate.group_key is None

    @rule(a=swarms, b=swarms, mutual=st.booleans(), fault=FAULTS)
    def merge(self, a, b, mutual, fault):
        assume(a != b)
        swarm_a, swarm_b = self.core.swarms[a], self.core.swarms[b]
        key_b = self.key_of(b)
        outcome, _ = run_unification(swarm_a, swarm_b, self.core, self.rng,
                                     FaultyTransport(fault), mutual=mutual)
        event(f"{'mutual ' * mutual}merge {outcome}")
        if outcome.accepted:
            assert all(m.group_key == key_b for m in swarm_a.members())
            self.shadow[a] = {x: (*r[:3], key_b) for x, r in self.shadow[a].items()}

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
            got, want = list(swarm.drones.values()), list(shadow)
        assert [row(d) for d in got] == [shadow[x] for x in want]

    @invariant()
    def tables_equal_shadows(self):
        # read the table without building it, so that what is left unbuilt
        # stays unbuilt for the next rule
        for swarm_id, shadow in self.shadow.items():
            swarm = self.core.swarms[swarm_id]
            built, unbuilt = swarm._table, swarm._unbuilt
            assert list(built) + unbuilt == list(shadow)
            assert all(row(d) == shadow[x] for x, d in built.items())
            # every member holds one key, and while a drone is unbuilt no
            # key has moved from the one it would be built with
            keys = {r[3] for r in shadow.values()}
            assert len(keys) == 1
            if unbuilt:
                assert keys == {self.core.dealer(swarm_id).group_key}


SwarmMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25)
TestSwarmMachine = SwarmMachine.TestCase
