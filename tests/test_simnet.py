"""Latency model, closed forms, event loop, transport clock, scenarios, and
adversaries."""

import collections
import hashlib
import math
import os
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from swarmauth import algebra, baseline5g, protocol, simnet
from swarmauth.algebra import ToyGroup
from swarmauth.protocol import MessageKind, Outcome, Transport
from swarmauth.shares import GroupPolynomial, decode_public_share
from swarmauth.simnet import (
    ADVERTISED_PREFERABLE_BOUND,
    Adversary,
    ConfigError,
    EventLoop,
    LatencyModel,
    ScenarioConfig,
    TimingReport,
    baseline_total_us,
    crossover_report,
    inject_adversary,
    parse_config,
    parse_duration,
    run_scenario,
    time_bulk_admission,
    time_group_auth,
)

LATENCY_FIELDS = ("ue_core_round_trip", "asym_encrypt", "asym_decrypt",
                  "hash_op", "drone_to_drone", "ec_point_mul")
CONFIG_KEYS = ("scenario", "threshold", "n_drones", "seed", "adversary",
               "group", "parallel_guards", "guards", *LATENCY_FIELDS)
CONFIG_VALUES = ("inclusion", "unification", "bulk", "nr5g", "toy",
                 "production", "none", "replay", "eavesdrop", "mitm", "true",
                 "false", "0", "1", "2", "-1", "600us", "1.5ms", "-0us",
                 "1e400ms", "nanms", "infus", "-infms",
                 "9" * 5000)  # past int()'s default digit limit


def toy_config(**kwargs):
    kwargs.setdefault("group", "toy")
    return ScenarioConfig(**kwargs)


class TestLatencyModel:
    def test_defaults(self):
        m = LatencyModel()
        assert m.ue_core_round_trip == 10_000.0
        assert m.asym_encrypt == 100.0
        assert m.asym_decrypt == 1_500.0
        assert m.hash_op == 0.0
        assert m.drone_to_drone == 600.0
        assert m.ec_point_mul == 612.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(hash_op=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(ConfigError, match="drone_to_drone"):
            LatencyModel(drone_to_drone=value)


class TestParseDuration:
    def test_units(self):
        assert parse_duration("600us") == 600.0
        assert parse_duration("1.5ms") == 1500.0
        assert parse_duration("10ms") == 10_000.0
        assert parse_duration("0us") == 0.0

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_duration("600")  # missing unit
        with pytest.raises(ConfigError):
            parse_duration("fastms")
        with pytest.raises(ConfigError):
            parse_duration("10s")


class TestParseConfig:
    def test_full_config(self):
        config = parse_config("""
            # comparison run
            scenario = inclusion
            threshold = 7
            n_drones = 6
            seed = 12
            adversary = none
            group = toy
            drone_to_drone = 500us
            ec_point_mul = 1.0ms
        """)
        assert config.scenario == "inclusion"
        assert config.threshold == 7
        assert config.n_drones == 6
        assert config.seed == 12
        assert config.group == "toy"
        assert config.latency.drone_to_drone == 500.0
        assert config.latency.ec_point_mul == 1000.0
        assert config.latency.asym_decrypt == 1500.0  # untouched default

    def test_defaults_fill_in(self):
        config = parse_config("scenario = nr5g")
        assert config.threshold == 5
        assert config.n_drones is None
        assert config.adversary == "none"

    def test_bulk_default_count(self):
        assert parse_config("scenario = bulk").n_drones == 100

    def test_readme_config_parses(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_config(block)
        assert (config.scenario, config.threshold, config.n_drones) == (
            "inclusion", 5, 4)
        assert config.latency.ec_point_mul == 612.0

    @pytest.mark.parametrize("text,needle", [
        ("threshold = 5", "scenario"),                      # missing scenario
        ("scenario = warp", "scenario"),                    # unknown scenario
        ("scenario = nr5g\nwarp = 1", "warp"),              # unknown key
        ("scenario = nr5g\nthreshold = abc", "threshold"),  # bad int
        ("scenario = nr5g\nhash_op = fast", "hash_op"),     # bad duration
        ("scenario = nr5g\nseed = 1\nseed = 2", "seed"),    # duplicate
        ("scenario = nr5g\nadversary = replay", "adversary"),  # wrong scenario
        ("scenario = inclusion\nadversary = troll", "adversary"),
        ("scenario = inclusion\nthreshold = 1", "threshold"),
        # guards is not a key: the guards are the t-1 lowest identifiers
        ("scenario = inclusion\nguards = 0", "guards"),
        ("scenario = inclusion\nthreshold = 5\nguards = 3", "guards"),
        ("scenario = unification\nthreshold = 4\nguards = 2", "guards"),
        ("scenario = nr5g\nhash_op = nanms", "hash_op"),
        ("scenario = inclusion\nec_point_mul = infms", "ec_point_mul"),
        ("scenario = inclusion\nguards = 4\nn_drones = 2", "guards"),
        ("scenario = inclusion\nthreshold = 4\nn_drones = 2", "n_drones"),
        ("scenario = bulk\nn_drones = -1", "n_drones"),
        ("scenario = nr5g\ngroup = weird", "group"),
        ("scenario = bulk\nparallel_guards = true", "parallel_guards"),
        ("scenario = nr5g\nparallel_guards = true", "parallel_guards"),
        ("scenario = nr5g\nguards = 3", "guards"),
        ("n_drones = 10\nscenario = nr5g", "n_drones"),
        ("scenario = bulk\nthreshold = 5\nguards = 3", "guards"),
        ("scenario: nr5g", "key = value"),                  # wrong separator
    ])
    def test_diagnostics_name_the_field(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    @settings(max_examples=300)
    @given(lines=st.lists(st.tuples(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=12),
        st.sampled_from(CONFIG_VALUES)
        | st.integers(-10**4000, 10**4000).map(str)
        | st.builds("{}{}".format,
                    st.floats() | st.sampled_from(["1e400", "-0", "nan", ""]),
                    st.sampled_from(["us", "ms", "s", ""]))
        | st.text(max_size=20)), max_size=8))
    def test_fails_only_with_config_error(self, lines):
        text = "\n".join(f"{key} = {value}" for key, value in lines)
        try:
            config = parse_config(text)
        except ConfigError:
            return
        assert isinstance(config, ScenarioConfig)

    @pytest.mark.parametrize("n_drones", [0, 3])
    def test_nr5g_object_rejects_n_drones(self, n_drones):
        with pytest.raises(ConfigError, match="n_drones"):
            ScenarioConfig(scenario="nr5g", n_drones=n_drones)

    @pytest.mark.parametrize("fields, text", [
        ({"scenario": "warp"}, "scenario: must be one of ('inclusion', "
         "'unification', 'nr5g', 'bulk'), got 'warp'"),
        ({"scenario": "bulk", "adversary": "replay"}, "adversary: mode 'replay' "
         "requires an inclusion or unification scenario"),
        ({"scenario": "nr5g", "adversary": "mitm"}, "adversary: mode 'mitm' "
         "requires an inclusion or unification scenario"),
        ({"scenario": "nr5g", "n_drones": 3}, "n_drones: does not apply to nr5g, "
         "which authenticates one UE"),
        ({"scenario": "bulk", "parallel_guards": True}, "parallel_guards: applies "
         "to inclusion and unification only, not bulk"),
        ({"scenario": "nr5g", "parallel_guards": True}, "parallel_guards: applies "
         "to inclusion and unification only, not nr5g"),
        ({"scenario": "inclusion", "threshold": 4, "n_drones": 2}, "n_drones: a "
         "threshold-4 check needs 3 guards, got a swarm of 2"),
        ({"scenario": "unification", "threshold": 6, "n_drones": 0}, "n_drones: a "
         "threshold-6 check needs 5 guards, got a swarm of 0"),
        ({"scenario": "inclusion", "latency": LatencyModel(ec_point_mul=1e308)},
         "latency field ec_point_mul: (n_drones + 2 * threshold + 3) * 1e+308us "
         "reaches 2**1023us: modeled times may overflow"),
    ], ids=["unknown-scenario", "adversary-on-bulk", "adversary-on-nr5g",
            "n_drones-on-nr5g", "parallel-on-bulk", "parallel-on-nr5g",
            "few-guards-inclusion", "few-guards-unification", "latency-overflow"])
    def test_scenario_dependent_errors_exact_text(self, fields, text):
        with pytest.raises(ConfigError) as raised:
            ScenarioConfig(**fields)
        assert str(raised.value) == text

    def test_unknown_scenario_lists_the_names_in_scenarios(self):
        with pytest.raises(ConfigError) as raised:
            ScenarioConfig(scenario="warp")
        assert str(tuple(simnet.SCENARIOS)) in str(raised.value)

    @pytest.mark.parametrize("scenario, t, n_drones", [
        ("bulk", 2, 100), ("bulk", 7, 100), ("inclusion", 2, 1),
        ("inclusion", 7, 6), ("unification", 3, 2), ("unification", 6, 5),
        ("nr5g", 5, None)])
    def test_default_n_drones(self, scenario, t, n_drones):
        assert ScenarioConfig(scenario=scenario, threshold=t).n_drones == n_drones

    @settings(max_examples=300, deadline=None)
    @given(scenario=st.sampled_from(["inclusion", "unification", "nr5g", "bulk"]),
           t=st.integers(2, 6), n_drones=st.none() | st.integers(0, 8),
           parallel=st.booleans(),
           durations=st.fixed_dictionaries(
               {}, optional={name: st.floats(0, 1e306) | st.floats(1e300, 1e304)
                         for name in LATENCY_FIELDS}))
    def test_modeled_times_are_finite_or_config_error(self, scenario, t, n_drones,
                                                      parallel, durations):
        lines = [f"scenario = {scenario}", f"threshold = {t}", "group = toy",
                 f"parallel_guards = {str(parallel).lower()}",
                 *(f"{name} = {ms!r}ms" for name, ms in durations.items())]
        if n_drones is not None:
            lines.append(f"n_drones = {n_drones}")
        try:
            config = parse_config("\n".join(lines))
        except ConfigError:
            return
        report, transcript = run_scenario(config)
        assert math.isfinite(report.total_us)
        assert all(math.isfinite(entry.time_us) for entry in transcript.entries)

    def test_overflow_bound_is_n_plus_2t_plus_3_latency_values(self):
        # n = 1, t = 2: the bound is 8 times the largest value; a unification's
        # clock sums ue_core_round_trip + 4 drone_to_drone + 2 ec_point_mul
        fields = ("ue_core_round_trip", "drone_to_drone", "ec_point_mul")
        at_bound = 2.0 ** 1023 / 8
        with pytest.raises(ConfigError, match="^latency field ue_core_round_trip: "):
            toy_config(scenario="unification", threshold=2, n_drones=1,
                       latency=LatencyModel(**dict.fromkeys(fields, at_bound)))
        below = LatencyModel(**dict.fromkeys(fields, math.nextafter(at_bound, 0)))
        report, transcript = run_scenario(toy_config(
            scenario="unification", threshold=2, n_drones=1, latency=below))
        assert report.outcome == "accepted"
        assert math.isfinite(report.total_us)
        assert math.isfinite(transcript.entries[-1].time_us)

    @pytest.mark.parametrize("group", ["toy", "production"])
    @pytest.mark.parametrize("scenario, extra", [
        ("inclusion", 2), ("unification", 2), ("bulk", 5)])
    def test_identifier_limit(self, group, scenario, extra):
        # the run issues n_drones + extra identifiers, all below q; the
        # largest accepted swarm is only built, never run
        q = simnet.make_group(group).order
        n = q - extra
        with pytest.raises(ConfigError) as raised:
            ScenarioConfig(scenario=scenario, group=group, n_drones=n)
        assert str(raised.value) == (
            f"n_drones: {scenario} with {n} drones issues {q} identifiers, "
            f"but only {q - 1} lie below the {group} group's order")
        assert ScenarioConfig(scenario=scenario, group=group, n_drones=n - 1).n_drones == n - 1


class TestEventLoop:
    def test_orders_by_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(5.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: fired.append("early"))
        loop.run()
        assert fired == ["early", "late"]
        assert loop.now_us == 5.0

    def test_ties_break_by_insertion(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(2.0, lambda tag=tag: fired.append(tag))
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_relative(self):
        loop = EventLoop()
        times = []

        def chain():
            times.append(loop.now_us)
            if len(times) < 3:
                loop.schedule_at(loop.now_us + 10.0, chain)

        loop.schedule_at(0.0, chain)
        loop.run()
        assert times == [0.0, 10.0, 20.0]


STEPS = ("hop", "round", "verdict")
# a wait names its step; "record" and "deliver" stamp a transcript entry
CLOCK_EVENTS = st.lists(st.sampled_from((*STEPS, "record", "deliver")), max_size=80)


def run_clock(costs, events):
    """Play waits, records and deliveries on a transport with ``costs``;
    returns the exact sum of the costs waited before each entry, and the
    entries' stamps."""
    transport = Transport(costs=costs)
    receiver = SimpleNamespace(label="A/2", nonce_cache=None)
    sender = protocol.DroneId("A", 1)
    elapsed, sums = Fraction(0), []
    for i, event in enumerate(events):
        if event in STEPS:
            transport.wait(event)
            elapsed += costs[event] if costs else 0
            continue
        if event == "record":
            transport.record("HOP", "a", "b", b"")
        else:
            msg = protocol.ProtocolMessage(MessageKind.SHARE_PUBLISH, sender,
                                           i.to_bytes(16, "big"), b"")
            assert transport.deliver(msg, receiver) is msg
        sums.append(elapsed)
    return sums, [e.time_us for e in transport.transcript.entries]


class TestTransportClock:
    """The modeled clock a transport keeps for the flows."""

    @settings(max_examples=80)
    @given(tenths=st.lists(st.integers(0, 99), min_size=3, max_size=3),
           events=CLOCK_EVENTS)
    def test_stamps_are_the_exact_sums_of_the_waits(self, tenths, events):
        # one-decimal costs are not binary fractions, so a running float
        # sum of them would drift from the exact one
        costs = {step: Fraction(k / 10) for step, k in zip(STEPS, tenths)}
        sums, stamps = run_clock(costs, events)
        assert stamps == [float(total) for total in sums]

    @given(events=CLOCK_EVENTS)
    def test_without_costs_stamps_count_the_entries(self, events):
        _, stamps = run_clock(None, events)
        assert stamps == [float(i) for i in range(len(stamps))]

    def test_thousand_hops_of_a_tenth_us_end_at_100us(self):
        # 1000 float additions of 0.1 us drift to 99.9999999999986
        config = toy_config(scenario="inclusion",
                            latency=LatencyModel(drone_to_drone=0.1))
        transport = Transport(costs=simnet._costs(config))
        for _ in range(1000):
            transport.wait("hop")
            transport.record("HOP", "a", "b", b"")
        assert transport.transcript.entries[-1].time_us == 100.0


class TestClosedForms:
    def test_baseline_default(self):
        assert baseline_total_us(LatencyModel()) == 21_600.0

    def test_baseline_with_hash_cost(self):
        assert baseline_total_us(LatencyModel(hash_op=200.0)) == 22_000.0

    def test_group_auth_law(self):
        m = LatencyModel()
        for t in range(2, 21):
            assert time_group_auth(t, m) == pytest.approx(1212.0 * t)
        assert time_group_auth(5, m) == 6_060.0
        assert time_group_auth(10, m) == 12_120.0
        assert time_group_auth(2, m) == 2_424.0

    def test_group_auth_threshold_guard(self):
        with pytest.raises(ValueError):
            time_group_auth(1, LatencyModel())

    def test_bulk(self):
        m = LatencyModel()
        group, nr5g = time_bulk_admission(100, 5, m)
        assert group == 66_060.0  # 60 ms broadcast + 6.06 ms auth
        assert nr5g == 2_160_000.0
        assert time_bulk_admission(0, 5, m) == (0.0, 0.0)
        group1, nr5g1 = time_bulk_admission(1, 5, m)
        assert group1 == 600.0 + 6_060.0
        assert nr5g1 == 21_600.0
        with pytest.raises(ValueError):
            time_bulk_admission(-1, 5, m)


class TestCrossover:
    def test_default_constants(self):
        report = crossover_report(LatencyModel())
        assert report.crossover_threshold == 18  # 1.212*18 = 21.816 > 21.6
        assert report.advertised_bound == ADVERTISED_PREFERABLE_BOUND
        assert report.advertised_bound_holds
        assert report.advertised_bound_conservative
        assert "t=18" in report.summary()
        assert "conservative" in report.summary()

    def test_preferable_below_advertised_bound(self):
        m = LatencyModel()
        base = baseline_total_us(m)
        for t in range(2, ADVERTISED_PREFERABLE_BOUND):
            assert time_group_auth(t, m) < base

    def test_with_hash_cost(self):
        report = crossover_report(LatencyModel(hash_op=200.0))
        assert report.baseline_us == 22_000.0
        assert report.crossover_threshold == 19  # 1.212*19 = 23.028 > 22.0

    def test_never_crossing(self):
        m = LatencyModel(drone_to_drone=0.0, ec_point_mul=0.0)
        report = crossover_report(m)
        assert report.crossover_threshold is None
        assert "never exceeds" in report.summary()

    def test_overstated_bound_flagged(self):
        # slow drone links push the crossover below the advertised bound
        report = crossover_report(LatencyModel(drone_to_drone=5_000.0))
        assert report.crossover_threshold < ADVERTISED_PREFERABLE_BOUND
        assert not report.advertised_bound_holds
        assert "NOT supported" in report.summary()

    def test_exactly_tight_bound(self):
        # 10 * (1549 + 612) = 21 610 > 21 600 = the baseline, 9 * 2161 is not
        report = crossover_report(LatencyModel(drone_to_drone=1549.0))
        assert report.crossover_threshold == ADVERTISED_PREFERABLE_BOUND == 10
        assert report.advertised_bound_holds
        assert not report.advertised_bound_conservative
        assert "exactly tight" in report.summary()


class TestTimingReport:
    def test_render_millisecond_precision(self):
        report = TimingReport("inclusion", 2, 1, {"a": 1000.5, "b": 211.5},
                              "accepted")
        assert report.total_us == 1212.0
        assert "method=group-auth" in report.render()
        assert "total_ms=1.212" in report.render()
        nr5g = TimingReport("nr5g", 2, 1, {"a": 1212.0}, "accepted")
        assert "method=nr-5g" in nr5g.render()


class TestScenarios:
    def test_nr5g_default_total(self):
        report, transcript = run_scenario(ScenarioConfig(scenario="nr5g"))
        assert report.total_us == 21_600.0
        assert report.outcome == "accepted"
        assert transcript.outcome.accepted

    def test_nr5g_hash_override_reports_22ms(self):
        config = ScenarioConfig(scenario="nr5g",
                                latency=LatencyModel(hash_op=200.0))
        report, _ = run_scenario(config)
        assert report.total_us == 22_000.0

    def test_inclusion_matches_closed_form(self):
        for t in (2, 5, 9):
            config = toy_config(scenario="inclusion", threshold=t)
            report, transcript = run_scenario(config)
            assert report.total_us == time_group_auth(t, config.latency)
            assert report.outcome == "accepted"

    def test_inclusion_closed_form_under_random_models(self):
        rng = random.Random(404)
        for _ in range(10):
            model = LatencyModel(**{name: float(rng.randrange(0, 20_000))
                                    for name in LATENCY_FIELDS})
            t = rng.randrange(2, 7)
            config = toy_config(scenario="inclusion", threshold=t, latency=model)
            report, _ = run_scenario(config)
            assert report.total_us == time_group_auth(t, model)
            nr_report, _ = run_scenario(ScenarioConfig(scenario="nr5g",
                                                       group="toy",
                                                       latency=model))
            assert nr_report.total_us == baseline_total_us(model)

    def test_unification_total(self):
        config = toy_config(scenario="unification", threshold=4)
        report, _ = run_scenario(config)
        m = config.latency
        expected = (m.ue_core_round_trip + time_group_auth(4, m)
                    + 2 * m.drone_to_drone)
        assert report.total_us == expected
        assert report.outcome == "accepted"

    def test_event_loop_meets_closed_forms_under_random_models(self):
        # the transport clock times every flow step, apart from the closed
        # forms: an accepted run's last authentication message must land
        # exactly at the reported total, and bulk broadcast k at k*d2d
        rng = random.Random(405)
        for trial in range(12):
            model = LatencyModel(**{name: float(rng.randrange(0, 20_000))
                                    for name in LATENCY_FIELDS})
            t = rng.randrange(2, 7)
            parallel = trial % 2 == 1
            for scenario, last in (("inclusion", "AUTH_VERDICT"),
                                   ("unification", "UNIFIED_KEY_BROADCAST")):
                config = toy_config(scenario=scenario, threshold=t, seed=trial,
                                    n_drones=t + 1, latency=model,
                                    parallel_guards=parallel)
                report, transcript = run_scenario(config)
                assert report.outcome == "accepted"
                times = {e.time_us for e in transcript.entries if e.kind == last}
                assert times == {report.total_us}, (scenario, t, parallel)
            report, transcript = run_scenario(toy_config(scenario="nr5g", seed=trial,
                                                         latency=model))
            assert report.outcome == "accepted"
            assert [e.kind for e in transcript.entries] == [
                "SUCI", "CHALLENGE", "RES", "CONFIRM"]
            assert transcript.entries[-1].time_us == report.total_us, trial
            # one-decimal costs are not binary fractions, so a running
            # float sum of them would drift from k*d2d
            decimal = LatencyModel(**{name: rng.randrange(0, 200_000) / 10
                                      for name in LATENCY_FIELDS})
            for bulk_model in (model, decimal):
                report, transcript = run_scenario(toy_config(
                    scenario="bulk", seed=trial, threshold=t, n_drones=8,
                    latency=bulk_model))
                assert report.outcome == "accepted"
                assert [e.time_us for e in transcript.entries] == [
                    k * bulk_model.drone_to_drone for k in range(1, 9)], trial

    def test_nr5g_flow_on_a_transport_stamps_every_message(self):
        # the 5G NR flow driven directly on a transport with the scenario's
        # costs and RNG draws is the nr5g scenario, and each message lands
        # at the modeled time of the steps before it
        rng = random.Random(406)
        for trial in range(10):
            model = LatencyModel(**{name: float(rng.randrange(0, 20_000))
                                    for name in LATENCY_FIELDS})
            config = toy_config(scenario="nr5g", seed=trial, latency=model)
            group, flow_rng = algebra.make_group(config.group), random.Random(config.seed)
            keys = baseline5g.gen_bs_keys(group, flow_rng)
            supi = baseline5g.random_supi(flow_rng)
            transport = Transport(costs=simnet._costs(config))
            assert baseline5g.ue_authentication_flow(
                group, supi, keys, flow_rng, baseline5g.OpCounter(), transport) == supi
            transport.transcript.set_outcome(Outcome(True))
            _, transcript = run_scenario(config)
            assert transport.transcript.render() == transcript.render(), trial
            rt, enc, dec, h = (model.ue_core_round_trip, model.asym_encrypt,
                               model.asym_decrypt, model.hash_op)
            assert [(e.kind, e.time_us) for e in transport.transcript.entries] == [
                ("SUCI", enc + rt / 2),
                ("CHALLENGE", enc + rt + dec + h),
                ("RES", enc + 1.5 * rt + dec + h),
                ("CONFIRM", baseline_total_us(model))], trial

    @pytest.mark.parametrize("t", (2, 5, 9))
    def test_mul_counts_meet_analytic_forms(self, t, monkeypatch):
        # fixed-base: each swarm's commitment and the core's pair are
        # one-scalar batches, each made when the run first reads it
        # (inclusion and bulk read only the commitment, in the first guard
        # check; unification reads A's core pair to open the cross share,
        # then B's commitment), and each drone's pair once per flow
        # (inclusion: candidate and t-1 guards, whose first guard delivers
        # the key; unification: the cross pair and B's t-1 guards; bulk:
        # every arrival and t-1 guards). A batched generator mul counts one
        # fixed-base mul per scalar; its batches are listed in call order:
        # each guard check derives the publisher's pair and the quorum's in
        # one batch of t, then reads the commitment, and bulk derives all
        # its pairs in one. The core forms its side of the cross-issue key
        # as one fixed-base mul of the two shares' product, a batch of 1,
        # so unification makes 1 + 1 + t + 1. An empty bulk checks nothing,
        # so it reads no commitment and makes no fixed-base mul.
        # Variable-base: the pairwise keys (inclusion: the key agreement's
        # two sides; unification: the requester's side of the cross-issue
        # key and the key return's two sides). Each guard check verifies
        # each distinct view once, and in an honest run the t-1 guards hold
        # the same t pairs, so it is one msm of t + 1 points: the t public
        # points and the commitment, folded in with weight -d.
        counts = collections.Counter()
        batches = []
        mul, mul_generator, msm = ToyGroup.mul, ToyGroup.mul_generator, ToyGroup.msm

        def counting_mul(group, s, point):
            counts["fixed" if point == group.generator else "variable"] += 1
            return mul(group, s, point)

        def counting_mul_generator(group, scalars):
            counts["fixed"] += len(scalars)
            batches.append(len(scalars))
            return mul_generator(group, scalars)

        def counting_msm(group, scalars, points):
            counts["msm"] += 1
            counts["msm points"] += len(points)
            return msm(group, scalars, points)

        monkeypatch.setattr(ToyGroup, "mul", counting_mul)
        monkeypatch.setattr(ToyGroup, "mul_generator", counting_mul_generator)
        monkeypatch.setattr(ToyGroup, "msm", counting_msm)
        expected = {
            ("inclusion", None): ((t + 1, 2, 1, t + 1), [t, 1]),
            ("unification", None): ((t + 3, 3, 1, t + 1), [1, 1, t, 1]),
            ("bulk", 1): ((1 + t, 0, 1, t + 1), [1 + t - 1, 1]),
            ("bulk", 25): ((25 + t, 0, 1, t + 1), [25 + t - 1, 1]),
            ("bulk", 0): ((0, 0, 0, 0), []),
        }
        for (scenario, n), (want, want_batches) in expected.items():
            counts.clear()
            batches.clear()
            sized = {} if n is None else {"n_drones": n}
            report, _ = run_scenario(toy_config(scenario=scenario, threshold=t,
                                                **sized))
            assert report.outcome == "accepted"
            assert (counts["fixed"], counts["variable"], counts["msm"],
                    counts["msm points"]) == want, (scenario, n)
            assert batches == want_batches, (scenario, n)

    @pytest.mark.parametrize("t", (2, 5, 9))
    def test_aead_and_message_counts_meet_analytic_forms(self, t, monkeypatch):
        # (seals, opens, deliveries, transcript entries) per run. A guard
        # check delivers t(t-1) messages: t-1 publishes to the guards,
        # (t-1)(t-2) exchanges between them and t-1 verdicts. Inclusion adds
        # the key agreement and the sealed key (one seal, one open).
        # Unification adds the cross-issue request and its sealed response,
        # the key return (two messages, one seal) and one sealed rebroadcast
        # to each of the n-1 other drones of swarm A. Bulk delivers nothing:
        # each of its n broadcasts is only recorded.
        counts = collections.Counter()
        seal, open_sealed, deliver = (protocol.seal, protocol.open_sealed,
                                      protocol.Transport.deliver)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(protocol, "seal", counting("seal", seal))
        monkeypatch.setattr(protocol, "open_sealed", counting("open", open_sealed))
        monkeypatch.setattr(protocol.Transport, "deliver", counting("deliver", deliver))
        check = t * (t - 1)
        expected = {
            ("inclusion", None): (1, 1, check + 2, check + 2),
            ("unification", t - 1): (t, t, t + 2 + check, t + 2 + check),
            ("unification", 40): (41, 41, 43 + check, 43 + check),
            ("bulk", 0): (0, 0, 0, 0),
            ("bulk", 25): (0, 0, 0, 25),
        }
        if t == 5:
            # merge-n5000: the values the benchmark's golden counts pin
            expected["unification", 5000] = (5001, 5001, 5023, 5023)
        for (scenario, n), want in expected.items():
            counts.clear()
            sized = {} if n is None else {"n_drones": n}
            report, transcript = run_scenario(toy_config(scenario=scenario,
                                                         threshold=t, **sized))
            assert report.outcome == "accepted"
            assert (counts["seal"], counts["open"], counts["deliver"],
                    len(transcript.entries)) == want, (scenario, n)

    def test_generator_table_built_once_per_process(self, monkeypatch):
        # every run makes its own group; the generator's fixed-base table
        # must outlive them, or each op would rebuild it
        builds, groups = [], []
        build, make_group = algebra._build_generator_table, simnet.make_group
        monkeypatch.setattr(algebra, "_generator_table", None)
        monkeypatch.setattr(algebra, "_build_generator_table",
                            lambda: builds.append(1) or build())
        monkeypatch.setattr(simnet, "make_group",
                            lambda kind: groups.append(kind) or make_group(kind))
        for scenario in ("inclusion", "bulk"):
            report, _ = run_scenario(ScenarioConfig(scenario=scenario, threshold=2,
                                                    n_drones=2))
            assert report.outcome == "accepted"
        assert groups == ["production", "production"]
        assert len(builds) == 1

    def test_bulk_totals(self):
        config = toy_config(scenario="bulk", threshold=5, n_drones=100)
        report, _ = run_scenario(config)
        assert report.total_us == 66_060.0
        assert report.outcome == "accepted"
        empty, _ = run_scenario(toy_config(scenario="bulk", n_drones=0))
        assert empty.total_us == 0.0

    def test_zero_latency_zero_total(self):
        zero = LatencyModel(**{name: 0.0 for name in LATENCY_FIELDS})
        for scenario in ("nr5g", "inclusion", "unification", "bulk"):
            report, _ = run_scenario(toy_config(scenario=scenario, latency=zero))
            assert report.total_us == 0.0, scenario

    def test_inclusion_transcript_timestamps(self):
        # candidate's share arrives after one transfer slot; verdicts land
        # at the authentication total; key delivery one hop later
        config = toy_config(scenario="inclusion", threshold=5)
        _, transcript = run_scenario(config)
        assert transcript.entries[0].kind == "SHARE_PUBLISH"
        assert transcript.entries[0].time_us == 600.0
        verdicts = [e for e in transcript.entries if e.kind == "AUTH_VERDICT"]
        assert {e.time_us for e in verdicts} == {6_060.0}
        delivery = [e for e in transcript.entries
                    if e.kind == "ENCRYPTED_GROUP_KEY"]
        assert delivery[0].time_us == 6_660.0

    def test_parallel_guards_overlaps_transfers(self):
        m = LatencyModel()
        serial = toy_config(scenario="inclusion", threshold=5)
        parallel = toy_config(scenario="inclusion", threshold=5,
                              parallel_guards=True)
        serial_report, _ = run_scenario(serial)
        parallel_report, _ = run_scenario(parallel)
        assert serial_report.total_us == 5 * (m.drone_to_drone + m.ec_point_mul)
        assert parallel_report.total_us == m.drone_to_drone + 5 * m.ec_point_mul
        assert parallel_report.outcome == "accepted"
        uni, _ = run_scenario(toy_config(scenario="unification", threshold=4,
                                         parallel_guards=True))
        assert uni.outcome == "accepted"
        assert uni.phases["share_transfer"] == m.drone_to_drone

    def test_parallel_guards_config_key(self):
        config = parse_config("scenario = inclusion\nparallel_guards = true\n")
        assert config.parallel_guards
        with pytest.raises(ConfigError, match="parallel_guards"):
            parse_config("scenario = inclusion\nparallel_guards = maybe\n")

    def test_lowest_identifiers_are_the_guards(self):
        # six drones, threshold 4: exactly the three lowest identifiers
        # are guards and take part
        config = toy_config(scenario="inclusion", threshold=4, n_drones=6)
        report, transcript = run_scenario(config)
        assert report.outcome == "accepted"
        verdict_senders = {e.sender for e in transcript.entries
                           if e.kind == "AUTH_VERDICT"}
        assert verdict_senders == {"A/1", "A/2", "A/3"}
        # the accepted candidate is a member, and the guards stay the same
        swarm = simnet._run(config).core.swarms["A"]
        assert len(swarm.drones) == 7
        assert [d.id.x for d in swarm.guards()] == [1, 2, 3]

    def test_determinism(self):
        def run(seed):
            config = toy_config(scenario="unification", seed=seed)
            report, transcript = run_scenario(config)
            return report, transcript.render()

        r1, t1 = run(13)
        r2, t2 = run(13)
        assert r1 == r2
        assert t1 == t2
        _, t3 = run(14)
        assert t1 != t3

    def test_monotonicity_in_every_latency_field(self):
        base = LatencyModel(**{name: float(v) for name, v in
                               zip(LATENCY_FIELDS, (3000, 200, 700, 50, 400, 900))})
        for scenario in ("nr5g", "inclusion", "unification", "bulk"):
            ref, _ = run_scenario(toy_config(scenario=scenario, latency=base))
            for name in LATENCY_FIELDS:
                bumped = replace(base, **{name: getattr(base, name) + 250.0})
                report, _ = run_scenario(toy_config(scenario=scenario,
                                                    latency=bumped))
                assert report.total_us >= ref.total_us, (scenario, name)


class TestAdversaries:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Adversary("ddos", ToyGroup(), random.Random(0))
        with pytest.raises(ValueError):
            inject_adversary(toy_config(scenario="inclusion"))  # mode none

    def test_none_mode_rejected(self):
        # no adversary is built for a run without an attack
        with pytest.raises(ValueError):
            Adversary("none", ToyGroup(), random.Random(0))

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_replay_thwarted(self, scenario):
        config = toy_config(scenario=scenario, adversary="replay", seed=2)
        outcome = inject_adversary(config)
        assert outcome.thwarted, outcome.detail
        assert "rejected by nonce caches" in outcome.detail

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_mitm_thwarted(self, scenario):
        config = toy_config(scenario=scenario, adversary="mitm", seed=2)
        outcome = inject_adversary(config)
        assert outcome.thwarted, outcome.detail

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_eavesdrop_thwarted(self, scenario):
        # secrecy rests on the discrete log, so this one needs the real
        # curve: the toy group's public shares reveal their scalars
        config = ScenarioConfig(scenario=scenario, adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert outcome.thwarted, outcome.detail
        assert "leak no private share" in outcome.detail

    @pytest.mark.parametrize("group", ["toy", "production"])
    def test_attacks_on_a_rekey_of_unbuilt_members(self, group):
        # at t = 5 swarm A's guards are A/1-A/4, and the rebroadcast reaches
        # A/5-A/12 without building their drones; a replay to each is
        # rejected by its receiver's nonce cache
        config = ScenarioConfig(scenario="unification", n_drones=12, seed=4,
                                group=group, adversary="replay")
        captured = simnet._run(config).adversary.captured
        receivers = [receiver.label for msg, receiver in captured
                     if msg.kind is MessageKind.UNIFIED_KEY_BROADCAST
                     and not isinstance(receiver, protocol.Drone)]
        assert receivers == [f"A/{x}" for x in range(5, 13)]
        outcome = inject_adversary(config)
        assert outcome.thwarted, outcome.detail
        assert outcome.detail == (f"all {len(captured)} replayed messages "
                                  f"rejected by nonce caches")
        outcome = inject_adversary(replace(config, adversary="eavesdrop"))
        if group == "production":
            assert outcome.thwarted, outcome.detail
            assert "leak no private share" in outcome.detail
        else:
            # the toy group's public shares reveal their scalars
            assert outcome.detail == "private material visible in captured traffic"

    def test_eavesdrop_on_toy_group_correctly_reports_leak(self):
        # negative control: readable discrete logs means captured public
        # shares literally contain the private material
        config = toy_config(scenario="inclusion", adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert "private material" in outcome.detail

    # negative controls: each breaks one defence in the program and
    # expects the harness to report the attack NOT THWARTED

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_replay_control_nonce_cache_accepts_everything(self, scenario,
                                                           monkeypatch):
        monkeypatch.setattr(protocol.NonceCache, "check_and_store",
                            lambda cache, sender, nonce: True)
        config = toy_config(scenario=scenario, adversary="replay", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail.endswith(" replayed messages accepted")

    @pytest.mark.parametrize("scenario, reason", [
        ("inclusion", "key-delivery-failed"),
        ("unification", "key-return-failed"),
    ])
    def test_mitm_control_guard_check_accepts_everything(self, scenario, reason,
                                                         monkeypatch):
        # the attacker holds no share, so the pairwise key still stops the
        # run, but one step too late: the guards accepted the substitution
        monkeypatch.setattr(protocol, "verify_group", lambda *args: True)
        config = toy_config(scenario=scenario, adversary="mitm", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == (f"guard check did not reject the substituted "
                                  f"share: rejected({reason})")

    def test_eavesdrop_control_relay_key_from_captured_payload(self, monkeypatch):
        # the relay key is the hash of a captured verdict payload
        monkeypatch.setattr(protocol, "group_key_cipher_key",
                            lambda field, group_key: hashlib.sha256(b"accept").digest())
        config = ScenarioConfig(scenario="unification", adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == "captured material decrypted a key-transport message"

    def test_eavesdrop_control_key_opens_a_later_rebroadcast_copy(self, monkeypatch):
        # one rebroadcast copy after the first is resealed, after the run,
        # under the hash of a captured verdict payload: the judge tries each
        # candidate key on one copy per key group, and must still find it
        key = hashlib.sha256(b"accept").digest()
        run = simnet._run

        def run_and_reseal(config):
            result = run(config)
            captured = result.adversary.captured
            copies = [i for i, (msg, _) in enumerate(captured)
                      if msg.kind is MessageKind.UNIFIED_KEY_BROADCAST]
            i = copies[2]
            msg, receiver = captured[i]
            captured[i] = (protocol.seal(msg.kind, AESGCM(key), msg.sender, receiver.label,
                                         bytes(32), random.Random(0)), receiver)
            return result

        monkeypatch.setattr(simnet, "_run", run_and_reseal)
        config = ScenarioConfig(scenario="unification", adversary="eavesdrop", seed=2,
                                n_drones=6)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == "captured material decrypted a key-transport message"

    def test_eavesdrop_control_cross_share_in_a_verdict(self, monkeypatch):
        # one captured verdict is replaced, after the run, by the encoding
        # of swarm B's cross-issued share: the judge must scan the scalars
        # the core dealt after provisioning too
        run = simnet._run

        def run_and_leak(config):
            result = run(config)
            # swarm B's dealer issued n drones' shares, the core's own
            # share, then the cross-issued share
            poly = result.core.dealer("B").poly
            leaked = result.core.group.field.encode(poly.evaluate(config.n_drones + 2))
            captured = result.adversary.captured
            i = next(i for i, (msg, _) in enumerate(captured)
                     if msg.kind is MessageKind.AUTH_VERDICT)
            msg, receiver = captured[i]
            captured[i] = (replace(msg, payload=leaked), receiver)
            return result

        monkeypatch.setattr(simnet, "_run", run_and_leak)
        config = ScenarioConfig(scenario="unification", adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == "private material visible in captured traffic"

    def test_eavesdrop_scans_only_the_shares_the_run_computed(self, monkeypatch):
        # a toy inclusion of a million drones builds its t - 1 guards only:
        # the judge evaluates f at theirs, the core's and the candidate's
        # identifiers, never in the unbuilt range
        run, evaluate = simnet._run, GroupPolynomial.evaluate
        evaluated, unbuilt = [], []

        def run_then_count(config):
            result = run(config)
            unbuilt.append(result.core.swarms["A"].unbuilt)
            monkeypatch.setattr(GroupPolynomial, "evaluate",
                                lambda poly, x: evaluated.append(x) or evaluate(poly, x))
            return result

        monkeypatch.setattr(simnet, "_run", run_then_count)
        n, t = 10 ** 6, 5
        inject_adversary(toy_config(scenario="inclusion", adversary="eavesdrop",
                                    n_drones=n, threshold=t, seed=2))
        assert unbuilt == [range(t, n + 1)]
        assert not [x for x in evaluated if x in unbuilt[0]]
        assert len(evaluated) <= t + 1
        assert sorted(evaluated) == [*range(1, t), n + 1, n + 2]

    def test_eavesdrop_judge_opens_linearly(self, monkeypatch):
        # every UNIFIED_KEY_BROADCAST copy is sealed under one relay key and
        # every other sealed message under a key of its own: the judge opens
        # at most (candidate keys x groups) + sealed messages, not their product
        opens, groups = [], []
        open_sealed, run = protocol.open_sealed, simnet._run

        def counting_open(*args):
            opens.append(1)
            return open_sealed(*args)

        def run_then_count(config):
            result = run(config)
            sealed = [msg.kind for msg, _ in result.adversary.captured
                      if msg.kind in (MessageKind.ENCRYPTED_GROUP_KEY,
                                      MessageKind.CROSS_ISSUE_RESPONSE,
                                      MessageKind.UNIFIED_KEY_BROADCAST)]
            broadcasts = sealed.count(MessageKind.UNIFIED_KEY_BROADCAST)
            groups.append(len(sealed) - broadcasts + 1)
            monkeypatch.setattr(protocol, "open_sealed", counting_open)
            return result

        monkeypatch.setattr(simnet, "_run", run_then_count)
        config = ScenarioConfig(scenario="unification", adversary="eavesdrop", seed=1,
                                n_drones=200)
        outcome = inject_adversary(config)
        assert outcome.thwarted, outcome.detail
        keys, sealed = map(int, re.search(r"(\d+) derivable keys open none of (\d+) "
                                          r"sealed messages", outcome.detail).groups())
        assert sealed == 201 and groups == [3]
        assert len(opens) <= keys * groups[0] + sealed

    @pytest.mark.parametrize("mode", ["replay", "eavesdrop"])
    def test_control_honest_run_rejected(self, mode, monkeypatch):
        # a judge must not call an attack thwarted when the observed run
        # itself failed
        monkeypatch.setattr(protocol, "verify_group", lambda *args: False)
        config = toy_config(scenario="inclusion", adversary=mode, seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == ("honest run failed under observation: "
                                  "rejected(verification-failed)")

    def test_eavesdrop_control_no_sealed_capture(self, monkeypatch):
        # an eavesdropper that saw no sealed message has tested nothing
        sealed = (MessageKind.ENCRYPTED_GROUP_KEY, MessageKind.CROSS_ISSUE_RESPONSE,
                  MessageKind.UNIFIED_KEY_BROADCAST)
        intercept = Adversary.intercept

        def blind_intercept(adversary, msg, receiver):
            out = intercept(adversary, msg, receiver)
            if msg.kind in sealed:
                adversary.captured.pop()
            return out

        monkeypatch.setattr(Adversary, "intercept", blind_intercept)
        config = ScenarioConfig(scenario="unification", adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert outcome.detail == "no key-transport traffic observed"

    def test_nr5g_control_seaf_check_fails(self, monkeypatch):
        monkeypatch.setattr(baseline5g, "seaf_check", lambda res, hxres: False)
        report, transcript = run_scenario(toy_config(scenario="nr5g"))
        assert report.outcome == "rejected(confirmation-failed)"
        assert transcript.outcome == Outcome(False, "confirmation-failed")
        assert transcript.entries[-1].kind == "CONFIRM"

    def test_mitm_run_reports_rejection(self):
        config = toy_config(scenario="inclusion", adversary="mitm", seed=2)
        report, transcript = run_scenario(config)
        assert report.outcome == "rejected(verification-failed)"
        assert not transcript.outcome.accepted

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_eavesdrop_adds_each_distinct_pair_once(self, scenario, monkeypatch):
        # shares are published to every guard, so captures repeat points;
        # the judge sums each unordered pair of distinct points once, all
        # in one batch
        config = ScenarioConfig(scenario=scenario, adversary="eavesdrop", seed=3)
        group = algebra.CurveGroup()
        captured = [decode_public_share(group, msg.payload).point
                    for msg, _ in simnet._run(config).adversary.captured
                    if msg.kind in (MessageKind.SHARE_PUBLISH,
                                    MessageKind.KEY_AGREEMENT_INIT)]
        batches = []
        add_all = algebra.CurveGroup.add_all
        monkeypatch.setattr(algebra.CurveGroup, "add_all",
                            lambda group, pairs: batches.append(list(pairs))
                            or add_all(group, pairs))
        assert inject_adversary(config).thwarted
        d = len(set(captured))
        assert d < len(captured)
        assert len(batches) == 1
        assert len(batches[0]) == d * (d + 1) // 2
        assert {frozenset(pair) for pair in batches[0]} == {
            frozenset((p, q)) for p in set(captured) for q in set(captured)}
