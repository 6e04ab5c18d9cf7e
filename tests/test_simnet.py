"""Latency model, closed forms, event loop, scenarios, and adversaries."""

import collections
import os
import random
from dataclasses import replace

import pytest

from swarmauth import algebra, protocol, simnet
from swarmauth.algebra import ToyGroup
from swarmauth.protocol import MessageKind, Outcome, Transport
from swarmauth.shares import decode_public_share
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

    @pytest.mark.parametrize("n_drones", [0, 3])
    def test_nr5g_object_rejects_n_drones(self, n_drones):
        with pytest.raises(ConfigError, match="n_drones"):
            ScenarioConfig(scenario="nr5g", n_drones=n_drones)


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

    def test_drive_clock_sums_costs_exactly(self):
        # 1000 float additions of 0.1 us drift to 99.9999999999986
        transport = Transport()

        def flow():
            for _ in range(1000):
                yield "hop"
                transport.record("HOP", "a", "b", b"")
            return Outcome(True)

        config = toy_config(scenario="inclusion",
                            latency=LatencyModel(drone_to_drone=0.1))
        assert simnet._drive(flow(), config, transport).accepted
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


class TestTimingReport:
    def test_total_must_equal_phase_sum(self):
        with pytest.raises(ValueError):
            TimingReport("x", "group-auth", 2, 1, 10.0, {"a": 3.0}, "accepted")

    def test_render_millisecond_precision(self):
        report = TimingReport("x", "group-auth", 2, 1, 1212.0,
                              {"a": 1212.0}, "accepted")
        assert "total_ms=1.212" in report.render()


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
        # the event loop times every flow step, apart from the closed
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

    @pytest.mark.parametrize("t", (2, 5, 9))
    def test_mul_counts_meet_analytic_forms(self, t, monkeypatch):
        # fixed-base: the commitment and the core's pair per swarm, then
        # each drone's pair once per flow (inclusion: candidate and t-1
        # guards, whose first guard delivers the key; unification adds the
        # requester's pair at the core and the cross pair; bulk: every
        # arrival and t-1 guards). A batched generator mul counts one
        # fixed-base mul per scalar; its batches are listed in call order:
        # each guard check derives the quorum's pairs in one batch, and
        # bulk derives all its pairs in one. Variable-base: the pairwise
        # keys. Each guard check is one msm of t points.
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
            ("inclusion", None): ((t + 2, 2, t - 1, t * (t - 1)), [1, 1, t - 1]),
            ("unification", None): ((t + 5, 4, t - 1, t * (t - 1)),
                                    [1, 1, 1, 1, t - 1]),
            ("bulk", 1): ((1 + t + 1, 0, 1, t), [1, 1 + t - 1]),
            ("bulk", 25): ((25 + t + 1, 0, 1, t), [1, 25 + t - 1]),
            ("bulk", 0): ((2, 0, 0, 0), [1]),
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
        swarm = simnet._run(config).core.swarms["A"]
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
            Adversary(mode="ddos")
        with pytest.raises(ValueError):
            inject_adversary(toy_config(scenario="inclusion"))  # mode none

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

    def test_eavesdrop_on_toy_group_correctly_reports_leak(self):
        # negative control: readable discrete logs means captured public
        # shares literally contain the private material
        config = toy_config(scenario="inclusion", adversary="eavesdrop", seed=2)
        outcome = inject_adversary(config)
        assert not outcome.thwarted
        assert "private material" in outcome.detail

    def test_mitm_run_reports_rejection(self):
        config = toy_config(scenario="inclusion", adversary="mitm", seed=2)
        report, transcript = run_scenario(config)
        assert report.outcome == "rejected(verification-failed)"
        assert not transcript.outcome.accepted

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_eavesdrop_adds_each_distinct_pair_once(self, scenario, monkeypatch):
        # shares are published to every guard, so captures repeat points;
        # the judge sums each unordered pair of distinct points once
        adds = []
        add = algebra.CurveGroup.add
        monkeypatch.setattr(algebra.CurveGroup, "add",
                            lambda group, g, h: adds.append(1) or add(group, g, h))
        adversary = Adversary(mode="eavesdrop")
        config = ScenarioConfig(scenario=scenario, adversary="eavesdrop", seed=3)
        assert inject_adversary(config, adversary).thwarted
        group = algebra.CurveGroup()
        captured = [decode_public_share(group, msg.payload).point
                    for msg, _ in adversary.captured
                    if msg.kind in (MessageKind.SHARE_PUBLISH,
                                    MessageKind.KEY_AGREEMENT_INIT)]
        d = len(set(captured))
        assert d < len(captured)
        assert len(adds) == d * (d + 1) // 2

    def test_supplied_adversary_collects_captures(self):
        config = ScenarioConfig(scenario="inclusion", seed=2)
        adversary = Adversary(mode="eavesdrop")
        outcome = inject_adversary(config, adversary)
        assert outcome.thwarted
        assert adversary.captured


class TestTableCacheIndependence:
    """Curve runs read variable-base wNAF tables from a per-process cache;
    what it holds must reach no transcript, report or attack verdict."""

    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        monkeypatch.setattr(algebra, "_wnaf_table_cache", collections.OrderedDict())

    @staticmethod
    def config(scenario, mode, seed=7):
        return ScenarioConfig(scenario=scenario, adversary=mode, seed=seed)

    def run(self, scenario, mode, prepare):
        """(report, transcript, attack detail), the cache prepared before
        each of the scenario run and the attack check."""
        prepare()
        result = simnet._run(self.config(scenario, mode))
        detail = None
        if mode != "none":
            prepare()
            detail = inject_adversary(self.config(scenario, mode)).detail
        return result.report, result.transcript.render(), detail

    @staticmethod
    def cold():
        algebra._wnaf_table_cache.clear()

    def filled(self):
        # unrelated runs at other seeds, then 64 unrelated points, so the
        # cache is full and holds none of the run's own points
        for scenario in ("inclusion", "unification", "bulk"):
            run_scenario(self.config(scenario, "none", seed=1000))
        group = algebra.CurveGroup()
        rng = random.Random(1000)
        fillers = group.mul_generator([rng.randrange(1, group.order) for _ in range(64)])
        group.msm([1] * 64, fillers)
        assert len(algebra._wnaf_table_cache) == algebra._WNAF_TABLES_MAX

    @pytest.mark.parametrize("scenario, mode", [
        ("inclusion", "none"), ("unification", "none"), ("bulk", "none"),
        *[(scenario, mode) for mode in ("replay", "eavesdrop", "mitm")
          for scenario in ("inclusion", "unification")]])
    def test_runs_do_not_depend_on_cache_state(self, scenario, mode):
        cold = self.run(scenario, mode, self.cold)
        assert self.run(scenario, mode, self.filled) == cold
        # hot: the same run's own points are all cached
        assert self.run(scenario, mode, lambda: None) == cold

    @pytest.mark.parametrize("scenario", ["inclusion", "unification"])
    def test_substituted_points_get_their_own_tables(self, scenario, monkeypatch):
        # each guard receives its own substituted point in place of the
        # target's, and each substituted point gets a table of its own
        group = algebra.CurveGroup()
        substituted = []
        intercept = Adversary.intercept

        def spy(adversary, msg, receiver):
            out = intercept(adversary, msg, receiver)
            if out is not msg:
                substituted.append(decode_public_share(group, out.payload).point)
            return out
        monkeypatch.setattr(Adversary, "intercept", spy)
        self.cold()
        simnet._run(self.config(scenario, "none"))
        honest = set(algebra._wnaf_table_cache)
        self.cold()
        result = simnet._run(self.config(scenario, "mitm"))
        assert not result.transcript.outcome.accepted
        assert len(substituted) == 4  # t - 1 guards at t = 5
        cached = set(algebra._wnaf_table_cache)
        assert cached - honest == set(substituted)
        assert len(honest - cached) == 1  # the target's own point, never checked
