"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they fire). Tolerances are pinned in the assertions."""

import itertools
import random
import time
from contextlib import contextmanager

from swarmauth.algebra import CurveGroup, ToyGroup
from swarmauth.baseline5g import (
    DecryptError,
    Suci,
    ausf_hxres,
    compute_suci,
    gen_bs_keys,
    random_supi,
    run_ue_authentication,
    seaf_check,
    udm_challenge,
    ue_response,
)
from swarmauth.cli import main
from swarmauth.protocol import CoreNetwork, run_inclusion, run_unification
from swarmauth.shares import (
    PublicShare,
    gen_polynomial,
    group_commitment,
    issue_share,
    lagrange_coeff_at_zero,
    public_share,
    recover_group_key,
    verify_group,
)
from swarmauth.simnet import (
    LatencyModel,
    ScenarioConfig,
    baseline_total_us,
    crossover_report,
    run_scenario,
    time_bulk_admission,
    time_group_auth,
)


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE PASS: {name} ({elapsed:.2f}s)")


def test_baseline_timing():
    # default model reports 21.6 ms; a 0.2 ms hash cost reconciles it to
    # the quoted 22 ms total within +/- 0.5 ms
    with criterion("baseline-timing"):
        started = time.perf_counter()
        report, _ = run_scenario(ScenarioConfig(scenario="nr5g"))
        assert abs(report.total_ms - 21.6) < 1e-9
        assert abs(report.total_ms - 22.0) <= 0.5

        with_hash = ScenarioConfig(scenario="nr5g",
                                   latency=LatencyModel(hash_op=200.0))
        report2, _ = run_scenario(with_hash)
        assert abs(report2.total_ms - 22.0) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_group_auth_timing_law():
    # t * (0.600 + 0.612) = 1.212 t ms for every threshold in 2..20;
    # the t=5 point lands on 6.06 ms, within 0.1 ms of the quoted 6 ms
    with criterion("group-auth-timing-law"):
        started = time.perf_counter()
        model = LatencyModel()
        for t in range(2, 21):
            assert abs(time_group_auth(t, model) / 1000.0 - 1.212 * t) < 1e-9
        config = ScenarioConfig(scenario="inclusion", threshold=5, group="toy")
        report, _ = run_scenario(config)
        assert abs(report.total_ms - 6.06) < 1e-9
        assert abs(report.total_ms - 6.0) <= 0.1
        assert time.perf_counter() - started < 1.0


def test_crossover_report():
    # group auth first exceeds the 21.6 ms baseline at t=18
    # (1.212*17 = 20.604 still wins; 1.212*18 = 21.816 loses), so the
    # advertised "preferable below t=10" range must be flagged as
    # conservative, and everything below 10 must indeed be faster
    with criterion("crossover-report"):
        model = LatencyModel()
        report = crossover_report(model)
        assert report.crossover_threshold == 18
        assert time_group_auth(17, model) <= baseline_total_us(model)
        assert time_group_auth(18, model) > baseline_total_us(model)
        assert report.advertised_bound == 10
        assert report.advertised_bound_holds
        assert report.advertised_bound_conservative
        assert "conservative" in report.summary()
        for t in range(2, 10):
            assert time_group_auth(t, model) < baseline_total_us(model)


def test_bulk_admission():
    # 100 drones: per-drone baseline auth lands in [2.16 s, 2.20 s],
    # broadcast-plus-one-group-check lands in [60 ms, 70 ms]
    with criterion("bulk-admission"):
        started = time.perf_counter()
        model = LatencyModel()
        group_us, nr5g_us = time_bulk_admission(100, 5, model)
        assert 2_160_000.0 <= nr5g_us <= 2_200_000.0
        assert 60_000.0 <= group_us <= 70_000.0
        nr5g_hash_us = 100 * baseline_total_us(LatencyModel(hash_op=200.0))
        assert 2_160_000.0 <= nr5g_hash_us <= 2_200_000.0
        assert time.perf_counter() - started < 1.0


def test_cryptographic_correctness_suite():
    with criterion("cryptographic-correctness"):
        started = time.perf_counter()
        toy = ToyGroup()  # 2^61 - 1
        rng = random.Random(0xACCE97)

        # (a) completeness: 1000 random polynomial / subset pairs verify
        for _ in range(1000):
            t = rng.randrange(2, 6)
            poly = gen_polynomial(toy.field, t, rng)
            commitment = group_commitment(poly, toy)
            xs = rng.sample(range(1, 100_000), t)
            pubs = [public_share(issue_share(poly, x), toy) for x in xs]
            assert verify_group(pubs, commitment, toy, t)

        # (b) soundness: >= 10^4 corrupted-share trials, zero false accepts
        false_accepts = 0
        for _ in range(10_000):
            t = rng.randrange(2, 5)
            poly = gen_polynomial(toy.field, t, rng)
            commitment = group_commitment(poly, toy)
            xs = rng.sample(range(1, 100_000), t)
            pubs = [public_share(issue_share(poly, x), toy) for x in xs]
            victim = rng.randrange(t)
            honest_point = pubs[victim].point
            bad_point = toy.mul(toy.field.rand(rng), toy.generator)
            while bad_point == honest_point:
                bad_point = toy.mul(toy.field.rand(rng), toy.generator)
            pubs[victim] = PublicShare(pubs[victim].x, bad_point)
            if verify_group(pubs, commitment, toy, t):
                false_accepts += 1
        assert false_accepts == 0

        # (c) recovery equals the dealer's key for every size-t subset
        for t in range(2, 7):
            poly = gen_polynomial(toy.field, t, rng)
            shares = [issue_share(poly, x) for x in range(1, t + 3)]
            for subset in itertools.combinations(shares, t):
                assert recover_group_key(list(subset), toy.field, t) == poly.group_key

        # (d) Lagrange weights against the brute-force interpolation
        # criterion on q=13, exhaustively over all identifier subsets:
        # weights are correct iff they reproduce every monomial at zero
        f13 = ToyGroup(13).field
        for t in range(2, 7):
            for xs in itertools.combinations(range(1, 13), t):
                lams = [lagrange_coeff_at_zero(f13, xs, i) for i in range(t)]
                for j in range(t):
                    total = sum(lam * pow(x, j, 13)
                                for lam, x in zip(lams, xs)) % 13
                    assert total == (1 if j == 0 else 0)

        assert time.perf_counter() - started < 30.0


def test_protocol_end_to_end():
    # inclusion hands the candidate the dealer's group key; unification at
    # t=4 with 3+1 guards leaves every drone of both swarms on one key;
    # reruns with the same seed give byte-identical transcripts
    with criterion("protocol-end-to-end"):
        curve = CurveGroup()

        def inclusion_run():
            rng = random.Random(41)
            core = CoreNetwork(curve, rng)
            swarm = core.provision_swarm("A", 3, n_drones=2)
            candidate = core.issue_candidate("A")
            outcome, transcript = run_inclusion(swarm, candidate, rng)
            return outcome, transcript.render(), candidate, core

        outcome, render1, candidate, core = inclusion_run()
        assert outcome.accepted
        assert candidate.group_key == core.dealer("A").group_key
        _, render2, _, _ = inclusion_run()
        assert render1 == render2

        def unification_run():
            rng = random.Random(42)
            core = CoreNetwork(curve, rng)
            swarm_a = core.provision_swarm("A", 4, n_drones=4)
            swarm_b = core.provision_swarm("B", 4, n_drones=4)
            outcome, transcript = run_unification(swarm_a, swarm_b, core, rng)
            return outcome, transcript.render(), swarm_a, swarm_b, core

        outcome, render1, swarm_a, swarm_b, core = unification_run()
        assert outcome.accepted
        unified = core.dealer("B").group_key
        for drone in list(swarm_a.members()) + list(swarm_b.members()):
            assert drone.group_key == unified
        _, render2, _, _, _ = unification_run()
        assert render1 == render2


def test_attack_suite(capsys):
    # replay, mitm, and eavesdrop must all be thwarted (exit 0)
    with criterion("attack-suite"):
        started = time.perf_counter()
        for mode in ("replay", "mitm", "eavesdrop"):
            assert main(["attack", "--mode", mode]) == 0, mode
        capsys.readouterr()
        assert time.perf_counter() - started < 10.0


def test_5g_flow_correctness():
    with criterion("5g-flow-correctness"):
        curve = CurveGroup()
        rng = random.Random(17)
        keys = gen_bs_keys(curve, rng)
        for _ in range(100):
            supi = random_supi(rng)
            assert run_ue_authentication(curve, supi, keys, rng) == supi

        # single-message tampering is caught at the first checkpoint
        supi = random_supi(rng)
        suci = compute_suci(curve, supi, keys.public, rng)
        broken = bytearray(suci.ciphertext)
        broken[-1] ^= 1
        try:
            udm_challenge(curve, Suci(bytes(broken)), keys, rng)
            raise AssertionError("tampered SUCI must be rejected")
        except DecryptError:
            pass

        state = udm_challenge(curve, suci, keys, rng)
        hxres = ausf_hxres(state)
        bad_rand = bytearray(state.rand)
        bad_rand[0] ^= 1
        assert not seaf_check(ue_response(suci, bytes(bad_rand)), hxres)

        res = bytearray(ue_response(suci, state.rand))
        res[-1] ^= 1
        assert not seaf_check(bytes(res), hxres)
