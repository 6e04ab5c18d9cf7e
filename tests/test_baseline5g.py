"""5G NR flow model: concealment round trips, challenge-response, tampering."""

import random

import pytest

from swarmauth import baseline5g, protocol
from swarmauth.baseline5g import (
    AuthenticationFailure,
    ChallengeState,
    DecryptError,
    OpCounter,
    Supi,
    Suci,
    ausf_confirm,
    ausf_hxres,
    compute_suci,
    gen_bs_keys,
    random_supi,
    run_ue_authentication,
    seaf_check,
    udm_challenge,
    udm_decrypt,
    ue_response,
)


class TestSuci:
    def test_decrypt_inverts_encrypt(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        for _ in range(20):
            supi = random_supi(rng)
            suci = compute_suci(curve, supi, keys.public, rng)
            assert udm_decrypt(curve, suci, keys) == supi

    def test_encryption_randomized(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        supi = random_supi(rng)
        seen = {compute_suci(curve, supi, keys.public, rng).ciphertext
                for _ in range(10)}
        assert len(seen) == 10

    def test_truncated_ciphertext_rejected(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        with pytest.raises(DecryptError):
            udm_decrypt(curve, Suci(suci.ciphertext[:-3]), keys)
        with pytest.raises(DecryptError):
            udm_decrypt(curve, Suci(suci.ciphertext[:10]), keys)

    def test_tampered_ciphertext_rejected(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        tampered = bytearray(suci.ciphertext)
        tampered[-1] ^= 1
        with pytest.raises(DecryptError):
            udm_decrypt(curve, Suci(bytes(tampered)), keys)

    def test_works_on_toy_group(self, toy61, rng):
        keys = gen_bs_keys(toy61, rng)
        supi = random_supi(rng)
        suci = compute_suci(toy61, supi, keys.public, rng)
        assert udm_decrypt(toy61, suci, keys) == supi

    def test_supi_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Supi(b"")


class TestChallenge:
    def test_state_reconstructs_supi(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        supi = random_supi(rng)
        suci = compute_suci(curve, supi, keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        assert state.supi == supi

    def test_fresh_rand_per_challenge(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        s1 = udm_challenge(curve, suci, keys, rng)
        s2 = udm_challenge(curve, suci, keys, rng)
        assert s1.rand != s2.rand

    def test_xres_layout(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        assert state.xres[:16] == state.rand
        assert state.xres[16:] == suci.ciphertext


class TestHxres:
    def test_deterministic_and_32_bytes(self):
        s1 = ChallengeState(b"r" * 16, b"r" * 16 + b"suci", Supi(b"s"))
        s2 = ChallengeState(b"r" * 16, b"r" * 16 + b"suci", Supi(b"s"))
        assert ausf_hxres(s1) == ausf_hxres(s2)
        assert len(s1.hxres) == 32

    def test_bit_flip_changes_digest(self):
        base = bytearray(b"r" * 16 + b"suci-bytes")
        s1 = ChallengeState(bytes(base[:16]), bytes(base), Supi(b"s"))
        flipped = bytearray(base)
        flipped[3] ^= 1
        s2 = ChallengeState(bytes(base[:16]), bytes(flipped), Supi(b"s"))
        assert ausf_hxres(s1) != ausf_hxres(s2)


class TestResponse:
    def test_honest_response_equals_xres(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        assert ue_response(suci, state.rand) == state.xres

    def test_wrong_rand_differs(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        assert ue_response(suci, bytes(16)) != state.xres or state.rand == bytes(16)

    def test_guessed_suci_fails(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        suci = compute_suci(curve, random_supi(rng), keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        for _ in range(50):
            guess = Suci(rng.getrandbits(8 * len(suci.ciphertext))
                         .to_bytes(len(suci.ciphertext), "big"))
            if guess.ciphertext == suci.ciphertext:
                continue
            assert ue_response(guess, state.rand) != state.xres


class TestConfirmation:
    def _happy_state(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        supi = random_supi(rng)
        suci = compute_suci(curve, supi, keys.public, rng)
        state = udm_challenge(curve, suci, keys, rng)
        hxres = ausf_hxres(state)
        res = ue_response(suci, state.rand)
        return supi, state, hxres, res

    def test_happy_path(self, curve, rng):
        supi, state, hxres, res = self._happy_state(curve, rng)
        assert seaf_check(res, hxres)
        assert ausf_confirm(res, state) == supi

    def test_flipped_res_fails_seaf(self, curve, rng):
        _, state, hxres, res = self._happy_state(curve, rng)
        bad = bytearray(res)
        bad[0] ^= 1
        assert not seaf_check(bytes(bad), hxres)

    def test_altered_after_seaf_rejected_by_ausf(self, curve, rng):
        _, state, hxres, res = self._happy_state(curve, rng)
        assert seaf_check(res, hxres)
        bad = bytearray(res)
        bad[-1] ^= 1
        with pytest.raises(AuthenticationFailure):
            ausf_confirm(bytes(bad), state)


class TestEndToEnd:
    def test_100_random_supis(self, curve):
        rng = random.Random(1815)
        keys = gen_bs_keys(curve, rng)
        for _ in range(100):
            supi = random_supi(rng)
            assert run_ue_authentication(curve, supi, keys, rng) == supi

    def test_operation_counts(self, curve, rng):
        # the timing model charges exactly these operations
        keys = gen_bs_keys(curve, rng)
        counter = OpCounter()
        run_ue_authentication(curve, random_supi(rng), keys, rng, counter)
        assert counter.asym_encrypt == 1
        assert counter.asym_decrypt == 1
        assert counter.hash_ops == 2
        assert counter.round_trips == 2

    def test_ecies_key_from_point_key(self, curve, rng, monkeypatch):
        # the UE and the UDM each derive the SUCI's key with the package's
        # one KDF over a shared point, and agree on it
        keys = gen_bs_keys(curve, rng)
        derived = []

        def counting(group, point):
            derived.append(protocol.point_key(group, point))
            return derived[-1]
        monkeypatch.setattr(baseline5g, "point_key", counting)
        supi = random_supi(rng)
        assert run_ue_authentication(curve, supi, keys, rng) == supi
        assert len(derived) == 2 and derived[0] == derived[1]

    def test_tampering_rejected_at_first_checkpoint(self, curve, rng):
        keys = gen_bs_keys(curve, rng)
        supi = random_supi(rng)

        # tampered SUCI dies at the UDM
        suci = compute_suci(curve, supi, keys.public, rng)
        broken = bytearray(suci.ciphertext)
        broken[len(broken) // 2] ^= 1
        with pytest.raises(DecryptError):
            udm_challenge(curve, Suci(bytes(broken)), keys, rng)

        # tampered challenge dies at the SEAF hash comparison
        state = udm_challenge(curve, suci, keys, rng)
        hxres = ausf_hxres(state)
        seen_rand = bytearray(state.rand)
        seen_rand[0] ^= 1
        res = ue_response(suci, bytes(seen_rand))
        assert not seaf_check(res, hxres)

        # tampered RES dies at the SEAF too
        res = ue_response(suci, state.rand)
        bad_res = bytearray(res)
        bad_res[-1] ^= 1
        assert not seaf_check(bytes(bad_res), hxres)
