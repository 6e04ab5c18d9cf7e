"""Secret-sharing math against hand computations and brute-force oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from swarmauth import shares
from swarmauth.algebra import ScalarField, ToyGroup
from swarmauth.shares import (
    Dealer,
    DuplicateIdentifier,
    GroupPolynomial,
    InvalidIdentifier,
    PrivateShare,
    PublicShare,
    ThresholdTooSmall,
    WrongShareCount,
    decode_private_share,
    decode_public_share,
    encode_private_share,
    encode_public_share,
    gen_polynomial,
    group_commitment,
    issue_share,
    lagrange_coeff_at_zero,
    public_share,
    public_shares,
    recover_group_key,
    verify_group,
    _integer_weights,
)

# chi-square critical value, df=100, p=0.999
CHI2_CRIT_DF100 = 149.449


def poly_5_7x(toy101):
    # f(x) = 5 + 7x over q=101: f(1)=12, f(2)=19, f(3)=26
    return GroupPolynomial(toy101.field, (5, 7))


class TestGenPolynomial:
    def test_deterministic_for_seed(self, toy101):
        p1 = gen_polynomial(toy101.field, 3, random.Random(77))
        p2 = gen_polynomial(toy101.field, 3, random.Random(77))
        assert p1 == p2

    def test_degree_exactly_t_minus_1(self, toy101):
        for seed in range(50):
            poly = gen_polynomial(toy101.field, 2, random.Random(seed))
            assert len(poly.coeffs) == 2
            assert poly.coeffs[-1] != 0

    def test_threshold_too_small(self, toy101, rng):
        with pytest.raises(ThresholdTooSmall):
            gen_polynomial(toy101.field, 1, rng)
        with pytest.raises(ThresholdTooSmall):
            GroupPolynomial(toy101.field, (5,))

    def test_polynomials_over_separately_built_fields_are_equal(self):
        p1 = GroupPolynomial(ScalarField(101), (5, 7))
        p2 = GroupPolynomial(ScalarField(101), (5, 7))
        assert p1 == p2 and hash(p1) == hash(p2)
        assert p1 != GroupPolynomial(ScalarField(103), (5, 7))
        assert ScalarField(101) != 101

    def test_group_key_distribution_uniform(self, toy101):
        # 1000 draws of coeffs[0] over q=101, chi-square at p=0.999
        rng = random.Random(2024)
        counts = [0] * 101
        n = 1000
        for _ in range(n):
            counts[gen_polynomial(toy101.field, 3, rng).group_key] += 1
        expected = n / 101
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < CHI2_CRIT_DF100

    def test_leading_coefficient_invariant_enforced(self, toy101):
        with pytest.raises(ValueError, match="leading coefficient"):
            GroupPolynomial(toy101.field, (5, 0))
        for coeffs in ((5, 101), (-1, 7)):
            with pytest.raises(ValueError, match="canonical"):
                GroupPolynomial(toy101.field, coeffs)


class TestIssueShare:
    def test_hand_evaluations(self, toy101):
        poly = poly_5_7x(toy101)
        assert issue_share(poly, 1) == PrivateShare(1, 12)
        assert issue_share(poly, 2) == PrivateShare(2, 19)

    def test_zero_identifier_rejected(self, toy101):
        with pytest.raises(InvalidIdentifier):
            issue_share(poly_5_7x(toy101), 0)
        with pytest.raises(InvalidIdentifier):
            issue_share(poly_5_7x(toy101), 101)  # 0 mod q
        with pytest.raises(InvalidIdentifier):
            PrivateShare(0, 12)
        with pytest.raises(InvalidIdentifier):
            PublicShare(0, 12)

    def test_horner_matches_naive_power_sum(self, toy61, rng):
        f = toy61.field
        for _ in range(20):
            poly = gen_polynomial(f, rng.randrange(2, 7), rng)
            x = f.rand_nonzero(rng)
            naive = sum(c * pow(x, k, f.order) for k, c in enumerate(poly.coeffs))
            assert poly.evaluate(x) == naive % f.order

    @given(st.data())
    def test_one_final_reduction_matches_reduced_horner(self, curve, data):
        # evaluate reduces once at the end; reducing after every Horner step
        # is the reference, for x up to three times the order
        for f in (ScalarField(101), curve.field):
            t = data.draw(st.integers(2, 8))
            coeffs = [data.draw(st.integers(0, f.order - 1)) for _ in range(t - 1)]
            coeffs.append(data.draw(st.integers(1, f.order - 1)))
            poly = GroupPolynomial(f, tuple(coeffs))
            x = data.draw(st.integers(1, 3 * f.order - 1))
            acc = 0
            for c in reversed(poly.coeffs):
                acc = (acc * x + c) % f.order
            assert poly.evaluate(x) == acc
            if x % f.order:
                assert issue_share(poly, x + f.order) == issue_share(poly, x)
                assert issue_share(poly, x).x == x % f.order


class TestPublicShare:
    def test_toy_group_is_identity_map(self, toy101):
        assert public_share(PrivateShare(1, 12), toy101) == PublicShare(1, 12)
        assert public_share(PrivateShare(2, 19), toy101) == PublicShare(2, 19)

    def test_curve_recomputation(self, curve, rng):
        y = curve.field.rand_nonzero(rng)
        share = PrivateShare(7, y)
        pub = public_share(share, curve)
        assert pub.x == 7
        assert pub.point == curve.mul(y, curve.generator)

    def test_batch_equals_one_at_a_time(self, curve, toy101, rng):
        for group in (curve, toy101):
            batch = [PrivateShare(x, group.field.rand(rng)) for x in range(1, 8)]
            batch.append(PrivateShare(8, 0))
            assert public_shares(batch, group) == [public_share(s, group)
                                                   for s in batch]
            assert public_shares([], group) == []


class TestGroupCommitment:
    def test_toy_discrete_log(self, toy101):
        assert group_commitment(poly_5_7x(toy101), toy101) == 5

    def test_zero_key_gives_identity(self, toy101):
        poly = GroupPolynomial(toy101.field, (0, 7))
        assert group_commitment(poly, toy101) == toy101.identity

    def test_curve_cross_check_with_recovery(self, curve, rng):
        poly = gen_polynomial(curve.field, 3, rng)
        shares = [issue_share(poly, x) for x in (2, 5, 9)]
        key = recover_group_key(shares, curve.field, 3)
        assert group_commitment(poly, curve) == curve.mul(key, curve.generator)


class TestLagrange:
    def test_hand_examples(self, toy101):
        f = toy101.field
        # xs={1,2}: -2/(1-2) = 2
        assert lagrange_coeff_at_zero(f, [1, 2], 0) == 2
        # xs={1,2,3}: (-2/-1)*(-3/-2) = 3
        assert lagrange_coeff_at_zero(f, [1, 2, 3], 0) == 3

    def test_duplicate_identifiers_rejected(self, toy101):
        with pytest.raises(DuplicateIdentifier):
            lagrange_coeff_at_zero(toy101.field, [1, 2, 1], 0)

    def test_zero_identifier_rejected(self, toy101):
        with pytest.raises(InvalidIdentifier):
            lagrange_coeff_at_zero(toy101.field, [0, 2], 0)

    def test_single_identifier_rejected(self, toy101):
        with pytest.raises(WrongShareCount):
            lagrange_coeff_at_zero(toy101.field, [1], 0)

    def test_identifiers_equal_mod_q_rejected(self, toy101):
        # 102 = 1 (mod 101): the same evaluation point, so a duplicate
        with pytest.raises(DuplicateIdentifier):
            lagrange_coeff_at_zero(toy101.field, [1, 102], 0)

    def test_interpolation_recovers_f0(self, toy61, rng):
        f = toy61.field
        for _ in range(50):
            t = rng.randrange(2, 7)
            poly = gen_polynomial(f, t, rng)
            xs = rng.sample(range(1, 1000), t)
            acc = 0
            for i, x in enumerate(xs):
                lam = lagrange_coeff_at_zero(f, xs, i)
                acc = (acc + lam * poly.evaluate(x)) % f.order
            assert acc == poly.group_key

    def test_exhaustive_against_monomial_oracle_q13(self, toy13):
        # the coefficients are correct iff they reproduce x^j at 0 for
        # every monomial of degree < t; exhaustive over all xs subsets
        f = toy13.field
        for t in range(2, 7):
            for xs in itertools.combinations(range(1, 13), t):
                lams = [lagrange_coeff_at_zero(f, xs, i) for i in range(t)]
                for j in range(t):
                    total = sum(lam * pow(x, j, 13) for lam, x in zip(lams, xs)) % 13
                    assert total == (1 if j == 0 else 0), (xs, j)

    def test_matches_polynomial_expansion_oracle(self, toy13, rng):
        # second route: expand prod (x - x_r) and evaluate, instead of
        # multiplying per-term fractions
        f = toy13.field
        for _ in range(100):
            t = rng.randrange(2, 7)
            xs = rng.sample(range(1, 13), t)
            for i, xi in enumerate(xs):
                num = [1]  # coefficients, lowest degree first
                for r, xr in enumerate(xs):
                    if r == i:
                        continue
                    num = [(a - xr * b) % 13 for a, b in
                           zip([0] + num, num + [0])]
                num_at = lambda v: sum(c * pow(v, k, 13) for k, c in enumerate(num)) % 13
                expected = num_at(0) * f.inv(num_at(xi)) % 13
                assert lagrange_coeff_at_zero(f, xs, i) == expected


def identifier_sets(field, t):
    """t identifiers, distinct and nonzero mod q, of one of five kinds:
    consecutive, random below 2^20, within t of q on either side (so some
    are not reduced), the multiples a, 2a, ..., ta of a wide a, or
    random below q."""
    q = field.order
    consecutive = st.integers(1, 1 << 20).map(lambda s: list(range(s, s + t)))
    small = st.lists(st.integers(1, (1 << 20) - 1), min_size=t, max_size=t,
                     unique=True)
    near_q = st.permutations([q + k for k in range(-t, t + 1) if k]).map(
        lambda xs: xs[:t])
    multiples = st.integers(2, (q - 1) // t).map(
        lambda a: [a * i for i in range(1, t + 1)])
    wide = st.lists(st.integers(1, q - 1), min_size=t, max_size=t, unique=True)
    return st.one_of(consecutive, small, near_q, multiples, wide)


def reference_weights(field, xs):
    """lambda_i mod q, one field inversion per weight."""
    q = field.order
    out = []
    for i, xi in enumerate(xs):
        num = den = 1
        for r, xr in enumerate(xs):
            if r != i:
                num = num * xr % q
                den = den * (xr - xi) % q
        out.append(num * field.inv(den) % q)
    return out


class TestIntegerWeights:
    @given(st.data())
    def test_weights_are_d_times_lagrange(self, curve, toy61, data):
        for f in (curve.field, toy61.field):
            t = data.draw(st.integers(2, 12))
            xs = data.draw(identifier_sets(f, t))
            c, d = _integer_weights(f, xs)
            assert d % f.order != 0
            lams = reference_weights(f, xs)
            assert [ci % f.order for ci in c] == [d * lam % f.order for lam in lams]
            # a function of the identifiers mod q only
            assert _integer_weights(f, [x + f.order for x in xs]) == (c, d)

    def test_dealer_identifiers_give_short_weights(self, curve):
        # the guard check at t = 10: guards 1..9 and the candidate 11. Full
        # 256-bit weights would cost about ten times the curve work.
        c, d = _integer_weights(curve.field, [*range(1, 10), 11])
        assert all(abs(v) < 1 << 16 for v in c + [d])
        assert c == [99, -440, 1155, -1980, 2310, -1848, 990, -330, 55, -1]
        assert d == 10

    def test_wide_identifiers_fall_back_to_residues(self, curve):
        # no weights shorter than q exist; the lcm of the denominators is
        # not built out to thousands of bits
        f = curve.field
        rng = random.Random(5)
        xs = [f.rand_nonzero(rng) for _ in range(50)]
        c, d = _integer_weights(f, xs)
        assert d == 1
        assert c == reference_weights(f, xs)

    @pytest.mark.parametrize("kind", ["1..t", "q-1..q-t", "a..ta"])
    def test_path_taken_at_t100(self, curve, monkeypatch, kind):
        # q - i is centred to -i, and the weights of -1..-t are those of
        # 1..t: lambda_i = (-1)^(i+1) * C(t, i), d = 1. The multiples of
        # a ~ q/102 would reduce to short weights too, but only through
        # products of 25 000 bits, so they take the residue path.
        f = curve.field
        q, t = f.order, 100
        xs = {"1..t": list(range(1, t + 1)),
              "q-1..q-t": [q - i for i in range(1, t + 1)],
              "a..ta": [q // (t + 2) * i for i in range(1, t + 1)]}[kind]
        residue_calls = []
        residue_weights = shares._residue_weights

        def spy(field, ids):
            residue_calls.append(len(ids))
            return residue_weights(field, ids)

        monkeypatch.setattr(shares, "_residue_weights", spy)
        c, d = _integer_weights(f, xs)
        assert [ci % q for ci in c] == [d * lam % q
                                       for lam in reference_weights(f, xs)]
        assert d == 1
        if kind == "a..ta":
            assert residue_calls == [t]
        else:
            assert residue_calls == []
            assert c == [(-1) ** (i + 1) * math.comb(t, i) for i in range(1, t + 1)]
            assert max(abs(ci) for ci in c) < 1 << 97


class TestVerifyGroup:
    @given(st.data())
    def test_matches_plain_weighted_sum(self, curve, toy61, data):
        # verify_group against sum(lambda_i * P_i) == Q built here from
        # one-term muls, on honest sets, sets with one substituted point,
        # and group key 0 (Q is the identity)
        for group in (toy61, curve):
            f = group.field
            t = data.draw(st.integers(2, 6))
            xs = data.draw(identifier_sets(f, t))
            coeffs = [data.draw(st.integers(0, f.order - 1)) for _ in range(t - 1)]
            coeffs.append(data.draw(st.integers(1, f.order - 1)))
            if data.draw(st.booleans()):
                coeffs[0] = 0
            poly = GroupPolynomial(f, tuple(coeffs))
            points = group.mul_generator([poly.evaluate(x) for x in xs])
            victim = data.draw(st.sampled_from([None, *range(t)]))
            if victim is not None:
                points[victim] = group.mul(data.draw(st.integers(0, f.order - 1)),
                                           group.generator)
            pubs = [PublicShare(x, p) for x, p in zip(xs, points)]
            commitment = group_commitment(poly, group)
            total = group.identity
            for lam, p in zip(reference_weights(f, xs), points):
                total = group.add(total, group.mul(lam, p))
            expected = total == commitment
            assert verify_group(pubs, commitment, group, t) == expected
            if victim is None:
                assert expected

    def test_hand_example_accepts(self, toy101):
        # c1 = 12*2 = 24, c2 = 19*(-1) = -19; 24-19 = 5 = Q
        poly = poly_5_7x(toy101)
        pubs = [PublicShare(1, 12), PublicShare(2, 19)]
        assert verify_group(pubs, group_commitment(poly, toy101), toy101, 2)

    def test_hand_example_rejects_corruption(self, toy101):
        # 24 - 20 = 4 != 5
        poly = poly_5_7x(toy101)
        pubs = [PublicShare(1, 12), PublicShare(2, 20)]
        assert not verify_group(pubs, group_commitment(poly, toy101), toy101, 2)

    def test_rejects_shares_from_other_polynomial(self, toy101, rng):
        poly = poly_5_7x(toy101)
        commitment = group_commitment(poly, toy101)
        for _ in range(50):
            other = gen_polynomial(toy101.field, 2, rng)
            if other.group_key == poly.group_key:
                continue
            pubs = [public_share(issue_share(other, x), toy101) for x in (1, 2)]
            assert not verify_group(pubs, commitment, toy101, 2)

    def test_share_count_enforced(self, toy101):
        poly = poly_5_7x(toy101)
        commitment = group_commitment(poly, toy101)
        with pytest.raises(WrongShareCount):
            verify_group([PublicShare(1, 12)], commitment, toy101, 2)

    def test_duplicates_rejected(self, toy101):
        poly = poly_5_7x(toy101)
        commitment = group_commitment(poly, toy101)
        with pytest.raises(DuplicateIdentifier):
            verify_group([PublicShare(1, 12), PublicShare(1, 12)],
                         commitment, toy101, 2)

    def test_duplicates_mod_q_rejected(self, toy101):
        poly = poly_5_7x(toy101)
        commitment = group_commitment(poly, toy101)
        with pytest.raises(DuplicateIdentifier):
            verify_group([PublicShare(1, 12), PublicShare(102, 12)],
                         commitment, toy101, 2)

    def test_completeness_random(self, toy61, rng):
        for _ in range(300):
            t = rng.randrange(2, 6)
            poly = gen_polynomial(toy61.field, t, rng)
            commitment = group_commitment(poly, toy61)
            xs = rng.sample(range(1, 10_000), t)
            pubs = [public_share(issue_share(poly, x), toy61) for x in xs]
            assert verify_group(pubs, commitment, toy61, t)

    def test_soundness_random_corruption(self, toy61, rng):
        for _ in range(2000):
            t = rng.randrange(2, 5)
            poly = gen_polynomial(toy61.field, t, rng)
            commitment = group_commitment(poly, toy61)
            xs = rng.sample(range(1, 10_000), t)
            pubs = [public_share(issue_share(poly, x), toy61) for x in xs]
            victim = rng.randrange(t)
            honest = pubs[victim]
            bad_point = toy61.mul(toy61.field.rand(rng), toy61.generator)
            while bad_point == honest.point:
                bad_point = toy61.mul(toy61.field.rand(rng), toy61.generator)
            pubs[victim] = PublicShare(honest.x, bad_point)
            assert not verify_group(pubs, commitment, toy61, t)


class TestRecoverGroupKey:
    def test_hand_example(self, toy101):
        shares = [PrivateShare(1, 12), PrivateShare(2, 19)]
        assert recover_group_key(shares, toy101.field, 2) == 5

    def test_matches_dealer_for_random_polynomials(self, toy61, rng):
        for _ in range(100):
            t = rng.randrange(2, 7)
            poly = gen_polynomial(toy61.field, t, rng)
            xs = rng.sample(range(1, 10_000), t)
            shares = [issue_share(poly, x) for x in xs]
            assert recover_group_key(shares, toy61.field, t) == poly.group_key

    def test_too_few_shares(self, toy101):
        with pytest.raises(WrongShareCount):
            recover_group_key([PrivateShare(1, 12)], toy101.field, 2)

    def test_duplicates_mod_q_rejected(self, toy101):
        with pytest.raises(DuplicateIdentifier):
            recover_group_key([PrivateShare(1, 12), PrivateShare(102, 12)],
                              toy101.field, 2)

    def test_consistency_with_commitment_all_subsets(self, toy61, rng):
        # recover(private subset) * P == Q for every size-t subset
        for t in range(2, 7):
            poly = gen_polynomial(toy61.field, t, rng)
            commitment = group_commitment(poly, toy61)
            shares = [issue_share(poly, x) for x in range(1, t + 3)]
            for subset in itertools.combinations(shares, t):
                key = recover_group_key(list(subset), toy61.field, t)
                assert toy61.mul(key, toy61.generator) == commitment


class TestThresholdProperty:
    def test_t_minus_1_shares_leave_group_key_free_q13(self, toy13):
        # brute force: with t-1 evaluations fixed, enumerating the whole
        # coefficient space finds exactly one completion per candidate key
        f = toy13.field
        for t, seed in ((2, 4), (3, 9)):
            poly = gen_polynomial(f, t, random.Random(seed))
            known = [(x, poly.evaluate(x)) for x in range(1, t)]
            per_key = [0] * 13
            for coeffs in itertools.product(range(13), repeat=t):
                if all(sum(c * pow(x, k, 13) for k, c in enumerate(coeffs)) % 13 == y
                       for x, y in known):
                    per_key[coeffs[0]] += 1
            assert per_key == [1] * 13


class TestDealer:
    def test_sequential_identifiers(self, toy101, rng):
        dealer = Dealer(gen_polynomial(toy101.field, 3, rng))
        xs = [dealer.issue_next().x for _ in range(5)]
        assert xs == [1, 2, 3, 4, 5]
        assert dealer.register_range(3) == range(6, 9)
        assert dealer.issued_identifiers() == range(1, 9)

    def test_negative_range_raises(self, toy101, rng):
        # a bare range would move the counter back and hand out 1 again
        dealer = Dealer(gen_polynomial(toy101.field, 3, rng))
        with pytest.raises(ValueError):
            dealer.register_range(-1)
        assert dealer.issued_identifiers() == range(1, 1)
        assert dealer.issue_next().x == 1

    def test_register_range_past_ssize_t(self, curve, rng):
        # a range longer than sys.maxsize has no len(); the dealer counts
        # it by its ends
        dealer = Dealer(gen_polynomial(curve.field, 3, rng))
        assert dealer.register_range(2 ** 63) == range(1, 2 ** 63 + 1)
        assert dealer.issue_next().x == 2 ** 63 + 1

    @staticmethod
    def _range(dealer, n):
        """The shares of the next n identifiers, as a swarm gets them."""
        return dealer.shares_at(dealer.register_range(n))

    @staticmethod
    def _outcome(issue):
        try:
            return issue()
        except InvalidIdentifier as e:
            return type(e)

    @given(st.integers(0, 120))
    def test_issue_range_is_n_issue_next_calls(self, n):
        # ToyGroup(101): a range longer than 100 wraps past q
        group = ToyGroup(101)
        poly = gen_polynomial(group.field, 3, random.Random(n))
        dealer, twin = Dealer(poly), Dealer(poly)
        got = self._outcome(lambda: self._range(dealer, n))
        want = []
        for _ in range(n):
            share = self._outcome(twin.issue_next)
            if not isinstance(share, PrivateShare):
                want = share
                break
            want.append(share)
        assert got == want
        assert dealer.issued_identifiers() == twin.issued_identifiers()
        assert self._outcome(dealer.issue_next) == self._outcome(twin.issue_next)

    @given(st.sampled_from(("toy", "curve")), st.integers(2, 6), st.integers(0, 30),
           st.integers(0, 30), st.integers(0, 2**32))
    def test_issue_range_evaluates_the_polynomial(self, toy61, curve, kind, t,
                                                  k, n, seed):
        # GroupPolynomial.evaluate is the reference: each share holds the
        # evaluation at its own identifier, also when they do not start at 1
        field = (toy61 if kind == "toy" else curve).field
        poly = gen_polynomial(field, t, random.Random(seed))
        dealer = Dealer(poly)
        self._range(dealer, k)
        shares = self._range(dealer, n)
        assert [s.x for s in shares] == list(range(k + 1, k + n + 1))
        assert [s.y for s in shares] == [poly.evaluate(s.x) for s in shares]

    def test_issue_range_of_zero(self, toy101, rng):
        dealer = Dealer(gen_polynomial(toy101.field, 3, rng))
        self._range(dealer, 2)
        assert self._range(dealer, 0) == []
        assert dealer.issued_identifiers() == range(1, 3)
        assert dealer.issue_next().x == 3

    def test_issue_range_raises_at_the_wrap(self, toy13, rng):
        # identifiers run out at q = 13: the 12th share is the last, so a
        # range of 13 raises as the 13th issue_next does, keeping the
        # shares issued before it
        poly = gen_polynomial(toy13.field, 3, rng)
        dealer, twin = Dealer(poly), Dealer(poly)
        with pytest.raises(InvalidIdentifier):
            self._range(dealer, 13)
        assert [twin.issue_next().x for _ in range(12)] == list(range(1, 13))
        with pytest.raises(InvalidIdentifier):
            twin.issue_next()
        assert dealer.issued_identifiers() == twin.issued_identifiers() == range(1, 13)
        for d in (dealer, twin):
            with pytest.raises(InvalidIdentifier):
                self._range(d, 1)
            assert self._range(d, 0) == []


class TestSerialization:
    def test_private_share_round_trip(self, toy101, curve, rng):
        for group in (toy101, curve):
            share = PrivateShare(3, group.field.rand(rng))
            data = encode_private_share(group.field, share)
            assert decode_private_share(group.field, data) == share

    def test_public_share_round_trip(self, toy101, curve, rng):
        for group in (toy101, curve):
            share = public_share(PrivateShare(3, group.field.rand_nonzero(rng)), group)
            data = encode_public_share(group, share)
            assert decode_public_share(group, data) == share

    def test_trailing_bytes_rejected(self, toy101):
        from swarmauth.algebra import DecodeError
        share = PrivateShare(1, 12)
        data = encode_private_share(toy101.field, share) + b"\x00"
        with pytest.raises(DecodeError):
            decode_private_share(toy101.field, data)
