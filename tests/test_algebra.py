"""Field and group arithmetic against integer and textbook oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from swarmauth import algebra
from swarmauth.algebra import (
    CurveGroup,
    DecodeError,
    ScalarField,
    ToyGroup,
    ZeroInverse,
    make_group,
    _GENERATOR_CHUNK,
    _GLV_A1,
    _GLV_A2,
    _GLV_B1,
    _GLV_B2,
    _GLV_BETA,
    _GLV_LAMBDA,
    _SECP_GX,
    _SECP_GY,
    _SECP_N,
    _SECP_P,
    _batch_affine_add,
    _glv_split,
    _WINDOW_MIN_BITS,
    _inverses,
    _jac_add_affine,
    _jac_double,
    _odd_multiples,
    _to_affine,
    _wnaf,
)


def reference_mul(group, s, g):
    """Textbook double-and-add over ``group.add`` alone: the oracle for the
    windowed and table-driven muls."""
    acc = group.identity
    s %= group.order
    while s:
        if s & 1:
            acc = group.add(acc, g)
        g = group.add(g, g)
        s >>= 1
    return acc


EDGE_SCALARS = (0, 1, _SECP_N - 1, _SECP_N - 2, 2**255 % _SECP_N,
                (2**256 - 1) % _SECP_N)
# edge values, uniform 256-bit values (reduced by mul), k low bits that
# are all 1 (signed digits -1 and long carries), and k 9-bit windows that
# all hold 256 (below 2^126 the split leaves them whole in k1, as digits
# -256, the generator table's largest entry negated, and carries)
scalars = st.one_of(st.sampled_from(EDGE_SCALARS),
                    st.integers(0, 2**256 - 1),
                    st.integers(1, 256).map(lambda k: 2**k - 1),
                    st.integers(1, 28).map(lambda k: (2**(9 * k) - 1) // 511 * 256))
discrete_logs = st.integers(1, _SECP_N - 1)


def rounding_boundary_scalars():
    """Scalars k with b*k mod n within 3 of n/2, for b = b2 and -b1: where
    the split's rounded quotients c1 and c2 flip."""
    out = []
    for b in (_GLV_B2, -_GLV_B1):
        b_inv = pow(b, -1, _SECP_N)
        out += [(_SECP_N // 2 + d) * b_inv % _SECP_N for d in range(-3, 4)]
    return tuple(out)


GLV_EDGE_SCALARS = (0, 1, _GLV_LAMBDA, _SECP_N - _GLV_LAMBDA,
                    _SECP_N - 1) + rounding_boundary_scalars()
glv_scalars = st.one_of(st.sampled_from(GLV_EDGE_SCALARS), scalars)


def from_halves(k1, k2):
    """The scalar k1 + k2*lambda (mod n). For |k1|, |k2| <= 2^126 (and for
    other pairs near the origin of the split's lattice), ``_glv_split``
    returns (k1, k2) for it."""
    return (k1 + k2 * _GLV_LAMBDA) % _SECP_N


def signed_digits(k):
    """Signed base-512 digits of k >= 0, each in [-256, 256), least
    significant first: the recoding of a GLV half over the rows of the
    generator table."""
    digits = []
    while k:
        d = (k + 256) % 512 - 256
        digits.append(d)
        k = (k - d) >> 9
    return digits


# GLV halves of either sign: uniform up to 2^126, and k 9-bit windows that
# all hold 256 (digits -256 and carries across every row)
halves = st.one_of(st.integers(-2**126, 2**126),
                   st.tuples(st.integers(1, 14), st.sampled_from((1, -1))).map(
                       lambda ks: ks[1] * ((2**(9 * ks[0]) - 1) // 511 * 256)))
half_scalars = st.tuples(halves, halves).map(lambda h: from_halves(*h))


def carry_splits():
    """GLV halves whose row 13 (bits 117-125) is at 256 or above, so that
    it becomes a negative digit and carries into row 14, the top one, as a
    digit 1, 2 or 3. Only halves near the split's bound reach 3, and only
    beside a k2 of the size that goes with them."""
    near = (_GLV_B1 + _GLV_B2) * 4999 // 10000
    splits = [((t << 126) + (v << 117), 0) for t in (0, 1) for v in range(256, 512, 8)]
    splits += [((2 << 126) + (v << 117), near) for v in (256, 270)]
    return splits + [(-k1, -k2) for k1, k2 in splits[:64:8] + splits[-2:]]


CARRY_SPLITS = carry_splits()


class TestScalarField:
    def test_requires_prime_order(self):
        with pytest.raises(ValueError):
            ScalarField(100)
        with pytest.raises(ValueError):
            ScalarField(1)
        ScalarField(2)
        ScalarField(101)

    def test_inv_examples(self):
        f = ScalarField(101)
        assert f.inv(1) == 1
        assert f.inv(2) == 51  # 2*51 = 102 = 1 mod 101
        f13 = ScalarField(13)
        assert f13.inv(5) == 8  # 5*8 = 40 = 1 mod 13

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroInverse):
            ScalarField(101).inv(0)

    def test_field_laws_random(self, rng, toy61):
        f = toy61.field
        for _ in range(200):
            a = f.rand(rng)
            if a != 0:
                assert a * f.inv(a) % f.order == 1

    def test_scalar_encoding_round_trip(self, rng, curve):
        for f in (ScalarField(101), curve.field):
            for _ in range(100):
                a = f.rand(rng)
                encoded = f.encode(a)
                assert len(encoded) == f.width
                assert f.decode(encoded) == a

    def test_scalar_decode_rejects_bad_input(self):
        f = ScalarField(101)
        with pytest.raises(DecodeError):
            f.decode(b"\x00\x00")  # wrong width
        with pytest.raises(DecodeError):
            f.decode(bytes([101]))  # out of range


class TestToyGroup:
    def test_discrete_log_is_identity_map(self, toy101, rng):
        assert toy101.mul(5, toy101.generator) == 5
        for _ in range(100):
            s = toy101.field.rand(rng)
            assert toy101.mul(s, toy101.generator) == s

    def test_order_annihilates(self, toy101):
        p = toy101.mul(toy101.order - 1, toy101.generator)
        assert toy101.add(p, toy101.generator) == toy101.identity

    def test_add_examples(self, toy101):
        assert toy101.add(40, 61) == 0
        assert toy101.add(12, 19) == 31
        assert toy101.add(toy101.identity, 42) == 42

    def test_encoding_fixed_width_big_endian(self, toy101):
        assert toy101.encode(5) == bytes([5])
        big = ToyGroup()
        assert big.encode(5) == (5).to_bytes(8, "big")

    def test_decode_rejects_out_of_range(self, toy101):
        with pytest.raises(DecodeError):
            toy101.decode(bytes([101]))


class TestCurveGroup:
    def test_generator_on_curve(self, curve):
        assert curve.contains(curve.generator)

    def test_groups_share_one_field_built_once(self, monkeypatch):
        # the order's primality is checked at import, not per group
        def no_primality_test(n):
            raise AssertionError("CurveGroup() ran the primality test")

        monkeypatch.setattr(algebra, "_is_prime", no_primality_test)
        a, b = CurveGroup(), CurveGroup()
        assert a.field is b.field
        assert a.field.order == _SECP_N
        with pytest.raises(AssertionError):
            ToyGroup(101)

    def test_order_annihilates_generator(self, curve):
        assert curve.mul(curve.order, curve.generator) is None

    def test_mul_zero_and_one(self, curve):
        assert curve.mul(0, curve.generator) is None
        assert curve.mul(1, curve.generator) == curve.generator

    def test_identity_laws(self, curve):
        g = curve.mul(1234567, curve.generator)
        assert curve.add(curve.identity, g) == g
        assert curve.add(g, curve.identity) == g
        assert curve.add(g, curve.neg(g)) is None

    def test_double_matches_affine_textbook_formula(self, curve):
        # independent oracle: affine tangent-slope doubling
        x1, y1 = curve.generator
        lam = 3 * x1 * x1 * pow(2 * y1, -1, _SECP_P) % _SECP_P
        x3 = (lam * lam - 2 * x1) % _SECP_P
        y3 = (lam * (x1 - x3) - y1) % _SECP_P
        assert curve.add(curve.generator, curve.generator) == (x3, y3)
        assert curve.mul(2, curve.generator) == (x3, y3)

    def test_scalar_mul_composes(self, curve, rng):
        # a*(b*P) == (a*b mod q)*P
        for _ in range(8):
            a, b = curve.field.rand(rng), curve.field.rand(rng)
            lhs = curve.mul(a, curve.mul(b, curve.generator))
            rhs = curve.mul(a * b % curve.field.order, curve.generator)
            assert lhs == rhs

    def test_mul_distributes_over_scalar_add(self, curve, rng):
        for _ in range(8):
            a, b = curve.field.rand(rng), curve.field.rand(rng)
            lhs = curve.mul((a + b) % curve.field.order, curve.generator)
            rhs = curve.add(curve.mul(a, curve.generator),
                            curve.mul(b, curve.generator))
            assert lhs == rhs

    def test_add_commutes_and_associates(self, curve, rng):
        pts = [curve.mul(curve.field.rand_nonzero(rng), curve.generator)
               for _ in range(4)]
        for g in pts:
            for h in pts:
                assert curve.add(g, h) == curve.add(h, g)
        a, b, c = pts[:3]
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))

    def test_results_stay_on_curve(self, curve, rng):
        for _ in range(20):
            s = curve.field.rand_nonzero(rng)
            assert curve.contains(curve.mul(s, curve.generator))

    def test_known_multiples_of_the_generator(self, curve):
        assert curve.mul(2, curve.generator) == (
            0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
            0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A)
        assert curve.mul(3, curve.generator) == (
            0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
            0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672)

    @pytest.mark.parametrize("s", EDGE_SCALARS + (16**64 - 1, _SECP_N, -1), ids=(
        "0", "1", "n-1", "n-2", "2^255", "2^256-1", "16^64-1", "n", "-1"))
    def test_edge_scalars_match_reference(self, curve, s):
        g = curve.generator
        p = reference_mul(curve, 0xDEADBEEF, g)
        assert curve.mul(s, g) == reference_mul(curve, s, g)
        assert curve.mul(s, p) == reference_mul(curve, s, p)

    @settings(max_examples=40)
    @given(s=scalars)
    def test_generator_mul_matches_reference(self, curve, s):
        assert curve.mul(s, curve.generator) == reference_mul(curve, s, curve.generator)

    @settings(max_examples=25)
    @given(k=discrete_logs, s=scalars)
    def test_point_mul_matches_reference(self, curve, k, s):
        p = reference_mul(curve, k, curve.generator)
        assert curve.mul(s, p) == reference_mul(curve, s, p)


class TestBatchedGeneratorMul:
    """``mul_generator`` splits each scalar into GLV halves, recodes each
    half into signed width-9 digits, sums their table entries pairwise over
    a chunk of scalars, one ``_batch_affine_add`` per level of sums, and
    adds k1*G to lambda*(k2*G) in one last batch."""

    def test_edge_scalars_match_reference(self, curve):
        edge = [0, 1, 15, 16, 2**252, 15 * 2**252, _SECP_N - 2, _SECP_N - 1,
                _GLV_LAMBDA, _SECP_N - _GLV_LAMBDA]
        assert curve.mul_generator(edge) == [
            reference_mul(curve, s, curve.generator) for s in edge]

    def test_scalars_of_n_and_above_are_reduced(self, curve):
        big = [_SECP_N, _SECP_N + 1, _SECP_N + 15 * 2**252, 2**256 - 1,
               2 * _SECP_N - 1]
        assert curve.mul_generator(big) == [
            reference_mul(curve, s, curve.generator) for s in big]

    def test_empty_batch(self, curve, toy61):
        assert curve.mul_generator([]) == []
        assert toy61.mul_generator([]) == []

    def test_every_count_of_nonzero_digits(self, curve):
        # 1..64 hex digits that are all 15, in one call: below 2^126 the
        # split leaves them whole in k1, as signed digits -1 and carries
        # that run across whole windows
        batch = [16**k - 1 for k in range(1, 65)]
        assert curve.mul_generator(batch) == [
            reference_mul(curve, s, curve.generator) for s in batch]

    def test_every_count_of_nonzero_signed_digits(self, curve):
        # 1..15 table entries per half, k1 positive and k2 negative, all in
        # one call: every pattern of odd entries left over across the
        # levels of pairwise sums. Signed digits are unique, so
        # sum(d_i * 2^(9i)) recodes to exactly d_i; the positive top digit
        # outweighs the lower ones, so the half is positive before its sign.
        lower = (-256, 255, -1, 1, -129, 65)

        def half(count):
            top = 1 if count == 15 else 5  # the top row holds 1..3 only
            return (sum(lower[i % len(lower)] << (9 * i) for i in range(count - 1))
                    + (top << (9 * (count - 1))))

        def nonzero(k):
            return sum(1 for d in signed_digits(abs(k)) if d)

        splits = [(half(c), -half(16 - c)) for c in range(1, 16)]
        assert [(nonzero(k1), nonzero(k2)) for k1, k2 in splits] == [
            (c, 16 - c) for c in range(1, 16)]
        batch = [from_halves(k1, k2) for k1, k2 in splits]
        assert [_glv_split(s) for s in batch] == splits
        assert curve.mul_generator(batch) == [
            reference_mul(curve, s, curve.generator) for s in batch]

    def test_every_sign_of_the_halves_and_a_zero_half(self, curve):
        # y is negated for a negative half, and lambda is applied to k2*G
        # alone; a zero half drops out of the last batch
        a, b = 0xC0FFEE << 100, 0xBEEF << 90
        splits = [(a, b), (a, -b), (-a, b), (-a, -b),
                  (a, 0), (-a, 0), (0, b), (0, -b), (1, 0), (-1, 0), (0, 1), (0, -1)]
        batch = [from_halves(k1, k2) for k1, k2 in splits]
        assert batch[-4:] == [1, _SECP_N - 1, _GLV_LAMBDA, _SECP_N - _GLV_LAMBDA]
        assert [_glv_split(s) for s in batch] == splits
        assert curve.mul_generator(batch) == [
            reference_mul(curve, s, curve.generator) for s in batch]

    def test_carry_halves_reach_every_top_digit(self):
        assert all(signed_digits(abs(k1))[13] < 0 for k1, _ in CARRY_SPLITS)
        assert {signed_digits(abs(k1))[14] for k1, _ in CARRY_SPLITS} == {1, 2, 3}

    @pytest.mark.parametrize("k1, k2", CARRY_SPLITS, ids=[
        f"k1={'-' if k1 < 0 else ''}{abs(k1) >> 117}<<117" + (",near" if k2 else "")
        for k1, k2 in CARRY_SPLITS])
    def test_carry_into_the_top_row_matches_reference(self, curve, k1, k2):
        s = from_halves(k1, k2)
        assert _glv_split(s) == (k1, k2)
        assert curve.mul_generator([s]) == [reference_mul(curve, s, curve.generator)]

    @settings(max_examples=40)
    @given(s=st.one_of(glv_scalars, half_scalars))
    def test_table_agrees_with_straus_msm(self, curve, s):
        # two independent paths: the signed fixed-base table, and the
        # GLV-split wNAF msm on G as an arbitrary point
        assert curve.mul_generator([s])[0] == curve.msm([s], [curve.generator])

    @settings(max_examples=25)
    @given(pool=st.lists(scalars, min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 4), max_size=12))
    def test_repeats_and_zeros_match_reference(self, curve, pool, picks):
        # index len(pool) and above picks 0
        batch = [pool[i] if i < len(pool) else 0 for i in picks]
        want = {s: reference_mul(curve, s, curve.generator) for s in set(batch)}
        assert curve.mul_generator(batch) == [want[s] for s in batch]

    def test_batch_of_several_chunks_keeps_its_order(self, curve):
        # two full chunks and a partial one, each scalar in its place
        pool = [0, 1, 15 * 2**252, _SECP_N - 1, 0xDEADBEEF]
        want = [reference_mul(curve, s, curve.generator) for s in pool]
        picks = [(i * i + i // 7) % len(pool) for i in range(2 * _GENERATOR_CHUNK + 9)]
        assert curve.mul_generator([pool[i] for i in picks]) == [want[i] for i in picks]

    @given(batch=st.lists(st.integers(-2**70, 2**70), max_size=30))
    def test_toy_agrees_with_mul(self, toy61, batch):
        assert toy61.mul_generator(batch) == [toy61.mul(s, toy61.generator)
                                              for s in batch]

    @given(values=st.lists(st.integers(1, _SECP_P - 1), min_size=1, max_size=20))
    def test_shared_inversion(self, values):
        inverses = _inverses(values, _SECP_P)
        assert [v * w % _SECP_P for v, w in zip(values, inverses)] == [1] * len(values)

    def test_shared_inversion_of_zero_raises(self):
        # a zero denominator would otherwise yield a wrong point, not an error
        for values in ([0], [3, 0, 5], [7, _SECP_P]):
            with pytest.raises(ZeroInverse):
                _inverses(values, _SECP_P)


class TestBatchAffineAdd:
    """``_batch_affine_add`` against pairwise ``CurveGroup.add``; pairs are
    drawn from a few points and their negations, so doublings and sums to
    the identity come up often."""

    @settings(max_examples=40)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 2), st.booleans(),
                                    st.integers(0, 2), st.booleans()),
                          min_size=1, max_size=16))
    def test_matches_pairwise_add(self, curve, logs, picks):
        pool = [reference_mul(curve, k, curve.generator) for k in logs]

        def pick(i, negate):
            point = pool[i % len(pool)]
            return curve.neg(point) if negate else point
        pairs = [(pick(i, a), pick(j, b)) for i, a, j, b in picks]
        assert _batch_affine_add(pairs) == [curve.add(p, q) for p, q in pairs]

    def test_doubling_and_cancellation_in_one_batch(self, curve):
        g = curve.generator
        p = reference_mul(curve, 0xDEADBEEF, g)
        pairs = [(g, g), (p, curve.neg(p)), (g, p), (p, p), (curve.neg(g), g)]
        assert _batch_affine_add(pairs) == [
            reference_mul(curve, 2, g), None, reference_mul(curve, 0xDEADBEEF + 1, g),
            reference_mul(curve, 2 * 0xDEADBEEF, g), None]
        assert _batch_affine_add([]) == []


def split_bound():
    """The largest |k1| or |k2| that ``_glv_split`` can return, from the
    basis alone: a half is e1*a1 + e2*a2 (k1) or e1*b1 + e2*b2 (k2), where
    e1 and e2 are the rounding errors of the split's quotients, each at
    most 1/2 in size."""
    return max(abs(_GLV_A1) + abs(_GLV_A2), abs(_GLV_B1) + abs(_GLV_B2)) // 2


class TestGeneratorTable:
    """The signed width-9 fixed-base table over GLV halves and the work a
    batch costs."""

    @pytest.fixture()
    def table(self, curve):
        curve.mul_generator([1])  # builds the table once per process
        return algebra._generator_table

    def test_shape(self, table):
        # 14 full rows and a top row as long as the bound's top digit, each
        # the x and the y of its entries
        assert [(len(xs), len(ys)) for xs, ys in table] == [
            (n, n) for n in [256] * 14 + [signed_digits(split_bound())[14]]]

    @pytest.mark.parametrize("i", [0, 1, 13, 14])
    def test_entries_are_multiples_of_the_row_base(self, curve, table, i):
        # entry d - 1 of row i is d * 2^(9i) * G: the first and last by the
        # reference, the others as a chain of single additions
        base = reference_mul(curve, 2**(9 * i), curve.generator)
        entries = list(zip(*table[i]))
        chain = [base]
        while len(chain) < len(entries):
            chain.append(curve.add(chain[-1], base))
        assert entries == chain
        assert entries[-1] == reference_mul(curve, len(entries), base)

    def test_top_row_covers_the_split_bound_with_its_carry(self, table):
        bound = split_bound()
        # the bound holds for the halves of edge and random scalars, and the
        # split returns halves within 0.1% of it
        rng = random.Random(22)
        for k in GLV_EDGE_SCALARS + tuple(rng.randrange(_SECP_N) for _ in range(500)):
            assert max(abs(h) for h in _glv_split(k)) <= bound
        corner = ((_GLV_A1 + _GLV_A2) * 4999 // 10000, (_GLV_B1 + _GLV_B2) * 4999 // 10000)
        assert _glv_split(from_halves(*corner)) == corner
        assert corner[0] > bound * 999 // 1000
        # the top digit only grows with |k|, so the bound's is the largest;
        # without the carries out of the full rows it would be smaller
        digits = signed_digits(bound)
        assert len(digits) == len(table) == 15
        assert digits[14] == len(table[14][0])
        assert bound >> 126 < digits[14]

    def test_batch_of_104_costs_at_most_29_additions_per_scalar(self, curve, table,
                                                                monkeypatch):
        # a count, not a timing: a half has at most 15 signed digits, so at
        # most 14 additions in 4 levels, and one more adds the halves
        batches = []
        add = algebra._batch_affine_add
        monkeypatch.setattr(algebra, "_batch_affine_add",
                            lambda pairs: batches.append(len(pairs)) or add(pairs))
        rng = random.Random(104)
        batch = [rng.randrange(_SECP_N) for _ in range(104)]
        curve.mul_generator(batch)
        assert sum(batches) <= 104 * 29
        assert len(batches) <= 5


class TestMultiScalarMul:
    """``msm`` against the reference: the points are drawn as multiples
    k*G with known k, so the expected sum is (sum of s*k)*G."""

    @settings(max_examples=60)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=4),
           terms=st.lists(st.tuples(scalars, st.integers(0, 3), st.booleans()),
                          min_size=1, max_size=25))
    def test_curve_msm_matches_reference(self, curve, logs, terms):
        # few distinct points, so terms repeat points and meet their negations
        pool = [reference_mul(curve, k, curve.generator) for k in logs]
        scalar_list, points, total = [], [], 0
        for s, i, negate in terms:
            k = logs[i % len(logs)]
            point = pool[i % len(logs)]
            scalar_list.append(s)
            points.append(curve.neg(point) if negate else point)
            total += s * (-k if negate else k)
        assert curve.msm(scalar_list, points) == reference_mul(curve, total,
                                                               curve.generator)

    @settings(max_examples=15)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=24),
           data=st.data())
    def test_curve_msm_cancels_to_identity(self, curve, logs, data):
        scalar_list = data.draw(st.lists(scalars, min_size=len(logs),
                                         max_size=len(logs)))
        points = [curve.mul(k, curve.generator) for k in logs]
        total = sum(s * k for s, k in zip(scalar_list, logs))
        # the last term, -total * G, cancels the others
        assert curve.msm(scalar_list + [-total], points + [curve.generator]) is None

    def test_curve_msm_drops_zero_scalars_and_identity_points(self, curve):
        g = curve.generator
        p = curve.mul(12345, g)
        assert curve.msm([], []) is None
        assert curve.msm([0, curve.order], [p, g]) is None
        assert curve.msm([7, 9], [None, p]) == curve.mul(9, p)
        assert curve.msm([3, 3], [p, curve.neg(p)]) is None
        assert curve.msm([1, 1], [p, p]) == curve.mul(2, p)
        assert curve.msm([2, 5], [p, p]) == curve.mul(7, p)

    def test_msm_rejects_unequal_lengths(self, curve, toy101):
        for group in (curve, toy101):
            with pytest.raises(ValueError):
                group.msm([1, 2], [group.generator])

    @given(terms=st.lists(st.tuples(st.integers(-2**70, 2**70),
                                    st.integers(0, (1 << 61) - 2)), max_size=30))
    def test_toy_msm_matches_integer_arithmetic(self, toy61, terms):
        want = toy61.identity
        for s, g in terms:
            want = toy61.add(want, toy61.mul(s, g))
        assert want == sum(s * g for s, g in terms) % toy61.order
        assert toy61.msm([s for s, _ in terms], [g for _, g in terms]) == want


def window_cutover_scalars():
    """Scalars whose longer GLV half has the cut-over length of ``msm``'s
    windows, and one bit more; the other half is short and of either sign."""
    out = []
    for bits in (_WINDOW_MIN_BITS, _WINDOW_MIN_BITS + 1):
        for k1, k2 in ((2**bits - 1, 0), (-(2**(bits - 1)), 5), (2**(bits - 1) + 1, -3),
                       (7, 2**bits - 1)):
            out.append((k1 + k2 * _GLV_LAMBDA) % _SECP_N)
    return tuple(out)


WINDOW_CUTOVER_SCALARS = window_cutover_scalars()
# full-width, short of either sign, k = n - 1 and both sides of the cut-over
window_scalars = st.one_of(st.sampled_from(WINDOW_CUTOVER_SCALARS + (_SECP_N - 1,)),
                           st.integers(0, _SECP_N - 1),
                           st.integers(-2**16, 2**16),
                           st.integers(-2**(_WINDOW_MIN_BITS + 8), 2**(_WINDOW_MIN_BITS + 8)))


class TestWindowedMsm:
    """``msm`` when one call holds width-5 and plain-NAF terms."""

    def test_cutover_scalars_split_on_both_sides(self):
        lengths = [max(abs(h) for h in _glv_split(k)).bit_length()
                   for k in WINDOW_CUTOVER_SCALARS]
        assert lengths == [_WINDOW_MIN_BITS] * 4 + [_WINDOW_MIN_BITS + 1] * 4

    def test_tables_only_for_terms_past_the_cutover(self, curve, monkeypatch):
        built = []

        def spy(points, w):
            built.append((len(points), w))
            return _odd_multiples(points, w)

        monkeypatch.setattr(algebra, "_odd_multiples", spy)
        # points as discrete logs: p, -p, G and the identity
        logs = [0xC0FFEE, 0xC0FFEE, -0xC0FFEE, 0xC0FFEE, 1, 0xC0FFEE, 0xC0FFEE, 0,
                0xC0FFEE, 0xC0FFEE, 0xC0FFEE]
        points = [None if k == 0 else reference_mul(curve, k, curve.generator)
                  for k in logs]
        scalars = [3, _SECP_N - 1, *WINDOW_CUTOVER_SCALARS, 2**255 % _SECP_N]
        total = sum(s * k for s, k in zip(scalars, logs))
        assert curve.msm(scalars, points) == reference_mul(curve, total, curve.generator)
        # three of the four terms one bit past the cut-over (the fourth is
        # on the identity point and drops out) and the full-width one, in
        # one call with one shared normalisation
        assert built == [(4, 5)]

    @settings(max_examples=40)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=3),
           terms=st.lists(st.tuples(window_scalars, st.integers(0, 3), st.booleans()),
                          min_size=1, max_size=10))
    def test_mixed_widths_match_toy_oracle(self, curve, logs, terms):
        # repeated and negated points each build their own table; index
        # len(logs) and above is the identity point
        oracle = ToyGroup(_SECP_N)
        pool = [reference_mul(curve, k, curve.generator) for k in logs]
        scalar_list, points, point_logs = [], [], []
        for s, i, negate in terms:
            k, point = (logs[i], pool[i]) if i < len(logs) else (0, None)
            scalar_list.append(s)
            points.append(curve.neg(point) if negate else point)
            point_logs.append(oracle.neg(k) if negate else k)
        want = reference_mul(curve, oracle.msm(scalar_list, point_logs), curve.generator)
        assert curve.msm(scalar_list, points) == want


class TestWnaf:
    """The signed digits that ``msm`` adds a table entry at: w = 2 is the
    plain NAF of the short terms, w = 5 the windows of the full-width ones."""

    @settings(max_examples=300)
    @given(k=st.one_of(st.integers(-2**130, 2**130), st.sampled_from(
        [0, 1, -1, 3, -3, 7, 15, -15, 17, 31, 2**128 - 1, -2**129 - 1, _SECP_N - 1])),
           w=st.integers(2, 6))
    def test_recombines_with_spaced_odd_digits(self, k, w):
        digits = _wnaf(k, w)
        assert sum(d << i for i, d in digits) == k
        assert all(d % 2 == 1 and abs(d) < 2**(w - 1) for _, d in digits)
        positions = [i for i, _ in digits]
        # least significant first, and nonzero digits at least w places apart
        assert all(b - a >= w for a, b in zip(positions, positions[1:]))
        # the top digit sits at most one place above the top bit of |k|
        assert not digits or positions[-1] <= abs(k).bit_length()
        assert _wnaf(-k, w) == [(i, -d) for i, d in digits]

    def test_hand_examples(self):
        assert _wnaf(7, 2) == [(0, -1), (3, 1)]
        assert _wnaf(7, 5) == [(0, 7)]
        assert _wnaf(-29, 5) == [(0, 3), (5, -1)]


class TestOddMultiples:
    """The width-5 tables of ``msm``, one normalisation for all of them."""

    def test_tables_match_reference(self, curve):
        g = curve.generator
        p = reference_mul(curve, 0xC0FFEE, g)
        points = [g, p, curve.neg(p), p]
        tables = _odd_multiples(points, 5)
        assert tables == [[reference_mul(curve, j, q) for j in range(1, 16, 2)]
                          for q in points]
        assert _odd_multiples([p], 2) == [[p]]
        assert _odd_multiples([p], 3) == [[p, reference_mul(curve, 3, p)]]
        assert _odd_multiples([], 5) == []


class TestGLVSplit:
    """The endomorphism constants derived at import, the scalar split and
    the msm that runs on it."""

    def test_cube_roots_of_unity_pair_up(self, curve):
        assert _GLV_BETA != 1 and pow(_GLV_BETA, 3, _SECP_P) == 1
        assert _GLV_LAMBDA != 1 and pow(_GLV_LAMBDA, 3, _SECP_N) == 1
        g = curve.generator
        assert reference_mul(curve, _GLV_LAMBDA, g) == (_GLV_BETA * _SECP_GX % _SECP_P,
                                                        _SECP_GY)
        x, y = p = reference_mul(curve, 0xDEADBEEF, g)
        assert reference_mul(curve, _GLV_LAMBDA, p) == (_GLV_BETA * x % _SECP_P, y)

    def test_basis_spans_the_lattice_with_short_vectors(self):
        # a + b*lambda = 0 (mod n), and the two vectors have determinant +-n
        for a, b in ((_GLV_A1, _GLV_B1), (_GLV_A2, _GLV_B2)):
            assert (a + b * _GLV_LAMBDA) % _SECP_N == 0
            assert abs(a) < 2**129 and abs(b) < 2**129
        assert abs(_GLV_A1 * _GLV_B2 - _GLV_A2 * _GLV_B1) == _SECP_N

    @pytest.mark.parametrize("k", GLV_EDGE_SCALARS)
    def test_split_of_edge_scalars(self, k):
        k1, k2 = _glv_split(k)
        assert (k1 + k2 * _GLV_LAMBDA - k) % _SECP_N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129

    @settings(max_examples=200)
    @given(k=st.one_of(glv_scalars.map(lambda s: s % _SECP_N),
                       st.integers(0, _SECP_N - 1)))
    def test_split_recombines_into_short_halves(self, k):
        k1, k2 = _glv_split(k)
        assert (k1 + k2 * _GLV_LAMBDA - k) % _SECP_N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129

    def test_every_sign_of_the_halves_matches_reference(self, curve):
        # scalars whose halves take each sign pair, on one point
        rng = random.Random(6)
        by_signs = {}
        for _ in range(64):
            k = rng.randrange(_SECP_N)
            k1, k2 = _glv_split(k)
            by_signs.setdefault((k1 < 0, k2 < 0), k)
        assert len(by_signs) == 4
        p = reference_mul(curve, 0xC0FFEE, curve.generator)
        for k in by_signs.values():
            assert curve.msm([k], [p]) == reference_mul(curve, k, p)
            # -p has the x of p, and only the sign of y tells them apart
            assert curve.msm([k], [curve.neg(p)]) == reference_mul(curve, k, curve.neg(p))

    @settings(max_examples=30)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=3),
           terms=st.lists(st.tuples(st.one_of(st.just(0), glv_scalars),
                                    st.integers(0, 3), st.booleans()),
                          min_size=1, max_size=12))
    def test_msm_matches_toy_oracle(self, curve, logs, terms):
        # the toy group of order n sums the discrete logs of the terms;
        # repeated and negated points share the split's halves, and index
        # len(logs) and above is the identity point
        oracle = ToyGroup(_SECP_N)
        pool = [curve.mul(k, curve.generator) for k in logs]
        scalar_list, points, point_logs = [], [], []
        for s, i, negate in terms:
            k, point = (logs[i], pool[i]) if i < len(logs) else (0, None)
            scalar_list.append(s)
            points.append(curve.neg(point) if negate else point)
            point_logs.append(oracle.neg(k) if negate else k)
        want = curve.mul(oracle.msm(scalar_list, point_logs), curve.generator)
        assert curve.msm(scalar_list, points) == want


class TestJacobianFormulas:
    """``_jac_double`` and ``_jac_add_affine`` on their own: a known point
    written as (X*z^2, Y*z^3, z) for a random z != 1, against the affine
    ``CurveGroup.add``."""

    @staticmethod
    def jacobian(point, z):
        x, y = point
        return x * z * z % _SECP_P, y * z * z * z % _SECP_P, z

    @settings(max_examples=60)
    @given(logs=st.tuples(discrete_logs, discrete_logs),
           z=st.integers(2, _SECP_P - 1), other=st.sampled_from(["q", "p", "-p"]))
    def test_match_affine_add(self, curve, logs, z, other):
        p, q = (reference_mul(curve, k, curve.generator) for k in logs)
        # "p" and "-p" are the h = 0 branches: a doubling and the identity
        a = {"q": q, "p": p, "-p": curve.neg(p)}[other]
        x, y, _ = jac = self.jacobian(p, z)
        doubled = _jac_double(*jac)
        assert _to_affine(*doubled) == curve.add(p, p)
        # y^2 reduced once gives the same reduced triple as the textbook
        # products 4*x*y^2 and 8*y^4
        s, m = 4 * x * y * y % _SECP_P, 3 * x * x % _SECP_P
        nx = (m * m - 2 * s) % _SECP_P
        assert doubled == (nx, (m * (s - nx) - 8 * y**4) % _SECP_P,
                           2 * y * z % _SECP_P)
        assert _to_affine(*_jac_add_affine(*jac, *a)) == curve.add(p, a)

    @given(log=discrete_logs, x=st.integers(0, _SECP_P - 1),
           y=st.integers(0, _SECP_P - 1))
    def test_identity_input(self, curve, log, x, y):
        # Z = 0 is the identity whatever X and Y hold
        p = reference_mul(curve, log, curve.generator)
        assert _to_affine(*_jac_double(x, y, 0)) is None
        assert _jac_add_affine(x, y, 0, *p) == (*p, 1)


class TestEncoding:
    def test_round_trip_1000_random_points(self, rng, curve, toy101):
        seen = {}
        for group, n in ((toy101, 500), (curve, 500)):
            for _ in range(n):
                g = group.mul(group.field.rand(rng), group.generator)
                encoded = group.encode(g)
                assert len(encoded) == group.point_width
                assert group.decode(encoded) == g
                # injectivity: same encoding must mean same point
                key = (group.kind, encoded)
                assert seen.setdefault(key, g) == g

    def test_identity_round_trip(self, curve, toy101):
        for group in (curve, toy101):
            assert group.decode(group.encode(group.identity)) == group.identity

    def test_curve_decode_rejects_malformed(self, curve):
        good = curve.encode(curve.generator)
        with pytest.raises(DecodeError):
            curve.decode(good[:-1])  # truncated
        with pytest.raises(DecodeError):
            curve.decode(b"\x05" + good[1:])  # bad tag
        off_curve = bytearray(good)
        off_curve[-1] ^= 1
        with pytest.raises(DecodeError):
            curve.decode(bytes(off_curve))


class TestMakeGroup:
    def test_kinds(self):
        assert make_group("production").kind == "production-curve"
        assert make_group("toy").order == (1 << 61) - 1

    def test_rejects_unknown_kind_and_bad_args(self):
        with pytest.raises(ValueError):
            make_group("dihedral")
        with pytest.raises(ValueError):
            make_group("production-curve")
