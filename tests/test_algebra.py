"""Field and group arithmetic against integer and textbook oracles."""

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    _inverses,
    _jac_add_affine,
    _jac_double,
    _to_affine,
)
from swarmauth import algebra


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
# are all 1 (signed digits -1 and long carries), and k 7-bit windows that
# all hold 64 (the digit -64, the table's largest entry negated)
scalars = st.one_of(st.sampled_from(EDGE_SCALARS),
                    st.integers(0, 2**256 - 1),
                    st.integers(1, 256).map(lambda k: 2**k - 1),
                    st.integers(1, 36).map(lambda k: (2**(7 * k) - 1) // 127 * 64))
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


class TestScalarField:
    def test_requires_prime_order(self):
        with pytest.raises(ValueError):
            ScalarField(100)
        with pytest.raises(ValueError):
            ScalarField(1)
        ScalarField(2)
        ScalarField(101)

    def test_add_examples(self):
        f = ScalarField(101)
        assert f.add(100, 2) == 1  # wraparound
        assert f.add(0, 57) == 57
        assert f.add(51, 51) == 1  # 102 mod 101

    def test_mul_examples(self):
        f = ScalarField(101)
        assert f.mul(1, 77) == 77
        assert f.mul(2, 51) == 1  # 102 mod 101
        assert f.mul(0, 99) == 0

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
            a, b, c = f.rand(rng), f.rand(rng), f.rand(rng)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, b) == f.add(a, f.neg(b))

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
            rhs = curve.mul(curve.field.mul(a, b), curve.generator)
            assert lhs == rhs

    def test_mul_distributes_over_scalar_add(self, curve, rng):
        for _ in range(8):
            a, b = curve.field.rand(rng), curve.field.rand(rng)
            lhs = curve.mul(curve.field.add(a, b), curve.generator)
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
    """``mul_generator`` recodes each scalar into signed width-7 digits and
    sums their table entries pairwise over a chunk of scalars, one
    ``_batch_affine_add`` per level of sums."""

    def test_edge_scalars_match_reference(self, curve):
        edge = [0, 1, 15, 16, 2**252, 15 * 2**252, _SECP_N - 2, _SECP_N - 1]
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
        # 1..64 hex digits that are all 15, in one call: signed digits -1
        # and carries that run across whole windows
        batch = [16**k - 1 for k in range(1, 65)]
        assert curve.mul_generator(batch) == [
            reference_mul(curve, s, curve.generator) for s in batch]

    def test_every_count_of_nonzero_signed_digits(self, curve):
        # 1..37 table entries per scalar, all in one call: every pattern of
        # odd entries left over across the levels of pairwise sums. Signed
        # digits are unique, so sum(d_i * 2^(7i)) recodes to exactly d_i;
        # the positive top digit outweighs the lower ones, so s > 0.
        lower = (-64, 63, -1, 1, -33, 17)
        batch = [sum(lower[i % len(lower)] << (7 * i) for i in range(k - 1))
                 + (5 << (7 * (k - 1))) for k in range(1, 38)]
        assert all(0 < s < _SECP_N for s in batch)
        assert curve.mul_generator(batch) == [
            reference_mul(curve, s, curve.generator) for s in batch]

    @pytest.mark.parametrize("s", [
        _SECP_N - 1, 2**255, 2**256 - 1, 2**252 - 1, 2**252 - 2**245,
        *(v << 245 for v in range(64, 128))])
    def test_carry_into_the_top_row_matches_reference(self, curve, s):
        # window 35 (bits 245-251) at 64 or above becomes a negative digit
        # and carries into row 36, the 37th; n - 1 and 2^255 put a digit
        # there themselves, and 2^256 - 1 reduces below n first
        assert curve.mul_generator([s]) == [reference_mul(curve, s, curve.generator)]

    @settings(max_examples=40)
    @given(s=scalars)
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


class TestGeneratorTable:
    """The signed width-7 fixed-base table and the work a batch costs."""

    @pytest.fixture()
    def table(self, curve):
        curve.mul_generator([1])  # builds the table once per process
        return algebra._generator_table

    def test_shape(self, table):
        assert len(table) == 37
        assert all(len(row) == 64 for row in table)

    @pytest.mark.parametrize("i", [0, 1, 36])
    def test_entries_are_multiples_of_the_row_base(self, curve, table, i):
        # entry d - 1 of row i is d * 2^(7i) * G
        base = reference_mul(curve, 2**(7 * i), curve.generator)
        assert table[i] == [reference_mul(curve, d, base) for d in range(1, 65)]

    def test_batch_of_104_costs_at_most_36_additions_per_scalar(self, curve, table,
                                                                monkeypatch):
        # a count, not a timing: a scalar has at most 37 signed digits, so
        # at most 36 additions, in at most 6 levels for the whole chunk
        batches = []
        add = algebra._batch_affine_add
        monkeypatch.setattr(algebra, "_batch_affine_add",
                            lambda pairs: batches.append(len(pairs)) or add(pairs))
        rng = random.Random(104)
        batch = [rng.randrange(_SECP_N) for _ in range(104)]
        curve.mul_generator(batch)
        assert sum(batches) <= 104 * 36
        assert len(batches) <= 6


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

    @settings(max_examples=30)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=3),
           terms=st.lists(st.tuples(glv_scalars, st.integers(0, 2), st.booleans()),
                          min_size=1, max_size=12))
    def test_msm_matches_toy_oracle(self, curve, logs, terms):
        # the toy group of order n sums the discrete logs of the terms;
        # repeated and negated points share the split's halves and tables
        oracle = ToyGroup(_SECP_N)
        pool = [curve.mul(k, curve.generator) for k in logs]
        scalar_list, points, point_logs = [], [], []
        for s, i, negate in terms:
            k, point = logs[i % len(logs)], pool[i % len(logs)]
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


class TestWnafTableCache:
    """The bounded cache of variable-base odd-multiple tables that ``msm``
    reads: results never depend on what it holds."""

    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(algebra, "_wnaf_table_cache", collections.OrderedDict())

    @staticmethod
    def points(curve, logs):
        return [reference_mul(curve, k, curve.generator) for k in logs]

    @staticmethod
    def oracle(curve, scalar_list, logs):
        return curve.mul(ToyGroup(_SECP_N).msm(scalar_list, logs), curve.generator)

    @pytest.mark.parametrize("bound", [4, 6])
    def test_call_with_more_points_than_the_bound(self, curve, monkeypatch, bound):
        # the call finds `bound` points cached and builds 6 more; its own
        # inserts evict what it found, and it must not read them back
        monkeypatch.setattr(algebra, "_WNAF_TABLES_MAX", bound)
        logs = list(range(3, 3 + bound + 6))
        points = self.points(curve, logs)
        curve.msm([1] * bound, points[:bound])
        assert list(algebra._wnaf_table_cache) == points[:bound]
        scalar_list = [2**200 + 7 * k for k in logs]
        assert curve.msm(scalar_list, points) == self.oracle(curve, scalar_list, logs)
        assert list(algebra._wnaf_table_cache) == points[-bound:]
        # and again, now that every table it holds is a hit
        assert curve.msm(scalar_list, points) == self.oracle(curve, scalar_list, logs)

    def test_point_and_its_negation_keep_their_own_tables(self, curve):
        p = reference_mul(curve, 0xDEADBEEF, curve.generator)
        s = 2**255 + 12345
        assert curve.msm([s], [p]) == reference_mul(curve, s * 0xDEADBEEF, curve.generator)
        # -p has the x of p: a table keyed by x would return s*p
        assert curve.msm([s], [curve.neg(p)]) == reference_mul(
            curve, -s * 0xDEADBEEF, curve.generator)
        tables = algebra._wnaf_table_cache
        assert set(tables) == {p, curve.neg(p)}
        assert tables[curve.neg(p)] == [curve.neg(q) for q in tables[p]]

    @settings(max_examples=30)
    @given(logs=st.lists(discrete_logs, min_size=1, max_size=4),
           terms=st.lists(st.tuples(st.one_of(st.just(0), glv_scalars),
                                    st.integers(0, 4), st.booleans()),
                          min_size=1, max_size=12))
    def test_cold_and_warm_match_toy_oracle(self, curve, logs, terms):
        # index len(logs) and above is the identity point; the rest repeat
        # a few points and their negations
        pool = self.points(curve, logs)
        scalar_list, points, point_logs = [], [], []
        for s, i, negate in terms:
            k, point = (logs[i], pool[i]) if i < len(logs) else (0, None)
            scalar_list.append(s)
            points.append(curve.neg(point) if negate else point)
            point_logs.append(-k if negate else k)
        want = self.oracle(curve, scalar_list, point_logs)
        algebra._wnaf_table_cache.clear()
        assert curve.msm(scalar_list, points) == want
        assert curve.msm(scalar_list, points) == want

    @pytest.mark.parametrize("bound", [4, 64])
    def test_never_holds_more_than_its_bound(self, curve, monkeypatch, bound):
        monkeypatch.setattr(algebra, "_WNAF_TABLES_MAX", bound)
        rng = random.Random(bound)
        seen = 0
        for count in (1, bound - 1, bound + 1, 3, 2 * bound):
            points = [curve.mul(rng.randrange(1, _SECP_N), curve.generator)
                      for _ in range(count)]
            curve.msm([1] * count, points)
            seen += count
            assert len(algebra._wnaf_table_cache) == min(bound, seen)


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
        assert make_group("toy", 101).order == 101
        assert make_group("toy").order == (1 << 61) - 1

    def test_rejects_unknown_kind_and_bad_args(self):
        with pytest.raises(ValueError):
            make_group("dihedral")
        with pytest.raises(ValueError):
            make_group("production", order=101)
