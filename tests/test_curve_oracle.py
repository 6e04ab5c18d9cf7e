"""The secp256k1 group against an independent implementation: key
derivation, ECDH and X9.62 point decoding from the ``cryptography``
package. Only these tests use it; the curve code itself does not."""

from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

from swarmauth.algebra import (
    DecodeError,
    _GLV_B1,
    _GLV_B2,
    _GLV_LAMBDA,
    _SECP_N,
    _SECP_P,
)

SECP256K1 = ec.SECP256K1()


def oracle_encoding(k: int) -> bytes:
    """The X9.62 uncompressed encoding of k*G; 65 zero bytes (this
    package's identity) for k = 0 (mod n)."""
    k %= _SECP_N
    if not k:
        return bytes(65)
    return ec.derive_private_key(k, SECP256K1).public_key().public_bytes(
        Encoding.X962, PublicFormat.UncompressedPoint)


def oracle_accepts(data: bytes) -> bool:
    try:
        ec.EllipticCurvePublicKey.from_encoded_point(SECP256K1, data)
    except ValueError:
        return False
    return True


def split_rounding_scalars() -> list:
    """Scalars k with b*k mod n within 2 of n/2, for b = b2 and -b1: where
    the GLV split's rounded quotients flip."""
    out = []
    for b in (_GLV_B2, -_GLV_B1):
        b_inv = pow(b, -1, _SECP_N)
        out += [(_SECP_N // 2 + d) * b_inv % _SECP_N for d in range(-2, 3)]
    return out


# 1 and n - 1, the ends of 128-bit GLV halves, lambda and its negation
# (a half of 1 or -1 and nothing else), the split's rounding flips, and
# the boundaries 2^(9i) +- 1 of the generator table's width-9 rows
EDGE_SCALARS = sorted({
    1, _SECP_N - 1, 2**128 - 1, 2**128 + 1, _GLV_LAMBDA, _SECP_N - _GLV_LAMBDA,
    *split_rounding_scalars(),
    *(2**(9 * i) + d for i in range(1, 29) for d in (-1, 1)),
})
scalars = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(1, _SECP_N - 1))


class TestAgainstCryptography:
    def test_edge_scalars_in_one_generator_batch(self, curve):
        points = curve.mul_generator(EDGE_SCALARS)
        assert [curve.encode(p) for p in points] == [oracle_encoding(k) for k in EDGE_SCALARS]

    def test_edge_scalars_one_at_a_time(self, curve):
        # a call of one scalar takes the Jacobian chain, not the affine levels
        for k in EDGE_SCALARS:
            want = oracle_encoding(k)
            assert curve.encode(curve.mul_generator([k])[0]) == want, k
            assert curve.encode(curve.mul(k, curve.generator)) == want, k

    @settings(max_examples=30)
    @given(ks=st.lists(scalars, min_size=1, max_size=8))
    def test_generator_batches_match_derived_keys(self, curve, ks):
        points = curve.mul_generator(ks)
        assert [curve.encode(p) for p in points] == [oracle_encoding(k) for k in ks]

    @settings(max_examples=30)
    @given(a=scalars, b=scalars)
    def test_mul_matches_ecdh(self, curve, a, b):
        point_a = curve.mul_generator([a])[0]
        shared = curve.mul(b, point_a)
        peer = ec.derive_private_key(a, SECP256K1).public_key()
        secret = ec.derive_private_key(b, SECP256K1).exchange(ec.ECDH(), peer)
        assert shared[0].to_bytes(32, "big") == secret
        assert curve.encode(shared) == oracle_encoding(a * b)

    def test_mul_of_edge_scalars_matches_ecdh(self, curve):
        a = 0x1D2E3F4A5B6C7D8E9FA0B1C2D3E4F5061728394A5B6C7D8E9F0A1B2C3D4E5F60
        peer = ec.derive_private_key(a, SECP256K1).public_key()
        point_a = curve.mul_generator([a])[0]
        for b in EDGE_SCALARS:
            secret = ec.derive_private_key(b, SECP256K1).exchange(ec.ECDH(), peer)
            assert curve.mul(b, point_a)[0].to_bytes(32, "big") == secret, b

    @settings(max_examples=25)
    @given(terms=st.lists(st.tuples(scalars, scalars), min_size=1, max_size=6))
    def test_msm_matches_the_derived_key_of_the_sum(self, curve, terms):
        points = curve.mul_generator([k for _, k in terms])
        total = curve.msm([s for s, _ in terms], points)
        assert curve.encode(total) == oracle_encoding(sum(s * k for s, k in terms))

    @settings(max_examples=25)
    @given(pairs=st.lists(st.tuples(scalars, scalars), min_size=1, max_size=6))
    def test_add_all_matches_the_derived_key_of_each_sum(self, curve, pairs):
        # with each pair, the doubling k + k and the cancellation k + (n - k)
        pairs = pairs + [(k, k) for k, _ in pairs] + [(k, _SECP_N - k) for k, _ in pairs]
        points = dict(zip((k for pair in pairs for k in pair),
                          curve.mul_generator([k for pair in pairs for k in pair])))
        sums = curve.add_all([(points[i], points[j]) for i, j in pairs])
        assert [curve.encode(p) for p in sums] == [oracle_encoding(i + j) for i, j in pairs]


def _decodes(curve, data: bytes) -> bool:
    try:
        curve.decode(data)
    except DecodeError:
        return False
    return True


def _with_x(x: int, y: int) -> bytes:
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


# (1, y) is on the curve: 1 + 7 = 8 is a square mod p
_Y1 = pow(8, (_SECP_P + 1) // 4, _SECP_P)
# x or y at or above p, among them the point (1, y) with p added to x
OUT_OF_FIELD = [_with_x(1 + _SECP_P, _Y1), _with_x(_SECP_P, _Y1), _with_x(2**256 - 1, _Y1),
                _with_x(1, _SECP_P), _with_x(1, 2**256 - 1), _with_x(0, 0)]


class TestDecoderAgainstCryptography:
    """``decode`` accepts exactly the 65-byte inputs that
    ``from_encoded_point`` accepts, except the 65 zero bytes, which encode
    the identity here."""

    def test_identity_is_the_one_exception(self, curve):
        assert curve.decode(bytes(65)) is None
        assert not oracle_accepts(bytes(65))

    def test_field_edges(self, curve):
        assert _decodes(curve, _with_x(1, _Y1)) and oracle_accepts(_with_x(1, _Y1))
        for data in OUT_OF_FIELD:
            assert _decodes(curve, data) == oracle_accepts(data), data.hex()

    @settings(max_examples=60)
    @given(k=scalars, flips=st.lists(st.integers(0, 65 * 8 - 1), min_size=1, max_size=3))
    def test_bit_flips(self, curve, k, flips):
        data = bytearray(oracle_encoding(k))
        for bit in flips:
            data[bit // 8] ^= 0x80 >> (bit % 8)
        data = bytes(data)
        if data != bytes(65):
            assert _decodes(curve, data) == oracle_accepts(data)

    @settings(max_examples=30)
    @given(k=scalars, tag=st.integers(0, 255))
    def test_tags(self, curve, k, tag):
        data = bytes([tag]) + oracle_encoding(k)[1:]
        assert _decodes(curve, data) == oracle_accepts(data) == (tag == 4)
