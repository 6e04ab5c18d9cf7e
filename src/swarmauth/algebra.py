"""Prime-field scalar arithmetic and prime-order cyclic groups.

Scalars are plain Python ints kept in canonical reduced form by the
:class:`ScalarField` that produced them. Group elements are opaque values
manipulated through a group object; two instantiations are provided:

* :class:`CurveGroup` -- secp256k1, a standard prime-order curve
  (cofactor 1, ~128-bit security), for production use.
* :class:`ToyGroup` -- the integers mod q under addition with generator 1.
  Discrete logs are directly readable (``mul(s, P) == s``), which lets
  tests check protocol math against plain integer arithmetic. Never use
  it outside tests.

Encodings are fixed-width big-endian byte strings: ``ceil(bits(q)/8)``
bytes for scalars, group-defined widths for points.
"""

from __future__ import annotations

from typing import Sequence, Union

__all__ = [
    "ZeroInverse",
    "DecodeError",
    "ScalarField",
    "ToyGroup",
    "CurveGroup",
    "make_group",
    "Point",
    "TOY_EXAMPLE_ORDER",
    "TOY_SUITE_ORDER",
]

# Affine curve points are (x, y) tuples, the toy group uses bare ints,
# and None is the identity of the curve group.
Point = Union[int, tuple, None]

# Small prime for hand-checkable examples, Mersenne prime 2^61-1 for
# randomized suites (collision probability 1/q is negligible).
TOY_EXAMPLE_ORDER = 101
TOY_SUITE_ORDER = (1 << 61) - 1


class ZeroInverse(ArithmeticError):
    """Multiplicative inverse of zero was requested."""


class DecodeError(ValueError):
    """Byte string is not a valid encoding of a scalar or group element."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below 3.3e24 and a
    strong probable-prime test beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarField:
    """Arithmetic modulo a prime group order q.

    All methods return canonical values in [0, q); equality of scalars is
    plain integer (and therefore byte) equality.
    """

    def __init__(self, order: int):
        if order < 2 or not _is_prime(order):
            raise ValueError(f"group order must be prime, got {order}")
        self.order = order
        self.width = (order.bit_length() + 7) // 8

    def __repr__(self):
        return f"ScalarField({self.order})"

    def __eq__(self, other):
        return isinstance(other, ScalarField) and other.order == self.order

    def __hash__(self):
        return hash(("ScalarField", self.order))

    def reduce(self, value: int) -> int:
        return value % self.order

    def inv(self, a: int) -> int:
        if a % self.order == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, -1, self.order)

    def rand(self, rng) -> int:
        """Uniform scalar from an rng exposing randrange (e.g. random.Random)."""
        return rng.randrange(self.order)

    def rand_nonzero(self, rng) -> int:
        while True:
            v = rng.randrange(self.order)
            if v != 0:
                return v

    def encode(self, a: int) -> bytes:
        return (a % self.order).to_bytes(self.width, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != self.width:
            raise DecodeError(f"scalar encoding must be {self.width} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise DecodeError(f"scalar {v} out of range for order {self.order}")
        return v


class ToyGroup:
    """Additive group of integers mod q with generator 1 (test oracle only).

    ``mul(s, generator)`` is the identity map on scalars, so every
    higher-level result can be checked by direct integer arithmetic.
    """

    kind = "toy"

    def __init__(self, order: int = TOY_SUITE_ORDER):
        self.field = ScalarField(order)
        self.order = order
        self.generator = 1
        self.identity = 0
        self.point_width = self.field.width

    def __repr__(self):
        return f"ToyGroup({self.order})"

    def add(self, g: int, h: int) -> int:
        return self.add_all([(g, h)])[0]

    def add_all(self, pairs: Sequence[tuple]) -> list:
        return [(g + h) % self.order for g, h in pairs]

    def neg(self, g: int) -> int:
        return -g % self.order

    def mul(self, s: int, g: int) -> int:
        return s * g % self.order

    def mul_generator(self, scalars: Sequence[int]) -> list:
        return [s % self.order for s in scalars]

    def msm(self, scalars: Sequence[int], points: Sequence[int]) -> int:
        return sum(s * g for s, g in zip(scalars, points, strict=True)) % self.order

    def encode(self, g: int) -> bytes:
        return (g % self.order).to_bytes(self.point_width, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != self.point_width:
            raise DecodeError(f"point encoding must be {self.point_width} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise DecodeError(f"point {v} out of range for order {self.order}")
        return v


# secp256k1: y^2 = x^3 + 7 over F_p, prime group order (cofactor 1).
_SECP_P = 2**256 - 2**32 - 977
_SECP_B = 7
_SECP_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_SECP_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_SECP_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
# The order is checked prime once per process, not once per CurveGroup:
# every scenario run builds its own group.
_SECP_FIELD = ScalarField(_SECP_N)


class CurveGroup:
    """secp256k1 point arithmetic (affine tuples, None = point at infinity).

    Not constant time; side-channel hardening is out of scope for the
    simulation use case.
    """

    kind = "production-curve"

    def __init__(self):
        self.field = _SECP_FIELD
        self.order = _SECP_N
        self.generator = (_SECP_GX, _SECP_GY)
        self.identity = None
        self.point_width = 65  # 0x04 || x(32) || y(32); identity is 65 zero bytes

    def __repr__(self):
        return "CurveGroup(secp256k1)"

    def contains(self, g: Point) -> bool:
        if g is None:
            return True
        if not (isinstance(g, tuple) and len(g) == 2):
            return False
        x, y = g
        if not (0 <= x < _SECP_P and 0 <= y < _SECP_P):
            return False
        return (y * y - (x * x * x + _SECP_B)) % _SECP_P == 0

    def add(self, g: Point, h: Point) -> Point:
        return self.add_all([(g, h)])[0]

    def add_all(self, pairs: Sequence[tuple]) -> list:
        """[g + h for g, h in pairs]: an identity term passes the other
        through, and the pairs of non-identity points are summed in one
        :func:`_batch_affine_add` with one shared inversion."""
        sums = iter(_batch_affine_add([(g, h) for g, h in pairs
                                       if g is not None and h is not None]))
        return [h if g is None else g if h is None else next(sums)
                for g, h in pairs]

    def neg(self, g: Point) -> Point:
        if g is None:
            return None
        x, y = g
        return (x, -y % _SECP_P)

    def mul(self, s: int, g: Point) -> Point:
        """s*g: for the generator the one-scalar case of
        :meth:`mul_generator`, one Jacobian chain over the generator table
        normalised with one inversion; else a one-term :meth:`msm`."""
        if g == self.generator:
            return _mul_generator([s])[0]
        return self.msm([s], [g])

    def mul_generator(self, scalars: Sequence[int]) -> list:
        """[s*G for s in scalars]: each scalar split into GLV halves, and
        table entries picked by the signed width-9 digits of each half
        summed as k1*G + lambda*(k2*G). A call of one scalar sums them in
        one Jacobian chain with one inversion; a batch is cut into chunks
        of up to 128 scalars, each summed pairwise in affine form with one
        inversion per level of sums shared by the chunk, and a last chunk
        of one scalar takes the chain (see :func:`_mul_generator`). Every
        point is derived when called; nothing but the table is kept."""
        return _mul_generator(scalars)

    def msm(self, scalars: Sequence[int], points: Sequence[Point]) -> Point:
        """sum(s_i * g_i): GLV-split interleaved windowed NAF (Straus) with
        one shared doubling chain and mixed Jacobian-affine additions.

        Each scalar k is split as k1 + k2*lambda = k (mod n) with signed
        halves of about 128 bits, and lambda*g = (beta*x, y) (Gallant,
        Lambert and Vanstone, CRYPTO 2001), so the 2m half-scalars share a
        doubling chain of about 129 steps instead of 256. A term whose
        longer half has more than ``_WINDOW_MIN_BITS`` bits is recoded in
        width-5 NAF (Moeller, SAC 2001) over its odd multiples g..15g, built
        for this call and normalised with one inversion shared by all such
        terms; the lambda-images of a table are taken by beta. Shorter
        terms, such as the small Lagrange weights of a guard check, keep
        the plain NAF of g alone. At each nonzero digit d of a half the
        chain adds the table entry |d|*g (or its image), with y flipped
        for d < 0. Nothing is kept between calls. Zero scalars, zero halves
        and identity points drop out; a sum that cancels is None.
        """
        terms = [(s % self.order, g) for s, g in zip(scalars, points, strict=True)
                 if g is not None and s % self.order]
        if not terms:
            return None
        splits = [_glv_split(s) for s, _ in terms]
        wide = [max(abs(k1), abs(k2)).bit_length() > _WINDOW_MIN_BITS
                for k1, k2 in splits]
        tables = iter(_odd_multiples([g for (_, g), w in zip(terms, wide) if w],
                                     _WINDOW))
        halves = []
        for (k1, k2), (_, g), is_wide in zip(splits, terms, wide):
            w, table = (_WINDOW, next(tables)) if is_wide else (2, [g])
            # s != 0 (mod n), so at most one half is 0; it adds nothing
            if k1:
                halves.append((k1, w, table))
            if k2:
                halves.append((k2, w, [(_GLV_BETA * x % _SECP_P, y) for x, y in table]))
        # additions[i]: the signed points to add at bit i; a digit can sit
        # one place above the top bit
        additions = [[] for _ in range(max(abs(k).bit_length() for k, _, _ in halves) + 1)]
        for k, w, table in halves:
            for i, d in _wnaf(k, w):
                p = table[abs(d) >> 1]
                additions[i].append(p if d > 0 else (p[0], _SECP_P - p[1]))
        x, y, z = 0, 1, 0
        for i in range(len(additions) - 1, -1, -1):
            x, y, z = _jac_double(x, y, z)
            for ax, ay in additions[i]:
                x, y, z = _jac_add_affine(x, y, z, ax, ay)
        return _to_affine(x, y, z)

    def encode(self, g: Point) -> bytes:
        if g is None:
            return bytes(self.point_width)
        x, y = g
        return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")

    def decode(self, data: bytes) -> Point:
        if len(data) != self.point_width:
            raise DecodeError(f"point encoding must be {self.point_width} bytes, got {len(data)}")
        if data == bytes(self.point_width):
            return None
        if data[0] != 0x04:
            raise DecodeError(f"bad point tag {data[0]:#x}")
        g = (int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big"))
        if not self.contains(g):
            raise DecodeError("point not on curve")
        return g


# Window width of the full-width terms of an msm, and the bit length a
# term's longer GLV half must pass to get one. A width-5 table costs a
# doubling, seven Jacobian additions and its share of one normalisation,
# and halves the additions of a long half (one per 6 bits, not per 3).
# Change in the time of one msm per short term when ten terms of L-bit
# scalars (one half each) are windowed beside a full-width term (best of
# 15 alternating rounds, 2-core VM, Python 3.11.7):
#   L bits     32    48    56    64    72    80    96
#   us/term   +38   +54   +34   +36   -71   -12   -39
# so the break-even lies between 64 and 72 bits. A full-width term (two
# halves of about 128 bits) costs 0.79-0.85 of its plain-NAF time.
_WINDOW = 5
_WINDOW_MIN_BITS = 64


def _wnaf(k: int, w: int) -> list:
    """Width-w non-adjacent form of k as (bit position, digit) pairs for
    the nonzero digits, least significant first; 0 has none. Each digit is
    odd with |d| < 2^(w-1), and any two nonzero digits are at least w
    places apart; w = 2 is the plain NAF, with digits 1 and -1. The form
    of -k is that of k with every digit negated."""
    digits = []
    i = 0
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while k:
        if k & 1:
            # the residue of k mod 2^w, centred; k - d has w low zero bits
            d = k & mask
            if d >= half:
                d -= mask + 1
            digits.append((i, d))
            k = (k - d) >> w
            i += w
        else:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            i += zeros
    return digits


def _odd_multiples(points: list, w: int) -> list:
    """[[g, 3g, ..., (2^(w-1) - 1)*g] for g in points], affine: per point
    one doubling and 2^(w-2) - 1 mixed additions of 2g, all normalised
    with one shared inversion. The points are not the identity, and the
    group's prime order exceeds 2^w, so no sum meets a doubling or the
    identity.

    With 2g = (X, Y, Z), the map (x, y) -> (x*Z^2, y*Z^3) takes the curve
    to y^2 = x^3 + b*Z^6, where 2g is the affine (X, Y). The sums are taken
    there, since the a = 0 formulas never read b, and a sum (X', Y', Z')
    maps back as (X', Y', Z'*Z)."""
    count = 1 << (w - 2)
    jacobian = []
    for x, y in points:
        tx, ty, z = _jac_double(x, y, 1)
        zz = z * z % _SECP_P
        p = (x * zz % _SECP_P, y * zz * z % _SECP_P, 1)
        jacobian.append((x, y, 1))
        for _ in range(count - 1):
            p = _jac_add_affine(*p, tx, ty)
            jacobian.append((p[0], p[1], p[2] * z % _SECP_P))
    flat = _to_affine_all(jacobian)
    return [flat[i:i + count] for i in range(0, len(flat), count)]


# Jacobian (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z = 0 is the identity.

def _jac_double(x, y, z):
    if z == 0 or y == 0:
        return 0, 1, 0
    yy = y * y % _SECP_P
    s = 4 * x * yy % _SECP_P
    m = 3 * x * x % _SECP_P  # curve a = 0
    nx = (m * m - 2 * s) % _SECP_P
    ny = (m * (s - nx) - 8 * yy * yy) % _SECP_P
    nz = 2 * y * z % _SECP_P
    return nx, ny, nz


def _jac_add_affine(x1, y1, z1, x2, y2):
    """Jacobian (x1, y1, z1) plus affine (x2, y2)."""
    if z1 == 0:
        return x2, y2, 1
    z1s = z1 * z1 % _SECP_P
    h = (x2 * z1s - x1) % _SECP_P
    r = (y2 * z1s * z1 - y1) % _SECP_P
    if h == 0:
        if r != 0:
            return 0, 1, 0
        return _jac_double(x1, y1, z1)
    h2 = h * h % _SECP_P
    h3 = h2 * h % _SECP_P
    x1h2 = x1 * h2 % _SECP_P
    nx = (r * r - h3 - 2 * x1h2) % _SECP_P
    ny = (r * (x1h2 - nx) - y1 * h3) % _SECP_P
    return nx, ny, h * z1 % _SECP_P


def _to_affine(x, y, z) -> Point:
    return _to_affine_all([(x, y, z)])[0] if z else None


def _inverses(values: list, modulus: int) -> list:
    """Inverses mod a prime modulus of nonzero values, with one inversion
    shared by all (Montgomery's trick): invert the product, then peel one
    factor off per value from the back."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % modulus
    if acc == 0:
        raise ZeroInverse("batched inversion of a value that is 0 mod the modulus")
    inv = pow(acc, -1, modulus)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % modulus
        inv = inv * values[i] % modulus
    return out


def _to_affine_all(points: list) -> list:
    """Affine forms of Jacobian points (none the identity), with one
    shared inversion."""
    out = []
    for (x, y, _), zinv in zip(points, _inverses([z for _, _, z in points], _SECP_P)):
        z2 = zinv * zinv % _SECP_P
        out.append((x * z2 % _SECP_P, y * z2 * zinv % _SECP_P))
    return out


# GLV endomorphism: phi(x, y) = (beta*x, y) is lambda*P for every point P,
# where beta and lambda are cube roots of unity mod p and mod n. All
# constants are derived here, not pasted.

def _cube_root_of_unity(m: int) -> int:
    """A cube root of unity other than 1 modulo the prime m = 1 (mod 3)."""
    g = 2
    while (root := pow(g, (m - 1) // 3, m)) == 1:
        g += 1
    return root


def _glv_constants() -> tuple:
    """beta, lambda and the short basis (a1, b1, a2, b2) of the lattice
    {(a, b): a + b*lambda = 0 (mod n)}, by the extended Euclidean
    algorithm on (n, lambda) (Hankerson, Menezes and Vanstone, Guide to
    ECC, Alg. 3.74)."""
    beta = _cube_root_of_unity(_SECP_P)
    lam = _cube_root_of_unity(_SECP_N)
    # lambda*G by double-and-add; the other root lambda^2 pairs with beta
    # when this one does not
    x, y, z = 0, 1, 0
    for bit in bin(lam)[2:]:
        x, y, z = _jac_double(x, y, z)
        if bit == "1":
            x, y, z = _jac_add_affine(x, y, z, _SECP_GX, _SECP_GY)
    if _to_affine(x, y, z) != (beta * _SECP_GX % _SECP_P, _SECP_GY):
        lam = lam * lam % _SECP_N
    # remainders r_i = s_i*n + t_i*lambda; stop at the last r_l >= sqrt(n)
    r0, r1, t0, t1 = _SECP_N, lam, 0, 1
    while r1 * r1 >= _SECP_N:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2:
        return beta, lam, r1, -t1, r0, -t0
    return beta, lam, r1, -t1, r2, -t2


_GLV_BETA, _GLV_LAMBDA, _GLV_A1, _GLV_B1, _GLV_A2, _GLV_B2 = _glv_constants()


def _glv_split(k: int) -> tuple:
    """(k1, k2) with k1 + k2*lambda = k (mod n), both of about 128 bits and
    either sign: k minus the nearest lattice point (rounded division)."""
    c1 = (2 * _GLV_B2 * k + _SECP_N) // (2 * _SECP_N)
    c2 = (-2 * _GLV_B1 * k + _SECP_N) // (2 * _SECP_N)
    return (k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2)


def _batch_affine_add(pairs: list) -> list:
    """[P + Q for P, Q in pairs] for affine points P and Q (neither the
    identity), with one inversion shared by the whole batch. Equal x is
    allowed: P + P is a doubling (slope 3x^2 / 2y; y is never 0 on a
    curve of odd order), and P + (-P) is None."""
    dens = []
    for (x1, y1), (x2, y2) in pairs:
        if x1 != x2:
            dens.append(x2 - x1)
        else:
            # 1 stands in for the denominator of a sum to the identity
            dens.append(2 * y1 if y1 == y2 else 1)
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, _inverses(dens, _SECP_P)):
        if x1 != x2:
            lam = (y2 - y1) * inv % _SECP_P
        elif y1 == y2:
            lam = 3 * x1 * x1 * inv % _SECP_P
        else:
            out.append(None)
            continue
        x3 = (lam * lam - x1 - x2) % _SECP_P
        out.append((x3, (lam * (x1 - x3) - y1) % _SECP_P))
    return out


# The largest |k1| or |k2| that _glv_split returns. Each half is
# e1*a + e2*b over one coordinate of the basis, with |e1|, |e2| <= 1/2
# the rounding errors of c1 and c2: under 2^127.35 for secp256k1.
_GLV_HALF_BOUND = max(abs(_GLV_A1) + abs(_GLV_A2), abs(_GLV_B1) + abs(_GLV_B2)) // 2

# Fixed-base table for the generator over GLV halves, width 9: full row i
# holds d * 2^(9i) * G for d = 1..256, so k*G for a half k is the sum of
# one entry per nonzero signed digit of |k|, with no doubling. The 14 full
# rows hold 126 bits; the top row, at 2^126 * G, holds only the digits the
# recoding can leave there for |k| <= _GLV_HALF_BOUND. The recoding's
# carries act as if 2^8 * 2^(9i) were added at each full row, so that
# digit is at most (bound + sum of those) >> 126, which is 3. Built once
# per process, on first use, because every scenario run makes its own
# CurveGroup.
#
# A row is the pair of lists (xs, ys), not a list of (x, y) tuples. That
# saves 64 bytes per entry, 230 KB in all, which kept the peak RSS of a
# 5000-drone merge from stepping up by 1 MB; a batch takes 2-3% longer,
# since it builds each (x, y) it reads.
#
# The width trades additions per scalar (about one per row of each half)
# against the table's size and build time, which every process pays once,
# in setup. "full" rows cover all 256 bits of a scalar, with no split;
# "GLV" rows cover a half. Medians of 11 builds and of 25 batches of 104
# random scalars, all interleaved, on a 2-core VM (Python 3.11.7):
#   layout    entries  build ms  batch of 104 ms  additions per scalar
#   full w7     2368      10.8        16.5              35.6
#   GLV w7      1155       5.2        17.0              36.2
#   GLV w8      2049       8.8        14.6              30.9
#   GLV w9      3587      14.9        13.8              28.4
#   GLV w10     6307      27.5        12.2              25.0
# At w9 a half has 15 rows, so a chunk sums its halves in 4 levels, plus
# one batch that adds them (6 levels at full w7, GLV w7 and GLV w8).
# Width 10 would save under 2 ms per batch and add 13 ms to every setup.
_GENERATOR_WIDTH = 9
_GENERATOR_ROWS = _GLV_HALF_BOUND.bit_length() // _GENERATOR_WIDTH
_GENERATOR_TOP = (_GLV_HALF_BOUND + sum(1 << (_GENERATOR_WIDTH * (i + 1) - 1)
                                        for i in range(_GENERATOR_ROWS))
                  ) >> (_GENERATOR_WIDTH * _GENERATOR_ROWS)
_generator_table = None


def _build_generator_table() -> list:
    w = _GENERATOR_WIDTH
    # the row bases 2^(wi) * G by Jacobian doublings, normalized together
    bases = [(_SECP_GX, _SECP_GY, 1)]
    for _ in range(_GENERATOR_ROWS):
        b = bases[-1]
        for _ in range(w):
            b = _jac_double(*b)
        bases.append(b)
    rows = [[b] for b in _to_affine_all(bases)]
    lengths = [1 << (w - 1)] * _GENERATOR_ROWS + [_GENERATOR_TOP]
    # with 1*B..k*B in a row, one batch adds k*B to the first of them (the
    # last is a doubling), giving (k+1)*B..2k*B, or up to the row's length
    while pending := [(row, n - len(row)) for row, n in zip(rows, lengths) if len(row) < n]:
        added = iter(_batch_affine_add([(p, row[-1]) for row, more in pending
                                        for p in row[:more]]))
        for row, more in pending:
            row += [next(added) for _ in row[:more]]
    return [([x for x, _ in row], [y for _, y in row]) for row in rows]


# The mask of one digit of the generator table, and the least digit that
# is recoded as negative
_DIGIT_MASK, _DIGIT_HALF = (1 << _GENERATOR_WIDTH) - 1, 1 << (_GENERATOR_WIDTH - 1)
# Scalars per chunk of a batched generator mul. One level of a chunk's
# sums holds at most 14 new points per scalar (7 per half), so chunks
# bound the memory of a large batch; with 128 scalars an inversion is
# already shared by thousands of additions, so bigger chunks would save
# no time.
_GENERATOR_CHUNK = 128
# A chunk of one scalar takes a Jacobian chain instead. The chain pays
# one inversion (about 21-29 us, some 45 field multiplications) where the
# affine levels pay five, but each of its mixed additions costs about
# twice an affine one, so the levels win as soon as two scalars share
# their inversions. Median us per scalar over 300 interleaved rounds of
# random scalars, unscaled, 2-core VM, Python 3.11.7:
#   scalars in the chunk        1      2      3
#   affine levels             249    186    164
#   one chain per scalar      218    213    211


def _generator_terms(k: int, table: list) -> list:
    """The table entries that sum to k*G for a half 0 <= k: one per
    nonzero signed width-9 digit of k, lowest row first, with y negated
    for a negative digit."""
    terms = []
    for xs, ys in table:
        if not k:
            break
        d = k & _DIGIT_MASK
        k >>= _GENERATOR_WIDTH
        if d < _DIGIT_HALF:
            if d:
                terms.append((xs[d - 1], ys[d - 1]))
        else:
            # digit d - 512: entry 512 - d negated, and a carry
            d = _DIGIT_MASK - d
            terms.append((xs[d], _SECP_P - ys[d]))
            k += 1
    return terms


def _mul_generator(scalars: Sequence[int]) -> list:
    """[s*G for s in scalars], each s reduced mod n; None for s = 0 (mod n).

    Each scalar is split by :func:`_glv_split` into halves k1 and k2 with
    k1 + k2*lambda = s (mod n). Each |k| is recoded into 15 signed digits,
    in [-256, 256) for the 14 full rows and in [0, 3] for the top row; a
    nonzero digit d of row i selects the table entry |d| * 2^(9i) * G,
    with y negated when d < 0 (:func:`_generator_terms`). k1*G and
    lambda*(k2*G) = (beta*x, y) are then summed, with y negated for a
    negative half; a zero half adds nothing. A scalar costs at most 29
    additions.

    A chunk of one scalar adds its entries, those of the second half
    mapped by beta, in one mixed Jacobian-affine chain
    (:func:`_jac_add_affine`) and normalises the sum with one inversion.
    In a chunk of two or more, the entries of every half are summed
    pairwise, level by level, in affine form, and each level is one
    :func:`_batch_affine_add` with one shared inversion; a last batch adds
    k1*G to lambda*(k2*G). Such a chunk pays at most 5 inversions however
    many scalars it holds.

    Within a half, two sibling sums never meet equal x: each is c*G for a
    signed-digit sum c over its own rows with |c| < 2^128, far below n,
    so equal x would make a signed-digit sum over disjoint rows vanish,
    which its lowest nonzero digit forbids. The last batch and the chain
    have no such argument, so the adders handle it: equal points make a
    doubling. k1*G + lambda*(k2*G) = s*G is never the identity for
    s != 0 (mod n).
    """
    global _generator_table
    if _generator_table is None:
        _generator_table = _build_generator_table()
    table = _generator_table
    out = []
    for start in range(0, len(scalars), _GENERATOR_CHUNK):
        chunk = scalars[start:start + _GENERATOR_CHUNK]
        if len(chunk) == 1:
            x, y, z = 0, 1, 0
            for j, k in enumerate(_glv_split(chunk[0] % _SECP_N)):
                for ex, ey in _generator_terms(abs(k), table):
                    x, y, z = _jac_add_affine(x, y, z, _GLV_BETA * ex % _SECP_P if j else ex,
                                              _SECP_P - ey if k < 0 else ey)
            out.append(_to_affine(x, y, z))
            continue
        sums, negative = [], []
        for s in chunk:
            for k in _glv_split(s % _SECP_N):
                negative.append(k < 0)
                sums.append(_generator_terms(abs(k), table))
        while pairs := [(terms[i], terms[i + 1]) for terms in sums
                        for i in range(0, len(terms) - 1, 2)]:
            added = _batch_affine_add(pairs)
            # each half's sums of this level, then its odd entry left over
            at = 0
            for j, terms in enumerate(sums):
                m = len(terms) >> 1
                sums[j] = added[at:at + m] + terms[2 * m:]
                at += m
        # |k1|*G and |k2|*G, signed, and the second mapped by lambda
        ends = []
        for j, terms in enumerate(sums):
            if terms:
                x, y = terms[0]
                ends.append((_GLV_BETA * x % _SECP_P if j & 1 else x,
                             _SECP_P - y if negative[j] else y))
            else:
                ends.append(None)
        firsts, seconds = ends[0::2], ends[1::2]
        pairs = [(p, q) for p, q in zip(firsts, seconds) if p and q]
        added = iter(_batch_affine_add(pairs))
        out += [next(added) if p and q else p or q for p, q in zip(firsts, seconds)]
    return out


def make_group(kind: str):
    """Build a group by kind: "production" (secp256k1) or "toy" (Z_q, +)
    of the 61-bit Mersenne prime order used by the randomized test suites.
    """
    if kind == "production":
        return CurveGroup()
    if kind == "toy":
        return ToyGroup()
    raise ValueError(f"unknown group kind {kind!r}")
