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

from collections import OrderedDict
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

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.order

    def neg(self, a: int) -> int:
        return -a % self.order

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.order

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

    def contains(self, g: Point) -> bool:
        return isinstance(g, int) and 0 <= g < self.order

    def add(self, g: int, h: int) -> int:
        return (g + h) % self.order

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


class CurveGroup:
    """secp256k1 point arithmetic (affine tuples, None = point at infinity).

    Not constant time; side-channel hardening is out of scope for the
    simulation use case.
    """

    kind = "production-curve"

    def __init__(self):
        self.field = ScalarField(_SECP_N)
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
        if g is None:
            return h
        if h is None:
            return g
        x1, y1 = g
        x2, y2 = h
        if x1 == x2:
            if (y1 + y2) % _SECP_P == 0:
                return None
            # doubling: slope = 3x^2 / 2y
            lam = 3 * x1 * x1 * pow(2 * y1, -1, _SECP_P) % _SECP_P
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, _SECP_P) % _SECP_P
        x3 = (lam * lam - x1 - x2) % _SECP_P
        y3 = (lam * (x1 - x3) - y1) % _SECP_P
        return (x3, y3)

    def neg(self, g: Point) -> Point:
        if g is None:
            return None
        x, y = g
        return (x, -y % _SECP_P)

    def mul(self, s: int, g: Point) -> Point:
        """s*g: the one-scalar case of :meth:`mul_generator` for the
        generator, else a one-term :meth:`msm`."""
        if g == self.generator:
            return _mul_generator([s])[0]
        return self.msm([s], [g])

    def mul_generator(self, scalars: Sequence[int]) -> list:
        """[s*G for s in scalars]: table entries picked by the signed
        width-7 digits of each scalar, summed pairwise in affine form, with
        one inversion per level of pairwise sums shared by the scalars of a
        chunk of 128 (see :func:`_mul_generator`)."""
        return _mul_generator(scalars)

    def msm(self, scalars: Sequence[int], points: Sequence[Point]) -> Point:
        """sum(s_i * g_i): GLV-split interleaved width-5 wNAF (Straus)
        with one shared doubling chain and mixed Jacobian-affine additions.

        Each scalar k is split as k1 + k2*lambda = k (mod n) with signed
        halves of about 128 bits, and lambda*g = (beta*x, y) (Gallant,
        Lambert and Vanstone, CRYPTO 2001), so the 2m half-scalars share a
        doubling chain of about 129 steps instead of 256. Each point's odd
        multiples 1g..15g are built in Jacobian form and the tables that a
        call builds are normalized with one inversion; the table of
        lambda*g is one field multiplication per entry, and a negative half
        flips y. Zero scalars, zero halves and identity points drop out; a
        sum that cancels is None.

        A point's table is a pure function of the point, so it is kept in
        a bounded per-process cache of the 64 most recently used points
        (:func:`_wnaf_tables`): the t - 1 guards of a check verify the same
        t public points, and only the first guard builds their tables. The
        key is the affine point, not its x, because g and -g share x but
        not their tables. A call takes each table from what it found or
        built, never from the cache after its own inserts, so a call with
        more distinct points than the bound is still whole.
        """
        terms = [(s % self.order, g) for s, g in zip(scalars, points, strict=True)
                 if g is not None and s % self.order]
        if not terms:
            return None
        tables = _wnaf_tables([g for _, g in terms])
        halves = []
        for s, g in terms:
            table = tables[g]
            k1, k2 = _glv_split(s)
            # s != 0 (mod n), so at most one half is 0; it adds nothing
            if k1:
                halves.append((k1, table))
            if k2:
                halves.append((k2, [(_GLV_BETA * x % _SECP_P, y) for x, y in table]))
        # additions[i]: the signed table points to add at bit i; a wNAF
        # digit can sit one place above the top bit
        additions = [[] for _ in range(max(abs(k).bit_length() for k, _ in halves) + 1)]
        for k, table in halves:
            for i, d in _wnaf(abs(k)):
                x, y = table[abs(d) >> 1]
                additions[i].append((x, _SECP_P - y) if (d < 0) != (k < 0) else (x, y))
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


# wNAF width 5: digits are odd in [-15, 15], so each point needs the
# odd multiples 1, 3, ..., 15.
_WNAF_WIDTH = 5
_WNAF_ODD = 1 << (_WNAF_WIDTH - 2)


def _wnaf(k: int) -> list:
    """Width-5 non-adjacent form of k >= 0 as (bit position, digit) pairs
    for the nonzero digits, least significant first; 0 has none."""
    digits = []
    i = 0
    while k:
        if k & 1:
            d = k & ((1 << _WNAF_WIDTH) - 1)
            if d >> (_WNAF_WIDTH - 1):
                d -= 1 << _WNAF_WIDTH
            digits.append((i, d))
            # k - d has _WNAF_WIDTH low zero bits
            k = (k - d) >> _WNAF_WIDTH
            i += _WNAF_WIDTH
        else:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            i += zeros
    return digits


# Odd-multiple tables of variable-base points, keyed by the affine point,
# least recently used first. A table is 8 affine points; 64 tables hold
# every public point of a guard check up to t = 64.
_WNAF_TABLES_MAX = 64
_wnaf_table_cache: OrderedDict = OrderedDict()


def _wnaf_tables(points: list) -> dict:
    """{g: [1g, 3g, ..., 15g]} for the distinct affine points g, each from
    the cache or built. The points that miss are built together,
    normalized with one shared inversion, and then cached."""
    tables = {}
    missing = []
    for g in points:
        if g in tables:
            continue
        table = _wnaf_table_cache.get(g)
        if table is None:
            missing.append(g)
        else:
            _wnaf_table_cache.move_to_end(g)
        tables[g] = table
    jac = []
    for x, y in missing:
        # 2g = (dx, dy, dz) is the affine (dx, dy) on the isomorphic
        # curve y^2 = x^3 + 7*dz^6, where g is (x*dz^2, y*dz^3). The a = 0
        # formulas never read b, so the odd multiples are mixed additions
        # there, and (X, Y, Z) there is (X, Y, Z*dz) here.
        dx, dy, dz = _jac_double(x, y, 1)
        dz2 = dz * dz % _SECP_P
        m = (x * dz2 % _SECP_P, y * dz2 * dz % _SECP_P, 1)
        jac.append((m[0], m[1], dz))
        for _ in range(_WNAF_ODD - 1):
            m = _jac_add_affine(*m, dx, dy)
            jac.append((m[0], m[1], m[2] * dz % _SECP_P))
    odd = _to_affine_all(jac)
    for j, g in enumerate(missing):
        tables[g] = _wnaf_table_cache[g] = odd[j * _WNAF_ODD:(j + 1) * _WNAF_ODD]
    while len(_wnaf_table_cache) > _WNAF_TABLES_MAX:
        _wnaf_table_cache.popitem(last=False)
    return tables


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
    if z == 0:
        return None
    zinv = pow(z, -1, _SECP_P)
    z2 = zinv * zinv % _SECP_P
    return (x * z2 % _SECP_P, y * z2 * zinv % _SECP_P)


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


# Fixed-base table for the generator, width 7: row i holds d * 2^(7i) * G
# for d = 1..64, so s*G is the sum of one entry per nonzero signed digit
# of s, with no doubling. The 37 rows hold the 256 bits of a scalar and the
# carry out of its top full window. Built once per process, on first use,
# because every scenario run makes its own CurveGroup.
#
# The width trades additions per scalar (about one per row) against the
# table's size and build time, which every process pays once, in setup.
# Medians of interleaved runs on a 2-core VM (Python 3.11.7):
#   width  entries  build ms  batch of 104 ms  additions per scalar
#     5       832       7.0        33.0              49.1
#     6      1376      10.5        28.8              41.3
#     7      2368      16.6        25.5              35.7
#     8      4224      27.5        22.9              31.4
# Width 8 would save under 3 ms per batch and add 11 ms to every setup.
_generator_table = None


def _build_generator_table() -> list:
    # the row bases 2^(7i) * G by Jacobian doublings, normalized together
    bases = [(_SECP_GX, _SECP_GY, 1)]
    for _ in range(36):
        b = bases[-1]
        for _ in range(7):
            b = _jac_double(*b)
        bases.append(b)
    rows = [[b] for b in _to_affine_all(bases)]
    # with 1*B..k*B in every row, one batch adds k*B to each of them (the
    # last is a doubling), giving (k+1)*B..2k*B; six batches reach 64*B
    for _ in range(6):
        k = len(rows[0])
        added = _batch_affine_add([(p, row[-1]) for row in rows for p in row])
        for i, row in enumerate(rows):
            row += added[i * k:(i + 1) * k]
    return rows


# Scalars per chunk of a batched generator mul. One level of a chunk's
# sums holds at most 18 new points per scalar, so chunks bound the memory
# of a large batch; with 128 scalars an inversion is already shared by
# thousands of additions, so bigger chunks would save no time.
_GENERATOR_CHUNK = 128


def _mul_generator(scalars: Sequence[int]) -> list:
    """[s*G for s in scalars], each s reduced mod n; None for s = 0 (mod n).

    Each scalar is recoded into 37 signed digits in [-64, 64); a nonzero
    digit d of row i selects the table entry |d| * 2^(7i) * G, with y
    negated when d < 0. The entries of a chunk of scalars are summed
    pairwise, level by level, in affine form, and each level is one
    :func:`_batch_affine_add` with one shared inversion. A scalar costs at
    most 36 additions, and a chunk at most 6 inversions however many
    scalars it holds.

    With signed digits, no argument keeps two sibling sums from meeting
    equal x, so the adder handles it: equal points make a doubling, and a
    point plus its negation gives None, which drops out of its scalar's
    terms.
    """
    global _generator_table
    if _generator_table is None:
        _generator_table = _build_generator_table()
    out = []
    for start in range(0, len(scalars), _GENERATOR_CHUNK):
        sums = []
        for s in scalars[start:start + _GENERATOR_CHUNK]:
            s %= _SECP_N
            terms = []
            for row in _generator_table:
                if not s:
                    break
                d = s & 127
                s >>= 7
                if d < 64:
                    if d:
                        terms.append(row[d - 1])
                else:
                    # digit d - 128: entry 128 - d negated, and a carry
                    x, y = row[127 - d]
                    terms.append((x, _SECP_P - y))
                    s += 1
            sums.append(terms)
        while pairs := [(terms[i], terms[i + 1]) for terms in sums
                        for i in range(0, len(terms) - 1, 2)]:
            added = _batch_affine_add(pairs)
            # each scalar's sums of this level, then its odd entry left over
            at = 0
            for j, terms in enumerate(sums):
                half = len(terms) >> 1
                sums[j] = [p for p in added[at:at + half] if p is not None] + terms[2 * half:]
                at += half
        out += [terms[0] if terms else None for terms in sums]
    return out


def make_group(kind: str, order: int | None = None):
    """Build a group by kind: "production" (secp256k1) or "toy" (Z_q, +).

    ``order`` applies to the toy kind only and defaults to the 61-bit
    Mersenne prime used by the randomized test suites.
    """
    if kind in ("production", "production-curve"):
        if order is not None:
            raise ValueError("production curve has a fixed order")
        return CurveGroup()
    if kind == "toy":
        return ToyGroup(TOY_SUITE_ORDER if order is None else order)
    raise ValueError(f"unknown group kind {kind!r}")
