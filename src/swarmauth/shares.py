"""Dealer-side secret sharing and threshold verification.

A secret polynomial f of degree t-1 defines the group: f(0) is the group
key, each member holds a private share (x, f(x)) with x != 0, and the
public counterpart (x, f(x)*P) hides the evaluation behind the discrete
log. Any t distinct public shares can be checked against the public
commitment Q = f(0)*P by a Lagrange-weighted point sum, run as one
multi-scalar multiplication of t + 1 points with short integer weights
(the denominators cleared); any t private shares recover f(0) outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence

from .algebra import DecodeError, Point, ScalarField

__all__ = [
    "ThresholdTooSmall",
    "InvalidIdentifier",
    "DuplicateIdentifier",
    "WrongShareCount",
    "GroupPolynomial",
    "PrivateShare",
    "PublicShare",
    "gen_polynomial",
    "issue_share",
    "public_share",
    "public_shares",
    "group_commitment",
    "lagrange_coeff_at_zero",
    "verify_group",
    "recover_group_key",
    "Dealer",
    "encode_private_share",
    "decode_private_share",
    "encode_public_share",
    "decode_public_share",
]


class ThresholdTooSmall(ValueError):
    """Threshold below 2 cannot define a sharing."""


class InvalidIdentifier(ValueError):
    """Share identifier x = 0 would expose the group key directly."""


class DuplicateIdentifier(ValueError):
    """Identifiers in a share set (or a swarm) must be distinct."""


class WrongShareCount(ValueError):
    """Exactly t shares are required for verification or recovery."""


@dataclass(frozen=True)
class GroupPolynomial:
    """Secret polynomial; coeffs[0] is the group key, len(coeffs) is t."""

    field: ScalarField
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ThresholdTooSmall(f"threshold must be >= 2, got {len(self.coeffs)}")
        if any(c != self.field.reduce(c) for c in self.coeffs):
            raise ValueError("coefficients must be canonical scalars")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (true degree t-1)")

    @property
    def group_key(self) -> int:
        return self.coeffs[0]

    def evaluate(self, x: int) -> int:
        """Horner evaluation of the polynomial at x, on plain ints with one
        reduction at the end."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc % self.field.order


@dataclass(frozen=True, slots=True)
class PrivateShare:
    """A member's share: identifier x and the secret evaluation y = f(x)."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0:
            raise InvalidIdentifier("share identifier must be nonzero")


@dataclass(frozen=True, slots=True)
class PublicShare:
    """Public pair (x, f(x)*P)."""

    x: int
    point: Point

    def __post_init__(self):
        if self.x == 0:
            raise InvalidIdentifier("share identifier must be nonzero")


def gen_polynomial(field: ScalarField, t: int, rng) -> GroupPolynomial:
    """Draw a uniform degree-(t-1) polynomial; deterministic given the rng.

    Coefficients are uniform over the field except the leading one, which
    is redrawn until nonzero so that exactly t shares determine f.
    """
    if t < 2:
        raise ThresholdTooSmall(f"threshold must be >= 2, got {t}")
    coeffs = [field.rand(rng) for _ in range(t - 1)]
    coeffs.append(field.rand_nonzero(rng))
    return GroupPolynomial(field, tuple(coeffs))


def issue_share(poly: GroupPolynomial, x: int) -> PrivateShare:
    x = poly.field.reduce(x)
    return PrivateShare(x=x, y=poly.evaluate(x))


def public_shares(shares: Sequence[PrivateShare], group) -> list:
    """The public pairs of many shares, from one batched generator mul."""
    points = group.mul_generator([s.y for s in shares])
    return [PublicShare(x=s.x, point=p) for s, p in zip(shares, points)]


def public_share(share: PrivateShare, group) -> PublicShare:
    return public_shares([share], group)[0]


def group_commitment(poly: GroupPolynomial, group) -> Point:
    """Q = f(0)*P, the public point that verifiers check share sets against."""
    return group.mul(poly.group_key, group.generator)


def _check_identifiers(field: ScalarField, xs: Sequence[int]):
    # x and x + q name the same evaluation point
    xs = [field.reduce(x) for x in xs]
    if 0 in xs:
        raise InvalidIdentifier("share identifiers must be nonzero")
    if len(set(xs)) != len(xs):
        raise DuplicateIdentifier(f"identifiers must be distinct, got {sorted(xs)}")


# Products of _integer_weights wider than this many field elements cost
# more than the residue path. Timed on the curve field (2-core VM, Python
# 3.11) with identifiers a, 2a, ..., ta: at t = 50 and 100, products 14
# and 15.5 elements wide took 2.3 and 7.5 ms against 4.0 and 10.8 ms on
# the residue path, and 26 and 28 elements wide took 5.6 and 16 ms against
# 4.9 and 12 ms.
_EXACT_WIDTH_ELEMENTS = 16


def _integer_weights(field: ScalarField, xs: Sequence[int]) -> tuple[list, int]:
    """Lagrange weights at zero with their denominators cleared: (c, d)
    with c_i = d * lambda_i (mod q) and d != 0 (mod q), for distinct
    nonzero identifiers mod q, where lambda_i = prod over r != i of
    x_r / (x_r - x_i) (Shoup's Delta, "Practical Threshold Signatures",
    EUROCRYPT 2000).

    Each identifier is reduced to its centred residue in (-q/2, q/2), so
    q - i counts as -i. Each weight is taken as a fraction of integers
    over these residues in lowest terms, d is the lcm of the t
    denominators, and c_i = d * lambda_i is then an exact signed integer.
    Every difference x_r - x_i is nonzero mod the prime q, so no
    denominator, and hence not d, is 0 mod q. For small identifiers, as
    the dealer's 1, 2, 3, ..., c_i and d are short: at t = 10
    (identifiers 1..9 and 11) they fit in 12 bits.

    The work is bounded in two ways; both return c_i = lambda_i mod q and
    d = 1 from :func:`_residue_weights`, O(t^2) field operations. Products
    that could be wider than ``_EXACT_WIDTH_ELEMENTS`` field elements (t - 1
    factors of the widest difference) are not built. Identifiers wide
    enough that d reaches q leave no weights shorter than q.
    """
    q = field.order
    half = q // 2
    xs = [x - q if x > half else x for x in (x % q for x in xs)]
    widest = max(map(abs, xs), default=0).bit_length() + 1
    if (len(xs) - 1) * widest > _EXACT_WIDTH_ELEMENTS * q.bit_length():
        return _residue_weights(field, xs), 1
    fracs, d = [], 1
    for i, xi in enumerate(xs):
        num = den = 1
        for r, xr in enumerate(xs):
            if r != i:
                num *= xr
                den *= xr - xi
        g = gcd(num, den)
        fracs.append((num // g, den // g))
        d = lcm(d, den // g)
        if d >= q:
            return _residue_weights(field, xs), 1
    # d is a multiple of every |den|, so each division is exact
    return [num * (d // den) for num, den in fracs], d


def _residue_weights(field: ScalarField, xs: Sequence[int]) -> list:
    """lambda_i mod q for identifiers distinct mod q, one inversion per
    weight."""
    q = field.order
    weights = []
    for i, xi in enumerate(xs):
        num = den = 1
        for r, xr in enumerate(xs):
            if r != i:
                num = num * xr % q
                den = den * (xr - xi) % q
        weights.append(num * field.inv(den) % q)
    return weights


def lagrange_coeff_at_zero(field: ScalarField, xs: Sequence[int], i: int) -> int:
    """Weight of the i-th share when interpolating at zero:
    prod over r != i of (-x_r) / (x_i - x_r), as c_i / d (mod q) from
    :func:`_integer_weights`, with one field inversion.
    """
    if len(xs) < 2:
        raise WrongShareCount("at least 2 identifiers required")
    _check_identifiers(field, xs)
    c, d = _integer_weights(field, xs)
    return c[i] * field.inv(d) % field.order


def verify_group(shares: Sequence[PublicShare], commitment: Point,
                 group, threshold: int) -> bool:
    """True iff the Lagrange-weighted sum of the public points equals Q.

    Requires exactly ``threshold`` shares with distinct nonzero x. A set
    drawn from the issuing polynomial always passes; a set containing any
    off-polynomial point fails (up to the 1/q collision chance).

    The check is one multi-scalar multiplication of t + 1 points with
    short integer weights: sum c_i * P_i - d * Q is the identity, where
    c_i = d * lambda_i (see :func:`_integer_weights`). d is not 0 mod the
    prime group order, so multiplying by d is a bijection on the group,
    and sum c_i * P_i = d * Q exactly when sum lambda_i * P_i = Q: the
    verdict is that of the plain weighted sum on every input. The weights
    and d depend only on the public identifiers.
    """
    if len(shares) != threshold:
        raise WrongShareCount(f"expected {threshold} shares, got {len(shares)}")
    xs = [s.x for s in shares]
    _check_identifiers(group.field, xs)
    c, d = _integer_weights(group.field, xs)
    points = [s.point for s in shares]
    return group.msm(c + [-d], points + [commitment]) == group.identity


def recover_group_key(shares: Sequence[PrivateShare], field: ScalarField,
                      threshold: int) -> int:
    """Interpolate f(0) from exactly t private shares."""
    if len(shares) != threshold:
        raise WrongShareCount(f"expected {threshold} shares, got {len(shares)}")
    xs = [s.x for s in shares]
    _check_identifiers(field, xs)
    c, d = _integer_weights(field, xs)
    return sum(w * s.y for w, s in zip(c, shares)) * field.inv(d) % field.order


class Dealer:
    """Issues shares from one polynomial under identifiers 1, 2, 3, ...

    The dealer is a counter: it hands out each identifier once, in order,
    so transcripts are reproducible and the distinctness precondition of
    verification holds by construction. :meth:`register_range` hands out
    the next identifiers and :meth:`shares_at` computes their shares;
    :meth:`issue_next` does both for one share. The dealer draws no
    randomness. Callers must serialize access.
    """

    def __init__(self, poly: GroupPolynomial):
        self.poly = poly
        self._next_x = 1

    @property
    def group_key(self) -> int:
        return self.poly.group_key

    def issue_next(self) -> PrivateShare:
        return self.shares_at(self.register_range(1))[0]

    def register_range(self, n: int) -> range:
        """Hand out the next n identifiers without evaluating their shares
        (see :meth:`shares_at`). Raises InvalidIdentifier once every
        identifier below q is handed out, keeping the ones before it. The
        range is counted by its ends: ``len`` of a range longer than
        sys.maxsize raises OverflowError."""
        if n < 0:
            raise ValueError(f"cannot register {n} identifiers")
        q = self.poly.field.order
        start = self._next_x
        self._next_x = min(start + n, q)
        if self._next_x - start < n:
            raise InvalidIdentifier(f"every identifier below {q} is issued")
        return range(start, self._next_x)

    def shares_at(self, xs: Sequence[int]) -> list:
        """The shares of identifiers from :meth:`register_range`, in order."""
        return [PrivateShare(x, self.poly.evaluate(x)) for x in xs]

    def issued_identifiers(self) -> range:
        return range(1, self._next_x)


# Wire form: each field preceded by a 2-byte big-endian length, concatenated.
# Share encodings and protocol messages both use it.

def _lp(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError(f"field of {len(data)} bytes exceeds the 65535-byte "
                         f"length prefix")
    return len(data).to_bytes(2, "big") + data


def _read_lp(buf: bytes, off: int) -> tuple[bytes, int]:
    if off + 2 > len(buf):
        raise DecodeError("truncated length prefix")
    n = int.from_bytes(buf[off:off + 2], "big")
    off += 2
    if off + n > len(buf):
        raise DecodeError("truncated field")
    return buf[off:off + n], off + n


def _decode_identifier(field: ScalarField, data: bytes) -> int:
    x = field.decode(data)
    if x == 0:
        raise DecodeError("share identifier must be nonzero")
    return x


def encode_private_share(field: ScalarField, share: PrivateShare) -> bytes:
    return _lp(field.encode(share.x)) + _lp(field.encode(share.y))


def decode_private_share(field: ScalarField, data: bytes) -> PrivateShare:
    xb, off = _read_lp(data, 0)
    yb, off = _read_lp(data, off)
    if off != len(data):
        raise DecodeError("trailing bytes in private share encoding")
    return PrivateShare(x=_decode_identifier(field, xb), y=field.decode(yb))


def encode_public_share(group, share: PublicShare) -> bytes:
    return _lp(group.field.encode(share.x)) + _lp(group.encode(share.point))


def decode_public_share(group, data: bytes) -> PublicShare:
    xb, off = _read_lp(data, 0)
    pb, off = _read_lp(data, off)
    if off != len(data):
        raise DecodeError("trailing bytes in public share encoding")
    return PublicShare(x=_decode_identifier(group.field, xb), point=group.decode(pb))
