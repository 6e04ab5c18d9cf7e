"""Dealer-side secret sharing and threshold verification.

A secret polynomial f of degree t-1 defines the group: f(0) is the group
key, each member holds a private share (x, f(x)) with x != 0, and the
public counterpart (x, f(x)*P) hides the evaluation behind the discrete
log. Any t distinct public shares can be checked against the public
commitment Q = f(0)*P by a Lagrange-weighted point sum; any t private
shares recover f(0) outright.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "GroupCommitment",
    "gen_polynomial",
    "issue_share",
    "public_share",
    "group_commitment",
    "lagrange_coeff_at_zero",
    "verify_group",
    "recover_group_key",
    "Dealer",
    "encode_private_share",
    "decode_private_share",
    "encode_public_share",
    "decode_public_share",
    "encode_commitment",
    "decode_commitment",
]


class ThresholdTooSmall(ValueError):
    """Threshold below 2 cannot define a sharing."""


class InvalidIdentifier(ValueError):
    """Share identifier x = 0 would expose the group key directly."""


class DuplicateIdentifier(ValueError):
    """Identifiers in a share set (or registry) must be distinct."""


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
    def threshold(self) -> int:
        return len(self.coeffs)

    @property
    def group_key(self) -> int:
        return self.coeffs[0]

    def evaluate(self, x: int) -> int:
        """Horner evaluation of the polynomial at x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.field.order
        return acc


@dataclass(frozen=True)
class PrivateShare:
    """A member's share: identifier x and the secret evaluation y = f(x)."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0:
            raise InvalidIdentifier("share identifier must be nonzero")


@dataclass(frozen=True)
class PublicShare:
    """Public pair (x, f(x)*P)."""

    x: int
    point: Point

    def __post_init__(self):
        if self.x == 0:
            raise InvalidIdentifier("share identifier must be nonzero")


@dataclass(frozen=True)
class GroupCommitment:
    """Public point Q = f(0)*P that verifiers check share sets against."""

    point: Point


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
    if poly.field.reduce(x) == 0:
        raise InvalidIdentifier("share identifier must be nonzero")
    return PrivateShare(x=poly.field.reduce(x), y=poly.evaluate(x))


def public_share(share: PrivateShare, group) -> PublicShare:
    return PublicShare(x=share.x, point=group.mul(share.y, group.generator))


def group_commitment(poly: GroupPolynomial, group) -> GroupCommitment:
    return GroupCommitment(point=group.mul(poly.group_key, group.generator))


def _check_identifiers(field: ScalarField, xs: Sequence[int]):
    if any(field.reduce(x) == 0 for x in xs):
        raise InvalidIdentifier("share identifiers must be nonzero")
    if len(set(xs)) != len(xs):
        raise DuplicateIdentifier(f"identifiers must be distinct, got {sorted(xs)}")


def lagrange_coeff_at_zero(field: ScalarField, xs: Sequence[int], i: int) -> int:
    """Weight of the i-th share when interpolating at zero:
    prod over r != i of (-x_r) / (x_i - x_r), division as field inversion.
    """
    if len(xs) < 2:
        raise WrongShareCount("at least 2 identifiers required")
    _check_identifiers(field, xs)
    xi = xs[i]
    lam = 1
    for r, xr in enumerate(xs):
        if r == i:
            continue
        lam = lam * field.neg(xr) % field.order
        lam = lam * field.inv(field.sub(xi, xr)) % field.order
    return lam


def verify_group(shares: Sequence[PublicShare], commitment: GroupCommitment,
                 group, threshold: int) -> bool:
    """True iff the Lagrange-weighted sum of the public points equals Q.

    Requires exactly ``threshold`` shares with distinct nonzero x. A set
    drawn from the issuing polynomial always passes; a set containing any
    off-polynomial point fails (up to the 1/q collision chance).
    """
    if len(shares) != threshold:
        raise WrongShareCount(f"expected {threshold} shares, got {len(shares)}")
    xs = [s.x for s in shares]
    _check_identifiers(group.field, xs)
    acc = group.identity
    for i, s in enumerate(shares):
        lam = lagrange_coeff_at_zero(group.field, xs, i)
        acc = group.add(acc, group.mul(lam, s.point))
    return acc == commitment.point


def recover_group_key(shares: Sequence[PrivateShare], field: ScalarField,
                      threshold: int) -> int:
    """Interpolate f(0) from exactly t private shares."""
    if len(shares) != threshold:
        raise WrongShareCount(f"expected {threshold} shares, got {len(shares)}")
    xs = [s.x for s in shares]
    _check_identifiers(field, xs)
    acc = 0
    for i, s in enumerate(shares):
        lam = lagrange_coeff_at_zero(field, xs, i)
        acc = (acc + lam * s.y) % field.order
    return acc


class Dealer:
    """Issues shares from one polynomial with a sequential identifier registry.

    Identifiers are handed out as 1, 2, 3, ... and uniqueness is enforced,
    so transcripts are reproducible and the distinctness precondition of
    verification holds by construction. Callers must serialize access.
    """

    def __init__(self, poly: GroupPolynomial, group):
        if group.field != poly.field:
            raise ValueError("polynomial field must match the group order")
        self.poly = poly
        self.group = group
        self._issued: set[int] = set()
        self._next_x = 1

    @property
    def threshold(self) -> int:
        return self.poly.threshold

    @property
    def group_key(self) -> int:
        return self.poly.group_key

    def commitment(self) -> GroupCommitment:
        return group_commitment(self.poly, self.group)

    def issue_next(self) -> PrivateShare:
        while self._next_x in self._issued:
            self._next_x += 1
        return self.issue_at(self._next_x)

    def issue_at(self, x: int) -> PrivateShare:
        x = self.poly.field.reduce(x)
        if x in self._issued:
            raise DuplicateIdentifier(f"identifier {x} already issued")
        share = issue_share(self.poly, x)
        self._issued.add(x)
        return share

    def issued_identifiers(self) -> frozenset:
        return frozenset(self._issued)

    def public_share(self, share: PrivateShare) -> PublicShare:
        return public_share(share, self.group)


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


def encode_commitment(group, commitment: GroupCommitment) -> bytes:
    return _lp(group.encode(commitment.point))


def decode_commitment(group, data: bytes) -> GroupCommitment:
    pb, off = _read_lp(data, 0)
    if off != len(data):
        raise DecodeError("trailing bytes in commitment encoding")
    return GroupCommitment(point=group.decode(pb))
