"""Functional model of the 5G NR initial-authentication flow.

The UE conceals its permanent identifier (SUPI) into a SUCI under the
base station's public key, the UDM decrypts it and issues a random
challenge, and the AUSF/SEAF pair confirm the UE's response by hash and
byte comparison. Responses are modeled as the challenge concatenated
with the SUCI bytes, which keeps the flow's operation counts (one
asymmetric encryption, one decryption, two hashes, two round trips)
exactly those the latency model charges for. The exchange is written once,
as ``ue_authentication_flow``, a plain function on a ``protocol.Transport``
like the group flows: ``run_ue_authentication`` passes one with no clock,
and ``simnet`` passes one on the modeled clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .algebra import DecodeError, Point
from .protocol import Transport, point_key

__all__ = [
    "DecryptError",
    "AuthenticationFailure",
    "SUPI_LENGTH",
    "Supi",
    "Suci",
    "ChallengeState",
    "BaseStationKeys",
    "OpCounter",
    "gen_bs_keys",
    "random_supi",
    "compute_suci",
    "udm_decrypt",
    "udm_challenge",
    "ausf_hxres",
    "ue_response",
    "seaf_check",
    "ausf_confirm",
    "ue_authentication_flow",
    "run_ue_authentication",
]

# IMSI-like identifier width in bytes.
SUPI_LENGTH = 15

RAND_BYTES = 16

# Fresh ECIES key per message, so a fixed AEAD nonce is safe.
_ECIES_NONCE = bytes(12)


class DecryptError(ValueError):
    """SUCI ciphertext is malformed or fails authentication."""


class AuthenticationFailure(Exception):
    """Challenge-response confirmation failed."""


@dataclass(frozen=True)
class Supi:
    """Subscriber permanent identifier."""

    value: bytes

    def __post_init__(self):
        if not self.value:
            raise ValueError("SUPI must be nonempty")


@dataclass(frozen=True)
class Suci:
    """Concealment of a SUPI: ephemeral point followed by AEAD ciphertext."""

    ciphertext: bytes


@dataclass
class ChallengeState:
    """Core-side challenge record: hxres is filled in by the AUSF."""

    rand: bytes
    xres: bytes
    supi: Supi
    hxres: bytes | None = None


@dataclass(frozen=True)
class BaseStationKeys:
    private: int
    public: Point


@dataclass
class OpCounter:
    """Instrumentation for the operations the latency model charges."""

    asym_encrypt: int = 0
    asym_decrypt: int = 0
    hash_ops: int = 0
    round_trips: int = 0


def gen_bs_keys(group, rng) -> BaseStationKeys:
    d = group.field.rand_nonzero(rng)
    return BaseStationKeys(private=d, public=group.mul(d, group.generator))


def random_supi(rng) -> Supi:
    return Supi(rng.getrandbits(8 * SUPI_LENGTH).to_bytes(SUPI_LENGTH, "big"))


def compute_suci(group, supi: Supi, bs_public: Point, rng) -> Suci:
    """Hybrid encryption of the SUPI: a fresh ephemeral scalar makes the
    ciphertext randomized, and the shared point keys an AEAD."""
    e = group.field.rand_nonzero(rng)
    eph = group.mul(e, group.generator)
    eph_bytes = group.encode(eph)
    key = point_key(group, group.mul(e, bs_public))
    ct = AESGCM(key).encrypt(_ECIES_NONCE, supi.value, eph_bytes)
    return Suci(eph_bytes + ct)


def udm_decrypt(group, suci: Suci, keys: BaseStationKeys) -> Supi:
    """Invert compute_suci with the base-station private key."""
    data = suci.ciphertext
    if len(data) <= group.point_width:
        raise DecryptError("SUCI ciphertext too short")
    try:
        eph = group.decode(data[:group.point_width])
    except DecodeError as exc:
        raise DecryptError(f"bad ephemeral point: {exc}") from None
    key = point_key(group, group.mul(keys.private, eph))
    try:
        supi_bytes = AESGCM(key).decrypt(_ECIES_NONCE, data[group.point_width:],
                                         data[:group.point_width])
    except InvalidTag:
        raise DecryptError("SUCI authentication failed") from None
    return Supi(supi_bytes)


def udm_challenge(group, suci: Suci, keys: BaseStationKeys, rng) -> ChallengeState:
    """Decrypt the SUCI and build the expected response: a fresh random
    challenge with the SUCI bytes appended."""
    supi = udm_decrypt(group, suci, keys)
    rand = rng.getrandbits(8 * RAND_BYTES).to_bytes(RAND_BYTES, "big")
    return ChallengeState(rand=rand, xres=rand + suci.ciphertext, supi=supi)


def ausf_hxres(state: ChallengeState) -> bytes:
    """Hash of the expected response, stored for the serving network."""
    state.hxres = hashlib.sha256(state.xres).digest()
    return state.hxres


def ue_response(suci: Suci, rand: bytes) -> bytes:
    return rand + suci.ciphertext


def seaf_check(res: bytes, hxres: bytes) -> bool:
    return hashlib.sha256(res).digest() == hxres


def ausf_confirm(res: bytes, state: ChallengeState) -> Supi:
    if res != state.xres:
        raise AuthenticationFailure("RES does not match XRES")
    return state.supi


def ue_authentication_flow(group, supi: Supi, keys: BaseStationKeys, rng,
                           counter: OpCounter, transport: Transport):
    """One UE authentication; returns the SUPI as recovered by the serving
    network and raises AuthenticationFailure on a mismatch. It waits on
    ``transport`` for "encrypt", "core" (each half of a round trip),
    "decrypt" (UDM) and "hash" (AUSF, then SEAF), and records SUCI,
    CHALLENGE, RES and CONFIRM on arrival.
    """
    transport.wait("encrypt")
    suci = compute_suci(group, supi, keys.public, rng)
    counter.asym_encrypt += 1
    transport.wait("core")
    transport.record("SUCI", "ue", "core", suci.ciphertext)
    transport.wait("decrypt")
    # counted before the attempt: a failed decryption still costs the core
    # its work
    counter.asym_decrypt += 1
    state = udm_challenge(group, suci, keys, rng)
    transport.wait("hash")
    hxres = ausf_hxres(state)
    counter.hash_ops += 1
    transport.wait("core")
    transport.record("CHALLENGE", "core", "ue", state.rand)
    counter.round_trips += 1  # SUCI up, challenge down
    res = ue_response(suci, state.rand)
    transport.wait("core")
    transport.record("RES", "ue", "core", res)
    transport.wait("hash")
    ok = seaf_check(res, hxres)
    counter.hash_ops += 1
    transport.wait("core")
    counter.round_trips += 1  # RES up, confirmation down
    recovered = ausf_confirm(res, state) if ok else None
    transport.record("CONFIRM", "core", "ue", b"ok" if ok else b"fail")
    if not ok:
        raise AuthenticationFailure("HXRES mismatch at SEAF")
    return recovered


def run_ue_authentication(group, supi: Supi, keys: BaseStationKeys, rng,
                          counter: OpCounter | None = None) -> Supi:
    """Full flow with no clock (see :func:`ue_authentication_flow`); returns
    the SUPI as recovered by the serving network. Raises
    AuthenticationFailure or DecryptError on any mismatch.
    """
    return ue_authentication_flow(group, supi, keys, rng,
                                  counter if counter is not None else OpCounter(),
                                  Transport())
