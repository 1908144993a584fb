"""Cost-modelled cryptographic primitives.

The survey's security arguments hinge on *time*: authentication and
authorization "must be done in seconds ... in milliseconds".  What
matters for reproduction is therefore the latency and size of each
operation class, not the bit-level math.  This module provides:

* **Real** hashing and HMAC (``hashlib``) where integrity checks are
  cheap and convenient to make genuinely binding.
* **Simulated** asymmetric schemes (ECDSA-like signatures, group
  signatures) whose unforgeability is enforced by simulation rules: a
  signature embeds a digest of the signed data plus the signing key's
  private token, and verification recomputes both.  An attacker object
  that never held the private key cannot construct a valid signature.
* A :class:`CryptoCostModel` with per-operation virtual latencies and
  sizes, defaulting to mid-range published OBU-class benchmarks
  (ECDSA-P256 sign ~0.6 ms / verify ~1.8 ms; group signature sign ~6 ms /
  verify ~12 ms; bilinear pairing ~10 ms).

Every operation returns a :class:`CryptoOp` carrying its virtual cost so
protocol code can accumulate handshake latency honestly.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass, field
from typing import Dict, Generic, Optional, TypeVar

from ..errors import CryptoError
from ..ids import next_id

T = TypeVar("T")


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 hex digest of ``data`` (real hash)."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class CryptoCostModel:
    """Virtual latencies (seconds) and sizes (bytes) per operation."""

    hash_s: float = 2e-6
    hmac_s: float = 4e-6
    symmetric_encrypt_s_per_kb: float = 1e-5
    ecdsa_sign_s: float = 0.0006
    ecdsa_verify_s: float = 0.0018
    group_sign_s: float = 0.006
    group_verify_s: float = 0.012
    group_open_s: float = 0.015
    pairing_s: float = 0.010
    signature_bytes: int = 64
    certificate_bytes: int = 125
    group_signature_bytes: int = 192
    hmac_bytes: int = 32

    def symmetric_cost(self, size_bytes: int) -> float:
        """Return the cost of symmetric-encrypting ``size_bytes``."""
        return self.symmetric_encrypt_s_per_kb * max(1.0, size_bytes / 1024.0)


DEFAULT_COSTS = CryptoCostModel()


@dataclass(frozen=True)
class CryptoOp(Generic[T]):
    """The result of one crypto operation plus its virtual cost."""

    value: T
    cost_s: float
    size_bytes: int = 0


# ---------------------------------------------------------------------------
# Signature scheme (ECDSA-like)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric keypair.

    ``private_token`` must never leave the owner; holding the KeyPair
    object *is* holding the private key.  ``public_id`` is what goes
    into certificates.
    """

    public_id: str
    private_token: str

    @staticmethod
    def generate(label: str = "") -> "KeyPair":
        index = next_id("key")
        public_id = f"pk-{index}" if not label else f"pk-{label}-{index}"
        private_token = sha256_hex(f"secret:{public_id}".encode())
        return KeyPair(public_id=public_id, private_token=private_token)


@dataclass(frozen=True)
class Signature:
    """A simulated digital signature over a byte string."""

    signer_public_id: str
    binding: str  # digest binding data to the private key


class SignatureScheme:
    """ECDSA-like sign/verify with honest unforgeability bookkeeping."""

    def __init__(self, costs: CryptoCostModel = DEFAULT_COSTS) -> None:
        self.costs = costs

    @staticmethod
    def _binding(private_token: str, data: bytes) -> str:
        return sha256_hex(private_token.encode() + b"|" + data)

    def sign(self, keypair: KeyPair, data: bytes) -> CryptoOp[Signature]:
        """Sign ``data`` with the private key."""
        signature = Signature(
            signer_public_id=keypair.public_id,
            binding=self._binding(keypair.private_token, data),
        )
        return CryptoOp(signature, self.costs.ecdsa_sign_s, self.costs.signature_bytes)

    def verify(
        self, public_id: str, data: bytes, signature: Signature
    ) -> CryptoOp[bool]:
        """Verify a signature against a public key id.

        Verification recomputes the private token the same way key
        generation derived it — legitimate because verification *models*
        the asymmetric math; attacker code never gets to call this to
        mint signatures, only to check them.
        """
        if signature.signer_public_id != public_id:
            return CryptoOp(False, self.costs.ecdsa_verify_s)
        expected_token = sha256_hex(f"secret:{public_id}".encode())
        valid = signature.binding == self._binding(expected_token, data)
        return CryptoOp(valid, self.costs.ecdsa_verify_s)


# ---------------------------------------------------------------------------
# HMAC (real)
# ---------------------------------------------------------------------------


class HmacScheme:
    """Keyed MAC built on real HMAC-SHA256."""

    def __init__(self, costs: CryptoCostModel = DEFAULT_COSTS) -> None:
        self.costs = costs

    def tag(self, key: bytes, data: bytes) -> CryptoOp[str]:
        """Return the MAC tag for ``data`` under ``key``."""
        digest = hmac_mod.new(key, data, hashlib.sha256).hexdigest()
        return CryptoOp(digest, self.costs.hmac_s, self.costs.hmac_bytes)

    def verify(self, key: bytes, data: bytes, tag: str) -> CryptoOp[bool]:
        """Constant-time-compare a MAC tag."""
        expected = hmac_mod.new(key, data, hashlib.sha256).hexdigest()
        return CryptoOp(hmac_mod.compare_digest(expected, tag), self.costs.hmac_s)


# ---------------------------------------------------------------------------
# Group signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSignature:
    """An anonymous signature attributable only by the group manager."""

    group_id: str
    binding: str
    opening_hint: str  # encrypted signer identity, readable by the manager


@dataclass
class _GroupState:
    group_id: str
    group_secret: str
    members: Dict[str, str] = field(default_factory=dict)  # member_id -> member key


class GroupSignatureScheme:
    """Group signatures with manager-side opening (conditional privacy).

    Any member can sign anonymously on behalf of the group; verifiers
    learn only the group id; the manager (who created the group) can
    ``open`` a signature to the member identity — exactly the
    conditional-privacy property the survey ascribes to group-based
    authentication (§IV.B.1).
    """

    def __init__(self, costs: CryptoCostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        self._groups: Dict[str, _GroupState] = {}

    def create_group(self, group_id: str) -> None:
        """Create a group; the caller becomes its manager."""
        if group_id in self._groups:
            raise CryptoError(f"group already exists: {group_id!r}")
        secret = sha256_hex(f"group-secret:{group_id}".encode())
        self._groups[group_id] = _GroupState(group_id=group_id, group_secret=secret)

    def has_group(self, group_id: str) -> bool:
        """Return True if the group exists."""
        return group_id in self._groups

    def enroll_member(self, group_id: str, member_id: str) -> str:
        """Issue a member key; returns the member-key token."""
        group = self._require_group(group_id)
        member_key = sha256_hex(f"{group.group_secret}:{member_id}".encode())
        group.members[member_id] = member_key
        return member_key

    def remove_member(self, group_id: str, member_id: str) -> None:
        """Revoke a member's signing ability."""
        group = self._require_group(group_id)
        group.members.pop(member_id, None)

    def sign(
        self, group_id: str, member_id: str, member_key: str, data: bytes
    ) -> CryptoOp[GroupSignature]:
        """Produce an anonymous group signature over ``data``."""
        group = self._require_group(group_id)
        if group.members.get(member_id) != member_key:
            raise CryptoError(f"{member_id!r} holds no valid key for group {group_id!r}")
        binding = sha256_hex(group.group_secret.encode() + b"|" + data)
        hint = sha256_hex(f"open:{group.group_secret}:{member_id}".encode())
        signature = GroupSignature(group_id=group_id, binding=binding, opening_hint=hint)
        return CryptoOp(signature, self.costs.group_sign_s, self.costs.group_signature_bytes)

    def verify(self, data: bytes, signature: GroupSignature) -> CryptoOp[bool]:
        """Verify that some group member signed ``data``."""
        group = self._groups.get(signature.group_id)
        if group is None:
            return CryptoOp(False, self.costs.group_verify_s)
        expected = sha256_hex(group.group_secret.encode() + b"|" + data)
        return CryptoOp(expected == signature.binding, self.costs.group_verify_s)

    def open(self, signature: GroupSignature) -> CryptoOp[Optional[str]]:
        """Manager-only: reveal which member produced a signature."""
        group = self._groups.get(signature.group_id)
        if group is None:
            return CryptoOp(None, self.costs.group_open_s)
        for member_id in group.members:
            hint = sha256_hex(f"open:{group.group_secret}:{member_id}".encode())
            if hint == signature.opening_hint:
                return CryptoOp(member_id, self.costs.group_open_s)
        return CryptoOp(None, self.costs.group_open_s)

    def member_count(self, group_id: str) -> int:
        """Return the number of enrolled members."""
        return len(self._require_group(group_id).members)

    def _require_group(self, group_id: str) -> _GroupState:
        group = self._groups.get(group_id)
        if group is None:
            raise CryptoError(f"no such group: {group_id!r}")
        return group


def serialize_for_signing(*parts: object) -> bytes:
    """Canonical, unambiguous byte encoding of heterogeneous fields."""
    encoded = []
    for part in parts:
        text = repr(part)
        encoded.append(f"{len(text)}:{text}")
    return "|".join(encoded).encode()
