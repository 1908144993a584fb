"""Simulated ciphertext-policy attribute-based encryption (CP-ABE).

Models the SmartVeh / Luo-Ma line of work the survey cites for v-cloud
access control (§IV.C): data is encrypted under an attribute policy and
only keys whose attributes satisfy the policy can decrypt — no central
monitor needed at access time, which is exactly why ABE fits v-clouds.

Enforcement is simulated honestly: the plaintext is never stored in the
ciphertext object; ``decrypt`` re-derives it from the authority's master
secret only when the key satisfies the policy.  Costs follow CP-ABE's
published shape: keygen linear in attribute count, encrypt linear in
policy size, decrypt dominated by pairings per matched attribute —
including the "relative high computational complexity in the key
generation phase" the survey flags for multi-authority variants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ...errors import CryptoError
from ...ids import next_id
from ..crypto import CryptoCostModel, CryptoOp, DEFAULT_COSTS


@dataclass(frozen=True)
class AbePolicy:
    """A conjunction-of-attributes policy (AND over name=value leaves)."""

    required: Tuple[Tuple[str, object], ...]

    @staticmethod
    def of(**attributes: object) -> "AbePolicy":
        """Build a policy requiring all the given attribute values."""
        return AbePolicy(tuple(sorted(attributes.items())))

    @property
    def leaves(self) -> int:
        """Number of attribute leaves in the policy."""
        return len(self.required)

    def satisfied_by(self, attributes: Mapping[str, object]) -> bool:
        """True if all required attribute values are held."""
        return all(attributes.get(name) == value for name, value in self.required)


@dataclass(frozen=True)
class AbeKey:
    """A user key bound to an attribute set by the authority."""

    key_id: str
    attributes: Tuple[Tuple[str, object], ...]
    binding: str  # authority-derived token proving issuance

    def attribute_dict(self) -> Dict[str, object]:
        """Return the key's attributes as a dict."""
        return dict(self.attributes)


@dataclass(frozen=True)
class AbeCiphertext:
    """Data sealed under an attribute policy."""

    ciphertext_id: str
    policy: AbePolicy
    sealed: str  # keyed digest of the plaintext; opaque without authority
    size_bytes: int


class AbeAuthority:
    """Key generation authority and (simulated) ABE engine."""

    def __init__(self, costs: CryptoCostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        # Per-authority master secret: keys from one authority must not
        # open another authority's ciphertexts.
        self._master_secret = hashlib.sha256(
            f"abe-master:{next_id('abe')}".encode()
        ).hexdigest()
        self._plaintexts: Dict[str, bytes] = {}
        self.keys_issued = 0

    # -- key generation ----------------------------------------------------

    def keygen(self, attributes: Mapping[str, object]) -> CryptoOp[AbeKey]:
        """Issue a key for an attribute set.

        Cost: one pairing-class operation per attribute (the expensive
        phase the survey calls out).
        """
        if not attributes:
            raise CryptoError("cannot issue a key for an empty attribute set")
        ordered = tuple(sorted(attributes.items()))
        binding = hashlib.sha256(
            f"{self._master_secret}:{ordered!r}".encode()
        ).hexdigest()
        key = AbeKey(
            key_id=f"abekey-{next_id('abe')}", attributes=ordered, binding=binding
        )
        self.keys_issued += 1
        cost = self.costs.pairing_s * len(ordered)
        return CryptoOp(key, cost)

    def _key_is_genuine(self, key: AbeKey) -> bool:
        expected = hashlib.sha256(
            f"{self._master_secret}:{key.attributes!r}".encode()
        ).hexdigest()
        return expected == key.binding

    # -- encryption -----------------------------------------------------------

    def encrypt(self, plaintext: bytes, policy: AbePolicy) -> CryptoOp[AbeCiphertext]:
        """Seal ``plaintext`` under ``policy``."""
        if policy.leaves == 0:
            raise CryptoError("ABE policy must have at least one attribute leaf")
        ciphertext_id = f"abect-{next_id('abe')}"
        sealed = hashlib.sha256(
            f"{self._master_secret}:{ciphertext_id}".encode() + plaintext
        ).hexdigest()
        self._plaintexts[ciphertext_id] = plaintext
        ciphertext = AbeCiphertext(
            ciphertext_id=ciphertext_id,
            policy=policy,
            sealed=sealed,
            size_bytes=len(plaintext) + 128 * policy.leaves,
        )
        cost = self.costs.pairing_s * 0.5 * policy.leaves + self.costs.symmetric_cost(
            len(plaintext)
        )
        return CryptoOp(ciphertext, cost, ciphertext.size_bytes)

    # -- decryption ---------------------------------------------------------------

    def decrypt(self, key: AbeKey, ciphertext: AbeCiphertext) -> CryptoOp[Optional[bytes]]:
        """Open a ciphertext; None if the key does not satisfy the policy.

        Cost: one pairing per policy leaf (paid even on failure — the
        decryptor cannot know it will fail without doing the math).
        """
        cost = self.costs.pairing_s * ciphertext.policy.leaves
        if not self._key_is_genuine(key):
            return CryptoOp(None, cost)
        if not ciphertext.policy.satisfied_by(key.attribute_dict()):
            return CryptoOp(None, cost)
        plaintext = self._plaintexts.get(ciphertext.ciphertext_id)
        if plaintext is None:
            return CryptoOp(None, cost)
        expected = hashlib.sha256(
            f"{self._master_secret}:{ciphertext.ciphertext_id}".encode() + plaintext
        ).hexdigest()
        if expected != ciphertext.sealed:
            return CryptoOp(None, cost)
        return CryptoOp(plaintext, cost + self.costs.symmetric_cost(len(plaintext)))
