"""The trusted authority (TA): registration, pseudonym issue, escrow.

The TA is the root of trust the paper's architectures assume for the
*registration phase* — even infrastructure-light designs (Kang et al.
[15], [16]) visit the TA once.  It escrows the pseudonym-to-real-identity
mapping so "the authority should be able to reveal vehicles' real
identities ... to identify the attackers" (§V.A), which is precisely the
conditional-privacy property: anonymous to peers, accountable to the TA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SecurityError
from ..ids import next_id
from .crypto import (
    CryptoCostModel,
    DEFAULT_COSTS,
    GroupSignatureScheme,
    KeyPair,
    SignatureScheme,
    serialize_for_signing,
)
from .identity import Certificate, Pseudonym, PseudonymPool, RealIdentity
from .revocation import RevocationList


@dataclass
class Enrollment:
    """Everything the TA knows about one registered vehicle."""

    identity: RealIdentity
    long_term_keypair: KeyPair
    long_term_certificate: Certificate
    pseudonym_ids: List[str] = field(default_factory=list)
    group_ids: List[str] = field(default_factory=list)


class TrustedAuthority:
    """Registration authority, pseudonym issuer and identity escrow."""

    DEFAULT_VALIDITY_S = 7 * 24 * 3600.0

    def __init__(
        self,
        authority_id: str = "ta-root",
        costs: CryptoCostModel = DEFAULT_COSTS,
        crl_check_cost_per_entry_s: float = 2e-6,
    ) -> None:
        self.authority_id = authority_id
        self.costs = costs
        self.signatures = SignatureScheme(costs)
        self.group_signatures = GroupSignatureScheme(costs)
        self.keypair = KeyPair.generate("ta")
        self.crl = RevocationList(crl_check_cost_per_entry_s)
        self._enrollments: Dict[str, Enrollment] = {}
        self._escrow: Dict[str, str] = {}  # pseudonym id -> real id

    # -- registration ---------------------------------------------------------

    def register_vehicle(self, identity: RealIdentity, now: float = 0.0) -> Enrollment:
        """Register a vehicle and issue its long-term credential."""
        if identity.real_id in self._enrollments:
            raise SecurityError(f"vehicle already registered: {identity.real_id!r}")
        keypair = KeyPair.generate(identity.real_id)
        certificate = self._issue_certificate(identity.real_id, keypair.public_id, now)
        enrollment = Enrollment(
            identity=identity,
            long_term_keypair=keypair,
            long_term_certificate=certificate,
        )
        self._enrollments[identity.real_id] = enrollment
        return enrollment

    def is_registered(self, real_id: str) -> bool:
        """Return True if the vehicle has registered."""
        return real_id in self._enrollments

    def enrollment_of(self, real_id: str) -> Enrollment:
        """Return a vehicle's enrollment record."""
        enrollment = self._enrollments.get(real_id)
        if enrollment is None:
            raise SecurityError(f"vehicle not registered: {real_id!r}")
        return enrollment

    # -- pseudonyms --------------------------------------------------------------

    def issue_pseudonyms(
        self, real_id: str, count: int, now: float = 0.0
    ) -> PseudonymPool:
        """Issue a pool of certified pseudonyms to a registered vehicle."""
        if count < 1:
            raise SecurityError("must issue at least one pseudonym")
        enrollment = self.enrollment_of(real_id)
        pseudonyms = [self._mint_pseudonym(real_id, now) for _ in range(count)]
        enrollment.pseudonym_ids.extend(p.pseudonym_id for p in pseudonyms)
        return PseudonymPool(pseudonyms=pseudonyms)

    def refill_pseudonyms(
        self, real_id: str, pool: PseudonymPool, count: int, now: float = 0.0
    ) -> int:
        """Top a pool up with ``count`` fresh pseudonyms."""
        fresh_pool = self.issue_pseudonyms(real_id, count, now)
        pool.refill(fresh_pool.pseudonyms)
        return count

    def _mint_pseudonym(self, real_id: str, now: float) -> Pseudonym:
        pseudonym_id = f"pn-{next_id('pseudonym')}"
        keypair = KeyPair.generate(pseudonym_id)
        certificate = self._issue_certificate(pseudonym_id, keypair.public_id, now)
        self._escrow[pseudonym_id] = real_id
        return Pseudonym(
            pseudonym_id=pseudonym_id, keypair=keypair, certificate=certificate
        )

    def _issue_certificate(
        self, subject_id: str, public_id: str, now: float
    ) -> Certificate:
        expires = now + self.DEFAULT_VALIDITY_S
        payload = serialize_for_signing(subject_id, public_id, now, expires)
        signature = self.signatures.sign(self.keypair, payload).value
        return Certificate(
            subject_id=subject_id,
            public_id=public_id,
            issued_at=now,
            expires_at=expires,
            issuer_id=self.authority_id,
            signature=signature,
        )

    def verify_certificate(self, certificate: Certificate, now: float):
        """Verify a certificate's TA signature and expiry.

        Returns a CryptoOp[bool] whose cost is one signature verify.
        """
        payload = serialize_for_signing(
            certificate.subject_id,
            certificate.public_id,
            certificate.issued_at,
            certificate.expires_at,
        )
        if certificate.signature is None or certificate.is_expired(now):
            from .crypto import CryptoOp

            return CryptoOp(False, self.costs.ecdsa_verify_s)
        return self.signatures.verify(
            self.keypair.public_id, payload, certificate.signature
        )

    # -- escrow / conditional privacy -------------------------------------------

    def reveal(self, pseudonym_id: str) -> Optional[str]:
        """TA-only: map a pseudonym back to the real identity."""
        return self._escrow.get(pseudonym_id)

    # -- revocation ----------------------------------------------------------------

    def revoke_vehicle(self, real_id: str) -> int:
        """Revoke a vehicle's long-term credential and every pseudonym.

        Returns the number of credentials added to the CRL.
        """
        enrollment = self.enrollment_of(real_id)
        revoked = 0
        self.crl.revoke(enrollment.long_term_certificate.subject_id)
        revoked += 1
        for pseudonym_id in enrollment.pseudonym_ids:
            self.crl.revoke(pseudonym_id)
            revoked += 1
        for group_id in enrollment.group_ids:
            self.group_signatures.remove_member(group_id, real_id)
        return revoked

    # -- groups ------------------------------------------------------------------

    def create_group(self, group_id: str) -> None:
        """Create a signature group managed by the TA."""
        self.group_signatures.create_group(group_id)

    def join_group(self, real_id: str, group_id: str) -> str:
        """Enroll a registered vehicle into a group; returns member key."""
        enrollment = self.enrollment_of(real_id)
        if not self.group_signatures.has_group(group_id):
            self.group_signatures.create_group(group_id)
        member_key = self.group_signatures.enroll_member(group_id, real_id)
        if group_id not in enrollment.group_ids:
            enrollment.group_ids.append(group_id)
        return member_key

    def open_group_signature(self, signature) -> Optional[str]:
        """TA-only: attribute a group signature to its member."""
        return self.group_signatures.open(signature).value
