"""Service access tokens for v-cloud services (after Park et al. [29]).

A pseudonymous *service access token* lets "only legitimate vehicles ...
connect to cloud services through RSUs while protecting the privacy of
vehicles": the TA signs (pseudonym, service, expiry) without the service
ever learning the real identity.  Tokens are bearer credentials, so
verification also consults the revocation list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SecurityError
from ..ids import next_id
from .crypto import CryptoOp, Signature, serialize_for_signing
from .pki import TrustedAuthority


@dataclass(frozen=True)
class ServiceAccessToken:
    """A TA-signed bearer token binding a pseudonym to a service."""

    token_id: str
    pseudonym_id: str
    service: str
    issued_at: float
    expires_at: float
    signature: Signature

    def is_expired(self, now: float) -> bool:
        """Return True once past expiry."""
        return now > self.expires_at


class TokenService:
    """Issues and verifies service access tokens on behalf of the TA."""

    DEFAULT_LIFETIME_S = 600.0

    def __init__(self, authority: TrustedAuthority) -> None:
        self.authority = authority
        self.issued = 0

    def issue(
        self,
        pseudonym_id: str,
        service: str,
        now: float,
        lifetime_s: Optional[float] = None,
    ) -> ServiceAccessToken:
        """Issue a token for a pseudonym the TA recognizes.

        Raises :class:`SecurityError` for pseudonyms the TA never minted
        (an impersonator cannot obtain tokens).
        """
        if self.authority.reveal(pseudonym_id) is None:
            raise SecurityError(f"unknown pseudonym: {pseudonym_id!r}")
        lifetime = lifetime_s if lifetime_s is not None else self.DEFAULT_LIFETIME_S
        token_id = f"tok-{next_id('token')}"
        expires = now + lifetime
        payload = serialize_for_signing(token_id, pseudonym_id, service, now, expires)
        signature = self.authority.signatures.sign(self.authority.keypair, payload).value
        self.issued += 1
        return ServiceAccessToken(
            token_id=token_id,
            pseudonym_id=pseudonym_id,
            service=service,
            issued_at=now,
            expires_at=expires,
            signature=signature,
        )

    def verify(
        self, token: ServiceAccessToken, service: str, now: float
    ) -> CryptoOp[bool]:
        """Verify a presented token for a specific service."""
        if token.is_expired(now) or token.service != service:
            return CryptoOp(False, self.authority.costs.ecdsa_verify_s)
        payload = serialize_for_signing(
            token.token_id,
            token.pseudonym_id,
            token.service,
            token.issued_at,
            token.expires_at,
        )
        sig_op = self.authority.signatures.verify(
            self.authority.keypair.public_id, payload, token.signature
        )
        crl_op = self.authority.crl.check(token.pseudonym_id)
        return CryptoOp(sig_op.value and not crl_op.value, sig_op.cost_s + crl_op.cost_s)
