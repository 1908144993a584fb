"""Sticky data-policy packages (§V.C "Constructing data-policy package").

A :class:`DataPolicyPackage` "tightly couples data items with the
corresponding access control policies": the package carries its own
policy wherever the data travels, any access is mediated by the embedded
policy, every attempt is automatically audit-logged, and an HMAC seal
makes tampering with either data or policy detectable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ...errors import AuthorizationError, CryptoError
from ...ids import next_id
from ..crypto import HmacScheme, serialize_for_signing
from .audit import AuditLog, AuditRecord
from .context import AccessContext, AccessRequest
from .engine import Decision, PolicyDecisionPoint
from .policy import Policy


@dataclass(frozen=True)
class AccessOutcome:
    """What a package access attempt produced."""

    decision: Decision
    data: Optional[bytes]  # present only when permitted

    @property
    def permitted(self) -> bool:
        """Whether access was granted."""
        return self.decision.permitted


class DataPolicyPackage:
    """Data + embedded policy + integrity seal, enforced wherever it goes."""

    def __init__(
        self,
        data: bytes,
        policy: Policy,
        owner: str,
        resource: str = "data",
        seal_key: Optional[bytes] = None,
    ) -> None:
        self.package_id = f"pkg-{next_id('package')}"
        self._data = data
        self.policy = policy
        self.owner = owner  # owner's pseudonym, not real identity
        self.resource = resource
        self._hmac = HmacScheme()
        self._seal_key = seal_key if seal_key is not None else hashlib.sha256(
            f"seal:{self.package_id}".encode()
        ).digest()
        self._seal = self._compute_seal()

    def _compute_seal(self) -> str:
        payload = serialize_for_signing(
            self.package_id,
            self.owner,
            self.resource,
            self.policy.policy_id,
            len(self.policy.rules),
        ) + self._data
        return self._hmac.tag(self._seal_key, payload).value

    # -- integrity ---------------------------------------------------------

    def verify_integrity(self) -> bool:
        """Return True if neither data nor policy has been tampered with."""
        return self._hmac.verify(
            self._seal_key,
            serialize_for_signing(
                self.package_id,
                self.owner,
                self.resource,
                self.policy.policy_id,
                len(self.policy.rules),
            )
            + self._data,
            self._seal,
        ).value

    def tamper_with_data(self, new_data: bytes) -> None:
        """Test helper: modify the payload *without* resealing."""
        self._data = new_data

    @property
    def size_bytes(self) -> int:
        """Approximate on-air size: data + policy + seal overhead."""
        return len(self._data) + 64 * len(self.policy.rules) + 32

    # -- mediated access -------------------------------------------------------

    def access(
        self,
        context: AccessContext,
        action: str,
        pdp: PolicyDecisionPoint,
        audit_log: AuditLog,
    ) -> AccessOutcome:
        """Attempt an action on the packaged data.

        Every attempt — permitted or not — is appended to ``audit_log``
        (the paper's automatic-logging requirement).  A package that
        fails its integrity check refuses all access.
        """
        if not self.verify_integrity():
            raise CryptoError(
                f"package {self.package_id} failed integrity check; refusing access"
            )
        request = AccessRequest(context=context, action=action, resource=self.resource)
        decision = pdp.evaluate(self.policy, request)
        audit_log.append(
            AuditRecord(
                time=context.time,
                package_id=self.package_id,
                requester=context.requester,
                action=action,
                resource=self.resource,
                permitted=decision.permitted,
                matched_rule_id=decision.matched_rule_id,
            )
        )
        data = self._data if decision.permitted else None
        return AccessOutcome(decision=decision, data=data)

    def read(
        self, context: AccessContext, pdp: PolicyDecisionPoint, audit_log: AuditLog
    ) -> bytes:
        """Read the data or raise :class:`AuthorizationError`."""
        outcome = self.access(context, "read", pdp, audit_log)
        if not outcome.permitted or outcome.data is None:
            raise AuthorizationError(
                f"read denied on {self.package_id} for {context.requester}"
            )
        return outcome.data
