"""Per-access anonymous authorization (§V.C, third open problem).

"How to design an access control mechanism that allows the lender
vehicle use a different new random ID for authentication and
authorization each time it needs to access or process the user data in
order to preserve the lender vehicle's privacy."

The scheme: at grant time the data owner gives the lender a
*capability* — a batch of single-use access tickets, each an HMAC over
(capability id, ticket index) under a key derived from the owner's
secret.  Per access, the lender presents a fresh random ticket id plus
the ticket MAC; the verifier recomputes the MAC without learning which
lender is behind it, and a spent-ticket set enforces single use.

Unlinkability holds because ticket ids are independent random strings;
accountability holds because the *capability* (not the lender identity)
can be revoked, and the owner knows which capability it issued to whom.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ...errors import AuthorizationError
from ...ids import next_id
from ..crypto import CryptoOp, HmacScheme


@dataclass(frozen=True)
class AccessTicket:
    """One single-use, unlinkable access credential."""

    ticket_id: str  # random-looking, carries no lender identity
    mac: str
    actions: Tuple[str, ...]
    resource: str


@dataclass(frozen=True)
class Capability:
    """A batch of tickets granted to one lender for one resource."""

    capability_id: str
    resource: str
    actions: Tuple[str, ...]
    tickets: Tuple[AccessTicket, ...]

    @property
    def remaining(self) -> int:
        """Tickets in the batch (issuer-side view; spending is verifier-side)."""
        return len(self.tickets)


class AnonymousAccessIssuer:
    """Owner-side: mints capabilities; knows who got which capability."""

    def __init__(self, owner_secret: bytes) -> None:
        self._secret = owner_secret
        self._hmac = HmacScheme()
        #: capability id -> the real grantee (the owner's private ledger).
        self.grant_ledger: Dict[str, str] = {}
        self.revoked: Set[str] = set()

    def _ticket_key(self, capability_id: str) -> bytes:
        return hashlib.sha256(self._secret + capability_id.encode()).digest()

    def _ticket_id(self, capability_id: str, index: int) -> str:
        digest = hashlib.sha256(
            self._secret + f"tid:{capability_id}:{index}".encode()
        ).hexdigest()
        return f"tkt-{digest[:20]}"

    def grant(
        self,
        grantee_real_id: str,
        resource: str,
        actions: Tuple[str, ...],
        ticket_count: int = 10,
    ) -> Capability:
        """Mint a capability for a lender; only the ledger links them."""
        if ticket_count < 1:
            raise AuthorizationError("ticket_count must be >= 1")
        capability_id = f"cap-{next_id('capability')}"
        key = self._ticket_key(capability_id)
        tickets = []
        for index in range(ticket_count):
            ticket_id = self._ticket_id(capability_id, index)
            mac = self._hmac.tag(key, f"{ticket_id}|{resource}|{','.join(actions)}".encode()).value
            tickets.append(
                AccessTicket(ticket_id=ticket_id, mac=mac, actions=actions, resource=resource)
            )
        self.grant_ledger[capability_id] = grantee_real_id
        return Capability(
            capability_id=capability_id,
            resource=resource,
            actions=actions,
            tickets=tuple(tickets),
        )

    def revoke_capability(self, capability_id: str) -> None:
        """Kill every remaining ticket of one capability."""
        self.revoked.add(capability_id)

    def attribute(self, capability_id: str) -> Optional[str]:
        """Owner-only: who holds this capability (for disputes)."""
        return self.grant_ledger.get(capability_id)


class AnonymousAccessVerifier:
    """Enforcement point: validates tickets without learning identities.

    The verifier receives the owner's per-capability ticket keys out of
    band (sealed in the data-policy package), never the lender mapping.
    """

    def __init__(self, issuer: AnonymousAccessIssuer) -> None:
        # The verifier shares the issuer's derivation oracle but not the
        # ledger — modelled by holding a reference and only calling the
        # key/ticket derivations.
        self._issuer = issuer
        self._hmac = HmacScheme()
        self._spent: Set[str] = set()
        self.accepted = 0
        self.rejected = 0

    def verify(
        self, ticket: AccessTicket, capability_id: str, action: str
    ) -> CryptoOp[bool]:
        """Check one presented ticket for one action.

        Rejects: wrong MAC (forged/foreign ticket), action outside the
        granted set, revoked capability, or a ticket spent before
        (replayed).  Cost: one HMAC plus set probes.
        """
        if capability_id in self._issuer.revoked:
            self.rejected += 1
            return CryptoOp(False, self._hmac.costs.hmac_s)
        if action not in ticket.actions:
            self.rejected += 1
            return CryptoOp(False, self._hmac.costs.hmac_s)
        if ticket.ticket_id in self._spent:
            self.rejected += 1
            return CryptoOp(False, self._hmac.costs.hmac_s)
        key = self._issuer._ticket_key(capability_id)
        payload = f"{ticket.ticket_id}|{ticket.resource}|{','.join(ticket.actions)}".encode()
        result = self._hmac.verify(key, payload, ticket.mac)
        if not result.value:
            self.rejected += 1
            return CryptoOp(False, result.cost_s)
        self._spent.add(ticket.ticket_id)
        self.accepted += 1
        return CryptoOp(True, result.cost_s)

    def observed_ticket_ids(self) -> List[str]:
        """What an honest-but-curious verifier saw: opaque ticket ids."""
        return sorted(self._spent)
