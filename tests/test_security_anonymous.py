"""Tests for per-access anonymous authorization (§V.C open problem)."""

from __future__ import annotations

import pytest

from repro.errors import AuthorizationError
from repro.security.access.anonymous import (
    AccessTicket,
    AnonymousAccessIssuer,
    AnonymousAccessVerifier,
)


@pytest.fixture
def issuer():
    return AnonymousAccessIssuer(owner_secret=b"owner-master-secret")


@pytest.fixture
def verifier(issuer):
    return AnonymousAccessVerifier(issuer)


def grant(issuer, grantee="lender-real-7", actions=("read",), count=5):
    return issuer.grant(grantee, "sensor/feed", actions, ticket_count=count)


class TestGranting:
    def test_capability_has_requested_tickets(self, issuer):
        capability = grant(issuer, count=8)
        assert capability.remaining == 8
        assert capability.resource == "sensor/feed"

    def test_ticket_ids_unique_and_opaque(self, issuer):
        capability = grant(issuer, grantee="lender-alice")
        ids = [t.ticket_id for t in capability.tickets]
        assert len(set(ids)) == len(ids)
        for ticket_id in ids:
            assert "alice" not in ticket_id
            assert "lender" not in ticket_id

    def test_ledger_links_capability_to_grantee(self, issuer):
        capability = grant(issuer, grantee="lender-bob")
        assert issuer.attribute(capability.capability_id) == "lender-bob"
        assert issuer.attribute("cap-unknown") is None

    def test_zero_tickets_rejected(self, issuer):
        with pytest.raises(AuthorizationError):
            grant(issuer, count=0)


class TestVerification:
    def test_valid_ticket_accepted_once(self, issuer, verifier):
        capability = grant(issuer)
        ticket = capability.tickets[0]
        assert verifier.verify(ticket, capability.capability_id, "read").value
        # Second spend of the same ticket is a replay.
        assert not verifier.verify(ticket, capability.capability_id, "read").value
        assert verifier.accepted == 1
        assert verifier.rejected == 1

    def test_each_access_uses_fresh_id(self, issuer, verifier):
        capability = grant(issuer, count=4)
        for ticket in capability.tickets:
            assert verifier.verify(ticket, capability.capability_id, "read").value
        assert len(verifier.observed_ticket_ids()) == 4

    def test_action_outside_grant_rejected(self, issuer, verifier):
        capability = grant(issuer, actions=("read",))
        ticket = capability.tickets[0]
        assert not verifier.verify(ticket, capability.capability_id, "write").value

    def test_forged_ticket_rejected(self, issuer, verifier):
        capability = grant(issuer)
        forged = AccessTicket(
            ticket_id="tkt-forged",
            mac="0" * 64,
            actions=("read",),
            resource="sensor/feed",
        )
        assert not verifier.verify(forged, capability.capability_id, "read").value

    def test_ticket_bound_to_its_capability(self, issuer, verifier):
        cap_a = grant(issuer, grantee="a")
        cap_b = grant(issuer, grantee="b")
        # A ticket from capability A fails under capability B's key.
        assert not verifier.verify(cap_a.tickets[0], cap_b.capability_id, "read").value

    def test_revoked_capability_rejected(self, issuer, verifier):
        capability = grant(issuer)
        issuer.revoke_capability(capability.capability_id)
        assert not verifier.verify(
            capability.tickets[0], capability.capability_id, "read"
        ).value

    def test_cross_owner_tickets_rejected(self):
        issuer_a = AnonymousAccessIssuer(b"secret-a")
        issuer_b = AnonymousAccessIssuer(b"secret-b")
        verifier_b = AnonymousAccessVerifier(issuer_b)
        capability = issuer_a.grant("lender", "sensor/feed", ("read",))
        assert not verifier_b.verify(
            capability.tickets[0], capability.capability_id, "read"
        ).value


class TestUnlinkability:
    def test_verifier_view_carries_no_identity(self, issuer, verifier):
        # The marker holds non-hex letters, so it cannot turn up by
        # chance in a ticket id's hex digest.
        capability = grant(issuer, grantee="lender-real-xyz", count=3)
        for ticket in capability.tickets:
            verifier.verify(ticket, capability.capability_id, "read")
        for observed in verifier.observed_ticket_ids():
            assert "lender-real-xyz" not in observed
            assert "lender" not in observed

    def test_two_lenders_tickets_indistinguishable_in_form(self, issuer):
        cap_a = grant(issuer, grantee="lender-a")
        cap_b = grant(issuer, grantee="lender-b")
        # Same shape: same prefix and length, nothing identity-derived.
        sample_a = cap_a.tickets[0].ticket_id
        sample_b = cap_b.tickets[0].ticket_id
        assert sample_a.split("-")[0] == sample_b.split("-")[0]
        assert len(sample_a) == len(sample_b)

    def test_dispute_resolution_via_owner_ledger(self, issuer, verifier):
        """Accountability without identity exposure: the owner (alone)
        can attribute a misused capability."""
        capability = grant(issuer, grantee="lender-misbehaving")
        verifier.verify(capability.tickets[0], capability.capability_id, "read")
        # The verifier only knows the capability id; the owner resolves it.
        assert issuer.attribute(capability.capability_id) == "lender-misbehaving"
