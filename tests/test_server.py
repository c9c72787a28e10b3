"""Server update processing, merge behavior, resolution, audit, zones."""

import base64
import random
import re
from collections import deque
from dataclasses import replace

import pytest

from conftest import FIXED_NOW, ROOT, build_example_zones, new_server
from oracles import merge_law_violations

from onhs import crypto, server as srv
from onhs.client import verify_resolution
from onhs.crypto import SignatureParams, stamp_add
from onhs.errors import DelegationLoopError, DepthExceededError, OnhsError, ResolutionError
from onhs.handles import Handle, HandleLabel, parse_handle
from onhs.records import (
    DEFAULT_TTL,
    IMPOSSIBLE_ADDRESS,
    ResourceRecord,
    SignedRRset,
    parse_zone,
    serialize_zone,
)
from onhs.server import (
    OUTCOME_ADDRESS,
    OUTCOME_CANCELLED,
    OUTCOME_COMPROMISED,
    OUTCOME_NOT_FOUND,
    OUTCOME_TRANSFERRED_AND_ADDRESS,
    R_ALREADY_CLAIMED,
    R_BAD_SIGNATURE,
    R_EXPIRED_SIGNATURE,
    R_HANDLE_CANCELLED,
    R_HANDLE_TRANSFERRED,
    R_KEY_LABEL_MISMATCH,
    R_MALFORMED,
    R_SUBSCRIPTION_LIMIT,
    R_UNKNOWN_PARENT,
    R_WRONG_AUTHORITY,
    UpdateMessage,
    make_assign,
    make_cancel,
    make_claim,
    make_compromise,
    make_create_child,
    make_delegate,
    make_transfer,
)

IA = HandleLabel.ia
NOW = FIXED_NOW


def claimed_server(keypool, *indexes):
    """Fresh server with one claimed apex per key index."""
    server = new_server()
    apexes = []
    for i in indexes:
        _, sec = keypool.key(i)
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apexes.append(parse_handle(claim.target, ROOT))
    return server, apexes


class TestClaims:
    def test_reclaim_with_same_key_is_idempotent(self, keypool):
        _, sec = keypool.key(0)
        server = new_server()
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        before = server.dump_state()
        assert server.apply_update(claim, now=NOW).accepted
        assert server.dump_state() == before

    def test_claim_under_foreign_label_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec2 = keypool.key(1)
        forged = replace(
            make_claim(sec2, ROOT, 16, 1, now=NOW), target=apex1.fqdn_no_dot()
        )
        verdict = server.apply_update(forged, now=NOW)
        assert not verdict.accepted
        assert verdict.reason == R_KEY_LABEL_MISMATCH

    def test_claim_payload_must_carry_the_signer_key(self, keypool):
        server = new_server()
        _, sec1 = keypool.key(0)
        pub2, _ = keypool.key(1)
        claim = make_claim(sec1, ROOT, 16, 1, now=NOW)
        payload = dict(claim.payload)
        payload["key"] = base64.b64encode(pub2.key_bytes).decode()
        verdict = server.apply_update(replace(claim, payload=payload), now=NOW)
        assert verdict.reason == R_MALFORMED

    def test_claim_must_target_an_apex(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        pub1, sec1 = keypool.key(0)
        child = apex1.child(IA("1"))
        owner = child.fqdn_no_dot()
        rec = ResourceRecord(owner=owner, ttl=3600, rtype="KEY", rdata=pub1.key_bytes)
        params = SignatureParams(
            algorithm=sec1.algorithm,
            label_count=len(owner.split(".")),
            original_ttl=3600,
            expiration=stamp_add(NOW, 86400),
            inception=NOW,
            signer=apex1.fqdn_no_dot(),
        )
        msg = UpdateMessage(
            target=owner,
            action="CLAIM",
            payload={
                "key": base64.b64encode(pub1.key_bytes).decode(),
                "algorithm": pub1.algorithm,
                "ttl": 3600,
            },
            serial=2,
            signer_key=pub1,
            signature=crypto.sign_rrset([rec], sec1, params),
        )
        verdict = server.apply_update(msg, now=NOW)
        assert verdict.reason == R_MALFORMED
        assert "apex" in verdict.detail

    def test_same_key_may_claim_distinct_suffix_lengths(self, keypool):
        _, sec = keypool.key(0)
        server = new_server()
        short = make_claim(sec, ROOT, 16, 1, now=NOW)
        long = make_claim(sec, ROOT, 24, 1, now=NOW)
        assert server.apply_update(short, now=NOW).accepted
        assert server.apply_update(long, now=NOW).accepted
        assert short.target != long.target
        keys = [rtype for _, rtype in server.root_zone_snapshot(now=NOW).rrsets if rtype == "KEY"]
        assert len(keys) == 1 + 2  # the root's own and one per claimed apex


class TestVerdicts:
    def test_unknown_action_rejected(self, keypool):
        server = new_server()
        _, sec = keypool.key(0)
        msg = replace(make_claim(sec, ROOT, 16, 1, now=NOW), action="DESTROY")
        verdict = server.apply_update(msg, now=NOW)
        assert verdict.reason == R_MALFORMED

    def test_garbage_target_rejected(self, keypool):
        server = new_server()
        _, sec = keypool.key(0)
        msg = replace(make_claim(sec, ROOT, 16, 1, now=NOW), target="not a name")
        assert server.apply_update(msg, now=NOW).reason == R_MALFORMED

    def test_foreign_key_cannot_write_under_another_apex(self, keypool):
        server, (apex1, _) = claimed_server(keypool, 0, 1)
        _, sec2 = keypool.key(1)
        msg = make_assign(sec2, apex1.child(IA("1")), "10.0.0.1", 2, now=NOW)
        verdict = server.apply_update(msg, now=NOW)
        assert verdict.reason == R_WRONG_AUTHORITY

    def test_expired_signature_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        msg = make_assign(
            sec1, apex1.child(IA("1")), "10.0.0.1", 2,
            now="20250101000000", validity=3600,
        )
        verdict = server.apply_update(msg, now=NOW)
        assert verdict.reason == R_EXPIRED_SIGNATURE

    def test_not_yet_valid_signature_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        msg = make_assign(sec1, apex1.child(IA("1")), "10.0.0.1", 2, now="20270101000000")
        verdict = server.apply_update(msg, now=NOW)
        assert verdict.reason == R_BAD_SIGNATURE

    def test_tampered_signature_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        msg = make_assign(sec1, apex1.child(IA("1")), "10.0.0.1", 2, now=NOW)
        bad = bytearray(msg.signature.signature_bytes)
        bad[0] ^= 0x40
        forged = replace(msg, signature=replace(msg.signature, signature_bytes=bytes(bad)))
        assert server.apply_update(forged, now=NOW).reason == R_BAD_SIGNATURE

    def test_signer_naming_another_apex_rejected(self, keypool):
        # signed by the apex's own key, but the signature names another apex
        server, (apex1, apex2) = claimed_server(keypool, 0, 1)
        _, sec1 = keypool.key(0)
        leaf = apex1.child(IA("1"))
        msg = make_assign(sec1, leaf, "10.0.0.1", 2, now=NOW)
        records = (ResourceRecord(leaf.fqdn_no_dot(), DEFAULT_TTL, "A", "10.0.0.1"),)
        params = replace(msg.signature.params, signer=apex2.fqdn_no_dot())
        forged = replace(msg, signature=crypto.sign_rrset(records, sec1, params))
        before = server.dump_state()
        verdict = server.apply_update(forged, now=NOW)
        assert verdict.reason == R_WRONG_AUTHORITY
        assert apex2.fqdn_no_dot() in verdict.detail
        assert server.dump_state() == before

    def test_compromise_date_that_does_not_exist_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        with pytest.raises(OnhsError):
            make_compromise(sec1, apex1, "99/99/2003", 2, now=NOW)
        msg = make_compromise(sec1, apex1, "01/04/2003", 2, now=NOW)
        bad = replace(msg, payload={**msg.payload, "note": "2003-02-30"})
        assert server.apply_update(bad, now=NOW).reason == R_MALFORMED
        assert server.resolve(apex1, now=NOW).outcome == OUTCOME_NOT_FOUND

    def test_compromise_date_in_digits_other_than_ascii_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        arabic_indic = "\u0662\u0660\u0660\u0663-\u0660\u0664-\u0660\u0661"  # 2003-04-01
        with pytest.raises(OnhsError):
            make_compromise(sec1, apex1, arabic_indic, 2, now=NOW)
        msg = make_compromise(sec1, apex1, "2003-04-01", 2, now=NOW)
        bad = replace(msg, payload={**msg.payload, "note": arabic_indic})
        assert server.apply_update(bad, now=NOW).reason == R_MALFORMED
        assert server.resolve(apex1, now=NOW).outcome == OUTCOME_NOT_FOUND

    def test_assign_of_the_cancel_address_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        leaf = apex1.child(IA("4"))
        with pytest.raises(OnhsError):
            make_assign(sec1, leaf, IMPOSSIBLE_ADDRESS, 2, now=NOW)
        # the owner's signature over A 0.0.0.0, sent as an ASSIGN
        payload = {"address": IMPOSSIBLE_ADDRESS, "ttl": DEFAULT_TTL}
        msg = replace(make_cancel(sec1, leaf, 2, now=NOW), action=srv.ASSIGN, payload=payload)
        assert server.apply_update(msg, now=NOW).reason == R_MALFORMED
        got = server.resolve(leaf, now=NOW)
        assert got.outcome == OUTCOME_NOT_FOUND
        assert verify_resolution(got, leaf, ROOT, now=NOW).verified

    @pytest.mark.parametrize("action", srv.ACTIONS)
    def test_a_payload_field_the_action_does_not_define_is_refused(self, keypool, action):
        """Any field but the action's own is refused, another action's too."""
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        leaf, other = apex1.child(IA("1")), apex1.child(IA("2"))
        msg = {
            srv.CLAIM: lambda: make_claim(keypool.key(1)[1], ROOT, 16, 1, now=NOW),
            srv.CREATE_CHILD: lambda: make_create_child(sec1, leaf, 2, now=NOW),
            srv.ASSIGN: lambda: make_assign(sec1, leaf, "10.0.0.1", 2, now=NOW),
            srv.DELEGATE: lambda: make_delegate(sec1, leaf, other, 2, now=NOW),
            srv.CANCEL: lambda: make_cancel(sec1, leaf, 2, now=NOW),
            srv.TRANSFER: lambda: make_transfer(sec1, leaf, other, 2, now=NOW),
            srv.COMPROMISE: lambda: make_compromise(sec1, leaf, "2003-04-01", 2, now=NOW),
        }[action]()
        others = set().union(*srv.ACTION_FIELDS.values()) - srv.ACTION_FIELDS[action]
        before = server.dump_state()
        for extra in ["junk", *sorted(others)]:
            padded = replace(msg, payload={**msg.payload, extra: "x" * 1000})
            verdict = server.apply_update(padded, now=NOW)
            assert verdict.reason == R_MALFORMED, extra
            assert verdict.detail == f"{action.lower()} payload has unknown field {extra!r}"
        assert server.dump_state() == before
        assert server.apply_update(msg, now=NOW).accepted

    def test_create_child_on_apex_rejected(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        msg = make_create_child(sec1, apex1, 2, now=NOW)
        assert server.apply_update(msg, now=NOW).reason == R_UNKNOWN_PARENT

    def test_deep_create_vivifies_intermediates(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        deep = apex1.child(IA("9")).child(IA("8"))
        assert server.apply_update(make_create_child(sec1, deep, 2, now=NOW), now=NOW).accepted
        assert server.apply_update(
            make_assign(sec1, deep, "10.0.0.9", 3, now=NOW), now=NOW
        ).accepted
        assert server.resolve(deep, now=NOW).address == "10.0.0.9"

    def test_assign_without_create_is_allowed(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        leaf = apex1.child(IA("4"))
        assert server.apply_update(make_assign(sec1, leaf, "10.0.4.4", 2, now=NOW), now=NOW).accepted
        got = server.resolve(leaf, now=NOW)
        assert got.outcome == OUTCOME_ADDRESS
        assert got.address == "10.0.4.4"


class TestStickyGates:
    def test_cancelled_handle_refuses_new_state(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        assert z.server.apply_update(make_cancel(sec1, z.leaf_3_3, 9, now=NOW), now=NOW).accepted
        assign = make_assign(sec1, z.leaf_3_3, "10.0.0.2", 10, now=NOW)
        assert z.server.apply_update(assign, now=NOW).reason == R_HANDLE_CANCELLED
        child = make_create_child(sec1, z.leaf_3_3.child(IA("1")), 11, now=NOW)
        assert z.server.apply_update(child, now=NOW).reason == R_HANDLE_CANCELLED
        assert z.server.resolve(z.leaf_3_3, now=NOW).outcome == OUTCOME_CANCELLED
        # the sibling keeps working
        assert z.server.resolve(z.leaf_2_3, now=NOW).address == "192.253.254.63"

    def test_transferred_handle_refuses_new_state(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        assign = make_assign(sec1, z.transferred, "10.0.0.3", 9, now=NOW)
        assert z.server.apply_update(assign, now=NOW).reason == R_HANDLE_TRANSFERRED
        below = make_create_child(sec1, z.transferred.child(IA("7")), 10, now=NOW)
        assert z.server.apply_update(below, now=NOW).reason == R_HANDLE_TRANSFERRED

    def test_repeating_a_transfer_to_the_same_target_is_fine(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        again = make_transfer(sec1, z.transferred, z.new_home, 9, now=NOW)
        assert z.server.apply_update(again, now=NOW).accepted

    def test_transfer_to_a_different_target_rejected(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        elsewhere = make_transfer(sec1, z.transferred, z.apex2.child(IA("1")), 9, now=NOW)
        verdict = z.server.apply_update(elsewhere, now=NOW)
        assert verdict.reason == R_HANDLE_TRANSFERRED

    def test_transfer_of_cancelled_handle_rejected(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        assert z.server.apply_update(make_cancel(sec1, z.leaf_3_3, 9, now=NOW), now=NOW).accepted
        msg = make_transfer(sec1, z.leaf_3_3, z.new_home, 10, now=NOW)
        assert z.server.apply_update(msg, now=NOW).reason == R_HANDLE_CANCELLED

    def test_cancel_after_transfer_is_accepted(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        assert z.server.apply_update(make_cancel(sec1, z.transferred, 9, now=NOW), now=NOW).accepted
        # the handle itself reports cancelled now
        assert z.server.resolve(z.transferred, now=NOW).outcome == OUTCOME_CANCELLED
        # but names below it still follow the transfer
        got = z.server.resolve(z.old_leaf, now=NOW)
        assert got.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert got.address == "192.253.254.78"

    def test_compromise_beats_cancel(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        assert z.server.apply_update(make_cancel(sec1, z.leaf_3_3, 9, now=NOW), now=NOW).accepted
        comp = make_compromise(sec1, z.leaf_3_3, "2026-08-16", 10, now=NOW)
        assert z.server.apply_update(comp, now=NOW).accepted
        assert z.server.resolve(z.leaf_3_3, now=NOW).outcome == OUTCOME_COMPROMISED


class TestMerge:
    def test_highest_serial_wins_regardless_of_arrival(self, keypool):
        _, sec1 = keypool.key(0)
        msgs = [make_claim(sec1, ROOT, 16, 1, now=NOW)]
        apex = parse_handle(msgs[0].target, ROOT)
        leaf = apex.child(IA("1"))
        msgs += [
            make_assign(sec1, leaf, "10.0.0.50", 4, now=NOW),
            make_assign(sec1, leaf, "10.0.0.60", 9, now=NOW),
            make_assign(sec1, leaf, "10.0.0.70", 5, now=NOW),
        ]
        for order in ([0, 1, 2, 3], [0, 3, 2, 1], [0, 2, 1, 3]):
            server = new_server()
            for i in order:
                assert server.apply_update(msgs[i], now=NOW).accepted
            assert server.resolve(leaf, now=NOW).address == "10.0.0.60"

    def test_equal_serial_ties_break_deterministically(self, keypool):
        _, sec1 = keypool.key(0)
        claim = make_claim(sec1, ROOT, 16, 1, now=NOW)
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        a = make_assign(sec1, leaf, "10.0.0.2", 5, now=NOW)
        b = make_assign(sec1, leaf, "10.0.0.9", 5, now=NOW)
        states = []
        for pair in ((a, b), (b, a)):
            server = new_server()
            server.apply_update(claim, now=NOW)
            for msg in pair:
                assert server.apply_update(msg, now=NOW).accepted
            states.append(server.dump_state())
            assert server.resolve(leaf, now=NOW).address == "10.0.0.9"
        assert states[0] == states[1]

    def test_duplicate_application_changes_nothing(self, example_zones):
        z = example_zones
        sec1 = z.secrets["k1"]
        msg = make_assign(sec1, z.leaf_2_3, "10.1.1.1", 9, now=NOW)
        assert z.server.apply_update(msg, now=NOW).accepted
        before = z.server.dump_state()
        assert z.server.apply_update(msg, now=NOW).accepted
        assert z.server.dump_state() == before

    def test_small_message_set_is_order_insensitive(self, keypool):
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        claim1 = make_claim(sec1, ROOT, 16, 1, now=NOW)
        claim2 = make_claim(sec2, ROOT, 16, 1, now=NOW)
        apex1 = parse_handle(claim1.target, ROOT)
        apex2 = parse_handle(claim2.target, ROOT)
        child = apex1.child(IA("1"))
        grand = child.child(IA("2"))
        msgs = [
            claim1,
            claim2,
            make_create_child(sec1, child, 2, now=NOW),
            make_assign(sec1, grand, "10.0.0.5", 3, now=NOW),
            make_assign(sec1, grand, "10.0.0.6", 7, now=NOW),
            make_cancel(sec1, child, 8, now=NOW),
            make_assign(sec2, apex2.child(IA("3")), "10.0.0.7", 2, now=NOW),
            make_transfer(sec2, apex2.child(IA("4")), apex1.child(IA("9")), 3, now=NOW),
        ]
        rng = random.Random(5)
        reference = None
        for _ in range(8):
            batch = list(msgs) + rng.choices(msgs, k=3)
            rng.shuffle(batch)
            server = new_server()
            for msg in batch:
                server.apply_update(msg, now=NOW)
            state = server.dump_state()
            if reference is None:
                reference = state
            assert state == reference

    def test_sticky_slot_ignores_higher_serial_revocable_writes(self, example_zones):
        z = example_zones
        sec2 = z.secrets["k2"]
        # apex2 is compromised; its cancel address slot is sticky
        msg = make_assign(sec2, z.apex2, "10.2.2.2", 99, now=NOW)
        verdict = z.server.apply_update(msg, now=NOW)
        assert verdict.reason == R_HANDLE_CANCELLED
        assert z.server.resolve(z.apex2, now=NOW).outcome == OUTCOME_COMPROMISED


class TestResolveOutcomes:
    def test_plain_addresses(self, example_zones):
        z = example_zones
        got = z.server.resolve(z.leaf_2_3, now=NOW)
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "192.253.254.63")
        got = z.server.resolve(z.leaf_3_3, now=NOW)
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "192.253.254.65")

    def test_address_evidence_contains_apex_key_and_signed_a(self, example_zones):
        z = example_zones
        got = z.server.resolve(z.leaf_2_3, now=NOW)
        types = {(rr.owner, rr.rtype) for rr in got.evidence}
        assert (z.apex1.fqdn_no_dot(), "KEY") in types
        assert (z.leaf_2_3.fqdn_no_dot(), "A") in types
        a_set = next(rr for rr in got.evidence if rr.rtype == "A")
        assert a_set.signature is not None

    def test_transferred_handle_reports_notice_and_new_address(self, example_zones):
        z = example_zones
        got = z.server.resolve(z.transferred, now=NOW)
        assert got.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert got.address == "192.253.254.77"
        assert len(got.transfer_notices) == 1
        notice = got.transfer_notices[0]
        assert notice.rtype == "DNAME"
        assert notice.records[0].rdata == z.new_home.fqdn_no_dot()

    def test_names_below_a_transfer_are_rewritten(self, example_zones):
        z = example_zones
        got = z.server.resolve(z.old_leaf, now=NOW)
        assert got.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert got.address == "192.253.254.78"

    def test_compromised_apex_and_descendants(self, example_zones):
        z = example_zones
        assert z.server.resolve(z.apex2, now=NOW).outcome == OUTCOME_COMPROMISED
        got = z.server.resolve(z.under_compromised, now=NOW)
        assert got.outcome == OUTCOME_COMPROMISED
        texts = [
            rr.records[0].rdata
            for rr in got.evidence
            if rr.rtype == "TXT" and str(rr.records[0].rdata).startswith("Compromised")
        ]
        assert texts == ["Compromised 2003-04-01"]

    def test_missing_name_yields_signed_denial(self, example_zones):
        z = example_zones
        ghost = z.apex1.child(IA("99"))
        got = z.server.resolve(ghost, now=NOW)
        assert got.outcome == OUTCOME_NOT_FOUND
        assert got.address is None
        nxt_sets = [rr for rr in got.evidence if rr.rtype == "NXT"]
        assert nxt_sets
        for rr in nxt_sets:
            assert rr.signature is not None
            assert crypto.verify_rrset(rr, z.server.server_key, NOW) == crypto.ACCEPT
        root_keys = [
            rr for rr in got.evidence
            if rr.rtype == "KEY" and rr.owner == ROOT
        ]
        assert root_keys and root_keys[0].signature is None

    def test_unknown_apex_denial_comes_from_root_zone(self, keypool, example_zones):
        z = example_zones
        pub, _ = keypool.fresh()
        label = crypto.derive_pk_label(pub, 16)
        ghost_apex = Handle(labels=(label,), root_suffix=ROOT)
        got = z.server.resolve(ghost_apex, now=NOW)
        assert got.outcome == OUTCOME_NOT_FOUND
        owners = {rr.owner for rr in got.evidence if rr.rtype == "NXT"}
        assert any(owner == ROOT or owner.endswith(ROOT) for owner in owners)

    def test_delegation_loop_detected(self, keypool):
        server, (apex1, apex2) = claimed_server(keypool, 0, 1)
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        a = apex1.child(IA("1"))
        b = apex2.child(IA("1"))
        assert server.apply_update(make_delegate(sec1, a, b, 2, now=NOW), now=NOW).accepted
        assert server.apply_update(make_delegate(sec2, b, a, 2, now=NOW), now=NOW).accepted
        with pytest.raises(DelegationLoopError):
            server.resolve(a, now=NOW)

    def test_depth_budget_enforced(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        nodes = [apex1.child(IA(str(i))) for i in range(1, 7)]
        serial = 2
        for src, dst in zip(nodes, nodes[1:]):
            assert server.apply_update(make_delegate(sec1, src, dst, serial, now=NOW), now=NOW).accepted
            serial += 1
        assert server.apply_update(
            make_assign(sec1, nodes[-1], "10.0.0.1", serial, now=NOW), now=NOW
        ).accepted
        # five rewrites fit in the default budget
        assert server.resolve(nodes[0], now=NOW).address == "10.0.0.1"
        with pytest.raises(DepthExceededError):
            server.resolve(nodes[0], depth_budget=4, now=NOW)
        with pytest.raises(ResolutionError):
            server.resolve(nodes[0], depth_budget=0, now=NOW)

    def test_delegation_without_transfer_carries_no_notice(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        a, b = apex1.child(IA("1")), apex1.child(IA("2"))
        assert server.apply_update(make_delegate(sec1, a, b, 2, now=NOW), now=NOW).accepted
        assert server.apply_update(make_assign(sec1, b, "10.0.0.8", 3, now=NOW), now=NOW).accepted
        got = server.resolve(a, now=NOW)
        assert got.outcome == OUTCOME_ADDRESS
        assert got.address == "10.0.0.8"
        assert got.transfer_notices == ()


class TestQueryRecord:
    def test_present_record(self, example_zones):
        z = example_zones
        ans = z.server.query_record(z.leaf_2_3, "A", now=NOW)
        assert ans.found
        assert ans.rrset.records[0].rdata == "192.253.254.63"
        assert ans.proof == ()

    def test_purged_record_reports_ancestor_status(self, example_zones):
        z = example_zones
        ans = z.server.query_record(z.under_compromised, "A", now=NOW)
        assert not ans.found
        status_types = {(rr.owner, rr.rtype) for rr in ans.status_records}
        assert (z.apex2.fqdn_no_dot(), "TXT") in status_types
        assert (z.apex2.fqdn_no_dot(), "A") in status_types

    def test_key_survives_compromise_purge(self, example_zones):
        z = example_zones
        ans = z.server.query_record(z.apex2, "KEY", now=NOW)
        assert ans.found

    def test_missing_record_carries_denial_proof(self, example_zones):
        z = example_zones
        ans = z.server.query_record(z.apex1.child(IA("99")), "A", now=NOW)
        assert not ans.found
        assert ans.proof
        assert all(rr.rtype == "NXT" for rr in ans.proof)

    def test_nxt_query_returns_covering_record(self, example_zones):
        z = example_zones
        ans = z.server.query_record(z.apex1.child(IA("99")), "NXT", now=NOW)
        assert ans.found
        assert ans.rrset.rtype == "NXT"


class TestAudit:
    def test_subscriber_cap_and_owner_priority(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        leaf = apex1.child(IA("1"))
        for i in range(server.audit_cap):
            assert server.subscribe_audit(leaf, f"watcher-{i}").accepted
        verdict = server.subscribe_audit(leaf, "watcher-late")
        assert verdict.reason == R_SUBSCRIPTION_LIMIT
        assert server.subscribe_audit(leaf, "the-owner", owner=True).accepted
        assert len(server.subscriptions(leaf)) == server.audit_cap + 1

    def test_resubscribe_is_idempotent(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        leaf = apex1.child(IA("1"))
        assert server.subscribe_audit(leaf, "w").accepted
        assert server.subscribe_audit(leaf, "w").accepted
        assert len(server.subscriptions(leaf)) == 1
        server.end_audit("w")
        assert server.subscriptions(leaf) == []

    def test_events_carry_updates_and_verdicts(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        leaf = apex1.child(IA("1"))
        assert server.subscribe_audit(leaf, "w").accepted
        good = make_assign(sec1, leaf, "10.0.0.1", 2, now=NOW)
        bad = make_assign(sec2, leaf, "10.0.0.2", 3, now=NOW)
        server.apply_update(good, now=NOW)
        server.apply_update(bad, now=NOW)
        sub = server.audit_subscriber("w")
        assert server.subscriptions(leaf) == [sub]
        events = [sub.take(), sub.take()]
        assert [event.verdict.tag() for event in events] == [
            "accepted", f"rejected:{R_WRONG_AUTHORITY}"
        ]
        assert events[0].update.target == leaf.fqdn_no_dot()
        assert events[0].seq < events[1].seq
        assert not sub.events

    def test_full_queue_counts_drops(self, keypool):
        server, (apex1,) = claimed_server(keypool, 0)
        _, sec1 = keypool.key(0)
        leaf = apex1.child(IA("1"))
        assert server.subscribe_audit(leaf, "w").accepted
        sub = server.audit_subscriber("w")
        sub.events = deque(maxlen=2)
        for serial in (2, 3, 4):
            server.apply_update(
                make_assign(sec1, leaf, f"10.0.0.{serial}", serial, now=NOW), now=NOW
            )
        assert sub.dropped == 1
        assert [sub.take().update.serial for _ in range(2)] == [3, 4]
        server.end_audit("w")
        assert sub.take() is None
        assert server.subscriptions(leaf) == []

    def test_entry_log_records_history(self, keypool, logged_service):
        z = build_example_zones(keypool, server=logged_service.server)
        log = logged_service.entry_log(z.leaf_2_3)
        actions = [msg.action for msg, _ in log]
        assert actions == ["CREATE_CHILD", "ASSIGN"]
        assert all(v.accepted for _, v in log)

    def test_store_audit_is_clean_on_the_examples(self, example_zones):
        assert example_zones.server.audit_store(now=NOW) == []


class TestZones:
    def test_root_zone_structure(self, example_zones):
        z = example_zones
        zone = z.server.root_zone_snapshot(now=NOW)
        soa = zone.get(ROOT, "SOA")
        assert soa is not None and soa.records[0].rdata.serial == z.server.update_count == 17
        assert zone.get(ROOT, "NS") is not None
        root_key = zone.get(ROOT, "KEY")
        assert root_key.signature is None
        for apex in (z.apex1, z.apex2, z.apex3):
            assert zone.get(apex.fqdn_no_dot(), "KEY") is not None
        # irrevocable state is mirrored into the root zone
        assert zone.get(z.transferred.fqdn_no_dot(), "DNAME") is not None
        assert zone.get(z.apex2.fqdn_no_dot(), "TXT") is not None
        nxt = zone.get(ROOT, "NXT")
        assert nxt is not None and nxt.signature is not None

    def test_owner_zone_round_trips_through_text(self, example_zones):
        z = example_zones
        text = serialize_zone(z.server.owner_zone_snapshot(z.apex1, now=NOW))
        fresh = new_server()
        loaded, problems = fresh.load_zone(parse_zone(text), now=NOW)
        assert problems == []
        assert loaded > 0
        got = fresh.resolve(z.leaf_2_3, now=NOW)
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "192.253.254.63")

    def test_full_snapshot_reload_preserves_status(self, example_zones):
        z = example_zones
        fresh = new_server()
        zones = [z.server.root_zone_snapshot(now=NOW)]
        zones += [
            z.server.owner_zone_snapshot(apex, now=NOW)
            for apex in (z.apex1, z.apex2, z.apex3)
        ]
        for zone in zones:
            _, problems = fresh.load_zone(parse_zone(serialize_zone(zone)), now=NOW)
            assert problems == []
        keys = [rtype for _, rtype in fresh.root_zone_snapshot(now=NOW).rrsets if rtype == "KEY"]
        assert len(keys) == 1 + 3  # the root's own and one per claimed apex
        assert fresh.resolve(z.apex2, now=NOW).outcome == OUTCOME_COMPROMISED
        assert fresh.resolve(z.leaf_2_3, now=NOW).address == "192.253.254.63"
        # a reloaded DNAME still rewrites, as a plain delegation
        got = fresh.resolve(z.old_leaf, now=NOW)
        assert got.outcome == OUTCOME_ADDRESS
        assert got.address == "192.253.254.78"

    def test_tampered_zone_set_is_skipped_with_a_problem(self, example_zones):
        z = example_zones
        zone = parse_zone(serialize_zone(z.server.owner_zone_snapshot(z.apex1, now=NOW)))
        victim = zone.get(z.leaf_2_3.fqdn_no_dot(), "A")
        forged_rec = ResourceRecord(
            owner=victim.records[0].owner, ttl=victim.records[0].ttl,
            rtype="A", rdata="192.253.254.64",
        )
        zone = zone.with_rrset(
            type(victim)(records=(forged_rec,), signature=victim.signature)
        )
        fresh = new_server()
        _, problems = fresh.load_zone(zone, now=NOW)
        assert any(z.leaf_2_3.fqdn_no_dot() in p and "A" in p for p in problems)
        assert not fresh.query_record(z.leaf_2_3, "A", now=NOW).found

    def test_zone_set_signed_by_another_owner_is_skipped(self, example_zones):
        # owner 3's key, which the zone also carries, signs owner 1's address
        z = example_zones
        zone = parse_zone(serialize_zone(z.server.owner_zone_snapshot(z.apex1, now=NOW)))
        zone = zone.with_rrset(z.server.query_record(z.apex3, "KEY", now=NOW).rrset)
        victim = zone.get(z.leaf_2_3.fqdn_no_dot(), "A")
        params = replace(victim.signature.params, signer=z.apex3.fqdn_no_dot())
        signature = crypto.sign_rrset(victim.records, z.secrets["k3"], params)
        zone = zone.with_rrset(SignedRRset(victim.records, signature))
        fresh = new_server()
        _, problems = fresh.load_zone(zone, now=NOW)
        assert any(z.leaf_2_3.fqdn_no_dot() in p and " A: " in p for p in problems)
        assert not fresh.query_record(z.leaf_2_3, "A", now=NOW).found
        assert fresh.audit_store(now=NOW) == []

    def test_exports_around_a_cancel_load_as_the_updates_built(self, keypool):
        # an owner-zone export from before the cancel holds c's sets, the
        # root-zone export from after it the cancel; either load order must
        # end in the store the updates built, serials aside
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        apex = parse_handle(claim.target, ROOT)
        c = apex.child(IA("1"))
        built = new_server()
        for msg in (
            claim, make_create_child(sec, c, 2, now=NOW), make_assign(sec, c, "10.0.0.1", 3, now=NOW)
        ):
            assert built.apply_update(msg, now=NOW).accepted
        before = serialize_zone(built.owner_zone_snapshot(apex, now=NOW))
        assert built.apply_update(make_cancel(sec, apex, 4, now=NOW), now=NOW).accepted
        after = serialize_zone(built.root_zone_snapshot(now=NOW))

        def masked(state):
            return re.sub(r"serial=\d+", "serial=*", state)

        for order, skipped in (((before, after), []), ((after, before), ["A", "TXT"])):
            fresh = new_server()
            problems = [p for text in order for p in fresh.load_zone(parse_zone(text), now=NOW)[1]]
            assert masked(fresh.dump_state()) == masked(built.dump_state())
            assert merge_law_violations(fresh.dump_state()) == []
            assert not fresh.query_record(c, "A", now=NOW).found
            assert sorted(problems) == [
                f"{c.fqdn_no_dot()} {rtype}: {R_HANDLE_CANCELLED}" for rtype in skipped
            ]

    def test_dump_state_lists_flags_and_slots(self, example_zones):
        z = example_zones
        state = z.server.dump_state()
        assert state.startswith("onhs-state-v1\nroot handleroot.example.org\n")
        entry_line = next(
            ln for ln in state.splitlines()
            if ln.startswith(f"entry {z.apex2.name_key()} ")
        )
        assert "cancelled=1" in entry_line
        assert "compromised=1" in entry_line
        transferred_line = next(
            ln for ln in state.splitlines()
            if ln.startswith(f"entry {z.transferred.name_key()} ")
        )
        assert f"transferred_to={z.new_home.name_key()}" in transferred_line


class TestUnsignedUpdateFields:
    """An update's signature covers its record sets and their signature
    params, not the update's serial or action. Anyone who holds a signed
    update, as every audit subscriber does, can change either and send it
    again. Both tests fail until the two fields are signed."""

    @pytest.mark.xfail(strict=True, reason="the update serial is not signed")
    def test_an_old_assign_sent_again_with_a_higher_serial_is_refused(self, keypool):
        server, (apex,) = claimed_server(keypool, 0)
        sec = keypool.key(0)[1]
        leaf = apex.child(IA("1"))
        old = make_assign(sec, leaf, "10.0.0.1", 2, now=NOW)
        for msg in (old, make_assign(sec, leaf, "10.0.0.9", 3, now=NOW)):
            assert server.apply_update(msg, now=NOW).accepted
        server.apply_update(replace(old, serial=10**9), now=NOW)
        assert server.resolve(leaf, now=NOW).address == "10.0.0.9"

    @pytest.mark.xfail(strict=True, reason="the update action is not signed")
    def test_a_delegate_sent_again_as_a_transfer_is_refused(self, keypool):
        server, (apex, other) = claimed_server(keypool, 0, 1)
        sec = keypool.key(0)[1]
        name, dest = apex.child(IA("1")), other.child(IA("2"))
        delegate = make_delegate(sec, name, dest, 2, now=NOW)
        for msg in (delegate, make_assign(keypool.key(1)[1], dest, "10.0.0.2", 2, now=NOW)):
            assert server.apply_update(msg, now=NOW).accepted
        assert server.resolve(name, now=NOW).outcome == OUTCOME_ADDRESS
        server.apply_update(replace(delegate, action=srv.TRANSFER), now=NOW)
        assert server.resolve(name, now=NOW).outcome != OUTCOME_TRANSFERRED_AND_ADDRESS
        below = make_create_child(sec, name.child(IA("3")), 3, now=NOW)
        assert server.apply_update(below, now=NOW).accepted
