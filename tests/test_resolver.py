"""Client-side verification, handle references, and key upgrade."""

from dataclasses import replace

import pytest

from conftest import FIXED_NOW, ROOT

from onhs.client import (
    HandleReference,
    V_STALE,
    cancel_old_key,
    key_upgrade,
    resolve_and_verify,
    update_reference,
    verify_resolution,
)
from onhs.errors import ResolutionError, VerificationError
from onhs.handles import HandleLabel, parse_handle
from onhs.records import ResourceRecord, SignedRRset
from onhs.server import (
    OUTCOME_ADDRESS,
    OUTCOME_CANCELLED,
    OUTCOME_COMPROMISED,
    OUTCOME_NOT_FOUND,
    OUTCOME_TRANSFERRED_AND_ADDRESS,
    HandleServer,
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


class TestVerifyResolution:
    def test_address_resolution_verifies(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        got = verify_resolution(res, z.leaf_2_3, ROOT, now=NOW)
        assert got.verified, got.failures
        assert got.outcome == OUTCOME_ADDRESS
        assert got.address == "192.253.254.63"
        assert got.failures == ()
        assert all(v in ("ok",) for _, _, v in got.record_verdicts)

    def test_pinned_key_accepts_the_real_owner(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        pin = z.secrets["k1"].public_key()
        got = verify_resolution(res, z.leaf_2_3, ROOT, pinned_key=pin, now=NOW)
        assert got.verified, got.failures

    def test_pinned_key_rejects_a_different_key(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        wrong_pin = z.secrets["k2"].public_key()
        got = verify_resolution(res, z.leaf_2_3, ROOT, pinned_key=wrong_pin, now=NOW)
        assert not got.verified
        assert any("pinned key" in f for f in got.failures)

    def test_tampered_address_evidence_fails(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        evidence = []
        for rrset in res.evidence:
            if rrset.rtype == "A":
                rec = rrset.records[0]
                forged = ResourceRecord(
                    owner=rec.owner, ttl=rec.ttl, rtype="A", rdata="192.253.254.99"
                )
                rrset = SignedRRset((forged,), rrset.signature)
            evidence.append(rrset)
        forged_res = replace(
            res, evidence=tuple(evidence), address="192.253.254.99"
        )
        got = verify_resolution(forged_res, z.leaf_2_3, ROOT, now=NOW)
        assert not got.verified

    def test_injected_transfer_notice_is_caught(self, example_zones, keypool):
        # evidence stays honest; the server merely appends a forged notice
        # pointing the reference at a name of its choosing
        z = example_zones
        res = z.server.resolve(z.old_leaf, now=NOW)
        _, foreign = keypool.key(4)
        hijack = ResourceRecord(
            owner=z.new_leaf.fqdn_no_dot(),
            ttl=86400,
            rtype="DNAME",
            rdata=z.apex2.child(IA("666")).fqdn_no_dot(),
        )
        template = next(n for n in res.transfer_notices if n.signature is not None)
        from onhs.crypto import sign_rrset

        forged = SignedRRset(
            (hijack,),
            sign_rrset(
                (hijack,),
                foreign,
                replace(template.signature.params, label_count=hijack.owner.count(".") + 1),
            ),
        )
        poked = replace(res, transfer_notices=res.transfer_notices + (forged,))
        got = verify_resolution(poked, z.old_leaf, ROOT, now=NOW)
        assert not got.verified
        assert any("notice" in f for f in got.failures)

    def test_outcome_lie_is_caught(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        lied = replace(res, outcome=OUTCOME_CANCELLED, address=None)
        got = verify_resolution(lied, z.leaf_2_3, ROOT, now=NOW)
        assert not got.verified
        assert any("served outcome" in f for f in got.failures)

    def test_address_lie_is_caught(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        lied = replace(res, address="10.0.0.1")
        got = verify_resolution(lied, z.leaf_2_3, ROOT, now=NOW)
        assert not got.verified
        assert any("served address" in f for f in got.failures)

    def test_unsigned_evidence_fails(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        rogue = SignedRRset(
            (ResourceRecord(
                owner=z.leaf_2_3.fqdn_no_dot(), ttl=60, rtype="TXT", rdata="hello",
            ),),
            None,
        )
        poked = replace(res, evidence=res.evidence + (rogue,))
        got = verify_resolution(poked, z.leaf_2_3, ROOT, now=NOW)
        assert not got.verified
        assert any("unsigned" in f for f in got.failures)

    def test_compromised_resolution_verifies(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.under_compromised, now=NOW)
        got = verify_resolution(res, z.under_compromised, ROOT, now=NOW)
        assert got.verified, got.failures
        assert got.outcome == OUTCOME_COMPROMISED

    def test_transfer_resolution_verifies(self, example_zones):
        z = example_zones
        res = z.server.resolve(z.old_leaf, now=NOW)
        got = verify_resolution(res, z.old_leaf, ROOT, now=NOW)
        assert got.verified, got.failures
        assert got.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert got.address == "192.253.254.78"

    def test_denial_verifies_with_server_trust_warning(self, example_zones):
        z = example_zones
        ghost = z.apex1.child(IA("99"))
        res = z.server.resolve(ghost, now=NOW)
        got = verify_resolution(res, ghost, ROOT, now=NOW)
        assert got.verified, got.failures
        assert got.outcome == OUTCOME_NOT_FOUND
        assert any("nxt-server-trust" in w for w in got.warnings)

    def test_denial_without_proof_fails(self, example_zones):
        z = example_zones
        ghost = z.apex1.child(IA("99"))
        res = z.server.resolve(ghost, now=NOW)
        stripped = replace(
            res, evidence=tuple(rr for rr in res.evidence if rr.rtype != "NXT")
        )
        got = verify_resolution(stripped, ghost, ROOT, now=NOW)
        assert not got.verified

    def test_expired_signature_on_irrevocable_content_warns_only(self, keypool):
        then = "20250101000000"
        server = HandleServer(ROOT)
        _, sec = keypool.key(3)
        claim = make_claim(sec, ROOT, 16, 1, now=then)
        assert server.apply_update(claim, now=then).accepted
        apex = parse_handle(claim.target, ROOT)
        comp = make_compromise(sec, apex, "2025-01-01", 2, now=then, validity=3600)
        assert server.apply_update(comp, now=then).accepted

        res = server.resolve(apex, now=NOW)
        got = verify_resolution(res, apex, ROOT, now=NOW)
        assert got.verified, got.failures
        assert got.outcome == OUTCOME_COMPROMISED
        assert any(w.startswith(V_STALE) for w in got.warnings)
        stale = [v for _, _, v in got.record_verdicts if v == V_STALE]
        assert stale

    def test_expired_signature_on_plain_address_fails(self, keypool):
        then = "20250101000000"
        server = HandleServer(ROOT)
        _, sec = keypool.key(3)
        claim = make_claim(sec, ROOT, 16, 1, now=then)
        assert server.apply_update(claim, now=then).accepted
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        msg = make_assign(sec, leaf, "10.0.0.1", 2, now=then, validity=3600)
        assert server.apply_update(msg, now=then).accepted

        res = server.resolve(leaf, now=NOW)  # server still serves the record
        got = verify_resolution(res, leaf, ROOT, now=NOW)
        assert not got.verified
        assert any("expired" in f for f in got.failures)


class _DownEndpoint:
    def resolve(self, handle, depth_budget=None, now=None):
        raise OSError("endpoint unreachable")

    def query_record(self, handle, rtype, now=None):
        raise OSError("endpoint unreachable")

    def apply_update(self, msg, now=None):
        raise OSError("endpoint unreachable")


class TestResolveAndVerify:
    def test_falls_through_to_a_working_endpoint(self, example_zones):
        z = example_zones
        got = resolve_and_verify(
            z.leaf_2_3, [_DownEndpoint(), z.server], ROOT, now=NOW
        )
        assert got.verified
        assert got.address == "192.253.254.63"

    def test_no_endpoints_is_an_error(self, example_zones):
        with pytest.raises(ResolutionError):
            resolve_and_verify(example_zones.leaf_2_3, [], ROOT, now=NOW)

    def test_all_endpoints_down_raises_the_last_error(self, example_zones):
        with pytest.raises(OSError):
            resolve_and_verify(
                example_zones.leaf_2_3, [_DownEndpoint(), _DownEndpoint()], ROOT, now=NOW
            )


class TestHandleReference:
    def test_save_load_round_trip(self, example_zones, tmp_path):
        z = example_zones
        res = z.server.resolve(z.old_leaf, now=NOW)
        ref = HandleReference(
            handle=z.old_leaf,
            pinned_key=z.secrets["k1"].public_key(),
            last_resolution=res,
            superseded_by=z.new_leaf,
        )
        path = tmp_path / "old-leaf.ref"
        ref.save(path)
        back = HandleReference.load(path)
        assert back.handle == ref.handle
        assert back.pinned_key == ref.pinned_key
        assert back.superseded_by == ref.superseded_by
        assert back.last_resolution == ref.last_resolution
        assert back.current_handle() == z.new_leaf

    def test_denial_resolution_survives_the_file_format(self, example_zones, tmp_path):
        z = example_zones
        ghost = z.apex1.child(IA("99"))
        res = z.server.resolve(ghost, now=NOW)
        ref = HandleReference(handle=ghost, last_resolution=res)
        path = tmp_path / "ghost.ref"
        ref.save(path)
        assert HandleReference.load(path).last_resolution == res

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "not-a-ref"
        path.write_text("something else entirely\n")
        with pytest.raises(VerificationError):
            HandleReference.load(path)

    def test_transfer_moves_the_reference(self, example_zones):
        z = example_zones
        ref = HandleReference(handle=z.transferred)
        res = z.server.resolve(z.transferred, now=NOW)
        moved = update_reference(ref, res, ROOT)
        assert moved.superseded_by == z.new_home
        assert moved.current_handle() == z.new_home
        # reapplying the same resolution changes nothing
        again = update_reference(moved, res, ROOT)
        assert again.superseded_by == moved.superseded_by

    def test_descendant_reference_follows_the_transfer(self, example_zones):
        z = example_zones
        ref = HandleReference(handle=z.old_leaf)
        res = z.server.resolve(z.old_leaf, now=NOW)
        moved = update_reference(ref, res, ROOT)
        assert moved.current_handle() == z.new_leaf

    def test_plain_delegation_does_not_move_the_reference(self, keypool):
        server = HandleServer(ROOT)
        _, sec = keypool.key(3)
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        a, b = apex.child(IA("1")), apex.child(IA("2"))
        assert server.apply_update(make_delegate(sec, a, b, 2, now=NOW), now=NOW).accepted
        assert server.apply_update(make_assign(sec, b, "10.0.0.8", 3, now=NOW), now=NOW).accepted
        ref = HandleReference(handle=a)
        res = server.resolve(a, now=NOW)
        assert res.outcome == OUTCOME_ADDRESS
        moved = update_reference(ref, res, ROOT)
        assert moved.superseded_by is None
        assert moved.current_handle() == a

    def test_chained_transfers_fold_in_one_update(self, example_zones):
        z = example_zones
        sec3 = z.secrets["k3"]
        final_home = z.apex3.child(IA("900"))
        final_leaf = final_home.child(IA("5"))
        steps = [
            make_create_child(sec3, final_home, 6, now=NOW),
            make_create_child(sec3, final_leaf, 7, now=NOW),
            make_assign(sec3, final_leaf, "192.253.254.90", 8, now=NOW),
            make_transfer(sec3, z.new_home, final_home, 9, now=NOW),
        ]
        for msg in steps:
            assert z.server.apply_update(msg, now=NOW).accepted
        res = z.server.resolve(z.old_leaf, now=NOW)
        assert res.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert res.address == "192.253.254.90"
        assert len(res.transfer_notices) == 2
        ref = HandleReference(handle=z.old_leaf)
        moved = update_reference(ref, res, ROOT)
        assert moved.current_handle() == final_leaf


class TestKeyUpgrade:
    def test_whole_hierarchy_moves_to_the_new_key(self, example_zones, keypool):
        z = example_zones
        _, new_secret = keypool.fresh()
        report = key_upgrade(
            z.secrets["k1"], z.apex1, new_secret, z.server, ROOT, now=NOW
        )
        assert report.ok, (report.steps, report.warnings)
        new_apex = report.new_apex
        assert new_apex is not None
        assert new_apex.apex_label.key_suffix != z.apex1.apex_label.key_suffix
        assert len(new_apex.apex_label.key_suffix) == len(z.apex1.apex_label.key_suffix)

        # ordinal paths live on under the new apex
        replica = new_apex.child(IA("3")).child(IA("2"))
        got = z.server.resolve(replica, now=NOW)
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "192.253.254.63")

        # old names redirect with a transfer notice and verify end to end
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        assert res.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert res.address == "192.253.254.63"
        checked = verify_resolution(res, z.leaf_2_3, ROOT, now=NOW)
        assert checked.verified, checked.failures

        # the old apex is now frozen
        late = make_assign(z.secrets["k1"], z.apex1.child(IA("8")), "10.0.0.1", 99, now=NOW)
        assert not z.server.apply_update(late, now=NOW).accepted

    def test_internal_delegations_are_rewritten(self, keypool):
        server = HandleServer(ROOT)
        _, old_sec = keypool.fresh()
        _, new_sec = keypool.fresh()
        claim = make_claim(old_sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        pointer, dest = apex.child(IA("1")), apex.child(IA("2"))
        assert server.apply_update(make_delegate(old_sec, pointer, dest, 2, now=NOW), now=NOW).accepted
        assert server.apply_update(make_assign(old_sec, dest, "10.0.0.7", 3, now=NOW), now=NOW).accepted

        report = key_upgrade(old_sec, apex, new_sec, server, ROOT, now=NOW)
        assert report.ok, (report.steps, report.warnings)
        new_apex = report.new_apex
        answer = server.query_record(new_apex.child(IA("1")), "DNAME", now=NOW)
        assert answer.found
        assert answer.rrset.records[0].rdata == new_apex.child(IA("2")).fqdn_no_dot()
        got = server.resolve(new_apex.child(IA("1")), now=NOW)
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "10.0.0.7")

    def test_cancelled_names_are_skipped_with_a_warning(self, example_zones, keypool):
        z = example_zones
        sec1 = z.secrets["k1"]
        assert z.server.apply_update(make_cancel(sec1, z.leaf_3_3, 9, now=NOW), now=NOW).accepted
        _, new_secret = keypool.fresh()
        report = key_upgrade(sec1, z.apex1, new_secret, z.server, ROOT, now=NOW)
        assert report.ok, (report.steps, report.warnings)
        assert any(z.leaf_3_3.fqdn_no_dot() in w for w in report.warnings)
        ghost = report.new_apex.child(IA("3")).child(IA("3"))
        assert z.server.resolve(ghost, now=NOW).outcome == OUTCOME_NOT_FOUND

    def test_replica_verification_failure_aborts_before_transfer(self, keypool):
        server = HandleServer(ROOT)
        _, old_sec = keypool.fresh()
        _, new_sec = keypool.fresh()
        claim = make_claim(old_sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        assert server.apply_update(make_assign(old_sec, leaf, "10.0.0.7", 2, now=NOW), now=NOW).accepted

        class LyingEndpoint:
            """Forwards everything but mis-reports resolved addresses."""

            def resolve(self, handle, depth_budget=None, now=None):
                res = server.resolve(handle, depth_budget, now)
                if res.outcome == OUTCOME_ADDRESS:
                    return replace(res, address="10.9.9.9")
                return res

            def query_record(self, handle, rtype, now=None):
                return server.query_record(handle, rtype, now)

            def apply_update(self, msg, now=None):
                return server.apply_update(msg, now)

        report = key_upgrade(old_sec, apex, new_sec, LyingEndpoint(), ROOT, now=NOW)
        assert not report.ok
        assert any(not ok for _, ok in report.steps)
        # the old hierarchy was never transferred
        res = server.resolve(leaf, now=NOW)
        assert res.outcome == OUTCOME_ADDRESS
        assert res.transfer_notices == ()
        actions = [m.action for m, _ in server.entry_log(apex)]
        assert "TRANSFER" not in actions

    def test_cancel_old_key_after_upgrade(self, example_zones, keypool):
        z = example_zones
        _, new_secret = keypool.fresh()
        report = key_upgrade(z.secrets["k1"], z.apex1, new_secret, z.server, ROOT, now=NOW)
        assert report.ok
        verdicts, warnings = cancel_old_key(
            z.secrets["k1"], z.apex1, z.server, serial=99, now=NOW
        )
        assert all(v.accepted for v in verdicts)
        assert warnings == []  # the transfer DNAME is in place
        # descendants still follow the transfer after the cancel
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        assert res.outcome == OUTCOME_TRANSFERRED_AND_ADDRESS
        assert res.address == "192.253.254.63"

    def test_cancel_without_transfer_warns_about_stranding(self, keypool):
        server = HandleServer(ROOT)
        _, sec = keypool.fresh()
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        assert server.apply_update(make_assign(sec, apex.child(IA("1")), "10.0.0.1", 2, now=NOW), now=NOW).accepted
        verdicts, warnings = cancel_old_key(sec, apex, server, serial=3, now=NOW)
        assert all(v.accepted for v in verdicts)
        assert any("strands" in w for w in warnings)
        assert server.resolve(apex.child(IA("1")), now=NOW).outcome == OUTCOME_CANCELLED

    def test_compromise_flag_reaches_the_store(self, keypool):
        server = HandleServer(ROOT)
        _, sec = keypool.fresh()
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        verdicts, _ = cancel_old_key(
            sec, apex, server, serial=2, compromised=True, note="2026-08-16", now=NOW
        )
        assert len(verdicts) == 2
        assert all(v.accepted for v in verdicts)
        assert server.resolve(apex, now=NOW).outcome == OUTCOME_COMPROMISED
