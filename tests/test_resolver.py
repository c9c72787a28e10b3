"""Client-side verification, handle references, and key upgrade."""

import functools
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import FIXED_NOW, ROOT, build_example_zones, new_server, new_service

from onhs import crypto
from onhs.client import (
    HandleReference,
    V_STALE,
    _enumerate_owner_zone,
    cancel_old_key,
    key_upgrade,
    resolve_and_verify,
    update_reference,
    verified_signatures,
    verify_resolution,
)
from onhs.errors import ResolutionError, VerificationError
from onhs.handles import CACHE_CAP, HandleLabel, parse_handle
from onhs.records import IMPOSSIBLE_ADDRESS, ResourceRecord, SignedRRset, name_key
from onhs.server import (
    OUTCOME_ADDRESS,
    OUTCOME_CANCELLED,
    OUTCOME_COMPROMISED,
    OUTCOME_NOT_FOUND,
    OUTCOME_TRANSFERRED_AND_ADDRESS,
    RecordAnswer,
    Verdict,
    apex_key,
    bound_apex_keys,
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
        assert verify_resolution(res, z.leaf_2_3, ROOT, now=NOW).verified  # warms the cache
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
        assert (z.leaf_2_3.name_key(), "A", "bad-signature") in got.record_verdicts

    @staticmethod
    def resigned_leaf(z, secret, signer: str, key_set):
        """leaf_2_3's answer moved to 10.6.6.6: its A set signed by secret
        with signer named in the signature, and key_set added to the
        evidence."""
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        evidence = []
        for rrset in res.evidence:
            if rrset.rtype == "A":
                records = (replace(rrset.records[0], rdata="10.6.6.6"),)
                params = replace(rrset.signature.params, signer=signer)
                rrset = SignedRRset(records, crypto.sign_rrset(records, secret, params))
            evidence.append(rrset)
        return replace(res, address="10.6.6.6", evidence=(key_set,) + tuple(evidence))

    def test_a_set_signed_by_a_third_owner_fails(self, example_zones):
        z = example_zones
        key_set = z.server.query_record(z.apex3, "KEY", now=NOW).rrset
        forged = self.resigned_leaf(z, z.secrets["k3"], z.apex3.fqdn_no_dot(), key_set)
        for pin in (None, z.secrets["k1"].public_key()):
            got = verify_resolution(forged, z.leaf_2_3, ROOT, pinned_key=pin, now=NOW)
            assert not got.verified
            assert (z.leaf_2_3.name_key(), "A", "wrong-signer") in got.record_verdicts

    def test_a_set_signed_under_a_served_root_key_fails(self, example_zones, keypool):
        z = example_zones
        public, secret = keypool.key(4)
        key_set = SignedRRset((ResourceRecord(ROOT, 3600, "KEY", public.key_bytes),))
        forged = self.resigned_leaf(z, secret, ROOT, key_set)
        for pin in (None, z.secrets["k1"].public_key()):
            got = verify_resolution(forged, z.leaf_2_3, ROOT, pinned_key=pin, now=NOW)
            assert not got.verified
            assert (z.leaf_2_3.name_key(), "A", "wrong-signer") in got.record_verdicts

    def test_an_expired_cancel_still_needs_a_signature_that_holds(self, example_zones):
        # a cancel past its expiration counts as stale only if it was signed
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        address = next(s for s in res.evidence if s.rtype == "A")
        cancel = (replace(address.records[0], rdata=IMPOSSIBLE_ADDRESS),)
        params = replace(
            address.signature.params, inception="20200101000000", expiration="20210101000000"
        )
        forged = SignedRRset(cancel, replace(address.signature, params=params))
        evidence = tuple(forged if s is address else s for s in res.evidence)
        lied = replace(res, outcome=OUTCOME_CANCELLED, address=None, evidence=evidence)
        got = verify_resolution(lied, z.leaf_2_3, ROOT, now=NOW)
        assert not got.verified
        assert (z.leaf_2_3.name_key(), "A", "bad-signature") in got.record_verdicts

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
        server = new_server()
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
        # one warning per stale set, though the owner as stored has upper case
        assert apex.fqdn_no_dot() != apex.name_key()
        stale = [f"{V_STALE} {o} {t}" for o, t, v in got.record_verdicts if v == V_STALE]
        assert len(stale) == 2
        assert list(res.warnings) == stale
        assert [w for w in got.warnings if w.startswith(V_STALE)] == stale

    def test_a_served_warning_is_not_taken_on_trust(self, example_zones):
        """The verifier's warnings come from its own walk: a warning a
        server adds to an honest answer is not reported."""
        z = example_zones
        res = z.server.resolve(z.leaf_2_3, now=NOW)
        assert res.warnings == ()
        forged = replace(res, warnings=(f"{V_STALE} {z.leaf_2_3.name_key()} A",))
        got = verify_resolution(forged, z.leaf_2_3, ROOT, now=NOW)
        assert got.verified, got.failures
        assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "192.253.254.63")
        assert got.warnings == ()

    def test_expired_signature_on_plain_address_fails(self, keypool):
        then = "20250101000000"
        server = new_server()
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


class TestVerifiedSignatureCache:
    """verify_resolution remembers its RSA checks' answers, and nothing else."""

    THEN = "20250101000000"
    SOON = "20250101000100"  # a minute later, inside a one-hour validity

    def signed_address(self, keypool):
        """A server holding one address signed at THEN for one hour."""
        server = new_server()
        _, sec = keypool.key(3)
        claim = make_claim(sec, ROOT, 16, 1, now=self.THEN)
        assert server.apply_update(claim, now=self.THEN).accepted
        leaf = parse_handle(claim.target, ROOT).child(IA("1"))
        msg = make_assign(sec, leaf, "10.0.0.1", 2, now=self.THEN, validity=3600)
        assert server.apply_update(msg, now=self.THEN).accepted
        return server, leaf, msg

    def test_warm_cache_still_reports_an_expired_set(self, keypool):
        server, leaf, _ = self.signed_address(keypool)
        verified_signatures.cache_clear()
        res = server.resolve(leaf, now=self.SOON)
        assert verify_resolution(res, leaf, ROOT, now=self.SOON).verified
        assert verified_signatures.cache_info().currsize > 0
        got = verify_resolution(res, leaf, ROOT, now=NOW)
        assert not got.verified
        assert (leaf.name_key(), "A", crypto.REJECT_EXPIRED) in got.record_verdicts

    def test_warm_cache_keeps_the_stale_irrevocable_path(self, keypool):
        server = new_server()
        _, sec_a = keypool.key(3)
        _, sec_b = keypool.key(4)
        claims = [make_claim(sec, ROOT, 16, 1, now=self.THEN) for sec in (sec_a, sec_b)]
        apex_a, apex_b = (parse_handle(c.target, ROOT) for c in claims)
        leaf = apex_a.child(IA("1"))
        for msg in claims + [
            make_assign(sec_a, leaf, "10.0.0.1", 2, now=self.THEN),
            make_cancel(sec_a, leaf, 3, now=self.THEN, validity=3600),
            make_compromise(sec_b, apex_b, "2025-01-01", 2, now=self.THEN, validity=3600),
        ]:
            assert server.apply_update(msg, now=self.THEN).accepted
        verified_signatures.cache_clear()
        for name, outcome, stale in (
            (leaf, OUTCOME_CANCELLED, (leaf.name_key(), "A", V_STALE)),
            (apex_b, OUTCOME_COMPROMISED, (apex_b.name_key(), "TXT", V_STALE)),
        ):
            res = server.resolve(name, now=self.SOON)
            fresh = verify_resolution(res, name, ROOT, now=self.SOON)
            assert fresh.verified and stale not in fresh.record_verdicts
            later = verify_resolution(server.resolve(name, now=NOW), name, ROOT, now=NOW)
            assert later.verified, later.failures
            assert later.outcome == outcome
            assert stale in later.record_verdicts
            assert f"{V_STALE} {stale[0]} {stale[1]}" in later.warnings

    def test_warm_cache_rejects_altered_records_signatures_and_keys(self, keypool):
        _, leaf, msg = self.signed_address(keypool)
        sig, key = msg.signature, msg.signer_key
        record = ResourceRecord(leaf.fqdn_no_dot(), 3600, "A", "10.0.0.1")
        cache = functools.lru_cache(maxsize=16)(crypto.rsa_check)
        signed = SignedRRset((record,), sig)
        assert crypto.verify_rrset(signed, key, self.SOON, cache) == crypto.ACCEPT
        assert cache.cache_info().currsize == 1
        flipped = bytearray(sig.signature_bytes)
        flipped[10] ^= 1
        for records, signature, signer in (
            ((replace(record, rdata="10.0.0.2"),), sig, key),
            ((record,), replace(sig, signature_bytes=bytes(flipped)), key),
            ((record,), sig, keypool.key(4)[0]),
        ):
            result = crypto.verify_rrset(SignedRRset(records, signature), signer, self.SOON, cache)
            assert result == crypto.REJECT_BAD_SIGNATURE
        assert cache.cache_info()[:2] == (0, 4)  # no hit: each altered check ran
        assert crypto.verify_rrset(signed, key, self.SOON, cache) == crypto.ACCEPT
        assert cache.cache_info().hits == 1

    def test_a_flipped_signature_is_refused_cold_and_warm(self, keypool):
        server, leaf, _ = self.signed_address(keypool)
        res = server.resolve(leaf, now=self.SOON)
        evidence = []
        for rrset in res.evidence:
            if rrset.rtype == "A":
                sig = rrset.signature
                flipped = bytes([sig.signature_bytes[0] ^ 1]) + sig.signature_bytes[1:]
                rrset = SignedRRset(rrset.records, replace(sig, signature_bytes=flipped))
            evidence.append(rrset)
        forged = replace(res, evidence=tuple(evidence))
        refused = (leaf.name_key(), "A", crypto.REJECT_BAD_SIGNATURE)

        verified_signatures.cache_clear()
        cold = verify_resolution(forged, leaf, ROOT, now=self.SOON)
        assert not cold.verified and refused in cold.record_verdicts
        # warm: the failed check is kept, and so is the same octets' check
        # under the right signature
        assert verify_resolution(forged, leaf, ROOT, now=self.SOON) == cold
        assert verify_resolution(res, leaf, ROOT, now=self.SOON).verified
        assert verify_resolution(forged, leaf, ROOT, now=self.SOON) == cold

    def test_threads_sharing_the_cache_agree_with_one_thread(self, example_zones):
        z = example_zones
        names = [z.leaf_2_3, z.leaf_3_3, z.old_leaf, z.under_compromised,
                 z.apex2, z.new_leaf, z.apex1.child(IA("77"))]
        answers = [(name, z.server.resolve(name, now=NOW)) for name in names]
        expected = [verify_resolution(res, name, ROOT, now=NOW) for name, res in answers]
        assert all(got.verified for got in expected)
        results = [[] for _ in range(8)]

        def work(worker):
            for _ in range(20):
                for name, res in answers:
                    results[worker].append(verify_resolution(res, name, ROOT, now=NOW))

        verified_signatures.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got == expected * 20 for got in results)

    def test_the_server_never_fills_it(self, keypool, tmp_path):
        verified_signatures.cache_clear()
        build_example_zones(keypool)
        service = new_service(tmp_path / "data")
        build_example_zones(keypool, server=service.server)
        service.close()
        again = new_service(tmp_path / "data")
        again.close()
        assert again.replayed == 17
        assert verified_signatures.cache_info().currsize == 0


class TestBoundApexKeys:
    """ApexKeys keeps apex_key's answers in bound_apex_keys, keyed on all
    of its inputs, so a bound key vouches for nothing apex_key would refuse."""

    @staticmethod
    def with_key_set(res, apex, owner, key_bytes):
        """res with apex's KEY set moved to owner and holding key_bytes,
        unsigned: an apex KEY set counts by its binding alone."""
        evidence = []
        for rrset in res.evidence:
            if rrset.rtype == "KEY" and name_key(rrset.owner) == apex.name_key():
                record = replace(rrset.records[0], owner=owner.fqdn_no_dot(), rdata=key_bytes)
                rrset = SignedRRset((record,))
            evidence.append(rrset)
        return replace(res, evidence=tuple(evidence))

    def test_a_bound_key_vouches_for_no_other_key_or_owner(self, example_zones):
        z = example_zones
        leaf, apex = z.leaf_2_3, z.apex1
        res = z.server.resolve(leaf, now=NOW)
        assert verify_resolution(res, leaf, ROOT, now=NOW).verified  # binds apex1's key
        mine, other = (z.secrets[k].public_key().key_bytes for k in ("k1", "k2"))
        for owner, key_bytes, why in (
            (apex, other, "label-mismatch"),     # another key under apex1
            (z.apex2, mine, "label-mismatch"),   # apex1's key under another apex
            (leaf, mine, "bad-owner"),           # apex1's key below an apex
        ):
            got = verify_resolution(self.with_key_set(res, apex, owner, key_bytes), leaf, ROOT, now=NOW)
            assert not got.verified
            assert (owner.name_key(), "KEY", why) in got.record_verdicts
            assert bound_apex_keys(key_bytes, owner.name_key(), name_key(ROOT)) == apex_key(
                key_bytes, owner.name_key(), name_key(ROOT)
            )
        wrong_pin = z.secrets["k2"].public_key()
        got = verify_resolution(res, leaf, ROOT, pinned_key=wrong_pin, now=NOW)
        assert not got.verified
        assert f"pinned key check: served key for {apex.name_key()} differs from pin" in got.failures

    def test_it_holds_at_most_cache_cap_answers(self, keypool):
        key_bytes, root = keypool.key(0)[0].key_bytes, name_key(ROOT)
        for i in range(CACHE_CAP + 10):
            assert bound_apex_keys(key_bytes, f"h0k{i}.{root}", root) == (None, "bad-owner")
        assert bound_apex_keys.cache_info().currsize == CACHE_CAP


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
        ref = HandleReference(
            handle=z.old_leaf,
            pinned_key=z.secrets["k1"].public_key(),
            superseded_by=z.new_leaf,
        )
        path = tmp_path / "old-leaf.ref"
        ref.save(path)
        back = HandleReference.load(path)
        assert back.handle == ref.handle
        assert back.pinned_key == ref.pinned_key
        assert back.superseded_by == ref.superseded_by
        assert back.current_handle() == z.new_leaf

    def test_denial_resolution_survives_the_file_format(self, example_zones, tmp_path):
        z = example_zones
        ghost = z.apex1.child(IA("99"))
        res = z.server.resolve(ghost, now=NOW)
        ref = update_reference(HandleReference(handle=ghost), res, ROOT)
        path = tmp_path / "ghost.ref"
        ref.save(path)
        assert HandleReference.load(path) == ref

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "not-a-ref"
        path.write_text("something else entirely\n")
        with pytest.raises(VerificationError):
            HandleReference.load(path)

    def test_a_file_with_an_old_last_resolution_line_loads(self, tmp_path):
        # data/dict-form.ref was saved when a reference kept its last
        # answer, with each record set as nested dicts; load skips that
        # line, and the next save leaves it out
        fixture = Path(__file__).parent / "data" / "dict-form.ref"
        back = HandleReference.load(fixture)
        assert back.handle == parse_handle("h0k1.h1g5kBA6529D72AB49333." + ROOT, ROOT)
        assert back.superseded_by == parse_handle("h0k1.h1g5kC909CBE59D058406." + ROOT, ROOT)
        assert back.pinned_key is not None
        assert crypto.verify_key_matches_label(back.pinned_key, back.handle.apex_label)
        kept = tmp_path / "kept.ref"
        back.save(kept)
        assert "last_resolution" not in kept.read_text()
        assert HandleReference.load(kept) == back

    @pytest.mark.parametrize("line, damaged, named", [
        ("pinned_key ", "pinned_key !!not-base64!!", "pinned_key does not decode"),
        ("pinned_key ", "pinned_key AAAA", "pinned_key does not decode"),
        ("pinned_algorithm ", "pinned_algorithm five", "pinned_algorithm 'five' is not a number"),
    ])
    def test_a_damaged_pin_line_is_a_verification_error(self, tmp_path, line, damaged, named):
        fixture = Path(__file__).parent / "data" / "dict-form.ref"
        original = fixture.read_text()
        copy = tmp_path / "damaged.ref"
        copy.write_text("".join(
            damaged + "\n" if text.startswith(line) else text
            for text in original.splitlines(keepends=True)
        ))
        with pytest.raises(VerificationError, match=named):
            HandleReference.load(copy)
        assert fixture.read_text() == original

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
        server = new_server()
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
        server = new_server()
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

    def test_replica_verification_failure_aborts_before_transfer(self, keypool, logged_service):
        server = logged_service.server
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
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert actions[0] == "CLAIM"
        assert "TRANSFER" not in actions

    @staticmethod
    def flat_zone(keypool, server, names: int):
        """(old secret, new secret, apex) for a fresh apex holding an
        address at h0k1 to h0k<names - 1> below it."""
        _, old_sec = keypool.fresh()
        _, new_sec = keypool.fresh()
        claim = make_claim(old_sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        for i in range(1, names):
            msg = make_assign(old_sec, apex.child(IA(i)), f"10.0.0.{i}", 1 + i, now=NOW)
            assert server.apply_update(msg, now=NOW).accepted
        return old_sec, new_sec, apex

    def test_a_chain_longer_than_the_limit_aborts_before_transfer(
        self, keypool, logged_service, monkeypatch
    ):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 8)
        monkeypatch.setattr(_enumerate_owner_zone, "__defaults__", (5,))
        count = server.update_count
        report = key_upgrade(old_sec, apex, new_sec, server, ROOT, now=NOW)
        assert not report.ok
        assert report.new_apex is None
        assert server.update_count == count
        assert any("did not close within 5" in w for w in report.warnings)
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert "TRANSFER" not in actions

    def test_a_broken_chain_aborts_before_transfer(self, keypool, logged_service):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 4)
        gap = apex.child(IA(2))

        class BrokenChain:
            """Forwards everything but finds no NXT record at one name."""

            def resolve(self, handle, depth_budget=None, now=None):
                return server.resolve(handle, depth_budget, now)

            def query_record(self, handle, rtype, now=None):
                if rtype == "NXT" and handle == gap:
                    return RecordAnswer(False, None, (), ())
                return server.query_record(handle, rtype, now)

            def apply_update(self, msg, now=None):
                return server.apply_update(msg, now)

        count = server.update_count
        report = key_upgrade(old_sec, apex, new_sec, BrokenChain(), ROOT, now=NOW)
        assert not report.ok
        assert report.new_apex is None
        assert server.update_count == count
        assert any("no NXT record" in w for w in report.warnings)
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert "TRANSFER" not in actions

    @pytest.mark.parametrize("lie", ["an A set", "another name's NXT set", "a foreign next owner"])
    def test_a_lying_nxt_answer_aborts_before_transfer(self, keypool, logged_service, lie):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 4)
        leaf = apex.child(IA(1))

        class LyingChain:
            """Forwards everything but answers the apex's NXT query with a
            set that is not its NXT set, or one whose next owner is not a
            handle under the root."""

            def resolve(self, handle, depth_budget=None, now=None):
                return server.resolve(handle, depth_budget, now)

            def query_record(self, handle, rtype, now=None):
                if rtype != "NXT" or handle != apex:
                    return server.query_record(handle, rtype, now)
                if lie == "an A set":
                    return replace(server.query_record(leaf, "A", now), status_records=())
                if lie == "another name's NXT set":
                    return server.query_record(leaf, "NXT", now)
                answer = server.query_record(apex, "NXT", now)
                rec = answer.rrset.records[0]
                foreign = replace(rec, rdata=replace(rec.rdata, next_owner="h0k1.example.net"))
                return replace(answer, rrset=SignedRRset((foreign,)))

            def apply_update(self, msg, now=None):
                return server.apply_update(msg, now)

        count = server.update_count
        report = key_upgrade(old_sec, apex, new_sec, LyingChain(), ROOT, now=NOW)
        assert not report.ok
        assert report.new_apex is None
        assert server.update_count == count
        why = {
            "an A set": f"not-the-set-asked-for at {apex.fqdn_no_dot()}",
            "another name's NXT set": f"not-the-set-asked-for at {apex.fqdn_no_dot()}",
            "a foreign next owner": f"NXT record at {apex.fqdn_no_dot()} names no handle",
        }[lie]
        assert len(report.warnings) == 1 and why in report.warnings[0], report.warnings
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert "TRANSFER" not in actions

    @pytest.mark.parametrize("rtype", ["A", "DNAME"])
    def test_a_forged_answer_aborts_before_transfer(self, keypool, logged_service, rtype):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 4)
        pointer = apex.child(IA(5))
        delegate = make_delegate(old_sec, pointer, apex.child(IA(1)), 5, now=NOW)
        assert server.apply_update(delegate, now=NOW).accepted
        elsewhere = parse_handle(make_claim(keypool.key(4)[1], ROOT, 16, 1).target, ROOT)
        victim, forged_rdata = {
            "A": (apex.child(IA(2)), "6.6.6.6"),
            "DNAME": (pointer, elsewhere.child(IA(6)).fqdn_no_dot()),
        }[rtype]

        class ForgedAnswer:
            """Forwards everything but rewrites the victim's answer of one
            type, keeping its signature."""

            def resolve(self, handle, depth_budget=None, now=None):
                return server.resolve(handle, depth_budget, now)

            def query_record(self, handle, rtype_asked, now=None):
                answer = server.query_record(handle, rtype_asked, now)
                if rtype_asked == rtype and handle == victim:
                    forged = SignedRRset(
                        tuple(replace(r, rdata=forged_rdata) for r in answer.rrset.records),
                        answer.rrset.signature,
                    )
                    return replace(answer, rrset=forged)
                return answer

            def apply_update(self, msg, now=None):
                return server.apply_update(msg, now)

        count = server.update_count
        report = key_upgrade(old_sec, apex, new_sec, ForgedAnswer(), ROOT, now=NOW)
        assert not report.ok
        assert report.new_apex is None
        assert server.update_count == count
        assert f"{victim.fqdn_no_dot()} {rtype}: bad-signature" in report.warnings
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert "TRANSFER" not in actions

    def test_an_expired_set_aborts_before_any_write(self, keypool, logged_service):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 3)
        stale = apex.child(IA(1))
        msg = make_assign(old_sec, stale, "10.0.0.9", 9, now=NOW, validity=3600)
        assert server.apply_update(msg, now=NOW).accepted
        later = crypto.stamp_add(NOW, 2 * 3600)
        count = server.update_count
        report = key_upgrade(old_sec, apex, new_sec, server, ROOT, now=later)
        assert not report.ok
        assert report.warnings == [f"{stale.fqdn_no_dot()} A: expired"]
        assert report.new_apex is None
        assert report.steps == []
        assert server.update_count == count

    def test_a_refused_assign_says_why_it_stopped(self, keypool, logged_service):
        server = logged_service.server
        old_sec, new_sec, apex = self.flat_zone(keypool, server, 3)

        class RefusesOneAssign:
            """Forwards everything but refuses the first ASSIGN."""

            refused = 0

            def resolve(self, handle, depth_budget=None, now=None):
                return server.resolve(handle, depth_budget, now)

            def query_record(self, handle, rtype, now=None):
                return server.query_record(handle, rtype, now)

            def apply_update(self, msg, now=None):
                if msg.action == "ASSIGN" and not self.refused:
                    self.refused += 1
                    return Verdict(False, "handle-cancelled")
                return server.apply_update(msg, now)

        report = key_upgrade(old_sec, apex, new_sec, RefusesOneAssign(), ROOT, now=NOW)
        assert not report.ok
        step = f"assign {report.new_apex.child(IA(1)).fqdn_no_dot()} 10.0.0.1"
        assert report.steps[-1] == (step, False)
        assert report.warnings == [f"{step} rejected: handle-cancelled"]
        actions = [m.action for m, _ in logged_service.entry_log(apex)]
        assert "TRANSFER" not in actions

    def test_an_apex_nobody_claimed_is_refused_before_any_claim(self, keypool, logged_service):
        server = logged_service.server
        _, old_sec = keypool.fresh()
        _, new_sec = keypool.fresh()
        apex = parse_handle(make_claim(old_sec, ROOT, 16, 1, now=NOW).target, ROOT)
        report = key_upgrade(old_sec, apex, new_sec, server, ROOT, now=NOW)
        assert not report.ok
        assert report.new_apex is None
        assert report.warnings == [f"{apex.fqdn_no_dot()} KEY: not found; nothing was changed"]
        assert server.update_count == 0

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
        server = new_server()
        _, sec = keypool.fresh()
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        assert server.apply_update(make_assign(sec, apex.child(IA("1")), "10.0.0.1", 2, now=NOW), now=NOW).accepted
        verdicts, warnings = cancel_old_key(sec, apex, server, serial=3, now=NOW)
        assert all(v.accepted for v in verdicts)
        assert any("strands" in w for w in warnings)
        assert server.resolve(apex.child(IA("1")), now=NOW).outcome == OUTCOME_CANCELLED

    def test_a_delegation_at_the_apex_is_no_transfer(self, keypool):
        server = new_server()
        _, sec = keypool.fresh()
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        apex = parse_handle(claim.target, ROOT)
        child = apex.child(IA("1"))
        elsewhere = parse_handle(make_claim(keypool.key(4)[1], ROOT, 16, 1).target, ROOT)
        for msg in (
            make_assign(sec, child, "10.0.0.1", 2, now=NOW),
            make_delegate(sec, apex, elsewhere, 3, now=NOW),
        ):
            assert server.apply_update(msg, now=NOW).accepted
        verdicts, warnings = cancel_old_key(sec, apex, server, serial=4, now=NOW)
        assert all(v.accepted for v in verdicts)
        assert any("strands" in w for w in warnings)
        assert server.resolve(child, now=NOW).outcome == OUTCOME_CANCELLED

    def test_compromise_flag_reaches_the_store(self, keypool):
        server = new_server()
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
