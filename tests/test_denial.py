"""Denial proofs served from the per-zone owner index.

The served NXT sets, and the NXT sets of every zone export, must hold the
records the whole-zone chain of oracles.py gives over a zone rebuilt by
scanning the whole store, also after updates land on a warm cache; a warm
NOT_FOUND must neither sign nor rebuild a zone or a record; and a cached
NXT signature is served only while fresh, and re-signed exactly when its
record changed.
"""

import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from conftest import FIXED_NOW, ROOT
from oracles import covering, nxt_chain

from onhs import crypto, records, server as srv
from onhs.client import verify_resolution
from onhs.crypto import SecretKey, stamp_add
from onhs.errors import HandleStructureError
from onhs.handles import Handle, HandleLabel, parse_handle
from onhs.records import (
    ZoneSnapshot,
    build_nxt_chain,
    canonical_sort_key,
    name_key,
    parse_zone,
    serialize_zone,
)
from onhs.server import OUTCOME_NOT_FOUND, SERVER_SIG_VALIDITY

IA = HandleLabel.ia
OA = HandleLabel.oa
PK = HandleLabel.pk
NOW = FIXED_NOW


@dataclass
class Corpus:
    """Signed updates built once; every store in this file draws on them."""

    server_secret: SecretKey
    messages: List[srv.UpdateMessage]
    zones: List[ZoneSnapshot]        # owner zones exported from the full store
    claimed: Handle                  # apex of key 0, claimed
    unclaimed: Handle                # apex of key 2: names under it, no claim
    empty: Handle                    # an apex nothing was ever stored under
    create_56: srv.UpdateMessage     # h0k56 under `claimed`, not in messages

    def server(self, messages=None) -> srv.HandleServer:
        server = srv.HandleServer(ROOT, self.server_secret)
        for msg in self.messages if messages is None else messages:
            server.apply_update(msg, now=NOW)
        return server


@pytest.fixture(scope="module")
def corpus(keypool) -> Corpus:
    k0, k1, k2 = (keypool.key(i)[1] for i in range(3))
    pub3, server_secret = keypool.key(3)
    claim0 = srv.make_claim(k0, ROOT, 16, 1, now=NOW)
    claim1 = srv.make_claim(k1, ROOT, 16, 1, now=NOW)
    a = parse_handle(claim0.target, ROOT)
    b = parse_handle(claim1.target, ROOT)
    c = Handle(labels=(crypto.derive_pk_label(keypool.key(2)[0], 16),), root_suffix=ROOT)
    a1, a2, a10 = a.child(IA(1)), a.child(IA(2)), a.child(IA(10))
    a1_upper = Handle(labels=a1.labels, root_suffix=ROOT.upper())
    b4, b7 = b.child(IA(4)), b.child(IA(7))
    at = {"now": NOW}
    messages = [
        claim0,
        srv.make_create_child(k0, a1, 2, **at),
        srv.make_create_child(k0, a2, 3, **at),
        srv.make_create_child(k0, a10, 4, **at),
        srv.make_create_child(k0, a2.child(IA(3)), 5, **at),
        srv.make_create_child(k0, a.child(OA(5)), 6, **at),
        srv.make_assign(k0, a1, "10.0.0.1", 7, **at),
        srv.make_assign(k0, a1_upper, "10.0.0.2", 8, **at),
        srv.make_assign(k0, a2.child(IA(3)), "10.0.0.3", 9, **at),
        srv.make_delegate(k0, a10, b.child(IA(1)), 10, **at),
        srv.make_cancel(k0, a2, 11, **at),
        claim1,
        srv.make_create_child(k1, b.child(IA(1)), 2, **at),
        srv.make_create_child(k1, b4, 3, **at),
        srv.make_create_child(k1, b7, 4, **at),
        srv.make_assign(k1, b4, "10.1.0.4", 5, **at),
        srv.make_create_child(k1, b4.child(IA(1)), 6, **at),
        srv.make_transfer(k1, b4, a1, 7, **at),
        srv.make_compromise(k1, b7, "2026-08-01", 8, **at),
        srv.make_create_child(k2, c.child(IA(2)), 1, **at),
        srv.make_create_child(k2, c.child(IA(3)), 2, **at),
        srv.make_assign(k2, c.child(IA(3)), "10.2.0.3", 3, **at),
    ]
    full = srv.HandleServer(ROOT, server_secret)
    for msg in messages:
        assert full.apply_update(msg, now=NOW).accepted, (msg.action, msg.target)
    zones = [
        parse_zone(serialize_zone(full.owner_zone_snapshot(apex, now=NOW)))
        for apex in (a, b)
    ]
    return Corpus(
        server_secret=server_secret,
        messages=messages,
        zones=zones,
        claimed=a,
        unclaimed=c,
        empty=Handle(labels=(crypto.derive_pk_label(pub3, 16),), root_suffix=ROOT),
        create_56=srv.make_create_child(k0, a.child(IA(56)), 12, **at),
    )


# ---- the oracle: zones rebuilt by scanning the whole store -----------------


def scanned_owner_zone(server, apex: Handle) -> dict:
    """(name key, type) -> set, for every set stored at or under apex."""
    prefix = apex.name_key()
    return {
        (key, rtype): slot.rrset
        for key, entry in server._entries.items()
        if key == prefix or key.endswith("." + prefix)
        for rtype, slot in entry.slots.items()
    }


def scanned_root_zone(server, own_sets: ZoneSnapshot) -> dict:
    """The root's own SOA, NS and KEY sets, every apex key and every sticky set."""
    zone = {(ROOT, rtype): own_sets.get(ROOT, rtype) for rtype in ("SOA", "NS", "KEY")}
    for key, entry in server._entries.items():
        for rtype, slot in entry.slots.items():
            if (entry.handle.is_apex() and rtype == "KEY") or slot.sticky:
                zone[key, rtype] = slot.rrset
    return zone


def nxt_triple(rec) -> tuple:
    return rec.owner, rec.rdata.next_owner, rec.rdata.types


def checked_export(served: ZoneSnapshot, sets: dict) -> list:
    """The oracle's chain over sets, after checking that the export served
    holds exactly sets and that chain's NXT records."""
    chain = nxt_chain(
        (rrset.owner, rtype, rrset.signature is not None) for (_, rtype), rrset in sets.items()
    )
    assert {k: rrset for k, rrset in served.rrsets.items() if k[1] != "NXT"} == sets, served.apex
    assert [
        nxt_triple(rrset.records[0]) for rrset in served.ordered_rrsets() if rrset.rtype == "NXT"
    ] == chain, served.apex
    return chain


class Oracle:
    """Denials the whole-zone chain gives, one chain per zone, built
    lazily; building one checks the server's export of that zone."""

    def __init__(self, server):
        self.server = server
        self.chains: Dict[str, tuple] = {}

    def chain(self, apex: Handle) -> tuple:
        """(apex text, chain) of the zone that denies names under apex:
        its owner zone once anything is stored there, else the root zone."""
        key = apex.name_key()
        if key not in self.chains:
            served = self.server.owner_zone_snapshot(apex, now=NOW)
            chain = checked_export(served, scanned_owner_zone(self.server, apex))
            self.chains[key] = (served.apex, chain)
        if self.chains[key][1]:
            return self.chains[key]
        if ROOT not in self.chains:
            served = self.server.root_zone_snapshot(now=NOW)
            chain = checked_export(served, scanned_root_zone(self.server, served))
            self.chains[ROOT] = (served.apex, chain)
        return self.chains[ROOT]

    def denial(self, handle: Handle) -> list:
        apex, chain = self.chain(handle.apex())
        cover = covering(chain, handle.fqdn_no_dot())
        own = next((r for r in chain if name_key(r[0]) == name_key(apex)), None)
        return [cover] + ([own] if own is not None and own != cover else [])


def probes(server, corpus: Corpus) -> List[Handle]:
    """Stored names, then absent names around and below them and the apexes,
    and absent apexes after each of those, which the root zone denies."""
    stored = [parse_handle(key, ROOT) for key in server._entries]
    bases = stored + [corpus.claimed, corpus.unclaimed, corpus.empty]
    out = {h.name_key(): h for h in bases}
    for base in bases:
        # h0k0 sorts before every stored child, h2k9 after every one
        for label in (IA(0), IA(1), IA(2), IA(5), IA(10), IA(99), OA(1), OA(9)):
            child = base.child(label)
            out.setdefault(child.name_key(), child)
        pk = base.apex().labels[0]  # its suffix and one more digit sorts right after it
        after = Handle(labels=(PK(pk.algorithm_code, pk.key_suffix + "0"),), root_suffix=ROOT)
        out.setdefault(after.name_key(), after)
    return list(out.values())


# ---- tests -------------------------------------------------------------------


def served_agree(server, names: List[Handle], trial: int) -> int:
    """Serve each name's denial through query_record, then export the
    zones, and compare both with the oracle."""
    proofs = [server.query_record(handle, "NXT", now=NOW).proof for handle in names]
    oracle = Oracle(server)
    for handle, proof in zip(names, proofs):
        assert [nxt_triple(rr.records[0]) for rr in proof] == oracle.denial(handle), (trial, handle)
    return len(names)


def test_index_agrees_with_the_whole_zone_oracle(corpus):
    # every change lands on a warm cache: the names are served before it,
    # so a cached set the change should have marked is served stale after it
    names = probes(corpus.server(), corpus)
    checked = 0
    for trial in range(24):
        rng = random.Random(trial)
        batch = [m for m in corpus.messages if rng.random() < 0.8]
        rng.shuffle(batch)  # so updates often arrive before their claim
        changes = [("apply_update", msg) for msg in batch]
        if trial % 3 == 0:
            for zone in corpus.zones:
                changes.insert(rng.randrange(len(changes) + 1), ("load_zone", zone))
        server = corpus.server([])
        for method, arg in changes:
            checked += served_agree(server, names, trial)
            getattr(server, method)(arg, now=NOW)
        checked += served_agree(server, names, trial)
        oracle = Oracle(server)
        for handle in names:  # a NOT_FOUND answer denies the name its walk ended at
            got = server.resolve(handle, now=NOW)
            if got.outcome == OUTCOME_NOT_FOUND:
                final = srv.walk(handle, server._node_sets, server.depth_budget).final
                nxt = [nxt_triple(rr.records[0]) for rr in got.evidence if rr.rtype == "NXT"]
                assert nxt == oracle.denial(final), (trial, handle)
    assert checked > 50000


def test_name_before_every_owner_of_a_zone_gets_the_wrap_around_record(corpus):
    c = corpus.unclaimed
    server = corpus.server(corpus.messages[-3:])  # h0k2 and h0k3 under c, no claim
    ghost = c.child(IA(1))
    got = server.resolve(ghost, now=NOW)
    assert got.outcome == OUTCOME_NOT_FOUND
    nxt = [rr.records[0] for rr in got.evidence if rr.rtype == "NXT"]
    assert [(r.owner, r.rdata.next_owner) for r in nxt] == [
        (c.child(IA(3)).fqdn_no_dot(), c.child(IA(2)).fqdn_no_dot())
    ]
    checked = verify_resolution(got, ghost, ROOT, now=NOW)
    assert checked.verified, checked.failures


def counting(calls: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_warm_not_found_neither_signs_nor_rebuilds_a_zone(corpus, monkeypatch):
    server = corpus.server()
    ghosts = [
        corpus.claimed.child(IA(55)),               # owner zone
        corpus.claimed.child(IA(10)).child(IA(4)),  # denied after a DNAME rewrite
        corpus.unclaimed.child(IA(1)),              # owner zone with no apex record
        corpus.empty.child(IA(1)),                  # root zone
        corpus.empty,
    ]
    for ghost in ghosts:
        server.resolve(ghost, now=NOW)
    calls: dict = {}
    monkeypatch.setattr(SecretKey, "sign", counting(calls, "sign", SecretKey.sign))
    monkeypatch.setattr(
        ZoneSnapshot, "with_rrset", counting(calls, "with_rrset", ZoneSnapshot.with_rrset)
    )
    for module in (srv, records):
        monkeypatch.setattr(
            module, "build_nxt_chain", counting(calls, "build_nxt_chain", build_nxt_chain)
        )
    for builder in ("_indexed_nxt", "_nxt_owner"):  # build one NXT record
        monkeypatch.setattr(
            srv.HandleServer, builder, counting(calls, builder, getattr(srv.HandleServer, builder))
        )
    later = stamp_add(NOW, 3600)
    for ghost in ghosts:
        got = server.resolve(ghost, now=later)
        assert got.outcome == OUTCOME_NOT_FOUND
        checked = verify_resolution(got, ghost, ROOT, now=later)
        assert checked.verified, (ghost, checked.failures)
    assert calls == {}


def test_nxt_signatures_are_reused_only_while_fresh(corpus, keypool, monkeypatch):
    server = corpus.server()
    ghost = corpus.claimed.child(IA(55))
    calls: dict = {}
    monkeypatch.setattr(SecretKey, "sign", counting(calls, "sign", SecretKey.sign))

    def answer(now):
        got = server.resolve(ghost, now=now)
        checked = verify_resolution(got, ghost, ROOT, now=now)
        assert checked.verified, (now, checked.failures)
        return [rr for rr in got.evidence if rr.rtype == "NXT"]

    def signs():
        return calls.pop("sign", 0)

    first = answer(NOW)
    assert len(first) == 2 and signs() == 2  # the covering record and the apex's

    half = SERVER_SIG_VALIDITY // 2
    assert answer(stamp_add(NOW, half)) == first  # half the window left: reused
    assert signs() == 0

    late = stamp_add(NOW, half + 1)
    renewed = answer(late)
    assert signs() == 2
    assert {rr.signature.params.inception for rr in renewed} == {late}

    early = stamp_add(late, -3600)  # before the cached inception
    redone = answer(early)
    assert signs() == 2
    assert {rr.signature.params.inception for rr in redone} == {early}

    cover, apex = redone
    assert server.apply_update(corpus.create_56, now=NOW).accepted
    after = answer(early)
    assert signs() == 1  # only the covering record changed
    assert after[0].records[0].rdata.next_owner == corpus.claimed.child(IA(56)).fqdn_no_dot()
    assert after[0] != cover and after[1] == apex

    # Each update below lands on a cache warmed by serving every denial;
    # the next pass must re-sign exactly the records the update changed.
    k0 = keypool.key(0)[1]
    a, root = corpus.claimed, canonical_sort_key(ROOT)
    a_zone = canonical_sort_key(a.fqdn_no_dot())
    a1, a57 = a.child(IA(1)), a.child(IA(57))
    a1_upper = Handle(labels=a1.labels, root_suffix=ROOT.upper())

    def served():
        for handle in probes(server, corpus):
            server.query_record(handle, "NXT", now=early)
        return {key: signed for key, (signed, _) in server._nxt_sigs.items()}

    def resigned_by(msg):
        """(zone, owner) -> whether its record changed, for each set re-signed."""
        before = served()
        signs()
        assert server.apply_update(msg, now=NOW).accepted
        after = served()
        fresh = [key for key, signed in after.items() if before.get(key) is not signed]
        assert signs() == len(fresh)
        return {
            (zone, srv._sort_key_name(owner)):
                (zone, owner) not in before or before[zone, owner].records[0] != after[zone, owner].records[0]
            for zone, owner in fresh
        }

    assert served() and signs() > 0  # every denial signed once
    assert server.apply_update(srv.make_assign(k0, a57, "10.0.0.57", 13, now=NOW), now=NOW).accepted
    served()
    # a rebind keeps a1's types and its A set's owner text (upper case)
    assert resigned_by(srv.make_assign(k0, a1_upper, "10.0.0.9", 14, now=NOW)) == {}
    # owner text in lower case: a1's own record, and the apex's, whose next owner a1 is
    assert resigned_by(srv.make_assign(k0, a1, "10.0.0.8", 15, now=NOW)) == {
        (a_zone, a1.name_key()): True, (a_zone, a.name_key()): True,
    }
    # a57 enters the root zone after a2; a2's root record now points at
    # a57, but only a's zone denies the names between them, so only a57's
    # own is served there. The purge takes a57 out of its owner zone and the
    # cancel puts it back with the same record: a name that leaves a zone
    # drops its cached set, so that one is signed again.
    assert resigned_by(srv.make_cancel(k0, a57, 16, now=NOW)) == {
        (root, a57.name_key()): True, (a_zone, a57.name_key()): False,
    }


def test_zone_export_signs_through_the_same_cache(corpus, keypool, monkeypatch):
    server = corpus.server()
    a = corpus.claimed
    zone = server.owner_zone_snapshot(a, now=NOW)
    calls: dict = {}
    monkeypatch.setattr(SecretKey, "sign", counting(calls, "sign", SecretKey.sign))
    for module in (srv, records):
        monkeypatch.setattr(
            module, "build_nxt_chain", counting(calls, "build_nxt_chain", build_nxt_chain)
        )
    monkeypatch.setattr(
        srv.HandleServer, "_indexed_nxt",
        counting(calls, "_indexed_nxt", srv.HandleServer._indexed_nxt),
    )
    ghost = a.child(IA(55))
    got = server.resolve(ghost, now=NOW)
    assert calls == {}
    served = {(rr.owner, rr.rtype): rr for rr in got.evidence}
    for rr in zone.ordered_rrsets():
        if rr.rtype == "NXT" and (rr.owner, "NXT") in served:
            assert served[(rr.owner, "NXT")] == rr

    def exported(export):
        return {rr.owner: rr for rr in export.ordered_rrsets() if rr.rtype == "NXT"}

    def same_sets(first, second):
        return first.keys() == second.keys() and all(first[o] is second[o] for o in first)

    # an unchanged zone's second export builds nothing and hands out the
    # same signed sets; the root zone signs its SOA and NS sets afresh
    assert same_sets(exported(zone), exported(server.owner_zone_snapshot(a, now=NOW)))
    assert calls == {}
    root = exported(server.root_zone_snapshot(now=NOW))
    calls.clear()
    assert same_sets(root, exported(server.root_zone_snapshot(now=NOW)))
    assert calls == {"sign": 2}

    def resigned_by(msg):
        """owner -> whether its record changed, for each set the export re-signed."""
        before = exported(server.owner_zone_snapshot(a, now=NOW))
        calls.clear()
        assert server.apply_update(msg, now=NOW).accepted
        after = exported(server.owner_zone_snapshot(a, now=NOW))
        fresh = [owner for owner, rrset in after.items() if before.get(owner) is not rrset]
        assert calls.get("sign", 0) == len(fresh) and "build_nxt_chain" not in calls
        return {
            owner: owner not in before or before[owner].records[0] != after[owner].records[0]
            for owner in fresh
        }

    # a new name: its own record, and its predecessor's, whose next owner it is
    a56 = a.child(IA(56)).fqdn_no_dot()
    changed = resigned_by(corpus.create_56)
    assert len(changed) == 2 and a56 in changed and all(changed.values())
    # a rebind keeps a1's types and its A set's owner text (upper case)
    a1_upper = Handle(labels=a.child(IA(1)).labels, root_suffix=ROOT.upper())
    k0 = keypool.key(0)[1]
    assert resigned_by(srv.make_assign(k0, a1_upper, "10.0.0.9", 13, now=NOW)) == {}


def test_only_an_apex_has_an_owner_zone(corpus, keypool):
    # An export of a1's subtree would chain that subtree alone under the
    # server key: a1's record there would point back to a1 over a3, a stored
    # name holding an address, and verify as a denial of it.
    k0 = keypool.key(0)[1]
    a = corpus.claimed
    a1, a3 = a.child(IA(1)), a.child(IA(3))
    server = corpus.server([
        corpus.messages[0],
        srv.make_create_child(k0, a1, 2, now=NOW),
        srv.make_create_child(k0, a1.child(IA(2)), 3, now=NOW),
        srv.make_create_child(k0, a3, 4, now=NOW),
        srv.make_assign(k0, a3, "10.0.0.3", 5, now=NOW),
    ])
    assert server.resolve(a3, now=NOW).outcome == srv.OUTCOME_ADDRESS
    for top in (a1, a1.child(IA(2)), a3):
        with pytest.raises(HandleStructureError):
            server.owner_zone_snapshot(top, now=NOW)
    server.owner_zone_snapshot(a, now=NOW)
    server.root_zone_snapshot(now=NOW)
    # an empty zone has no names to chain; the root zone denies names under it
    assert server.owner_zone_snapshot(corpus.empty, now=NOW).rrsets == {}
    assert server._nxt_sigs and all(
        owner in server._zones.get(zone, ()) for zone, owner in server._nxt_sigs
    )
