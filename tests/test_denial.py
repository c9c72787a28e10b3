"""Denial proofs served from the per-zone owner index.

The index must give the NXT records that covering_nxt picks from
build_nxt_chain over a zone rebuilt by scanning the whole store; a warm
NOT_FOUND must neither sign nor rebuild a zone; and a cached NXT
signature is served only while its record is unchanged and fresh.
"""

import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from conftest import FIXED_NOW, ROOT

from onhs import crypto, records, server as srv
from onhs.client import verify_resolution
from onhs.crypto import SecretKey, stamp_add
from onhs.handles import Handle, HandleLabel, parse_handle
from onhs.records import (
    ZoneSnapshot,
    build_nxt_chain,
    covering_nxt,
    name_key,
    parse_zone,
    serialize_zone,
)
from onhs.server import OUTCOME_NOT_FOUND, SERVER_SIG_VALIDITY

IA = HandleLabel.ia
OA = HandleLabel.oa
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
        parse_zone(serialize_zone(full.owner_zone_snapshot(apex, now=NOW, include_nxt=False)))
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


def scanned_owner_zone(server, apex: Handle) -> ZoneSnapshot:
    zone = ZoneSnapshot(apex=apex.fqdn_no_dot())
    prefix = apex.name_key()
    for key, entry in server._entries.items():
        if key == prefix or key.endswith("." + prefix):
            for _, slot in sorted(entry.slots.items()):
                zone = zone.with_rrset(slot.rrset)
    return zone


def scanned_root_zone(server, own_sets: ZoneSnapshot) -> ZoneSnapshot:
    zone = ZoneSnapshot(apex=ROOT)
    for rtype in ("SOA", "NS", "KEY"):
        zone = zone.with_rrset(own_sets.get(ROOT, rtype))
    for entry in server._entries.values():
        for rtype, slot in sorted(entry.slots.items()):
            if (entry.handle.is_apex() and rtype == "KEY") or slot.sticky:
                zone = zone.with_rrset(slot.rrset)
    return zone


class Oracle:
    """covering_nxt over build_nxt_chain, one chain per zone, built lazily."""

    def __init__(self, server):
        self.server = server
        self.chains: Dict[str, tuple] = {}

    def chain(self, apex: Handle):
        if apex.name_key() in self.server._entries:
            key = apex.name_key()
            if key not in self.chains:
                zone = scanned_owner_zone(self.server, apex)
                served = self.server.owner_zone_snapshot(apex, now=NOW, include_nxt=False)
                assert served.rrsets == zone.rrsets, apex
                self.chains[key] = (zone, build_nxt_chain(zone))
                assert build_nxt_chain(served) == self.chains[key][1], apex
        else:
            key = ROOT
            if key not in self.chains:
                served = self.server.root_zone_snapshot(now=NOW, include_nxt=False)
                zone = scanned_root_zone(self.server, served)
                assert served.rrsets == zone.rrsets
                self.chains[key] = (zone, build_nxt_chain(zone))
                assert build_nxt_chain(served) == self.chains[key][1]
        return self.chains[key]

    def denial(self, handle: Handle) -> list:
        zone, chain = self.chain(handle.apex())
        cover = covering_nxt(chain, handle.fqdn_no_dot())
        apex_rec = next((r for r in chain if name_key(r.owner) == name_key(zone.apex)), None)
        return [cover] + ([apex_rec] if apex_rec is not None and apex_rec is not cover else [])


def probes(server, corpus: Corpus) -> List[Handle]:
    """Stored names, then absent names around and below them and the apexes."""
    stored = [parse_handle(key, ROOT) for key in server._entries]
    bases = stored + [corpus.claimed, corpus.unclaimed, corpus.empty]
    out = {h.name_key(): h for h in bases}
    for base in bases:
        # h0k0 sorts before every stored child, h2k9 after every one
        for label in (IA(0), IA(1), IA(2), IA(5), IA(10), IA(99), OA(1), OA(9)):
            child = base.child(label)
            out.setdefault(child.name_key(), child)
    return list(out.values())


# ---- tests -------------------------------------------------------------------


def test_index_agrees_with_the_whole_zone_oracle(corpus):
    checked = 0
    for trial in range(24):
        rng = random.Random(trial)
        batch = [m for m in corpus.messages if rng.random() < 0.8]
        rng.shuffle(batch)  # so updates often arrive before their claim
        loads = {}
        if trial % 3 == 0:
            loads = {rng.randrange(len(batch) + 1): zone for zone in corpus.zones}
        server = corpus.server([])
        for i in range(len(batch) + 1):
            if i in loads:
                server.load_zone(loads[i], now=NOW)
            if i < len(batch):
                server.apply_update(batch[i], now=NOW)
        oracle = Oracle(server)
        for handle in probes(server, corpus):
            assert server._denial(handle)[1] == oracle.denial(handle), (trial, handle)
            checked += 1
    assert checked > 2000


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
    later = stamp_add(NOW, 3600)
    for ghost in ghosts:
        got = server.resolve(ghost, now=later)
        assert got.outcome == OUTCOME_NOT_FOUND
        checked = verify_resolution(got, ghost, ROOT, now=later)
        assert checked.verified, (ghost, checked.failures)
    assert calls == {}


def test_nxt_signatures_are_reused_only_while_fresh(corpus, monkeypatch):
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


def test_zone_export_signs_through_the_same_cache(corpus, monkeypatch):
    server = corpus.server()
    zone = server.owner_zone_snapshot(corpus.claimed, now=NOW)
    calls: dict = {}
    monkeypatch.setattr(SecretKey, "sign", counting(calls, "sign", SecretKey.sign))
    ghost = corpus.claimed.child(IA(55))
    got = server.resolve(ghost, now=NOW)
    assert calls == {}
    served = {(rr.owner, rr.rtype): rr for rr in got.evidence}
    for rr in zone.ordered_rrsets():
        if rr.rtype == "NXT" and (rr.owner, "NXT") in served:
            assert served[(rr.owner, "NXT")] == rr
