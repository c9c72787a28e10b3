"""The store keeps one copy of each value its sets repeat.

HandleServer._admit, the one way in for updates, replay and zone loads,
hands every set the server's own copy of equal signature params, and with
them one TTL int; _server_sign does the same for the sets the server signs.
An NXT set works out its span only when it is read, and the NXT cache is
keyed by the zone index's own key objects.
"""

import pytest
from conftest import FIXED_NOW, ROOT, new_server, new_service

from onhs import records, server as srv
from onhs.handles import HandleLabel, parse_handle
from onhs.records import NxtData, ResourceRecord, SignedRRset, parse_zone, serialize_zone

IA = HandleLabel.ia
LATER = "20260816130000"


def updates(keypool):
    """A claim, then three names created and assigned at FIXED_NOW, and
    one more name created at LATER, whose signature has its own inception."""
    secret = keypool.key(0)[1]
    claim = srv.make_claim(secret, ROOT, 16, 1, now=FIXED_NOW)
    apex = parse_handle(claim.target, ROOT)
    msgs = [claim]
    for n in (1, 2, 3):
        msgs.append(srv.make_create_child(secret, apex.child(IA(n)), 2 * n, now=FIXED_NOW))
        assign = srv.make_assign(secret, apex.child(IA(n)), f"10.0.0.{n}", 2 * n + 1, now=FIXED_NOW)
        msgs.append(assign)
    msgs.append(srv.make_create_child(secret, apex.child(IA(4)), 8, now=LATER))
    return apex, msgs


def stored(server, apex, rtype):
    """The sets of rtype stored at apex's names h0k1 to h0k4, in order."""
    out = []
    for n in (1, 2, 3, 4):
        entry = server._entries.get(apex.child(IA(n)).name_key())
        if entry is not None and rtype in entry.slots:
            out.append(entry.slots[rtype].rrset)
    return out


def assert_shared(server, apex):
    created = stored(server, apex, "TXT")
    assigned = stored(server, apex, "A")
    assert len(created) == 4 and len(assigned) == 3
    params = created[0].signature.params
    # equal params are one object, across names and across types
    for rrset in created[:3] + assigned:
        assert rrset.signature.params is params
        assert all(rec.ttl is params.original_ttl for rec in rrset.records)
    # a different inception gets its own
    later = created[3].signature.params
    assert later is not params and later.inception == LATER
    assert later.expiration != params.expiration


def test_updates_share_equal_params(keypool):
    apex, msgs = updates(keypool)
    server = new_server()
    for msg in msgs:
        assert server.apply_update(msg, now=LATER).accepted
    assert_shared(server, apex)


def test_replay_shares_equal_params(keypool, tmp_path):
    apex, msgs = updates(keypool)
    service = new_service(tmp_path / "data")
    try:
        for msg in msgs:
            assert service.server.apply_update(msg, now=LATER).accepted
        before = service.server.dump_state()
    finally:
        service.close()
    again = new_service(tmp_path / "data")
    try:
        assert again.replayed == len(msgs)
        assert again.server.dump_state() == before
        assert_shared(again.server, apex)
    finally:
        again.close()


def test_zone_loads_share_equal_params(keypool):
    apex, msgs = updates(keypool)
    server = new_server()
    for msg in msgs:
        assert server.apply_update(msg, now=LATER).accepted
    text = serialize_zone(server.owner_zone_snapshot(apex, now=LATER))
    fresh = new_server()
    loaded, problems = fresh.load_zone(parse_zone(text), now=LATER)
    assert problems == [] and loaded == 8
    assert_shared(fresh, apex)


def test_server_signed_sets_share_equal_params(keypool):
    apex, msgs = updates(keypool)
    server = new_server()
    for msg in msgs:
        assert server.apply_update(msg, now=LATER).accepted
    zone = server.owner_zone_snapshot(apex, now=LATER)
    root = server.root_zone_snapshot(now=LATER)
    signed = [s for s in list(zone.rrsets.values()) + list(root.rrsets.values())
              if s.rtype in ("NXT", "SOA", "NS")]
    held = {}
    for rrset in signed:
        params = rrset.signature.params
        assert held.setdefault(params, params) is params
    # the names at one depth share theirs; the label count tells depths apart
    assert len(held) == len({s.signature.params.label_count for s in signed}) < len(signed)


class TestLazySpan:
    def test_a_span_is_worked_out_once_on_first_read(self, monkeypatch):
        rec = ResourceRecord("h0k2.example.org", 60, "NXT", NxtData("h0k7.example.org", ("A",)))
        rrset = SignedRRset((rec,))
        assert rrset.spanned is None
        calls = []
        real = records.key_sort_key
        monkeypatch.setattr(records, "key_sort_key", lambda key: calls.append(key) or real(key))
        span = rrset.span
        assert span == ((b"org", b"example", b"h0k2"), (b"org", b"example", b"h0k7"))
        assert rrset.span is span and rrset.spanned is span
        assert calls == ["h0k2.example.org", "h0k7.example.org"]  # owner, next owner

    def test_the_server_keeps_no_span(self, keypool):
        apex, msgs = updates(keypool)
        server = new_server()
        for msg in msgs:
            assert server.apply_update(msg, now=LATER).accepted
        answer = server.resolve(apex.child(IA(9)), now=LATER)
        assert answer.outcome == srv.OUTCOME_NOT_FOUND
        cached = [signed for signed, _ in server._nxt_sigs.values()]
        assert cached and all(signed.spanned is None for signed in cached)


@pytest.mark.parametrize("via", ["resolve", "query", "snapshot"])
def test_the_nxt_cache_holds_the_zone_index_keys(keypool, via):
    apex, msgs = updates(keypool)
    server = new_server()
    for msg in msgs:
        assert server.apply_update(msg, now=LATER).accepted
    misses = [apex.child(IA(n)).child(IA(9)) for n in (1, 2, 3, 4, 5)]
    unclaimed = parse_handle(srv.make_claim(keypool.key(1)[1], ROOT, 16, 1).target, ROOT)
    misses += [apex.child(IA(0)), unclaimed, unclaimed.child(IA(1))]
    for handle in misses:
        if via == "resolve":
            server.resolve(handle, now=LATER)
        elif via == "query":
            server.query_record(handle, "NXT", now=LATER)
    if via == "snapshot":
        server.owner_zone_snapshot(apex, now=LATER)
        server.root_zone_snapshot(now=LATER)
    zone_keys = {key: key for key in server._zones}
    assert len({zone for zone, _ in server._nxt_sigs}) == 2
    for zone, owner in server._nxt_sigs:
        assert zone is zone_keys[zone]
        assert any(owner is key for key in server._zones[zone])
