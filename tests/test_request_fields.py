"""Every field a client sends is read one way.

Each update payload field and each request body field is sent as a JSON
value of every other type; the answer is a malformed verdict or a
bad-request error whose detail names the field. A TTL is an integer of 0
or more: a boolean is not one, in process or over the wire.
"""

from dataclasses import replace

import pytest

from conftest import ROOT, new_server, new_service

from onhs import wire
from onhs.client import resolve_and_verify
from onhs.errors import OnhsError
from onhs.handles import HandleLabel, parse_handle
from onhs.records import parse_zone, serialize_zone
from onhs.server import (
    OUTCOME_ADDRESS,
    R_MALFORMED,
    Resolution,
    Verdict,
    make_assign,
    make_cancel,
    make_claim,
    make_compromise,
    make_create_child,
    make_delegate,
    make_transfer,
)
from onhs.service import RemoteEndpoint, TcpHandleServer

IA = HandleLabel.ia

# one JSON value of each type, by the name body_field gives the type
JSON_VALUES = {
    "a boolean": True, "an integer": 1, "a number": 1.5, "a string": "x",
    "an array": [], "an object": {}, "null": None,
}
KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string", dict: "an object"}

# (action, payload field, its type); every payload field is required but
# ttl, whose absence means the default TTL and whose null is malformed
PAYLOAD_FIELDS = [
    ("CLAIM", "ttl", int), ("CLAIM", "key", str), ("CLAIM", "algorithm", int),
    ("CREATE_CHILD", "ttl", int),
    ("ASSIGN", "ttl", int), ("ASSIGN", "address", str),
    ("DELEGATE", "ttl", int), ("DELEGATE", "target", str),
    ("TRANSFER", "ttl", int), ("TRANSFER", "target", str),
    ("CANCEL", "ttl", int),
    ("COMPROMISE", "ttl", int), ("COMPROMISE", "note", str),
    ("COMPROMISE", "cancel_signature", dict),
]

# (request kind, body field, its type, whether it is required)
BODY_FIELDS = [
    (wire.KIND_QUERY_RESOLVE, "handle", str, True),
    (wire.KIND_QUERY_RESOLVE, "depth_budget", int, False),
    (wire.KIND_QUERY_RECORD, "handle", str, True),
    (wire.KIND_QUERY_RECORD, "rtype", str, True),
    (wire.KIND_AUDIT_SUBSCRIBE, "handle", str, True),
    (wire.KIND_AUDIT_SUBSCRIBE, "owner", bool, False),
    (wire.KIND_AUDIT_SUBSCRIBE, "backlog", bool, False),
]


def wrong_values(kind: type, nullable: bool):
    """(type name, value) for each JSON value that is not of kind."""
    return [
        (name, value) for name, value in JSON_VALUES.items()
        if name != KIND_NAMES[kind] and (nullable or value is not None)
    ]


@pytest.fixture(scope="module")
def claimed(keypool, tmp_path_factory):
    """A service with one claimed apex, and a valid update of each action."""
    service = new_service(tmp_path_factory.mktemp("fields"))
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    assert service.server.apply_update(claim).accepted
    apex = parse_handle(claim.target, ROOT)
    leaf, other = apex.child(IA("1")), apex.child(IA("2"))
    updates = {
        "CLAIM": claim,
        "CREATE_CHILD": make_create_child(sec, leaf, 2),
        "ASSIGN": make_assign(sec, leaf, "10.0.0.1", 2),
        "DELEGATE": make_delegate(sec, leaf, other, 2),
        "TRANSFER": make_transfer(sec, leaf, other, 2),
        "CANCEL": make_cancel(sec, leaf, 2),
        "COMPROMISE": make_compromise(sec, apex, "2026-01-01", 2),
    }
    yield service, apex, updates
    service.close()


@pytest.mark.parametrize("action, field, value", [
    pytest.param(action, field, value, id=f"{action}-{field}-{name}")
    for action, field, kind in PAYLOAD_FIELDS
    for name, value in wrong_values(kind, nullable=True)
])
def test_a_payload_field_of_another_type_is_malformed(claimed, action, field, value):
    service, _, updates = claimed
    before = service.server.dump_state()
    update = updates[action].to_dict()
    update["payload"] = {**update["payload"], field: value}
    reply = service.handle_request(wire.WireMessage(wire.KIND_UPDATE, "c-1", {"update": update}))
    assert reply.kind == wire.KIND_RESPONSE
    verdict = reply.body["verdict"]
    assert (verdict["accepted"], verdict["reason"]) == (False, R_MALFORMED)
    assert f"field {field!r}" in verdict["detail"]
    assert service.server.dump_state() == before


@pytest.mark.parametrize("kind, field, value", [
    pytest.param(kind, field, value, id=f"{kind}-{field}-{name}")
    for kind, field, field_kind, required in BODY_FIELDS
    for name, value in wrong_values(field_kind, nullable=required)
])
def test_a_body_field_of_another_type_is_a_bad_request(claimed, kind, field, value):
    service, apex, _ = claimed
    body = {"handle": apex.fqdn_no_dot()}
    if kind == wire.KIND_QUERY_RECORD:
        body["rtype"] = "A"
    body[field] = value
    reply = service.handle_request(wire.WireMessage(kind, "c-1", body))
    assert reply.kind == wire.KIND_ERROR
    assert reply.body["error"] == "bad-request"
    assert f"field {field!r}" in reply.body["detail"]
    assert service.server.subscriptions(apex) == []


BAD_TTLS = [True, -1, "60"]


@pytest.mark.parametrize("ttl", BAD_TTLS)
def test_no_builder_signs_a_bad_ttl(keypool, ttl):
    _, sec = keypool.key(0)
    leaf = parse_handle(make_claim(sec, ROOT, 16, 1).target, ROOT).child(IA("1"))
    with pytest.raises((OnhsError, ValueError), match="ttl"):
        make_cancel(sec, leaf, 2, ttl=ttl)


def bad_ttl_updates(keypool):
    """A signed claim, and a cancel, an assign and a delegate under it
    whose payload TTL is each bad value."""
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    apex = parse_handle(claim.target, ROOT)
    leaf = apex.child(IA("1"))
    sent = [
        make_cancel(sec, leaf, 2),
        make_assign(sec, leaf, "10.0.0.1", 2),
        make_delegate(sec, leaf, apex.child(IA("2")), 2),
    ]
    bad = [replace(msg, payload={**msg.payload, "ttl": ttl}) for msg in sent for ttl in BAD_TTLS]
    return claim, bad


def assert_ttl_refused(verdict: Verdict) -> None:
    assert (verdict.accepted, verdict.reason) == (False, R_MALFORMED)
    assert "ttl" in verdict.detail


def test_a_bad_ttl_is_malformed_in_process(keypool):
    server = new_server()
    claim, bad = bad_ttl_updates(keypool)
    assert server.apply_update(claim).accepted
    for msg in bad:
        assert_ttl_refused(server.apply_update(msg))
    # the root zone export still reads back
    parse_zone(serialize_zone(server.root_zone_snapshot()))


def test_a_bad_ttl_is_malformed_over_the_wire(keypool, tmp_path):
    front = TcpHandleServer(new_service(tmp_path / "data"))
    port = front.start()
    try:
        claim, bad = bad_ttl_updates(keypool)
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            for msg in bad:
                assert_ttl_refused(endpoint.apply_update(msg))
        parse_zone(serialize_zone(front.service.server.root_zone_snapshot()))
    finally:
        front.stop()


def test_a_verdict_reads_accepted_as_a_boolean():
    with pytest.raises(ValueError, match="field 'accepted' must be a boolean, not a string"):
        Verdict.from_dict({"accepted": "false", "reason": None, "detail": None})
    assert Verdict.from_dict({"accepted": False, "reason": "x"}) == Verdict.rejected("x")


def test_a_reply_that_does_not_read_fails_over_to_the_next_endpoint(keypool):
    server = new_server()
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    assert server.apply_update(claim).accepted
    leaf = parse_handle(claim.target, ROOT).child(IA("1"))
    assert server.apply_update(make_assign(sec, leaf, "10.0.0.1", 2)).accepted

    class Garbled:
        def resolve(self, handle, depth_budget=None, now=None):
            reply = server.resolve(handle, depth_budget, now).to_dict()
            reply["evidence"] = "not a list"
            return Resolution.from_dict(reply)

    class Local:
        def resolve(self, handle, depth_budget=None, now=None):
            return server.resolve(handle, depth_budget, now)

    got = resolve_and_verify(leaf, [Garbled(), Local()], ROOT)
    assert got.verified, got.failures
    assert (got.resolution.outcome, got.resolution.address) == (OUTCOME_ADDRESS, "10.0.0.1")
