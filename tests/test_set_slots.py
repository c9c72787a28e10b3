"""Answers over a connection's slot table.

Over one connection each KEY and NXT set travels in full once, with the
slot it takes, and is named by that slot after that (codec.SET_SLOTS).
A writer table and a reader table kept in step give back every answer
written, and the answer writes the same bytes again from the writer's
table as it stood. A reader refuses a slot the writer would not write,
naming the field, and never yields another set. Over TCP the tables are
the connection's: a reconnect starts both afresh, a second miss under an
apex is a few hundred bytes, and a slot that names the wrong set gets the
verdict that set's bytes would.
"""

import json
import socket
import struct
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KeyPool, ROOT, new_server
from test_set_codec import owners_lowered, signed_sets

from onhs import crypto, wire
from onhs.client import verify_resolution
from onhs.codec import SET_SLOTS, SLOTTED_TYPES, RecordAnswer, Resolution, canonical_json
from onhs.errors import RRsetFormatError
from onhs.handles import HandleLabel, parse_handle
from onhs.records import NxtData, ResourceRecord, SignedRRset
from onhs.server import make_claim, make_create_child
from onhs.service import HandleService, RemoteEndpoint, ServerConfig, TcpHandleServer


def over_json(data: dict) -> dict:
    """data as a peer reads it off the wire."""
    return json.loads(canonical_json(data))


# ---- tables kept in step ---------------------------------------------------

# sets as a reader gives them back (owner names in lower case), KEY and NXT
# sets drawn as often as all other types together
wire_sets = (signed_sets() | signed_sets().filter(lambda s: s.rtype in SLOTTED_TYPES)).map(
    owners_lowered
)
texts = st.text(max_size=8)


def answers_over(pool: list):
    """Resolutions and record answers whose sets are drawn from pool."""
    sets = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    return st.builds(
        Resolution, queried=texts, outcome=texts, address=st.none() | texts,
        evidence=sets, transfer_notices=sets, warnings=st.lists(texts, max_size=2).map(tuple),
    ) | st.builds(
        RecordAnswer, found=st.booleans(), rrset=st.none() | st.sampled_from(pool),
        status_records=sets, proof=sets,
    )


class TestTablesInStep:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_answer_reads_back_and_writes_the_same_bytes_again(self, data):
        pool = data.draw(st.lists(wire_sets, min_size=1, max_size=6))
        answers = data.draw(st.lists(answers_over(pool), min_size=1, max_size=6))
        writer, reader = {}, {}
        for answer in answers:
            before = dict(writer)
            written = canonical_json(answer.to_dict(writer))
            got = type(answer).from_dict(json.loads(written), reader)
            assert got == answer
            assert canonical_json(got.to_dict(before)) == written
        assert {rrset: slot for slot, rrset in reader.items()} == writer
        assert sorted(writer.values()) == list(range(len(writer)))

    def test_a_set_travels_in_full_once_then_by_its_slot(self):
        key, nxt, a = example_sets()
        writer = {}
        first = Resolution("q", "NOT_FOUND", None, (key, nxt, a, key), (), ()).to_dict(writer)
        items = first["evidence"]
        assert [item["slot"] for item in items[:2]] == [0, 1]
        assert "slot" not in items[2] and items[3] == 0
        again = Resolution("q", "NOT_FOUND", None, (nxt, a, key), (), ()).to_dict(writer)
        assert again["evidence"][0] == 1 and again["evidence"][2] == 0
        assert again["evidence"][1] == items[2]  # content sets always travel in full

    def test_without_a_table_every_set_travels_in_full_and_a_slot_is_refused(self):
        key, nxt, a = example_sets()
        plain = Resolution("q", "NOT_FOUND", None, (key, nxt, a), (), ()).to_dict()
        assert all(set(item) == {"octets", "signature"} for item in plain["evidence"])
        written = Resolution("q", "NOT_FOUND", None, (key, key), (), ()).to_dict({})
        with pytest.raises(ValueError, match="'evidence' item 0 has unknown field 'slot'"):
            Resolution.from_dict(over_json(written))
        written["evidence"][0].pop("slot")
        with pytest.raises(ValueError, match="'evidence' item 1 must be an object"):
            Resolution.from_dict(over_json(written))


def example_sets():
    """A KEY, an NXT and an A set, as a reader gives them back."""
    key = SignedRRset((ResourceRecord(
        "h1g5kab.example.org", 60, "KEY", struct.pack(">HBB", 256, 3, 5) + b"key"),))
    nxt = SignedRRset((ResourceRecord(
        "h0k1.h1g5kab.example.org", 60, "NXT", NxtData("h1g5kab.example.org", ("A",))),))
    a = SignedRRset((ResourceRecord("h0k1.h1g5kab.example.org", 60, "A", "10.0.0.1"),))
    return key, nxt, a


# ---- what a reader refuses -------------------------------------------------


def in_step():
    """A writer and a reader table holding the KEY set in slot 0 and the
    NXT set in slot 1, with the three example sets."""
    key, nxt, a = example_sets()
    writer, reader = {}, {}
    first = Resolution("q", "NOT_FOUND", None, (key, nxt), (), ()).to_dict(writer)
    Resolution.from_dict(over_json(first), reader)
    return writer, reader, (key, nxt, a)


def full_item(rrset: SignedRRset) -> dict:
    return Resolution("q", "", None, (rrset,), (), ()).to_dict()["evidence"][0]


FIELDS = [
    (Resolution, "evidence"),
    (Resolution, "transfer_notices"),
    (RecordAnswer, "rrset"),
    (RecordAnswer, "status_records"),
    (RecordAnswer, "proof"),
]


def answer_with(kind, field: str, item) -> dict:
    """A written answer of kind whose field holds item (as its one set)."""
    if kind is Resolution:
        data = Resolution("q", "NOT_FOUND", None, (), (), ()).to_dict()
    else:
        data = RecordAnswer(False, None, (), ()).to_dict()
    data[field] = item if field == "rrset" else [item]
    return data


def fresh_key() -> SignedRRset:
    return SignedRRset((ResourceRecord(
        "h1g5kcd.example.org", 60, "KEY", struct.pack(">HBB", 256, 3, 5) + b"other"),))


MUTATIONS = {
    "a slot on an A set": lambda sets: {**full_item(sets[2]), "slot": 2},
    "a slot past the last": lambda sets: {**full_item(fresh_key()), "slot": SET_SLOTS},
    "a negative slot": lambda sets: {**full_item(fresh_key()), "slot": -1},
    "a slot already filled": lambda sets: {**full_item(fresh_key()), "slot": 1},
    "a slot that is true": lambda sets: {**full_item(fresh_key()), "slot": True},
    "a slot that is 1.0": lambda sets: {**full_item(fresh_key()), "slot": 1.0},
    "a KEY set without its slot": lambda sets: full_item(fresh_key()),
    "an integer naming an empty slot": lambda sets: 2,
    "an integer past the last slot": lambda sets: SET_SLOTS,
    "true": lambda sets: True,
    "1.0": lambda sets: 1.0,
    "-1": lambda sets: -1,
}


class TestAlteredItems:
    @pytest.mark.parametrize("kind,field", FIELDS)
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_refused_naming_the_field(self, kind, field, mutation):
        writer, reader, sets = in_step()
        held = dict(reader)
        data = over_json(answer_with(kind, field, MUTATIONS[mutation](sets)))
        with pytest.raises((ValueError, RRsetFormatError)) as caught:
            kind.from_dict(data, reader)
        assert repr(field) in str(caught.value), str(caught.value)
        assert reader == held  # no slot was filled

    @pytest.mark.parametrize("kind,field", FIELDS)
    def test_the_unaltered_items_read(self, kind, field):
        writer, reader, (key, nxt, a) = in_step()
        for item, want in [(0, key), (1, nxt), (full_item(a), a), (
            {**full_item(fresh_key()), "slot": 2}, fresh_key()
        )]:
            got = kind.from_dict(over_json(answer_with(kind, field, item)), reader)
            sets = (got.rrset,) if field == "rrset" else getattr(got, field)
            assert sets == (want,)
        assert reader[2] == fresh_key()


# ---- over TCP ------------------------------------------------------------------

STRONG = KeyPool(bits=2048)  # the benchmark's key size, so frames have its sizes


@pytest.fixture()
def served(tmp_path):
    """(port, apex, secret): a served zone holding one apex and its child
    h0k5, signed with RSA-2048 keys."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    crypto.save_secret_key(data_dir / "server.key", STRONG.key(0)[1])
    service = HandleService(ServerConfig(root_zone=ROOT, data_dir=str(data_dir), listen_port=0))
    front = TcpHandleServer(service)
    port = front.start()
    _, secret = STRONG.key(1)
    claim = make_claim(secret, ROOT, 16, 1)
    apex = parse_handle(claim.target, ROOT)
    assert service.server.apply_update(claim).accepted
    assert service.server.apply_update(make_create_child(secret, apex.child(ia(5)), 2)).accepted
    yield port, apex, service
    front.stop()


def ia(n: int) -> HandleLabel:
    return HandleLabel.ia(n)


def sized(endpoint: RemoteEndpoint) -> list:
    """The sizes of the reply frames endpoint reads, in order."""
    sizes = []
    request = endpoint.request

    def recorded(msg):
        reply = request(msg)
        sizes.append(len(wire.encode_message(reply)))
        return reply

    endpoint.request = recorded
    return sizes


def verified_miss(endpoint: RemoteEndpoint, name) -> Resolution:
    got = endpoint.resolve(name)
    checked = verify_resolution(got, name, ROOT)
    assert checked.verified and checked.outcome == "NOT_FOUND", checked.failures
    return got


class TestOverTcp:
    def test_a_second_miss_under_an_apex_names_its_sets_by_slot(self, served):
        port, apex, _ = served
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            sizes = sized(endpoint)
            verified_miss(endpoint, apex.child(ia(7)))
            verified_miss(endpoint, apex.child(ia(8)))
        assert sizes[0] > 3000 and sizes[1] < 600, sizes

    def test_a_reconnect_starts_a_fresh_table(self, served):
        port, apex, _ = served
        endpoint = RemoteEndpoint("127.0.0.1", port)
        sizes = sized(endpoint)
        endpoint.connect()
        try:
            verified_miss(endpoint, apex.child(ia(7)))
            endpoint.close()
            endpoint.connect()
            assert endpoint._slots == {}
            verified_miss(endpoint, apex.child(ia(7)))
            verified_miss(endpoint, apex.child(ia(7)))
        finally:
            endpoint.close()
        assert sizes[0] == sizes[1] > 3000 and sizes[2] < 600, sizes

    def test_every_answer_is_the_one_the_server_gives(self, served):
        port, apex, service = served
        names = [apex, apex.child(ia(5)), apex.child(ia(6)), apex.child(ia(5)).child(ia(1))]
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            for name in names * 2:
                got = endpoint.resolve(name)
                assert got == Resolution.from_dict(service.server.resolve(name).to_dict())
                for rtype in ("KEY", "A", "NXT"):
                    answer = endpoint.query_record(name, rtype)
                    served_answer = service.server.query_record(name, rtype)
                    assert answer == RecordAnswer.from_dict(served_answer.to_dict())

    def test_a_reply_that_does_not_read_closes_the_connection(self, keypool):
        def replies(msg, writer):
            return {"resolution": {"evidence": [5]}}

        name = parse_handle(make_claim(keypool.key(0)[1], ROOT, 16, 1).target, ROOT)
        with stub_endpoint(replies, requests=2) as endpoint:
            with pytest.raises(ValueError):
                endpoint.resolve(name)
            assert endpoint._sock is None
            with pytest.raises(ValueError):  # a second request connects afresh
                endpoint.resolve(name)


class stub_endpoint:
    """A RemoteEndpoint connected to a stub server that answers each of
    requests requests with replies(request, writer table) as the body."""

    def __init__(self, replies, requests: int):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.replies, self.requests = replies, requests
        self.thread = threading.Thread(target=self.serve, daemon=True)

    def serve(self) -> None:
        while self.requests:  # the endpoint may connect again
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            writer = {}
            with conn, conn.makefile("rb") as stream:
                while self.requests and (msg := wire.read_message(stream)) is not None:
                    self.requests -= 1
                    body = self.replies(msg, writer)
                    reply = wire.WireMessage(wire.KIND_RESPONSE, msg.correlation_id, body)
                    conn.sendall(wire.encode_message(reply))

    def __enter__(self) -> RemoteEndpoint:
        self.thread.start()
        self.endpoint = RemoteEndpoint("127.0.0.1", self.listener.getsockname()[1], timeout=10)
        self.endpoint.connect()
        return self.endpoint

    def __exit__(self, *exc) -> None:
        self.endpoint.close()
        self.listener.close()
        self.thread.join(timeout=10)


def test_a_slot_naming_an_earlier_nxt_set_is_not_verified(keypool):
    """A stub server answers a second miss with the first miss's NXT set,
    named by its slot: the answer reads, and does not verify."""
    server = new_server()
    _, secret = keypool.key(0)
    claim = make_claim(secret, ROOT, 16, 1)
    apex = parse_handle(claim.target, ROOT)
    assert server.apply_update(claim).accepted
    for n in (3, 6):
        assert server.apply_update(make_create_child(secret, apex.child(ia(n)), n)).accepted
    first, second = apex.child(ia(4)), apex.child(ia(7))

    def covering(res: Resolution) -> SignedRRset:
        return next(s for s in res.evidence if s.rtype == "NXT")

    honest = server.resolve(first)
    later = server.resolve(second)
    earlier_nxt = covering(honest)
    assert earlier_nxt not in later.evidence
    forged = replace(later, evidence=tuple(
        earlier_nxt if s is covering(later) else s for s in later.evidence
    ))
    sent = []

    def replies(msg, writer):
        body = {"resolution": (forged if sent else honest).to_dict(writer)}
        sent.append(body)
        return body

    with stub_endpoint(replies, requests=2) as endpoint:
        assert verify_resolution(endpoint.resolve(first), first, ROOT).verified
        got = endpoint.resolve(second)
    assert all(type(item) is int for item in sent[1]["resolution"]["evidence"])
    assert owners_lowered(earlier_nxt) in got.evidence
    assert not verify_resolution(got, second, ROOT).verified
