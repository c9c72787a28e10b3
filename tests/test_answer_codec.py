"""The JSON forms of answers and verdicts, and what a set keeps for them.

Resolution, RecordAnswer and Verdict each have one writer (to_dict) and
one reader (from_dict). Read back, a written value writes the same
canonical bytes again; a value with a field added, retyped or dropped, or
with a set's string changed, is refused with an error naming the field,
or reads as a value that writes back exactly the altered input. A reader
takes a nullable field it lacks as null, so such an input writes back
with that field null. These hold the set strings the reader keeps and the
field paths it builds only for an error to one account.

A SignedRRset derives its owner, type, name key, NXT span and hash
once; built any way, it holds what a fresh derivation gives, and none of
them reaches equality, hashing or repr.
"""

import base64
import hashlib
import json
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT, new_server
from test_set_codec import octets_of, sig_of, signed_sets

from onhs.codec import RecordAnswer, Resolution, Verdict, canonical_json, decode_log_line
from onhs.errors import OnhsError
from onhs.handles import HandleLabel, name_key, parse_handle
from onhs.records import (
    NxtData,
    ResourceRecord,
    SignedRRset,
    canonical_sort_key,
    parse_rrset,
)
from onhs.wire import KIND_RESPONSE, WireMessage, encode_message

# ---- drawing answers -------------------------------------------------------

texts = st.text(max_size=12)
maybe_texts = st.none() | texts
set_lists = st.lists(signed_sets(), max_size=3).map(tuple)

resolutions = st.builds(
    Resolution, queried=texts, outcome=texts, address=maybe_texts, evidence=set_lists,
    transfer_notices=set_lists, warnings=st.lists(texts, max_size=2).map(tuple),
)
answers = st.builds(
    RecordAnswer, found=st.booleans(), rrset=st.none() | signed_sets(),
    status_records=set_lists, proof=set_lists,
)
verdicts = st.builds(Verdict, accepted=st.booleans(), reason=maybe_texts, detail=maybe_texts)
CODECS = {Resolution: resolutions, RecordAnswer: answers, Verdict: verdicts}

# the fields a reader takes as null when they are absent
NULLABLE = {"address", "rrset", "reason", "detail", "signature"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | texts,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)


def over_json(data: dict) -> dict:
    """data as a peer reads it off the wire."""
    return json.loads(canonical_json(data))


def read(kind, data: dict):
    return kind.from_dict(over_json(data))


class TestWrittenValuesReadBack:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(list(CODECS)))
    def test_a_written_value_writes_the_same_bytes_again(self, data, kind):
        written = data.draw(CODECS[kind]).to_dict()
        assert canonical_json(read(kind, written).to_dict()) == canonical_json(written)


def set_items(written: dict) -> list:
    """(field, index or None) of each set item a written answer holds."""
    out = []
    for name, value in written.items():
        if isinstance(value, list):
            out += [(name, i) for i, item in enumerate(value) if isinstance(item, dict)]
        elif isinstance(value, dict):
            out.append((name, None))
    return out


def base64_strings():
    """Strings for a set's octets or signature: text, base64 of any octets,
    and the base64 of another set's octets, which reads as that set."""
    return (
        texts
        | st.binary(max_size=30).map(lambda b: base64.b64encode(b).decode())
        | signed_sets().map(lambda s: base64.b64encode(octets_of(s)).decode())
    )


@st.composite
def altered(draw, kind):
    """A written value of kind with one change, and the top-level field the
    change sits in."""
    written = over_json(draw(CODECS[kind]).to_dict())
    items = set_items(written)
    how = draw(st.sampled_from(["add", "retype", "drop"] + (["string"] if items else [])))
    holder, field = written, None
    if items and how != "string" and draw(st.booleans()):
        field, i = draw(st.sampled_from(items))
        holder = written[field] if i is None else written[field][i]
    elif how == "string":
        field, i = draw(st.sampled_from(items))
        holder = written[field] if i is None else written[field][i]
        name = draw(st.sampled_from(["octets", "signature"]))
        holder[name] = draw(base64_strings() | st.none())
        return written, field
    if how == "add":
        name = draw(texts.filter(lambda k: k not in holder))
        holder[name] = draw(json_values)
    elif how == "retype":
        name = draw(st.sampled_from(sorted(holder)))
        was = type(holder[name])
        holder[name] = draw(json_values.filter(lambda v: type(v) is not was))
    else:
        name = draw(st.sampled_from(sorted(holder)))
        del holder[name]
    return written, name if field is None else field


def with_nulls(data, like):
    """data with each nullable field that like holds and data lacks put in as null."""
    if isinstance(data, dict) and isinstance(like, dict):
        out = {k: with_nulls(v, like.get(k)) for k, v in data.items()}
        for name in NULLABLE & like.keys() - data.keys():
            out[name] = None
        return out
    if isinstance(data, list) and isinstance(like, list) and len(data) == len(like):
        return [with_nulls(a, b) for a, b in zip(data, like)]
    return data


class TestAlteredValues:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(list(CODECS)))
    def test_refused_naming_the_field_or_read_as_written(self, data, kind):
        mutated, field = data.draw(altered(kind))
        try:
            got = kind.from_dict(over_json(mutated))
        except (ValueError, OnhsError) as exc:
            assert repr(field) in str(exc), (field, str(exc))
            return
        written = got.to_dict()
        assert written == with_nulls(over_json(mutated), written)

    def test_a_base64_string_with_stray_bits_is_refused(self):
        rrset = next(
            s for s in (
                SignedRRset((ResourceRecord("h0k1.example.org", 60, "A", f"10.0.0.{i}"),))
                for i in range(10, 20)
            ) if base64.b64encode(octets_of(s)).decode().endswith("=")
        )
        octets = base64.b64encode(octets_of(rrset)).decode()
        # the last character before the padding: its lowest bit is past the octets
        last = len(octets.rstrip("=")) - 1
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        flipped = alphabet[alphabet.index(octets[last]) ^ 1]
        stray = octets[:last] + flipped + octets[last + 1:]
        assert base64.b64decode(stray) == base64.b64decode(octets)
        answer = Resolution("q", "NOT_FOUND", None, (rrset,), (), ()).to_dict()
        answer["evidence"][0]["octets"] = stray
        with pytest.raises(ValueError, match="'evidence' item 0 field 'octets' is not base64"):
            Resolution.from_dict(answer)


# ---- what a set derives once -----------------------------------------------


def fresh_derivation(rrset: SignedRRset) -> dict:
    first = rrset.records[0]
    key = name_key(first.owner)
    return {
        "owner": first.owner,
        "rtype": first.rtype,
        "owner_key": key,
        "span": (canonical_sort_key(key), canonical_sort_key(first.rdata.next_owner))
        if first.rtype == "NXT" else None,
        "hash": hash((rrset.records, rrset.signature)),
    }


def derived(rrset: SignedRRset) -> dict:
    return {
        "owner": rrset.owner, "rtype": rrset.rtype, "owner_key": rrset.owner_key,
        "span": rrset.span, "hash": hash(rrset),
    }


class TestDerivedValues:
    @settings(max_examples=60, deadline=None)
    @given(rrset=signed_sets(), other=signed_sets())
    def test_a_set_made_any_way_holds_a_fresh_derivation(self, rrset, other):
        made = [
            rrset,
            parse_rrset(octets_of(rrset), sig_of(rrset)),
            SignedRRset(rrset.records, rrset.signature).encoded(),
        ]
        for each in made:
            assert derived(each) == fresh_derivation(each)
        # replace derives afresh: nothing of the old set's is carried over
        old = SignedRRset(rrset.records, rrset.signature).encoded()
        hash(old)
        new = replace(old, records=other.records, signature=other.signature)
        assert new.canonical is None and new.hashed is None
        assert derived(new) == fresh_derivation(new)

    @settings(max_examples=40, deadline=None)
    @given(rrset=signed_sets())
    def test_derived_values_stay_out_of_equality_hashing_and_repr(self, rrset):
        plain = SignedRRset(rrset.records, rrset.signature)
        held = SignedRRset(rrset.records, rrset.signature).encoded()
        hash(held)
        assert held.canonical is not None and held.hashed is not None and plain.hashed is None
        assert plain == held and hash(plain) == hash(held) and repr(plain) == repr(held)
        for name in ("owner_key", "span", "canonical", "hashed"):
            assert f"{name}=" not in repr(held)

    def test_an_nxt_span_is_its_owner_and_next_owner(self):
        rec = ResourceRecord("H0K2.Example.ORG", 60, "NXT", NxtData("h0k7.Example.org.", ("A",)))
        rrset = SignedRRset((rec,))
        assert rrset.span == ((b"org", b"example", b"h0k2"), (b"org", b"example", b"h0k7"))
        assert rrset.owner_key == "h0k2.example.org"
        assert SignedRRset((ResourceRecord("a.org", 60, "TXT", "x"),)).span is None

    def test_a_set_works_out_its_hash_once(self, monkeypatch):
        rrset = SignedRRset((ResourceRecord("h0k1.example.org", 60, "A", "10.0.0.1"),))
        assert rrset.hashed is None
        made = hash(rrset)
        assert rrset.hashed == made == hash((rrset.records, rrset.signature))

        def unhashable(record):
            raise AssertionError("a record was hashed again")

        monkeypatch.setattr(ResourceRecord, "__hash__", unhashable)
        assert hash(rrset) == made and {rrset: 1}[rrset] == 1
        monkeypatch.undo()
        assert hash(SignedRRset(rrset.records)) == made  # an equal set hashes equal

    def test_each_answer_gets_items_of_its_own(self):
        rrset = SignedRRset((ResourceRecord("h0k1.example.org", 60, "A", "10.0.0.1"),))
        answer = Resolution("q", "NOT_FOUND", None, (rrset,), (), ()).to_dict()
        again = Resolution("q", "NOT_FOUND", None, (rrset,), (), ()).to_dict()
        assert again == answer and again["evidence"][0] is not answer["evidence"][0]


# ---- the same bytes as before ----------------------------------------------

FIXTURE = Path(__file__).parent / "data" / "parent-updates.log"

# sha256 over the response frames below, recorded with the program as it
# stood before sets kept their derived values and frames were coded on the
# C JSON layer
ANSWER_FRAMES_SHA256 = "ee3d4ddc6c17b519beff12179a5e9fe8174e9e8d28f95173146c876926acc9de"


def fixture_answer_frames() -> list:
    """Response frames of every resolve and record query of the fixture's
    targets whose answer holds no set the server signs (its key is drawn
    anew for each run), and of every verdict of its replay."""
    server = new_server()
    frames, targets = [], []
    for line in FIXTURE.read_bytes().splitlines(keepends=True):
        msg, _, stamp = decode_log_line(line)
        verdict = server.apply_update(msg, now=stamp)
        frames.append(encode_message(WireMessage(KIND_RESPONSE, "v", {"verdict": verdict.to_dict()})))
        if msg.target not in targets:
            targets.append(msg.target)
    now = "20260816120000"
    for target in targets:
        try:
            handle = parse_handle(target, ROOT)
        except OnhsError:
            continue
        res = server.resolve(handle, now=now)
        if res.outcome != "NOT_FOUND":
            body = {"resolution": res.to_dict()}
            frames.append(encode_message(WireMessage(KIND_RESPONSE, target, body)))
        for rtype in ("KEY", "A", "TXT", "DNAME"):
            answer = server.query_record(handle, rtype, now=now)
            if not answer.proof:
                body = {"answer": answer.to_dict()}
                frames.append(encode_message(WireMessage(KIND_RESPONSE, rtype, body)))
    return frames


def test_answer_frames_are_the_bytes_the_earlier_program_wrote():
    frames = fixture_answer_frames()
    assert len(frames) == 47
    digest = hashlib.sha256(b"".join(frames)).hexdigest()
    assert digest == ANSWER_FRAMES_SHA256


def test_every_answer_frame_is_the_sorted_compact_json_of_its_sets():
    """Misses too: each set as the base64 of canonical_rrset_bytes, in a
    frame json.dumps writes. Each name is resolved, and a child it lacks,
    after each update of the fixture."""
    server = new_server()
    outcomes = set()
    for line in FIXTURE.read_bytes().splitlines(keepends=True):
        msg, _, stamp = decode_log_line(line)
        server.apply_update(msg, now=stamp)
        try:
            handle = parse_handle(msg.target, ROOT)
        except OnhsError:
            continue
        for name in (handle, handle.child(HandleLabel.ia(999))):
            res = server.resolve(name, now=stamp)
            outcomes.add(res.outcome)
            assert frame_of(res) == dumped_frame_of(res)
    assert {"NOT_FOUND", "ADDRESS", "CANCELLED"} <= outcomes


def frame_of(res: Resolution) -> bytes:
    return encode_message(WireMessage(KIND_RESPONSE, "c", {"resolution": res.to_dict()}))


def dumped_frame_of(res: Resolution) -> bytes:
    sets = [
        {
            "octets": base64.b64encode(octets_of(s)).decode(),
            "signature": None if s.signature is None
            else base64.b64encode(s.signature.signature_bytes).decode(),
        }
        for s in res.evidence
    ]
    payload = json.dumps({
        "kind": KIND_RESPONSE, "correlation_id": "c", "body": {"resolution": {
            "queried": res.queried, "outcome": res.outcome, "address": res.address,
            "evidence": sets,
            "transfer_notices": [sets[res.evidence.index(n)] for n in res.transfer_notices],
            "warnings": list(res.warnings),
        }},
    }, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack(">I", len(payload)) + payload


# ---- canonical_json is json.dumps --------------------------------------------

drawn_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(data=st.dictionaries(st.text(), drawn_json, max_size=4))
def test_canonical_json_is_sorted_compact_json_dumps_on_drawn_values(data):
    assert canonical_json(data) == json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def test_canonical_json_writes_escapes_and_non_finite_floats_as_json_dumps():
    data = {"é \"\\\x00": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
            "z": {"😀": "\U0001f600", "": [[[]]]}}
    assert canonical_json(data) == json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
