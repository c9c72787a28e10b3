"""The update and updates.log line forms, pinned by a log from an earlier
version of the program, and the line form's two properties: a written
line reads back as what was written, and a line with one change is
refused with an error naming the part at fault, or reads as a value
that writes back exactly the changed line.

data/parent-updates.log was written, update by update, by the server and
make_* builders as they stood before the seven update actions shared one
copy of their record rules (server._action_records). It uses RSA-1024
keys, and every line arrived at 20260816120000 except one logged later to
earn expired-signature. Its 30 lines hold all seven actions, and rejections
for wrong-authority, handle-cancelled, handle-transferred,
key-label-mismatch, bad-signature, expired-signature and six malformed
payloads.
"""

import base64
import copy
import hashlib
import json
from pathlib import Path

import pytest
from conftest import FIXED_NOW, ROOT, new_server
from hypothesis import given, settings, strategies as st

from onhs import server as srv
from onhs.codec import UpdateMessage, Verdict, canonical_json, decode_log_line, encode_log_line
from onhs.crypto import RecordSignature, SignatureParams
from onhs.errors import LogFormatError, OnhsError
from onhs.service import UpdateLog
from onhs.handles import parse_handle
from onhs.server import ACTIONS, COMPROMISE, _make_update, make_claim

FIXTURE = Path(__file__).parent / "data" / "parent-updates.log"


def test_a_log_from_an_earlier_version_replays_line_for_line():
    server = new_server()
    actions, tags = set(), set()
    for number, line in enumerate(FIXTURE.read_bytes().splitlines(keepends=True), 1):
        msg, logged, stamp = decode_log_line(line)
        verdict = server.apply_update(msg, now=stamp)
        assert verdict.tag() == logged.tag(), (number, verdict)
        assert (encode_log_line(msg, verdict, stamp) + "\n").encode() == line, number
        actions.add(msg.action)
        tags.add(verdict.tag())
    assert set(ACTIONS) <= actions
    assert {
        "accepted",
        "rejected:wrong-authority",
        "rejected:handle-cancelled",
        "rejected:malformed",
    } <= tags


# sha256 of the dump_state the fixture replays to, recorded before derived
# handles, apex keys and stamps were each built once on the update path
FIXTURE_STATE_SHA256 = "4a2669f1df755c7dbdcaea929a11f3c7641c6ce3b83dfa338a0bf99f63102c3d"


def test_the_log_replays_to_the_state_it_recorded():
    server = new_server()
    for line in FIXTURE.read_bytes().splitlines(keepends=True):
        msg, _, stamp = decode_log_line(line)
        server.apply_update(msg, now=stamp)
    assert hashlib.sha256(server.dump_state().encode()).hexdigest() == FIXTURE_STATE_SHA256


def _rewritten(line: bytes, rewrite) -> bytes:
    """line with its update JSON passed through rewrite."""
    blob, tag, stamp = line.split(b" ")
    update = rewrite(json.loads(base64.b64decode(blob)))
    return b" ".join([base64.b64encode(update.encode()), tag, stamp])


@pytest.mark.parametrize(
    "rewrite",
    [
        # spaces and an extra top-level field: 958 bytes of JSON that read
        # as the same update as the line's 903, which it once replayed as
        lambda data: json.dumps({**data, "extra": "x" * 10}, sort_keys=True),
        lambda data: json.dumps(data, sort_keys=True),  # spaces only
        lambda data: json.dumps({**data, "extra": 1}, sort_keys=True, separators=(",", ":")),
        # keys out of order
        lambda data: json.dumps(dict(reversed(data.items())), separators=(",", ":")),
    ],
)
def test_a_line_whose_update_is_not_canonical_json_is_refused(rewrite):
    line = FIXTURE.read_bytes().splitlines(keepends=True)[0]
    msg, _, _ = decode_log_line(line)
    altered = _rewritten(line, rewrite)
    assert altered != line
    assert UpdateMessage.from_dict(json.loads(base64.b64decode(altered.split()[0]))) == msg
    with pytest.raises(ValueError, match="not the canonical JSON"):
        decode_log_line(altered)
    assert _rewritten(line, lambda data: canonical_json(data).decode()) == line


def test_a_replayed_log_with_a_non_canonical_line_names_it(tmp_path):
    lines = FIXTURE.read_bytes().splitlines(keepends=True)[:3]
    lines[1] = _rewritten(lines[1], lambda data: json.dumps(data, sort_keys=True)) + b"\n"
    log = UpdateLog(tmp_path / "updates.log")
    log.path.write_bytes(b"".join(lines))
    with pytest.raises(LogFormatError, match="line 2: update is not the canonical JSON"):
        log.replay_into(new_server())


def test_a_replayed_log_with_a_blank_line_names_it(tmp_path):
    lines = FIXTURE.read_bytes().splitlines(keepends=True)
    log = UpdateLog(tmp_path / "updates.log")
    log.path.write_bytes(b"".join(lines[:1] + [b" \t\n", b"\n"] + lines[1:]))
    with pytest.raises(LogFormatError, match="line 2: update is not JSON"):
        log.replay_into(new_server())
    log.path.write_bytes(b"".join(lines[:1] + [b"\n"] + lines[1:]))
    with pytest.raises(LogFormatError, match="line 2: update is not JSON"):
        log.replay_into(new_server())


@pytest.mark.parametrize(
    "change",
    [
        lambda line: b"\x1c" + line,  # a separator str.strip() took for a space
        lambda line: b" " + line,
        lambda line: line[:-1] + b" \n",
        lambda line: line[:-1] + b"\r\n",
        lambda line: line + b"\n",
    ],
)
def test_a_line_with_space_the_writer_never_writes_is_refused(change):
    line = FIXTURE.read_bytes().splitlines(keepends=True)[0]
    decode_log_line(line)
    with pytest.raises((ValueError, OnhsError)):
        decode_log_line(change(line))


def test_an_update_whose_base64_carries_stray_bits_is_refused():
    line = next(
        line for line in FIXTURE.read_bytes().splitlines(keepends=True)
        if line.split(b" ")[0].endswith(b"=")
    )
    blob, rest = line.split(b" ", 1)
    last = len(blob.rstrip(b"=")) - 1
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    stray = blob[:last] + bytes([alphabet[alphabet.index(blob[last]) ^ 1]]) + blob[last + 1:]
    assert base64.b64decode(stray) == base64.b64decode(blob)
    with pytest.raises(ValueError, match="update is not base64: a character carries stray bits"):
        decode_log_line(stray + b" " + rest)


def test_canonical_json_is_the_sorted_compact_json_dumps():
    for data in (
        {"b": 1, "a": [1, 2.5, None, True], "c": {"z": "\u00e9\n", "y": ""}},
        {},
        {"kind": "RESPONSE", "correlation_id": "1", "body": {"x": -(10 ** 30)}},
    ):
        assert canonical_json(data) == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ).encode()


def test_verdicts_travel_as_three_fields():
    verdict = Verdict.rejected("malformed", "bad ttl")
    assert verdict.to_dict() == {"accepted": False, "reason": "malformed", "detail": "bad ttl"}
    assert Verdict.from_dict(verdict.to_dict()) == verdict
    assert Verdict.ok().to_dict() == {"accepted": True, "reason": None, "detail": None}
    assert Verdict.from_dict({"accepted": True}) == Verdict.ok()


def test_an_update_shares_no_payload_dict(keypool):
    secret = keypool.key(0)[1]
    claim = make_claim(secret, ROOT, 16, 1, now=FIXED_NOW)
    kept = dict(claim.payload)
    claim.to_dict()["payload"]["ttl"] = None
    assert claim.payload == kept
    handed = {"note": "2026-08-01", "ttl": 60}
    msg = _make_update(
        secret, parse_handle(claim.target, ROOT), COMPROMISE, handed, 2, FIXED_NOW, 60
    )
    assert handed == {"note": "2026-08-01", "ttl": 60}
    kept = copy.deepcopy(msg.payload)
    msg.to_dict()["payload"]["cancel_signature"]["signer"] = "elsewhere.example"
    assert msg.payload == kept


# ---- the line form's properties ------------------------------------------------

FIXTURE_UPDATES = [decode_log_line(line)[0] for line in FIXTURE.read_bytes().splitlines()]
REASONS = sorted({getattr(srv, name) for name in dir(srv) if name.startswith("R_")})

texts = st.text(max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)
stamps = st.integers(0, 10 ** 14 - 1).map(lambda n: f"{n:014d}")


@st.composite
def signatures(draw) -> RecordSignature:
    inception, expiration = sorted(draw(st.lists(stamps, min_size=2, max_size=2, unique=True)))
    params = SignatureParams(
        algorithm=draw(st.integers()), label_count=draw(st.integers(min_value=1)),
        original_ttl=draw(st.integers(min_value=0)), expiration=expiration,
        inception=inception, signer=draw(texts),
    )
    return RecordSignature(params, draw(st.binary(max_size=40)))


updates = st.sampled_from(FIXTURE_UPDATES) | st.builds(
    UpdateMessage, target=texts, action=st.sampled_from(ACTIONS) | texts,
    payload=st.dictionaries(texts, json_values, max_size=3), serial=st.integers(),
    signer_key=st.sampled_from([msg.signer_key for msg in FIXTURE_UPDATES]),
    signature=signatures(),
)
verdicts = st.builds(
    Verdict, accepted=st.booleans(), reason=st.sampled_from(REASONS) | texts,
    detail=st.none() | texts,
)


class TestWrittenLinesReadBack:
    @settings(max_examples=60, deadline=None)
    @given(msg=updates, verdict=verdicts, stamp=stamps)
    def test_a_written_line_reads_back_and_writes_the_same_bytes(self, msg, verdict, stamp):
        line = encode_log_line(msg, verdict, stamp)
        for raw in ((line + "\n").encode(), line.encode()):  # as logged, and as written
            got, logged, arrived = decode_log_line(raw)
            assert (got, logged.tag(), arrived) == (msg, verdict.tag(), stamp)
            assert encode_log_line(got, logged, arrived) == line


# what the errors of decode_log_line name: the part of the line at fault
LINE_PARTS = ("update", "verdict tag", "timestamp", "log line")


@st.composite
def altered_lines(draw) -> bytes:
    """A written line, without its newline, with one change: a byte
    changed, put in or taken out, or a field of its update added, retyped
    or dropped."""
    msg, verdict, stamp = draw(updates), draw(verdicts), draw(stamps)
    line = encode_log_line(msg, verdict, stamp).encode()
    how = draw(st.sampled_from(["change", "insert", "delete", "add", "retype", "drop"]))
    if how in ("change", "insert", "delete"):
        i = draw(st.integers(0, len(line) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        if how == "change":
            return line[:i] + byte + line[i + 1:]
        return line[:i] + byte + line[i:] if how == "insert" else line[:i] + line[i + 1:]
    data = json.loads(canonical_json(msg.to_dict()))
    holder = draw(st.sampled_from([data, data["payload"], data["signer_key"], data["signature"]]))
    if how == "add":
        holder[draw(texts.filter(lambda k: k not in holder))] = draw(json_values)
    elif holder:
        name = draw(st.sampled_from(sorted(holder)))
        if how == "retype":
            was = type(holder[name])
            holder[name] = draw(json_values.filter(lambda v: type(v) is not was))
        else:
            del holder[name]
    _, rest = line.split(b" ", 1)
    return base64.b64encode(canonical_json(data)) + b" " + rest


class TestAlteredLines:
    @settings(max_examples=300, deadline=None)
    @given(line=altered_lines())
    def test_refused_naming_the_part_or_read_as_written(self, line):
        try:
            msg, verdict, stamp = decode_log_line(line + b"\n")
        except (ValueError, OnhsError) as exc:
            assert any(part in str(exc) for part in LINE_PARTS), str(exc)
            return
        assert encode_log_line(msg, verdict, stamp).encode() == line
