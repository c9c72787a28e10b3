"""The update and updates.log line forms, pinned by a log from an earlier
version of the program.

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

from onhs.codec import UpdateMessage, Verdict, canonical_json, decode_log_line, encode_log_line
from onhs.errors import LogFormatError
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
