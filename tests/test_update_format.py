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

import copy
import hashlib
from pathlib import Path

from conftest import FIXED_NOW, ROOT, new_server

from onhs.codec import Verdict, decode_log_line, encode_log_line
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
