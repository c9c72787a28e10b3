"""The server and the verifier run one walk, so they must agree.

For every stored name, an absent child of each and an unclaimed apex,
either HandleServer.resolve raises DelegationLoopError or
DepthExceededError, or verify_resolution re-derives the served outcome and
address from the served evidence alone. Stores: the worked examples, the
denial corpus, and update sequences drawn by hypothesis.

Names stored under an apex nobody has claimed are left out. The server
answers from updates that outran their claim, but it has no key to serve
with them, so no client can verify those answers; that is an open defect.
The drawn sequences therefore claim every apex at the end, and the
corpus's unclaimed zone is skipped.

Each answer is also verified with the verifier's caches emptied and
again with them warm: at the stamp the answer was made, a month later
(when only the sets signed for ten years still hold) and eleven years
later (when those have expired too). The caches must change no verdict,
failure or warning. So must the wire: each answer also goes through
Resolution.to_dict, JSON and Resolution.from_dict, and the copy that
arrives, whose owner names are in lower case, must verify to the same
verdicts, failures and warnings as the answer as served.

Every verified answer must also stop verifying once one of its signed
sets, other than a denial record or a KEY set, is re-signed by another
owner's key, even with that owner's KEY set added to the evidence.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import FIXED_NOW, ROOT, build_example_zones, new_server
from oracles import merge_law_violations
from test_denial import corpus, probes  # noqa: F401  (corpus is a fixture)

from onhs import crypto, server as srv
from onhs.client import verified_signatures, verify_resolution
from onhs.codec import Resolution, received_sets
from onhs.errors import DelegationLoopError, DepthExceededError
from onhs.handles import Handle, HandleLabel, parse_handle
from onhs.records import ResourceRecord, SignedRRset

IA = HandleLabel.ia
NOW = FIXED_NOW
LATER = ("20260916120000", "20370816120000")
PATHS = ((), (IA(1),), (IA(2),), (IA(1), IA(1)), (IA(2), IA(1)))
OPS = ("claim", "create", "assign", "delegate", "cancel", "transfer", "compromise")


def apex_of(keypool, index: int) -> Handle:
    label = crypto.derive_pk_label(keypool.key(index)[0], 16)
    return Handle(labels=(label,), root_suffix=ROOT)


def stored_and_absent(server, unclaimed: Handle) -> list:
    """Every stored name, one absent child of each, and an unclaimed apex."""
    stored = [parse_handle(key, ROOT) for key in server._entries]
    return stored + [h.child(HandleLabel.oa(9)) for h in stored] + [unclaimed]


def assert_agree(server, handles, keypool) -> int:
    """Check every handle; return how many answers were verified."""
    verified = 0
    for handle in handles:
        try:
            got = server.resolve(handle, now=NOW)
        except (DelegationLoopError, DepthExceededError):
            continue
        checked = verify_cold_and_warm(got, handle, NOW)
        assert checked.verified, (str(handle), got.outcome, got.address, checked.failures)
        forged = resigned_by_another_owner(got, keypool)
        if forged is not None:
            assert not verify_resolution(forged, handle, ROOT, now=NOW).verified, str(handle)
        for later in LATER:
            verify_cold_and_warm(got, handle, later)
        verified += 1
    return verified


def resigned_by_another_owner(got, keypool):
    """got with its first set that is neither a denial record nor a KEY set
    (which its label, not its signature, vouches for) re-signed by pool
    key 4, which owns no name here, and that key's KEY set added to the
    evidence; None when got has no such set."""
    public, secret = keypool.key(4)
    apex = apex_of(keypool, 4).fqdn_no_dot()
    key_set = SignedRRset((ResourceRecord(apex, 3600, "KEY", public.key_bytes),))
    for i, rrset in enumerate(got.evidence):
        if rrset.rtype not in ("NXT", "KEY"):
            params = replace(rrset.signature.params, signer=apex)
            forged = SignedRRset(rrset.records, crypto.sign_rrset(rrset.records, secret, params))
            evidence = (key_set,) + got.evidence[:i] + (forged,) + got.evidence[i + 1:]
            return replace(got, evidence=evidence)
    return None


def verify_cold_and_warm(got, handle, now):
    """verify_resolution with the caches emptied, then warm; both runs, and
    both runs again on the answer as it arrives over the wire, must return
    the same VerifiedResolution, but for the resolution it carries."""
    served = verify_cold_and_warm_as(got, handle, now)
    received_sets.cache_clear()
    wired = Resolution.from_dict(json.loads(json.dumps(got.to_dict())))
    assert wired.to_dict() == got.to_dict()
    assert replace(verify_cold_and_warm_as(wired, handle, now), resolution=got) == served
    return served


def verify_cold_and_warm_as(got, handle, now):
    verified_signatures.cache_clear()
    cold = verify_resolution(got, handle, ROOT, now=now)
    verify_resolution(got, handle, ROOT, now=NOW)  # caches every RSA check
    warm = verify_resolution(got, handle, ROOT, now=now)
    assert warm == cold, (str(handle), now, cold.failures, warm.failures)
    return cold


def test_example_zones(keypool):
    zones = build_example_zones(keypool)
    handles = stored_and_absent(zones.server, apex_of(keypool, 3))
    assert assert_agree(zones.server, handles, keypool) == len(handles)


def test_denial_corpus(corpus, keypool):  # noqa: F811
    server = corpus.server()
    handles = [h for h in probes(server, corpus) if h.apex() != corpus.unclaimed]
    assert assert_agree(server, handles, keypool) == len(handles)


step = st.tuples(
    st.sampled_from(OPS),
    st.integers(0, 2), st.sampled_from(PATHS),  # owner key, name under its apex
    st.integers(0, 2), st.sampled_from(PATHS),  # destination apex and name
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=14))
def test_drawn_update_sequences(keypool, steps):
    apexes = [apex_of(keypool, i) for i in range(3)]
    server = new_server()
    for serial, (op, owner, path, dest_owner, dest_path) in enumerate(steps, start=1):
        secret = keypool.key(owner)[1]
        target = Handle(apexes[owner].labels + path, ROOT)
        dest = Handle(apexes[dest_owner].labels + dest_path, ROOT)
        at = {"now": NOW}
        msg = {
            "claim": lambda: srv.make_claim(secret, ROOT, 16, serial, **at),
            "create": lambda: srv.make_create_child(secret, target, serial, **at),
            "assign": lambda: srv.make_assign(secret, target, f"10.0.0.{serial}", serial, **at),
            "delegate": lambda: srv.make_delegate(secret, target, dest, serial, **at),
            "cancel": lambda: srv.make_cancel(secret, target, serial, **at),
            "transfer": lambda: srv.make_transfer(secret, target, dest, serial, **at),
            "compromise": lambda: srv.make_compromise(secret, target, "2026-08-01", serial, **at),
        }[op]()
        server.apply_update(msg, now=NOW)
        assert merge_law_violations(server.dump_state()) == [], (op, str(target))
    for i in range(3):  # last, so updates often outrun their claim
        server.apply_update(srv.make_claim(keypool.key(i)[1], ROOT, 16, 1, now=NOW), now=NOW)
    assert_agree(server, stored_and_absent(server, apex_of(keypool, 3)), keypool)
