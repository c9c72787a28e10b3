"""Verifying resolver client.

The client never trusts a resolution outcome as served. verify_resolution
checks each evidence set by the server's own rule: an apex key counts
only from a KEY set at an apex whose label its hash matches
(server.apex_key), and any other set only under the key of its owner's
apex with that apex named as signer (server.signed_set_verdict), a stale
one only when records.is_sticky calls it sticky. It then runs
server.walk, which holds the resolution rules, over the sets that
counted, each with the sticky flag decided in that one check. A served
answer whose evidence does not reproduce the same outcome and address is
reported unverified. The warnings are the verifier's own, never the
served ones: server.stale_warnings of that walk, and for a denial the
note that NXT sets count only under the served root key with the root as
signer; that key only authenticates the root server itself, and the
weaker trust is surfaced as a warning, not hidden.
"""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from . import crypto, server as srv
from .codec import RecordAnswer, Resolution, UpdateMessage, Verdict, canonical_json
from .crypto import PublicKey, SecretKey, now_stamp
from .errors import (
    DelegationLoopError,
    DepthExceededError,
    OnhsError,
    ResolutionError,
    VerificationError,
)
from .handles import CACHE_CAP, Handle, parse_handle
from .records import SignedRRset, is_sticky, key_sort_key, name_key
from .server import DEFAULT_DEPTH_BUDGET, OUTCOME_ADDRESS, OUTCOME_NOT_FOUND, V_OK, V_STALE


class ResolverEndpoint(Protocol):
    """What the client needs from a server, local or remote."""

    def resolve(self, handle: Handle, depth_budget: Optional[int] = None,
                now: Optional[str] = None) -> Resolution: ...

    def query_record(self, handle: Handle, rtype: str,
                     now: Optional[str] = None) -> RecordAnswer: ...

    def apply_update(self, msg: UpdateMessage, now: Optional[str] = None) -> Verdict: ...


# ---- verification ----------------------------------------------------------


# The RSA checks made in this process, for reuse by every
# verify_resolution in it. crypto.rsa_check's answer is a pure function of
# the key, the canonical set octets and the signature octets, so a kept
# answer, a failure as well as a success, is the one it would give again.
# The octets include the signature's validity window, and verify_rrset still
# tests that window against now, with every other rule, on each use: only
# the RSA step is skipped. The server's own checks of incoming updates
# (apply_update, replay) never use it: each update is a new message, so it
# would only fill.
verified_signatures = functools.lru_cache(maxsize=CACHE_CAP)(crypto.rsa_check)


@dataclass(frozen=True)
class VerifiedResolution:
    resolution: Resolution
    verified: bool
    record_verdicts: Tuple[Tuple[str, str, str], ...]  # (owner, rtype, verdict)
    failures: Tuple[str, ...]
    warnings: Tuple[str, ...]

    @property
    def outcome(self) -> str:
        return self.resolution.outcome

    @property
    def address(self) -> Optional[str]:
        return self.resolution.address


def verify_resolution(
    resolution: Resolution,
    queried: Handle,
    root_zone: str,
    *,
    pinned_key: Optional[PublicKey] = None,
    now: Optional[str] = None,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
) -> VerifiedResolution:
    """Check a served resolution bottom-up from its evidence."""
    stamp = now or now_stamp()
    root = name_key(root_zone)
    failures: List[str] = []
    warnings: List[str] = []
    verdicts: List[Tuple[str, str, str]] = []

    # One pass over the evidence. A KEY set counts when apex_key binds its
    # owner's first one; keys are bound on first use, since the root's
    # follows the denial records it signs. Any other set counts when
    # signed_set_verdict accepts it, a stale one only if records.is_sticky
    # calls it sticky, a DNAME set as a transfer when it is a notice. Each
    # set brings its owner's name key and its type; the first that counts
    # for each goes to the walk with the sticky flag decided here.
    key_sets: Dict[str, SignedRRset] = {}
    for rrset in resolution.evidence:
        if rrset.rtype == "KEY":
            key_sets.setdefault(rrset.owner_key, rrset)
    keys = srv.ApexKeys(key_sets, root)
    notice_ids = set(resolution.transfer_notices)
    good: List[SignedRRset] = []
    first: Dict[str, Dict[str, srv.Slot]] = {}  # owner -> type -> its first good set
    for rrset in resolution.evidence:
        owner, rtype = rrset.owner_key, rrset.rtype
        sticky = is_sticky(rrset, rrset in notice_ids)
        if rtype == "KEY":
            why = keys[owner][1] if rrset == key_sets[owner] else "conflicting-key"
        else:
            why = srv.signed_set_verdict(rrset, keys.key, root, stamp, sticky, verified_signatures)
        verdicts.append((owner, rtype, why))
        if why == V_OK or why == V_STALE:
            good.append(rrset)
            first.setdefault(owner, {}).setdefault(rtype, srv.Slot(rrset, sticky))
        else:
            failures.append(f"{owner} {rtype}: {why}")

    if pinned_key is not None:
        apex_owner = queried.apex().name_key()
        served = keys.key(apex_owner)
        if served is None:
            failures.append(f"pinned key check: no verified key served for {apex_owner}")
        elif served != pinned_key:
            failures.append(f"pinned key check: served key for {apex_owner} differs from pin")

    # Every transfer notice must itself be one of the verified evidence
    # sets; update_reference follows notices, so an unchecked one would
    # let a lying server move references wherever it likes.
    for notice in resolution.transfer_notices:
        if notice not in good:
            owner = notice.owner_key
            failures.append(
                f"{owner} {notice.rtype}: transfer notice not backed by verified evidence"
            )
            verdicts.append((owner, notice.rtype, "unverified-notice"))

    # Re-walk from the verified evidence only and compare outcomes.
    outcome, address = OUTCOME_NOT_FOUND, None
    try:
        found = srv.walk(queried, lambda key: first.get(key, {}), depth_budget)
    except DepthExceededError:
        failures.append(f"rewrite budget of {depth_budget} exhausted")
    except DelegationLoopError as exc:
        failures.append(f"delegation loop at {exc.at}")
    except ResolutionError as exc:
        failures.append(str(exc))
    else:
        outcome, address = found.outcome, found.address
        warnings += srv.stale_warnings(found, stamp)
        if outcome == OUTCOME_NOT_FOUND:
            if _nxt_covers(good, found.final) is None:
                failures.append(f"no denial proof covers {found.final.fqdn_no_dot()}")
            else:
                warnings.append("nxt-server-trust")
    if outcome != resolution.outcome:
        failures.append(
            f"served outcome {resolution.outcome} but evidence reconstructs {outcome}"
        )
    elif address != resolution.address:
        failures.append(
            f"served address {resolution.address!r} but evidence reconstructs {address!r}"
        )

    return VerifiedResolution(
        resolution=resolution,
        verified=not failures,
        record_verdicts=tuple(verdicts),
        failures=tuple(failures),
        warnings=tuple(warnings),
    )


def _nxt_covers(good: List[SignedRRset], target: Handle) -> Optional[SignedRRset]:
    """A verified NXT set whose span contains the target name, if any."""
    tgt = key_sort_key(target.name_key())
    for rrset in good:
        if rrset.rtype != "NXT":
            continue
        lo, hi = rrset.span
        if lo == tgt:
            return rrset
        if lo < hi:
            if lo < tgt < hi:
                return rrset
        else:  # wraparound span closes the chain
            if tgt > lo or tgt < hi:
                return rrset
    return None


def resolve_and_verify(
    handle: Handle,
    endpoints: Sequence[ResolverEndpoint],
    root_zone: str,
    *,
    pinned_key: Optional[PublicKey] = None,
    now: Optional[str] = None,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
) -> VerifiedResolution:
    """Ask endpoints in order; verify the first resolution that arrives."""
    if not endpoints:
        raise ResolutionError("no endpoints configured")
    last: Optional[Exception] = None
    for endpoint in endpoints:
        try:
            resolution = endpoint.resolve(handle, depth_budget, now)
        except (OnhsError, OSError, ValueError) as exc:  # a reply that does not read
            last = exc
            continue
        return verify_resolution(
            resolution, handle, root_zone,
            pinned_key=pinned_key, now=now, depth_budget=depth_budget,
        )
    assert last is not None
    raise last


# ---- handle references -----------------------------------------------------


@dataclass
class HandleReference:
    """A long-lived pointer to a handle, pinned to its apex key."""

    handle: Handle
    pinned_key: Optional[PublicKey] = None
    last_resolution: Optional[Resolution] = None
    superseded_by: Optional[Handle] = None

    def current_handle(self) -> Handle:
        return self.superseded_by if self.superseded_by is not None else self.handle

    def save(self, path) -> None:
        lines = ["onhs-reference-v1"]
        lines.append(f"handle {self.handle.fqdn_no_dot()}")
        lines.append(f"root {self.handle.root_suffix_no_dot()}")
        if self.pinned_key is not None:
            lines.append(f"pinned_algorithm {self.pinned_key.algorithm}")
            lines.append(
                f"pinned_key {base64.b64encode(self.pinned_key.key_bytes).decode()}"
            )
        if self.superseded_by is not None:
            lines.append(f"superseded_by {self.superseded_by.fqdn_no_dot()}")
        if self.last_resolution is not None:
            blob = base64.b64encode(canonical_json(self.last_resolution.to_dict())).decode()
            lines.append(f"last_resolution {blob}")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "HandleReference":
        text = Path(path).read_text()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "onhs-reference-v1":
            raise VerificationError(f"{path}: not a handle reference file")
        fields: Dict[str, str] = {}
        for ln in lines[1:]:
            key, _, value = ln.partition(" ")
            fields[key] = value
        if "handle" not in fields or "root" not in fields:
            raise VerificationError(f"{path}: reference file lacks handle or root")
        root = fields["root"]
        handle = parse_handle(fields["handle"], root)
        pinned = None
        if "pinned_key" in fields:
            try:
                pinned = PublicKey.from_key_bytes(
                    base64.b64decode(fields["pinned_key"], validate=True)
                )
            except (ValueError, OnhsError) as exc:  # binascii errors are ValueErrors
                raise VerificationError(f"{path}: pinned_key does not decode: {exc}") from None
            try:
                algorithm = int(fields.get("pinned_algorithm", pinned.algorithm))
            except ValueError:
                raise VerificationError(
                    f"{path}: pinned_algorithm {fields['pinned_algorithm']!r} is not a number"
                ) from None
            if algorithm != pinned.algorithm:
                raise VerificationError(f"{path}: pinned key algorithm disagrees")
        superseded = None
        if "superseded_by" in fields:
            superseded = parse_handle(fields["superseded_by"], root)
        last = None
        if "last_resolution" in fields:
            try:
                last = Resolution.from_dict(
                    json.loads(base64.b64decode(fields["last_resolution"], validate=True))
                )
            except (ValueError, OnhsError, RecursionError) as exc:
                # binascii and JSON errors are ValueErrors, and JSON nested
                # past the recursion limit raises RecursionError
                raise VerificationError(
                    f"{path}: last_resolution does not decode: {exc}. Files saved before "
                    "answers carried each set as its canonical octets hold it in an older "
                    "form; deleting that line keeps the rest of the reference"
                ) from None
        return HandleReference(
            handle=handle, pinned_key=pinned, last_resolution=last, superseded_by=superseded
        )


def update_reference(ref: HandleReference, resolution: Resolution, root_zone: str) -> HandleReference:
    """Fold a resolution's transfer notices into the reference.

    A transfer whose record sits on the reference's lineage moves the
    reference to the rewritten name; a plain delegation never does. The
    operation is idempotent: re-applying the same resolution changes
    nothing further.
    """
    current = ref.current_handle()
    changed = True
    seen = set()
    while changed:
        changed = False
        for notice in resolution.transfer_notices:
            rec = notice.records[0]
            if rec.rtype != "DNAME" or notice in seen:
                continue
            try:
                owner = parse_handle(rec.owner, root_zone)
                dest = parse_handle(rec.rdata, root_zone)
            except OnhsError:
                continue
            if current.name_key() == owner.name_key() or current.is_under(owner):
                current = current.replace_prefix(owner, dest)
                seen.add(notice)
                changed = True
    superseded = None if current.name_key() == ref.handle.name_key() else current
    return replace(ref, last_resolution=resolution, superseded_by=superseded)


# ---- key upgrade -----------------------------------------------------------


@dataclass
class UpgradeReport:
    ok: bool
    new_apex: Optional[Handle]
    steps: List[Tuple[str, bool]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def step(self, description: str, ok: bool) -> None:
        self.steps.append((description, ok))


def _enumerate_owner_zone(
    endpoint: ResolverEndpoint, apex: Handle, root_zone: str, limit: int = 10000
) -> Tuple[List[Handle], Optional[str]]:
    """Walk the owner zone's denial chain to list every name with records.

    Returns the names and None, or the names met and why the list is not
    whole: a hop's NXT query came back not found, or with a set that is
    not an NXT set at the name asked for, or naming an owner or a next
    owner that is not a handle under the root; or the chain did not close
    within limit names.
    """
    out: List[Handle] = []
    asked = apex
    for _ in range(limit):
        answer = endpoint.query_record(asked, "NXT")
        got = answer.rrset
        if not answer.found or got is None:
            return out, f"no NXT record found after {len(out)} names"
        if got.rtype != "NXT" or got.owner_key != asked.name_key():
            return out, f"not-the-set-asked-for at {asked.fqdn_no_dot()}"
        rec = got.records[0]
        try:
            out.append(parse_handle(rec.owner, root_zone))
            asked = parse_handle(rec.rdata.next_owner, root_zone)
        except OnhsError as exc:
            return out, f"NXT record at {asked.fqdn_no_dot()} names no handle: {exc}"
        if asked.name_key() == out[0].name_key():
            return out, None
    return out, f"the NXT chain did not close within {limit} names"


def _served_set(
    endpoint: ResolverEndpoint, owner: Handle, rtype: str, apex: Handle, key: PublicKey,
    now: str,
) -> Tuple[Optional[SignedRRset], str, bool]:
    """The set endpoint serves for owner's rtype; why it does not count
    under apex's key, or V_OK or V_STALE; and whether records.is_sticky
    calls it sticky, a DNAME set as a transfer when the answer's
    status_records list it. A KEY set counts when it holds key; any other
    when signed_set_verdict accepts it."""
    answer = endpoint.query_record(owner, rtype)
    got = answer.rrset
    if not answer.found:
        return None, "not found", False
    if got is None or got.rtype != rtype or name_key(got.owner) != owner.name_key():
        return None, "not-the-set-asked-for", False
    sticky = is_sticky(got, got in answer.status_records)
    if rtype == "KEY":
        return got, V_OK if got.records[0].rdata == key.key_bytes else "not the old key", sticky
    root = name_key(apex.root_suffix_no_dot())
    return got, srv.signed_set_verdict(got, {apex.name_key(): key}.get, root, now, sticky), sticky


def key_upgrade(
    old_secret: SecretKey,
    old_apex: Handle,
    new_secret: SecretKey,
    endpoint: ResolverEndpoint,
    root_zone: str,
    *,
    suffix_len: Optional[int] = None,
    serial_start: int = 1,
    now: Optional[str] = None,
) -> UpgradeReport:
    """Move a whole handle hierarchy onto a fresh key.

    Checks that the old apex's served KEY is old_secret's, claims the new
    apex, recreates every name under it with the same ordinal path, copies
    addresses and delegations (delegations that pointed back into the old
    hierarchy are rewritten to the new one), verifies that the copies
    resolve under the new key, and only then transfers the old apex. Each
    KEY, A, TXT and DNAME set it reads must count under old_secret's key
    (_served_set). It reads them all before it writes: a failed read aborts
    with nothing written, a failed write or replica before the transfer,
    with the old hierarchy intact. The report's warnings say why.
    """
    report = UpgradeReport(ok=False, new_apex=None)
    stamp = now or now_stamp()
    if suffix_len is None:
        suffix_len = len(old_apex.apex_label.key_suffix)
    serial = serial_start
    old_key = old_secret.public_key()
    _, why, _ = _served_set(endpoint, old_apex, "KEY", old_apex, old_key, stamp)
    if why not in (V_OK, V_STALE):
        report.warnings.append(f"{old_apex.fqdn_no_dot()} KEY: {why}; nothing was changed")
        return report
    owners, gap = _enumerate_owner_zone(endpoint, old_apex, root_zone)
    if gap is not None:
        report.warnings.append(f"cannot list {old_apex.fqdn_no_dot()}: {gap}")
        return report
    copies: List[Tuple[Handle, Dict[str, srv.Slot]]] = []  # (old name, its sets)
    for owner in owners:
        if owner.name_key() == old_apex.name_key():
            continue
        sets: Dict[str, srv.Slot] = {}  # a transfer is copied as a delegation
        for rtype in ("A", "TXT", "DNAME"):
            got, why, sticky = _served_set(endpoint, owner, rtype, old_apex, old_key, stamp)
            if why == "not found":
                continue
            if why not in (V_OK, V_STALE):
                report.warnings.append(f"{owner.fqdn_no_dot()} {rtype}: {why}")
                return report
            sets[rtype] = srv.Slot(got, sticky)
        if srv.cancelled(srv.sticky_sets(sets)):
            report.warnings.append(
                f"skipping {owner.fqdn_no_dot()}: cancelled in the old hierarchy"
            )
        else:
            copies.append((owner, sets))

    def submit(step: str, msg: UpdateMessage) -> bool:
        """Send one update and record it as step; say why on a refusal."""
        nonlocal serial
        verdict = endpoint.apply_update(msg, stamp)
        report.step(step, verdict.accepted)
        serial += 1
        if not verdict.accepted:
            report.warnings.append(f"{step} rejected: {verdict.reason}")
        return verdict.accepted

    claim = srv.make_claim(new_secret, root_zone, suffix_len, serial, now=stamp)
    new_apex = parse_handle(claim.target, root_zone)
    if not submit(f"claim {new_apex.fqdn_no_dot()}", claim):
        return report
    report.new_apex = new_apex

    replicated: List[Tuple[Handle, str]] = []  # (new handle, address)
    for owner, sets in copies:
        new_name = owner.replace_prefix(old_apex, new_apex)
        step = f"create {new_name.fqdn_no_dot()}"
        if not submit(step, srv.make_create_child(new_secret, new_name, serial, now=stamp)):
            return report
        if "A" in sets:
            address = sets["A"].rrset.records[0].rdata
            msg = srv.make_assign(new_secret, new_name, address, serial, now=stamp)
            if not submit(f"assign {new_name.fqdn_no_dot()} {address}", msg):
                return report
            replicated.append((new_name, address))
        if "DNAME" in sets:
            dest = parse_handle(sets["DNAME"].rrset.records[0].rdata, root_zone)
            if dest.name_key() == old_apex.name_key() or dest.is_under(old_apex):
                dest = dest.replace_prefix(old_apex, new_apex)
            msg = srv.make_delegate(new_secret, new_name, dest, serial, now=stamp)
            if not submit(f"delegate {new_name.fqdn_no_dot()} to {dest.fqdn_no_dot()}", msg):
                return report

    new_key = new_secret.public_key()
    for new_name, expected in replicated:
        checked = resolve_and_verify(new_name, [endpoint], root_zone, pinned_key=new_key, now=stamp)
        ok = checked.verified and (checked.outcome, checked.address) == (OUTCOME_ADDRESS, expected)
        report.step(f"verify {new_name.fqdn_no_dot()} -> {expected}", ok)
        if not ok:
            report.warnings.append(
                f"replica {new_name.fqdn_no_dot()} resolves to "
                f"{checked.outcome}/{checked.address}, wanted {expected}"
                + "".join(f"; {failure}" for failure in checked.failures)
            )
            return report

    transfer = srv.make_transfer(old_secret, old_apex, new_apex, serial, now=stamp)
    report.ok = submit(
        f"transfer {old_apex.fqdn_no_dot()} to {new_apex.fqdn_no_dot()}", transfer
    )
    return report


def cancel_old_key(
    old_secret: SecretKey,
    old_apex: Handle,
    endpoint: ResolverEndpoint,
    *,
    serial: int = 1,
    compromised: bool = False,
    note: Optional[str] = None,
    now: Optional[str] = None,
) -> Tuple[List[Verdict], List[str]]:
    """Retire the old apex after an upgrade: cancel it, and mark it
    compromised too when the key itself is suspect. Warns unless the apex
    holds a transfer: a DNAME set the answer lists as sticky, signed by
    the old key."""
    warnings: List[str] = []
    verdicts: List[Verdict] = []
    stamp = now or now_stamp()
    _, why, transferred = _served_set(
        endpoint, old_apex, "DNAME", old_apex, old_secret.public_key(), stamp
    )
    if not (transferred and why in (V_OK, V_STALE)):
        warnings.append(
            "cancelling an apex that was never transferred strands its children"
        )
    verdicts.append(
        endpoint.apply_update(srv.make_cancel(old_secret, old_apex, serial, now=stamp), stamp)
    )
    if compromised:
        verdicts.append(
            endpoint.apply_update(
                srv.make_compromise(
                    old_secret, old_apex, note or stamp[0:4] + "-" + stamp[4:6] + "-" + stamp[6:8],
                    serial + 1, now=stamp,
                ),
                stamp,
            )
        )
    return verdicts, warnings
