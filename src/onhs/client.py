"""Verifying resolver client.

The client never trusts a resolution outcome as served. verify_resolution
checks apex keys against the hash embedded in their label and every
signature against the key of the zone its signer field names, then runs
server.walk, which holds the resolution rules, over the sets that
verified. A served answer whose evidence does not reproduce the same
outcome and address is reported unverified. Denial proofs are checked
against the served root server key, which only authenticates the root
server itself; that weaker trust level is surfaced as a warning, not
hidden.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from . import crypto, server as srv
from .crypto import PublicKey, SecretKey, now_stamp, verify_key_matches_label, verify_rrset
from .errors import (
    DelegationLoopError,
    DepthExceededError,
    OnhsError,
    ResolutionError,
    VerificationError,
)
from .handles import Handle, parse_handle
from .records import CACHE_CAP, LruCache, SignedRRset, canonical_sort_key, is_irrevocable, name_key
from .server import (
    DEFAULT_DEPTH_BUDGET,
    OUTCOME_ADDRESS,
    OUTCOME_NOT_FOUND,
    RecordAnswer,
    Resolution,
    UpdateMessage,
    Verdict,
)


class ResolverEndpoint(Protocol):
    """What the client needs from a server, local or remote."""

    def resolve(self, handle: Handle, depth_budget: Optional[int] = None,
                now: Optional[str] = None) -> Resolution: ...

    def query_record(self, handle: Handle, rtype: str,
                     now: Optional[str] = None) -> RecordAnswer: ...

    def apply_update(self, msg: UpdateMessage, now: Optional[str] = None) -> Verdict: ...


# ---- verification ----------------------------------------------------------

V_OK = "ok"
V_STALE = "stale-irrevocable"


class VerifiedSignatures(LruCache):
    """The signature checks that held in this process, for reuse.

    An entry is (signer key, canonical set octets, signature octets); it
    means the RSA check held over exactly those octets, which no clock or
    later input can change. The octets include the signature's validity
    window, and verify_rrset still tests that window against now, with
    every other rule, on each use: only the RSA step is skipped. Failures
    are never kept. Past cap entries, the least recently used one goes.
    """

    def __call__(self, key: PublicKey, signature: bytes, message: bytes) -> bool:
        entry = (key, message, signature)
        if self.get(entry):
            return True
        if not crypto.rsa_check(key, signature, message):
            return False
        self.put(entry, True)
        return True


# Shared by every verify_resolution in the process. The server's own
# checks of incoming updates (apply_update, replay) never use it: each
# update is a new message, so it would only fill.
verified_signatures = VerifiedSignatures(CACHE_CAP)


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
    root_key_name = name_key(root_zone)
    failures: List[str] = []
    warnings: List[str] = list(resolution.warnings)
    verdicts: List[Tuple[str, str, str]] = []

    # Pass 1: establish zone keys from KEY evidence. A handle apex key must
    # hash-match its own label; the root server key is taken as served and
    # only ever vouches for denial records.
    zone_keys: Dict[str, PublicKey] = {}
    server_key: Optional[PublicKey] = None
    for rrset in resolution.evidence:
        if rrset.rtype != "KEY":
            continue
        owner = name_key(rrset.owner)
        rec = rrset.records[0]
        assert isinstance(rec.rdata, bytes)
        try:
            key = PublicKey.from_key_bytes(rec.rdata)
        except OnhsError as exc:
            failures.append(f"{owner} KEY: {exc}")
            verdicts.append((owner, "KEY", "bad-key-bytes"))
            continue
        if owner == root_key_name:
            server_key = key
            verdicts.append((owner, "KEY", V_OK))
            continue
        try:
            apex = parse_handle(rrset.owner, root_zone)
        except OnhsError as exc:
            failures.append(f"{owner} KEY: not a handle under {root_zone}: {exc}")
            verdicts.append((owner, "KEY", "bad-owner"))
            continue
        if not apex.is_apex():
            failures.append(f"{owner} KEY: key evidence below an apex")
            verdicts.append((owner, "KEY", "bad-owner"))
            continue
        try:
            bound = verify_key_matches_label(key, apex.apex_label)
        except OnhsError:
            bound = False
        if not bound:
            failures.append(f"{owner} KEY: key hash does not match the label")
            verdicts.append((owner, "KEY", "label-mismatch"))
            continue
        zone_keys[owner] = key
        verdicts.append((owner, "KEY", V_OK))

    if pinned_key is not None:
        apex_owner = queried.apex().name_key()
        served = zone_keys.get(apex_owner)
        if served is None:
            failures.append(f"pinned key check: no verified key served for {apex_owner}")
        elif served != pinned_key:
            failures.append(f"pinned key check: served key for {apex_owner} differs from pin")

    # Pass 2: verify every signed evidence set against its signer's zone key.
    notice_ids = set(resolution.transfer_notices)
    good: Dict[Tuple[str, str], List[SignedRRset]] = {}

    def note_good(rrset: SignedRRset) -> None:
        good.setdefault((name_key(rrset.owner), rrset.rtype), []).append(rrset)

    for rrset in resolution.evidence:
        owner = name_key(rrset.owner)
        if rrset.rtype == "KEY":
            if (owner, "KEY") not in good and (
                owner in zone_keys or owner == root_key_name
            ):
                note_good(rrset)
            continue
        sig = rrset.signature
        if sig is None:
            failures.append(f"{owner} {rrset.rtype}: unsigned evidence")
            verdicts.append((owner, rrset.rtype, "unsigned"))
            continue
        signer = name_key(sig.params.signer)
        if signer == root_key_name:
            key = server_key
        else:
            key = zone_keys.get(signer)
        if key is None:
            failures.append(f"{owner} {rrset.rtype}: no verified key for signer {signer}")
            verdicts.append((owner, rrset.rtype, "no-signer-key"))
            continue
        result = verify_rrset(
            rrset.records, sig, key, stamp, verified_signatures, rrset.canonical
        )
        if result.ok:
            verdicts.append((owner, rrset.rtype, V_OK))
            note_good(rrset)
        elif result.reason == crypto.REJECT_EXPIRED and (
            is_irrevocable(rrset) or rrset in notice_ids
        ):
            warnings.append(f"{V_STALE} {owner} {rrset.rtype}")
            verdicts.append((owner, rrset.rtype, V_STALE))
            note_good(rrset)
        else:
            failures.append(f"{owner} {rrset.rtype}: {result.reason}")
            verdicts.append((owner, rrset.rtype, result.reason or "bad-signature"))

    # Every transfer notice must itself be one of the verified evidence
    # sets; update_reference follows notices, so an unchecked one would
    # let a lying server move references wherever it likes.
    for notice in resolution.transfer_notices:
        owner = name_key(notice.owner)
        if notice not in good.get((owner, notice.rtype), []):
            failures.append(
                f"{owner} {notice.rtype}: transfer notice not backed by verified evidence"
            )
            verdicts.append((owner, notice.rtype, "unverified-notice"))

    # Pass 3: re-walk from the verified evidence only and compare outcomes.
    first: Dict[str, Dict[str, SignedRRset]] = {}
    for (owner, rtype), sets in good.items():
        first.setdefault(owner, {})[rtype] = sets[0]
    nodes = {owner: (sets, sets.get("DNAME") in notice_ids) for owner, sets in first.items()}

    outcome, address = OUTCOME_NOT_FOUND, None
    try:
        found = srv.walk(queried, lambda key: nodes.get(key, srv.NO_SETS), depth_budget)
    except DepthExceededError:
        failures.append(f"rewrite budget of {depth_budget} exhausted")
    except DelegationLoopError as exc:
        failures.append(f"delegation loop at {exc.at}")
    except ResolutionError as exc:
        failures.append(str(exc))
    else:
        outcome, address = found.outcome, found.address
        if outcome == OUTCOME_NOT_FOUND:
            if _nxt_covers(good, found.final, server_key) is None:
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
        warnings=tuple(dict.fromkeys(warnings)),
    )


def _nxt_covers(
    good: Dict[Tuple[str, str], List[SignedRRset]],
    target: Handle,
    server_key: Optional[PublicKey],
) -> Optional[SignedRRset]:
    """A verified NXT record whose span contains the target name, if any."""
    if server_key is None:
        return None
    tgt = canonical_sort_key(target.fqdn_no_dot())
    for (owner_key, rtype), sets in good.items():
        if rtype != "NXT":
            continue
        for rrset in sets:
            rec = rrset.records[0]
            lo = canonical_sort_key(rec.owner)
            hi = canonical_sort_key(rec.rdata.next_owner)
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
        except (OnhsError, OSError) as exc:
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
            blob = base64.b64encode(
                json.dumps(self.last_resolution.to_dict(), sort_keys=True).encode()
            ).decode()
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
            except (ValueError, OnhsError) as exc:  # binascii and JSON errors are ValueErrors
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
) -> List[Handle]:
    """Walk the owner zone's denial chain to list every name with records."""
    out: List[Handle] = []
    answer = endpoint.query_record(apex, "NXT")
    if not answer.found or answer.rrset is None:
        return out
    start = name_key(answer.rrset.records[0].owner)
    node = answer.rrset
    for _ in range(limit):
        owner_text = node.records[0].owner
        handle = parse_handle(owner_text, root_zone)
        out.append(handle)
        next_owner = node.records[0].rdata.next_owner
        if name_key(next_owner) == start:
            break
        nxt_answer = endpoint.query_record(
            parse_handle(next_owner, root_zone), "NXT"
        )
        if not nxt_answer.found or nxt_answer.rrset is None:
            break
        node = nxt_answer.rrset
    return out


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

    Claims the new apex, recreates every name under it with the same
    ordinal path, copies addresses and delegations (delegations that
    pointed back into the old hierarchy are rewritten to the new one),
    verifies the copies resolve, and only then transfers the old apex.
    Any failure before the transfer aborts with the old hierarchy intact.
    """
    report = UpgradeReport(ok=False, new_apex=None)
    stamp = now or now_stamp()
    if suffix_len is None:
        suffix_len = len(old_apex.apex_label.key_suffix)
    serial = serial_start

    claim = srv.make_claim(new_secret, root_zone, suffix_len, serial, now=stamp)
    verdict = endpoint.apply_update(claim, stamp)
    new_apex = parse_handle(claim.target, root_zone)
    report.step(f"claim {new_apex.fqdn_no_dot()}", verdict.accepted)
    if not verdict.accepted:
        report.warnings.append(f"claim rejected: {verdict.reason}")
        return report
    report.new_apex = new_apex
    serial += 1

    owners = _enumerate_owner_zone(endpoint, old_apex, root_zone)
    replicated: List[Tuple[Handle, str, str]] = []  # (new handle, rtype, rdata)
    for owner in owners:
        if owner.name_key() == old_apex.name_key():
            continue
        a_answer = endpoint.query_record(owner, "A")
        txt_answer = endpoint.query_record(owner, "TXT")
        dname_answer = endpoint.query_record(owner, "DNAME")
        if any(ans.found and is_irrevocable(ans.rrset) for ans in (a_answer, txt_answer)):
            report.warnings.append(
                f"skipping {owner.fqdn_no_dot()}: cancelled in the old hierarchy"
            )
            continue
        new_name = owner.replace_prefix(old_apex, new_apex)
        verdict = endpoint.apply_update(
            srv.make_create_child(new_secret, new_name, serial, now=stamp), stamp
        )
        report.step(f"create {new_name.fqdn_no_dot()}", verdict.accepted)
        serial += 1
        if not verdict.accepted:
            report.warnings.append(
                f"create {new_name.fqdn_no_dot()} rejected: {verdict.reason}"
            )
            return report
        if a_answer.found:
            address = a_answer.rrset.records[0].rdata
            verdict = endpoint.apply_update(
                srv.make_assign(new_secret, new_name, address, serial, now=stamp), stamp
            )
            report.step(f"assign {new_name.fqdn_no_dot()} {address}", verdict.accepted)
            serial += 1
            if not verdict.accepted:
                return report
            replicated.append((new_name, "A", address))
        if dname_answer.found:
            dest_text = dname_answer.rrset.records[0].rdata
            dest = parse_handle(dest_text, root_zone)
            if dest.name_key() == old_apex.name_key() or dest.is_under(old_apex):
                dest = dest.replace_prefix(old_apex, new_apex)
            verdict = endpoint.apply_update(
                srv.make_delegate(new_secret, new_name, dest, serial, now=stamp), stamp
            )
            report.step(
                f"delegate {new_name.fqdn_no_dot()} to {dest.fqdn_no_dot()}",
                verdict.accepted,
            )
            serial += 1
            if not verdict.accepted:
                return report

    for new_name, rtype, expected in replicated:
        if rtype != "A":
            continue
        resolution = endpoint.resolve(new_name, None, stamp)
        ok = resolution.outcome == OUTCOME_ADDRESS and resolution.address == expected
        report.step(f"verify {new_name.fqdn_no_dot()} -> {expected}", ok)
        if not ok:
            report.warnings.append(
                f"replica {new_name.fqdn_no_dot()} resolves to "
                f"{resolution.outcome}/{resolution.address}, wanted {expected}"
            )
            return report

    transfer = srv.make_transfer(old_secret, old_apex, new_apex, serial, now=stamp)
    verdict = endpoint.apply_update(transfer, stamp)
    report.step(
        f"transfer {old_apex.fqdn_no_dot()} to {new_apex.fqdn_no_dot()}", verdict.accepted
    )
    if not verdict.accepted:
        report.warnings.append(f"transfer rejected: {verdict.reason}")
        return report
    report.ok = True
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
    compromised too when the key itself is suspect."""
    warnings: List[str] = []
    verdicts: List[Verdict] = []
    stamp = now or now_stamp()
    answer = endpoint.query_record(old_apex, "DNAME")
    if not answer.found:
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
