"""Authoritative handle server: update processing and resolution.

State is organized so that the final store depends only on the set of
accepted updates, never on their arrival order or multiplicity:

  * per-(handle, rtype) slots keep the record set with the highest serial,
    ties broken by canonical payload text, then signature octets;
  * cancel, transfer, and compromise set flags that only ever turn on, and
    their record sets occupy slots that revocable updates cannot displace;
  * a sticky operation purges revocable slots in the subtree it kills, the
    mirror image of the rule that rejects revocable updates arriving after
    it (KEY slots survive: verifiers always need the key);
  * every update carries the authority public key, which is checked against
    the apex label hash, so a message is verifiable on arrival even when it
    outruns the claim it depends on.

Resolution walks from the apex toward the leaf, rewriting on DNAME records,
collecting signed evidence as it goes. A compromise anywhere on the path is
terminal. A cancel is terminal at the queried name itself, but a transfer
record at a cancelled ancestor still redirects queries below it, which is
what lets a retired key hierarchy keep forwarding to its successor.
"""

from __future__ import annotations

import base64
import json
import threading
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import crypto
from .crypto import (
    PublicKey,
    RecordSignature,
    SecretKey,
    SignatureParams,
    now_stamp,
    stamp_add,
    verify_key_matches_label,
    verify_rrset,
)
from .errors import (
    DelegationLoopError,
    DepthExceededError,
    OnhsError,
    ResolutionError,
)
from .handles import Handle, HandleLabel, parse_handle
# covering_nxt is not called in this module; it stays imported because
# perfbench/tracer.py wraps it here by name.
from .records import (
    DEFAULT_TTL,
    IMPOSSIBLE_ADDRESS,
    NxtData,
    ResourceRecord,
    SignedRRset,
    SoaData,
    ZoneSnapshot,
    build_nxt_chain,
    canonical_sort_key,
    covering_nxt,
    name_key,
    strip_dot,
)

# ---- actions and verdicts -------------------------------------------------

CLAIM = "CLAIM"
CREATE_CHILD = "CREATE_CHILD"
ASSIGN = "ASSIGN"
DELEGATE = "DELEGATE"
CANCEL = "CANCEL"
TRANSFER = "TRANSFER"
COMPROMISE = "COMPROMISE"

ACTIONS = (CLAIM, CREATE_CHILD, ASSIGN, DELEGATE, CANCEL, TRANSFER, COMPROMISE)
STICKY_ACTIONS = (CANCEL, TRANSFER, COMPROMISE)

R_BAD_SIGNATURE = "bad-signature"
R_EXPIRED_SIGNATURE = "expired-signature"
R_WRONG_AUTHORITY = "wrong-authority"
R_HANDLE_CANCELLED = "handle-cancelled"
R_HANDLE_TRANSFERRED = "handle-transferred"
R_UNKNOWN_PARENT = "unknown-parent"
R_MALFORMED = "malformed"
R_KEY_LABEL_MISMATCH = "key-label-mismatch"
R_ALREADY_CLAIMED = "already-claimed-with-different-key"
R_SUBSCRIPTION_LIMIT = "subscription-limit"

DEFAULT_DEPTH_BUDGET = 16
DEFAULT_AUDIT_CAP = 8
DEFAULT_VALIDITY = 7 * 86400
IRREVOCABLE_VALIDITY = 10 * 366 * 86400
SERVER_SIG_VALIDITY = 86400


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def tag(self) -> str:
        return "accepted" if self.accepted else f"rejected:{self.reason}"

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def rejected(reason: str, detail: Optional[str] = None) -> "Verdict":
        return Verdict(False, reason, detail)


# ---- message model --------------------------------------------------------


@dataclass(frozen=True)
class UpdateMessage:
    """One signed update, self-contained.

    target is the dotted name text; payload is a JSON-compatible dict whose
    shape depends on action; signer_key is the authority public key (hash
    bound to the apex label); signature covers the record set the message
    materializes. serial orders competing updates for the same slot.
    """

    target: str
    action: str
    payload: dict
    serial: int
    signer_key: PublicKey
    signature: RecordSignature

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "action": self.action,
            "payload": self.payload,
            "serial": self.serial,
            "signer_key": public_key_to_dict(self.signer_key),
            "signature": signature_to_dict(self.signature),
        }

    @staticmethod
    def from_dict(data: dict) -> "UpdateMessage":
        return UpdateMessage(
            target=str(data["target"]),
            action=str(data["action"]),
            payload=dict(data["payload"]),
            serial=int(data["serial"]),
            signer_key=public_key_from_dict(data["signer_key"]),
            signature=signature_from_dict(data["signature"]),
        )


def canonical_json(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# -- plain-dict codecs for the pieces updates and answers are made of --


def public_key_to_dict(key: PublicKey) -> dict:
    return {"algorithm": key.algorithm, "key": base64.b64encode(key.key_bytes).decode()}


def public_key_from_dict(data: dict) -> PublicKey:
    return PublicKey(
        algorithm=int(data["algorithm"]),
        key_bytes=base64.b64decode(str(data["key"]), validate=True),
    )


def signature_to_dict(sig: RecordSignature) -> dict:
    p = sig.params
    return {
        "algorithm": p.algorithm,
        "label_count": p.label_count,
        "original_ttl": p.original_ttl,
        "expiration": p.expiration,
        "inception": p.inception,
        "signer": p.signer,
        "signature": base64.b64encode(sig.signature_bytes).decode(),
    }


def signature_from_dict(data: dict) -> RecordSignature:
    params = SignatureParams(
        algorithm=int(data["algorithm"]),
        label_count=int(data["label_count"]),
        original_ttl=int(data["original_ttl"]),
        expiration=str(data["expiration"]),
        inception=str(data["inception"]),
        signer=str(data["signer"]),
    )
    return RecordSignature(
        params=params,
        signature_bytes=base64.b64decode(str(data["signature"]), validate=True),
    )


def record_to_dict(rec: ResourceRecord) -> dict:
    rd = rec.rdata
    if rec.rtype == "KEY":
        payload = base64.b64encode(rd).decode()  # type: ignore[arg-type]
    elif rec.rtype == "SOA":
        payload = {
            "primary": rd.primary, "contact": rd.contact, "serial": rd.serial,
            "refresh": rd.refresh, "retry": rd.retry, "expire": rd.expire,
            "minimum": rd.minimum,
        }
    elif rec.rtype == "NXT":
        payload = {"next_owner": rd.next_owner, "types": list(rd.types)}
    else:
        payload = rd
    return {"owner": rec.owner, "ttl": rec.ttl, "rtype": rec.rtype, "rdata": payload}


def record_from_dict(data: dict) -> ResourceRecord:
    rtype = str(data["rtype"])
    payload = data["rdata"]
    if rtype == "KEY":
        rdata = base64.b64decode(str(payload), validate=True)
    elif rtype == "SOA":
        rdata = SoaData(
            primary=str(payload["primary"]), contact=str(payload["contact"]),
            serial=int(payload["serial"]), refresh=int(payload["refresh"]),
            retry=int(payload["retry"]), expire=int(payload["expire"]),
            minimum=int(payload["minimum"]),
        )
    elif rtype == "NXT":
        rdata = NxtData(
            next_owner=str(payload["next_owner"]),
            types=tuple(str(t) for t in payload["types"]),
        )
    else:
        rdata = str(payload)
    return ResourceRecord(owner=str(data["owner"]), ttl=int(data["ttl"]), rtype=rtype, rdata=rdata)


def rrset_to_dict(rrset: SignedRRset) -> dict:
    return {
        "records": [record_to_dict(r) for r in rrset.records],
        "signature": None if rrset.signature is None else signature_to_dict(rrset.signature),
    }


def rrset_from_dict(data: dict) -> SignedRRset:
    sig = data.get("signature")
    return SignedRRset(
        records=tuple(record_from_dict(r) for r in data["records"]),
        signature=None if sig is None else signature_from_dict(sig),
    )


# ---- resolution results ----------------------------------------------------

OUTCOME_ADDRESS = "ADDRESS"
OUTCOME_CANCELLED = "CANCELLED"
OUTCOME_COMPROMISED = "COMPROMISED"
OUTCOME_TRANSFERRED_AND_ADDRESS = "TRANSFERRED_AND_ADDRESS"
OUTCOME_NOT_FOUND = "NOT_FOUND"


@dataclass(frozen=True)
class Resolution:
    queried: str
    outcome: str
    address: Optional[str]
    evidence: Tuple[SignedRRset, ...]
    transfer_notices: Tuple[SignedRRset, ...]
    warnings: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "queried": self.queried,
            "outcome": self.outcome,
            "address": self.address,
            "evidence": [rrset_to_dict(s) for s in self.evidence],
            "transfer_notices": [rrset_to_dict(s) for s in self.transfer_notices],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_dict(data: dict) -> "Resolution":
        return Resolution(
            queried=str(data["queried"]),
            outcome=str(data["outcome"]),
            address=None if data.get("address") is None else str(data["address"]),
            evidence=tuple(rrset_from_dict(s) for s in data["evidence"]),
            transfer_notices=tuple(rrset_from_dict(s) for s in data["transfer_notices"]),
            warnings=tuple(str(w) for w in data.get("warnings", [])),
        )


@dataclass(frozen=True)
class RecordAnswer:
    """query_record result: the set if present, sticky context, NXT proof."""

    found: bool
    rrset: Optional[SignedRRset]
    status_records: Tuple[SignedRRset, ...]
    proof: Tuple[SignedRRset, ...]

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "rrset": None if self.rrset is None else rrset_to_dict(self.rrset),
            "status_records": [rrset_to_dict(s) for s in self.status_records],
            "proof": [rrset_to_dict(s) for s in self.proof],
        }

    @staticmethod
    def from_dict(data: dict) -> "RecordAnswer":
        rrset = data.get("rrset")
        return RecordAnswer(
            found=bool(data["found"]),
            rrset=None if rrset is None else rrset_from_dict(rrset),
            status_records=tuple(rrset_from_dict(s) for s in data["status_records"]),
            proof=tuple(rrset_from_dict(s) for s in data["proof"]),
        )


# ---- internal state --------------------------------------------------------

SortKey = Tuple[bytes, ...]  # a name's canonical_sort_key


def _sort_key_name(key: SortKey) -> str:
    """The name key a canonical sort key was made from."""
    return ".".join(label.decode() for label in reversed(key))


@dataclass
class HandleStatus:
    cancelled: bool = False
    compromised: bool = False
    transferred_to: Optional[str] = None


@dataclass(frozen=True)
class Slot:
    serial: int
    sticky: bool
    rrset: SignedRRset

    def merge_key(self):
        sig = self.rrset.signature
        return (
            self.serial,
            tuple(r.canonical_rdata_text() for r in self.rrset.records),
            sig.signature_bytes if sig else b"",
        )


@dataclass
class HandleEntry:
    handle: Handle
    sort_key: SortKey
    status: HandleStatus = field(default_factory=HandleStatus)
    slots: Dict[str, Slot] = field(default_factory=dict)
    apex_key: Optional[PublicKey] = None
    log: List[Tuple[UpdateMessage, Verdict]] = field(default_factory=list)


@dataclass
class AuditSubscription:
    handle_key: str
    endpoint_id: str
    owner: bool
    queue: deque = field(default_factory=lambda: deque(maxlen=1024))
    dropped: int = 0


@dataclass(frozen=True)
class AuditEvent:
    seq: int
    handle: str
    update: UpdateMessage
    verdict: Verdict
    stamp: str

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "handle": self.handle,
            "update": self.update.to_dict(),
            "verdict": {
                "accepted": self.verdict.accepted,
                "reason": self.verdict.reason,
                "detail": self.verdict.detail,
            },
            "stamp": self.stamp,
        }


class _Malformed(OnhsError):
    """Internal: update payload failed structural validation."""


# ---- update builders -------------------------------------------------------


def _params_for(
    secret: SecretKey, target: Handle, ttl: int, now: str, validity: int
) -> SignatureParams:
    return SignatureParams(
        algorithm=secret.algorithm,
        label_count=len(name_key(target.fqdn()).split(".")),
        original_ttl=ttl,
        expiration=stamp_add(now, validity),
        inception=now,
        signer=target.apex().fqdn_no_dot(),
    )


def _signed_message(
    secret: SecretKey,
    target: Handle,
    action: str,
    payload: dict,
    serial: int,
    records: Sequence[ResourceRecord],
    ttl: int,
    now: str,
    validity: int,
) -> UpdateMessage:
    params = _params_for(secret, target, ttl, now, validity)
    signature = crypto.sign_rrset(records, secret, params)
    return UpdateMessage(
        target=target.fqdn_no_dot(),
        action=action,
        payload=payload,
        serial=serial,
        signer_key=secret.public_key(),
        signature=signature,
    )


def make_claim(
    secret: SecretKey,
    root_zone: str,
    suffix_len: int,
    serial: int = 1,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = IRREVOCABLE_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    pub = secret.public_key()
    label = crypto.derive_pk_label(pub, suffix_len)
    target = Handle(labels=(label,), root_suffix=strip_dot(root_zone))
    rec = ResourceRecord(owner=target.fqdn_no_dot(), ttl=ttl, rtype="KEY", rdata=pub.key_bytes)
    payload = {"key": base64.b64encode(pub.key_bytes).decode(), "algorithm": pub.algorithm, "ttl": ttl}
    return _signed_message(secret, target, CLAIM, payload, serial, [rec], ttl, now, validity)


def make_create_child(
    secret: SecretKey,
    target: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = DEFAULT_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    rec = ResourceRecord(owner=target.fqdn_no_dot(), ttl=ttl, rtype="TXT", rdata="Created")
    return _signed_message(secret, target, CREATE_CHILD, {"ttl": ttl}, serial, [rec], ttl, now, validity)


def make_assign(
    secret: SecretKey,
    target: Handle,
    address: str,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = DEFAULT_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    rec = ResourceRecord(owner=target.fqdn_no_dot(), ttl=ttl, rtype="A", rdata=address)
    payload = {"address": address, "ttl": ttl}
    return _signed_message(secret, target, ASSIGN, payload, serial, [rec], ttl, now, validity)


def make_delegate(
    secret: SecretKey,
    target: Handle,
    delegate_to: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = DEFAULT_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    rec = ResourceRecord(
        owner=target.fqdn_no_dot(), ttl=ttl, rtype="DNAME", rdata=delegate_to.fqdn_no_dot()
    )
    payload = {"target": delegate_to.fqdn_no_dot(), "ttl": ttl}
    return _signed_message(secret, target, DELEGATE, payload, serial, [rec], ttl, now, validity)


def make_transfer(
    secret: SecretKey,
    target: Handle,
    transfer_to: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = IRREVOCABLE_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    rec = ResourceRecord(
        owner=target.fqdn_no_dot(), ttl=ttl, rtype="DNAME", rdata=transfer_to.fqdn_no_dot()
    )
    payload = {"target": transfer_to.fqdn_no_dot(), "ttl": ttl}
    return _signed_message(secret, target, TRANSFER, payload, serial, [rec], ttl, now, validity)


def make_cancel(
    secret: SecretKey,
    target: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = IRREVOCABLE_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    rec = ResourceRecord(owner=target.fqdn_no_dot(), ttl=ttl, rtype="A", rdata=IMPOSSIBLE_ADDRESS)
    return _signed_message(secret, target, CANCEL, {"ttl": ttl}, serial, [rec], ttl, now, validity)


def normalize_compromise_note(text: str) -> str:
    """Accept ISO YYYY-MM-DD or legacy DD/MM/YYYY; return ISO."""
    text = text.strip()
    import re as _re

    m = _re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", text)
    if m:
        return text
    m = _re.fullmatch(r"(\d{2})/(\d{2})/(\d{4})", text)
    if m:
        day, month, year = m.group(1), m.group(2), m.group(3)
        return f"{year}-{month}-{day}"
    raise _Malformed(f"compromise date {text!r} not understood")


def make_compromise(
    secret: SecretKey,
    target: Handle,
    note_date: str,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = IRREVOCABLE_VALIDITY,
) -> UpdateMessage:
    now = now or now_stamp()
    iso = normalize_compromise_note(note_date)
    txt = ResourceRecord(
        owner=target.fqdn_no_dot(), ttl=ttl, rtype="TXT", rdata=f"Compromised {iso}"
    )
    addr = ResourceRecord(owner=target.fqdn_no_dot(), ttl=ttl, rtype="A", rdata=IMPOSSIBLE_ADDRESS)
    params = _params_for(secret, target, ttl, now, validity)
    cancel_sig = crypto.sign_rrset([addr], secret, params)
    payload = {
        "note": iso,
        "ttl": ttl,
        "cancel_signature": signature_to_dict(cancel_sig),
    }
    return _signed_message(secret, target, COMPROMISE, payload, serial, [txt], ttl, now, validity)


# ---- the server ------------------------------------------------------------


class HandleServer:
    """Single-writer authoritative store for one handle root zone.

    Denial proofs come from one sorted index of owner names per zone: an
    owner zone lists the names under its apex that hold a slot; the root
    zone lists the root, every apex holding a KEY slot and every name
    holding a sticky slot, as root_zone_snapshot mirrors them. Bisection
    finds the same NXT records build_nxt_chain gives for the whole zone.
    """

    def __init__(
        self,
        root_zone: str,
        server_secret: Optional[SecretKey] = None,
        *,
        depth_budget: int = DEFAULT_DEPTH_BUDGET,
        audit_cap: int = DEFAULT_AUDIT_CAP,
    ):
        self.root_zone = strip_dot(root_zone)
        if server_secret is None:
            _, server_secret = crypto.generate_keypair(crypto.RSA_SHA1)
        self.server_secret = server_secret
        self.server_key = server_secret.public_key()
        self.depth_budget = depth_budget
        self.audit_cap = audit_cap
        self._entries: Dict[str, HandleEntry] = {}
        self._update_count = 0
        self._root_key = canonical_sort_key(self.root_zone)
        self._apex_len = len(self._root_key) + 1  # labels in an apex's sort key
        # zone apex sort key -> sorted sort keys of the zone's owner names
        self._zones: Dict[SortKey, List[SortKey]] = {self._root_key: [self._root_key]}
        # (zone, owner) -> (NXT record, its signed set, last stamp to serve it at)
        self._nxt_sigs: Dict[Tuple[SortKey, SortKey], Tuple[ResourceRecord, SignedRRset, str]] = {}
        self._subscribers: Dict[str, List[AuditSubscription]] = {}
        self._event_seq = 0
        self._event_sinks: List[Callable[[AuditSubscription, AuditEvent], None]] = []
        self._log_writer: Optional[Callable[[str], None]] = None
        self._lock = threading.RLock()

    # -- persistence hooks --

    def set_log_writer(self, writer: Optional[Callable[[str], None]]) -> None:
        """Install the append-only log sink; one line per apply_update call."""
        self._log_writer = writer

    def add_event_sink(self, sink: Callable[[AuditSubscription, AuditEvent], None]) -> None:
        self._event_sinks.append(sink)

    @property
    def update_count(self) -> int:
        """apply_update calls so far, accepted or not; the zone serial."""
        return self._update_count

    # -- update path --

    def apply_update(self, msg: UpdateMessage, now: Optional[str] = None) -> Verdict:
        with self._lock:
            stamp = now or now_stamp()
            verdict = self._process(msg, stamp)
            line = (
                base64.b64encode(canonical_json(msg.to_dict())).decode()
                + f" {verdict.tag()} {stamp}"
            )
            self._update_count += 1
            if self._log_writer is not None:
                self._log_writer(line)
            self._notify(msg, verdict, stamp)
            return verdict

    def _process(self, msg: UpdateMessage, stamp: str) -> Verdict:
        if msg.action not in ACTIONS:
            return Verdict.rejected(R_MALFORMED, f"unknown action {msg.action!r}")
        try:
            target = parse_handle(msg.target, self.root_zone)
        except OnhsError as exc:
            return Verdict.rejected(R_MALFORMED, str(exc))

        apex = target.apex()
        try:
            if not verify_key_matches_label(msg.signer_key, apex.apex_label):
                reason = R_KEY_LABEL_MISMATCH if msg.action == CLAIM else R_WRONG_AUTHORITY
                return Verdict.rejected(reason, "key hash does not end in the label suffix")
        except OnhsError as exc:
            return Verdict.rejected(R_MALFORMED, str(exc))

        apex_entry = self._entries.get(apex.name_key())
        if apex_entry is not None and apex_entry.apex_key is not None:
            if apex_entry.apex_key != msg.signer_key:
                reason = R_ALREADY_CLAIMED if msg.action == CLAIM else R_WRONG_AUTHORITY
                return Verdict.rejected(reason, "another key holds this apex")

        try:
            rrsets = self._materialize(msg, target)
        except _Malformed as exc:
            return Verdict.rejected(R_MALFORMED, str(exc))

        for _, rrset in rrsets:
            assert rrset.signature is not None
            result = verify_rrset(rrset.records, rrset.signature, msg.signer_key, stamp)
            if not result.ok:
                if result.reason == crypto.REJECT_EXPIRED:
                    return Verdict.rejected(R_EXPIRED_SIGNATURE)
                if result.reason == crypto.REJECT_PARAMS_MISMATCH:
                    return Verdict.rejected(R_MALFORMED, "signature params mismatch")
                return Verdict.rejected(R_BAD_SIGNATURE, result.reason)

        gate = self._gate(msg, target)
        if gate is not None:
            return gate

        self._commit(msg, target, rrsets)
        return Verdict.ok()

    # -- materialization --

    def _materialize(
        self, msg: UpdateMessage, target: Handle
    ) -> List[Tuple[bool, SignedRRset]]:
        owner = target.fqdn_no_dot()
        p = msg.payload
        if not isinstance(p, dict):
            raise _Malformed("payload must be a mapping")
        ttl = p.get("ttl", DEFAULT_TTL)
        if not isinstance(ttl, int) or ttl < 0:
            raise _Malformed("bad ttl")
        try:
            if msg.action == CLAIM:
                key_b64 = p.get("key")
                alg = p.get("algorithm")
                if not isinstance(key_b64, str) or not isinstance(alg, int):
                    raise _Malformed("claim payload needs key and algorithm")
                key_bytes = base64.b64decode(key_b64, validate=True)
                if key_bytes != msg.signer_key.key_bytes or alg != msg.signer_key.algorithm:
                    raise _Malformed("claim payload key differs from signer key")
                rec = ResourceRecord(owner=owner, ttl=ttl, rtype="KEY", rdata=key_bytes)
                return [(False, SignedRRset((rec,), msg.signature))]
            if msg.action == CREATE_CHILD:
                rec = ResourceRecord(owner=owner, ttl=ttl, rtype="TXT", rdata="Created")
                return [(False, SignedRRset((rec,), msg.signature))]
            if msg.action == ASSIGN:
                address = p.get("address")
                if not isinstance(address, str):
                    raise _Malformed("assign payload needs an address")
                rec = ResourceRecord(owner=owner, ttl=ttl, rtype="A", rdata=address)
                return [(False, SignedRRset((rec,), msg.signature))]
            if msg.action in (DELEGATE, TRANSFER):
                dest_text = p.get("target")
                if not isinstance(dest_text, str):
                    raise _Malformed(f"{msg.action.lower()} payload needs a target")
                dest = parse_handle(dest_text, self.root_zone)
                rec = ResourceRecord(
                    owner=owner, ttl=ttl, rtype="DNAME", rdata=dest.fqdn_no_dot()
                )
                sticky = msg.action == TRANSFER
                return [(sticky, SignedRRset((rec,), msg.signature))]
            if msg.action == CANCEL:
                rec = ResourceRecord(owner=owner, ttl=ttl, rtype="A", rdata=IMPOSSIBLE_ADDRESS)
                return [(True, SignedRRset((rec,), msg.signature))]
            if msg.action == COMPROMISE:
                note = p.get("note")
                if not isinstance(note, str):
                    raise _Malformed("compromise payload needs a note date")
                iso = normalize_compromise_note(note)
                txt = ResourceRecord(owner=owner, ttl=ttl, rtype="TXT", rdata=f"Compromised {iso}")
                sig_data = p.get("cancel_signature")
                if not isinstance(sig_data, dict):
                    raise _Malformed("compromise payload needs cancel_signature")
                cancel_sig = signature_from_dict(sig_data)
                addr = ResourceRecord(owner=owner, ttl=ttl, rtype="A", rdata=IMPOSSIBLE_ADDRESS)
                return [
                    (True, SignedRRset((txt,), msg.signature)),
                    (True, SignedRRset((addr,), cancel_sig)),
                ]
        except _Malformed:
            raise
        except OnhsError as exc:
            raise _Malformed(str(exc)) from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise _Malformed(str(exc)) from exc
        raise _Malformed(f"unknown action {msg.action!r}")

    # -- gates --

    def _sticky_block(self, target: Handle) -> Optional[Verdict]:
        for node in target.ancestry():
            entry = self._entries.get(node.name_key())
            if entry is None:
                continue
            if entry.status.cancelled or entry.status.compromised:
                return Verdict.rejected(R_HANDLE_CANCELLED, f"{node.fqdn_no_dot()} is cancelled")
            if entry.status.transferred_to is not None:
                return Verdict.rejected(
                    R_HANDLE_TRANSFERRED, f"{node.fqdn_no_dot()} was transferred"
                )
        return None

    def _gate(self, msg: UpdateMessage, target: Handle) -> Optional[Verdict]:
        entry = self._entries.get(target.name_key())
        if msg.action == CLAIM:
            if not target.is_apex():
                return Verdict.rejected(R_MALFORMED, "claim target must be an apex handle")
            return None
        if msg.action == CREATE_CHILD:
            if target.is_apex():
                return Verdict.rejected(R_UNKNOWN_PARENT, "an apex handle has no parent")
            return self._sticky_block(target)
        if msg.action in (ASSIGN, DELEGATE):
            return self._sticky_block(target)
        if msg.action == TRANSFER:
            if entry is not None:
                if entry.status.cancelled or entry.status.compromised:
                    return Verdict.rejected(R_HANDLE_CANCELLED)
                dest = name_key(str(msg.payload.get("target", "")))
                if (
                    entry.status.transferred_to is not None
                    and name_key(entry.status.transferred_to) != dest
                ):
                    return Verdict.rejected(
                        R_HANDLE_TRANSFERRED, "already transferred to a different target"
                    )
            return None
        return None  # CANCEL and COMPROMISE are always applicable

    # -- commit --

    def _ensure_entry(self, handle: Handle) -> HandleEntry:
        for node in handle.ancestry():
            key = node.name_key()
            if key not in self._entries:
                self._entries[key] = HandleEntry(handle=node, sort_key=canonical_sort_key(key))
        return self._entries[handle.name_key()]

    def _purge_revocable(self, target: Handle) -> None:
        for entry in self._subtree(target):
            revocable = [
                rtype for rtype, slot in entry.slots.items()
                if not (slot.sticky or rtype == "KEY")
            ]
            for rtype in revocable:
                del entry.slots[rtype]
            if revocable:
                self._reindex(entry)

    def _merge_slot(self, entry: HandleEntry, rtype: str, candidate: Slot) -> None:
        existing = entry.slots.get(rtype)
        if existing is not None:
            if existing.sticky != candidate.sticky:
                if existing.sticky:
                    return
            elif candidate.merge_key() <= existing.merge_key():
                return
        entry.slots[rtype] = candidate
        self._reindex(entry)

    # -- owner index --

    @staticmethod
    def _in_root_zone(entry: HandleEntry, rtype: str, slot: Slot) -> bool:
        """Whether the root zone mirrors this slot: apex keys and sticky sets."""
        return slot.sticky or (rtype == "KEY" and entry.handle.is_apex())

    def _reindex(self, entry: HandleEntry) -> None:
        """Put entry in, or take it out of, its owner zone's and the root's index."""
        key = entry.sort_key
        in_root = any(self._in_root_zone(entry, rt, s) for rt, s in entry.slots.items())
        self._place(key[:self._apex_len], key, bool(entry.slots))
        self._place(self._root_key, key, in_root)

    def _place(self, zone: SortKey, key: SortKey, present: bool) -> None:
        index = self._zones.setdefault(zone, [])
        i = bisect_left(index, key)
        held = i < len(index) and index[i] == key
        if present and not held:
            index.insert(i, key)
        elif held and not present:
            del index[i]
            self._nxt_sigs.pop((zone, key), None)

    def _subtree(self, top: Handle) -> List[HandleEntry]:
        """Entries holding a slot at or below top, in canonical order."""
        prefix = canonical_sort_key(top.fqdn_no_dot())
        index = self._zones.get(prefix[:self._apex_len], [])
        out = []
        for i in range(bisect_left(index, prefix), len(index)):
            if index[i][:len(prefix)] != prefix:
                break
            out.append(self._entries[_sort_key_name(index[i])])
        return out

    def _commit(
        self, msg: UpdateMessage, target: Handle, rrsets: List[Tuple[bool, SignedRRset]]
    ) -> None:
        entry = self._ensure_entry(target)
        if msg.action == CLAIM and entry.apex_key is None:
            entry.apex_key = msg.signer_key
        if msg.action == TRANSFER:
            entry.status.transferred_to = str(msg.payload["target"])
        if msg.action == CANCEL:
            entry.status.cancelled = True
        if msg.action == COMPROMISE:
            entry.status.compromised = True
            entry.status.cancelled = True
        if msg.action in STICKY_ACTIONS:
            self._purge_revocable(target)
        for sticky, rrset in rrsets:
            self._merge_slot(entry, rrset.rtype, Slot(msg.serial, sticky, rrset))

    # -- audit --

    def subscribe_audit(self, handle: Handle, endpoint_id: str, owner: bool = False) -> Verdict:
        with self._lock:
            key = handle.name_key()
            subs = self._subscribers.setdefault(key, [])
            for sub in subs:
                if sub.endpoint_id == endpoint_id:
                    sub.owner = sub.owner or owner
                    return Verdict.ok()
            if not owner and sum(1 for s in subs if not s.owner) >= self.audit_cap:
                return Verdict.rejected(R_SUBSCRIPTION_LIMIT)
            subs.append(AuditSubscription(handle_key=key, endpoint_id=endpoint_id, owner=owner))
            return Verdict.ok()

    def unsubscribe_audit(self, handle: Handle, endpoint_id: str) -> None:
        with self._lock:
            key = handle.name_key()
            subs = self._subscribers.get(key, [])
            self._subscribers[key] = [s for s in subs if s.endpoint_id != endpoint_id]

    def subscriptions(self, handle: Handle) -> List[AuditSubscription]:
        with self._lock:
            return list(self._subscribers.get(handle.name_key(), []))

    def _notify(self, msg: UpdateMessage, verdict: Verdict, stamp: str) -> None:
        key = name_key(msg.target)
        subs = self._subscribers.get(key)
        entry = self._entries.get(key)
        if entry is not None:
            entry.log.append((msg, verdict))
        if not subs:
            return
        self._event_seq += 1
        event = AuditEvent(
            seq=self._event_seq, handle=msg.target, update=msg, verdict=verdict, stamp=stamp
        )
        for sub in subs:
            if len(sub.queue) == sub.queue.maxlen:
                sub.dropped += 1
            sub.queue.append(event)
            for sink in self._event_sinks:
                sink(sub, event)

    def entry_log(self, handle: Handle) -> List[Tuple[UpdateMessage, Verdict]]:
        with self._lock:
            entry = self._entries.get(handle.name_key())
            return list(entry.log) if entry else []

    # -- queries --

    def _entry(self, handle: Handle) -> Optional[HandleEntry]:
        return self._entries.get(handle.name_key())

    def _sticky_rrsets(self, entry: HandleEntry) -> List[SignedRRset]:
        return [slot.rrset for _, slot in sorted(entry.slots.items()) if slot.sticky]

    def _server_sign(self, records: Sequence[ResourceRecord], now: str) -> SignedRRset:
        params = SignatureParams(
            algorithm=self.server_secret.algorithm,
            label_count=len(name_key(records[0].owner).split(".")),
            original_ttl=records[0].ttl,
            expiration=stamp_add(now, SERVER_SIG_VALIDITY),
            inception=now,
            signer=self.root_zone,
        )
        return SignedRRset(tuple(records), crypto.sign_rrset(records, self.server_secret, params))

    def root_key_rrset(self) -> SignedRRset:
        rec = ResourceRecord(
            owner=self.root_zone, ttl=DEFAULT_TTL, rtype="KEY", rdata=self.server_key.key_bytes
        )
        return SignedRRset((rec,), None)

    def resolve(
        self,
        handle: Handle,
        depth_budget: Optional[int] = None,
        now: Optional[str] = None,
    ) -> Resolution:
        with self._lock:
            return self._resolve_locked(handle, depth_budget, now)

    def _resolve_locked(
        self, handle: Handle, depth_budget: Optional[int], now: Optional[str]
    ) -> Resolution:
        budget = depth_budget if depth_budget is not None else self.depth_budget
        if budget < 1:
            raise ResolutionError("depth budget must be at least 1")
        stamp = now or now_stamp()
        queried = handle.fqdn_no_dot()
        current = handle
        visited = {current.name_key()}
        evidence: List[SignedRRset] = []
        notices: List[SignedRRset] = []
        warnings: List[str] = []
        seen_sets: set = set()
        seen_apexes: set = set()
        rewrites = 0

        def emit(rrset: SignedRRset, irrevocable: bool = False) -> None:
            if rrset in seen_sets:
                return
            seen_sets.add(rrset)
            evidence.append(rrset)
            if irrevocable and rrset.signature is not None:
                if stamp >= rrset.signature.params.expiration:
                    warnings.append(
                        f"stale-irrevocable {rrset.owner} {rrset.rtype}"
                    )

        def finish(outcome: str, address: Optional[str] = None) -> Resolution:
            return Resolution(
                queried=queried,
                outcome=outcome,
                address=address,
                evidence=tuple(evidence),
                transfer_notices=tuple(notices),
                warnings=tuple(warnings),
            )

        while True:
            apex = current.apex()
            if apex.name_key() not in seen_apexes:
                seen_apexes.add(apex.name_key())
                apex_entry = self._entry(apex)
                if apex_entry is not None and "KEY" in apex_entry.slots:
                    emit(apex_entry.slots["KEY"].rrset)

            rewritten = False
            for node in current.ancestry():
                entry = self._entry(node)
                if entry is None:
                    continue
                for sticky_set in self._sticky_rrsets(entry):
                    emit(sticky_set, irrevocable=True)
                if entry.status.compromised:
                    return finish(OUTCOME_COMPROMISED)
                at_target = node.name_key() == current.name_key()
                if at_target and entry.status.cancelled:
                    return finish(OUTCOME_CANCELLED)
                dname = entry.slots.get("DNAME")
                if dname is not None:
                    target_text = dname.rrset.records[0].rdata
                    assert isinstance(target_text, str)
                    dest = parse_handle(target_text, self.root_zone)
                    emit(dname.rrset, irrevocable=dname.sticky)
                    if entry.status.transferred_to is not None:
                        if dname.rrset not in notices:
                            notices.append(dname.rrset)
                    rewrites += 1
                    if rewrites > budget:
                        raise DepthExceededError(
                            f"depth-exceeded after {budget} rewrites resolving {queried}"
                        )
                    current = current.replace_prefix(node, dest)
                    if current.name_key() in visited:
                        raise DelegationLoopError(
                            f"delegation-loop at {current.fqdn_no_dot()} resolving {queried}"
                        )
                    visited.add(current.name_key())
                    rewritten = True
                    break
                if at_target:
                    a_slot = entry.slots.get("A")
                    if a_slot is not None:
                        emit(a_slot.rrset, irrevocable=a_slot.sticky)
                        address = a_slot.rrset.records[0].rdata
                        assert isinstance(address, str)
                        outcome = (
                            OUTCOME_TRANSFERRED_AND_ADDRESS if notices else OUTCOME_ADDRESS
                        )
                        return finish(outcome, address)
                if not at_target and entry.status.cancelled:
                    return finish(OUTCOME_CANCELLED)
            if rewritten:
                continue
            for proof_set in self._nxt_proof(current, stamp):
                emit(proof_set)
            emit(self.root_key_rrset())
            return finish(OUTCOME_NOT_FOUND)

    def _nxt_proof(self, target: Handle, now: str) -> List[SignedRRset]:
        zone, records = self._denial(target)
        return [self._signed_nxt(zone, rec, now) for rec in records]

    def _denial(self, target: Handle) -> Tuple[SortKey, List[ResourceRecord]]:
        """The zone that denies target, and its NXT records that do so.

        The zone is target's owner zone once anything under its apex was
        stored (every commit leaves a slot there), else the root zone. The
        records are the one covering target, then the zone apex's own when
        that is a different one.
        """
        key = canonical_sort_key(target.fqdn_no_dot())
        zone = key[:self._apex_len]
        if _sort_key_name(zone) not in self._entries:
            zone = self._root_key
        index = self._zones[zone]
        i = (bisect_right(index, key) - 1) % len(index)  # -1: the wrap-around record
        records = [self._indexed_nxt(zone, index, i)]
        if i != 0 and index[0] == zone:
            records.append(self._indexed_nxt(zone, index, 0))
        return zone, records

    def _indexed_nxt(self, zone: SortKey, index: List[SortKey], i: int) -> ResourceRecord:
        owner, types = self._nxt_owner(zone, index[i])
        next_owner, _ = self._nxt_owner(zone, index[(i + 1) % len(index)])
        return ResourceRecord(
            owner=owner, ttl=DEFAULT_TTL, rtype="NXT",
            rdata=NxtData(next_owner=next_owner, types=types),
        )

    def _nxt_owner(self, zone: SortKey, key: SortKey) -> Tuple[str, Tuple[str, ...]]:
        """Owner text and NXT type bitmap of one indexed name in one zone."""
        if key == self._root_key:
            # root_zone_snapshot's signed SOA and NS and unsigned KEY
            return self.root_zone, ("KEY", "NS", "NXT", "SIG", "SOA")
        entry = self._entries[_sort_key_name(key)]
        slots = [
            (rtype, slot) for rtype, slot in sorted(entry.slots.items())
            if zone != self._root_key or self._in_root_zone(entry, rtype, slot)
        ]
        types = {rtype for rtype, _ in slots} | {"NXT"}
        if any(slot.rrset.signature is not None for _, slot in slots):
            types.add("SIG")
        return slots[0][1].rrset.owner, tuple(types)

    def _signed_nxt(self, zone: SortKey, rec: ResourceRecord, now: str) -> SignedRRset:
        """rec signed by the server, reusing the last signature of zone's
        record at rec's owner while the record is unchanged, now is not
        before its inception and at least half its validity remains."""
        key = (zone, canonical_sort_key(rec.owner))
        cached = self._nxt_sigs.get(key)
        if cached is not None:
            record, signed, fresh_until = cached
            if record == rec and signed.signature.params.inception <= now <= fresh_until:
                return signed
        signed = self._server_sign([rec], now)
        self._nxt_sigs[key] = (rec, signed, stamp_add(now, SERVER_SIG_VALIDITY // 2))
        return signed

    def query_record(
        self, handle: Handle, rtype: str, now: Optional[str] = None
    ) -> RecordAnswer:
        with self._lock:
            stamp = now or now_stamp()
            status_records: List[SignedRRset] = []
            seen: set = set()
            for node in handle.ancestry():
                entry = self._entry(node)
                if entry is None:
                    continue
                for sticky_set in self._sticky_rrsets(entry):
                    if sticky_set not in seen:
                        seen.add(sticky_set)
                        status_records.append(sticky_set)
            entry = self._entry(handle)
            slot = entry.slots.get(rtype) if entry is not None else None
            if rtype == "NXT" and slot is None:
                proof = self._nxt_proof(handle, stamp)
                cover = proof[0] if proof else None
                return RecordAnswer(
                    found=cover is not None,
                    rrset=cover,
                    status_records=tuple(status_records),
                    proof=tuple(proof),
                )
            if slot is not None:
                return RecordAnswer(
                    found=True,
                    rrset=slot.rrset,
                    status_records=tuple(status_records),
                    proof=(),
                )
            return RecordAnswer(
                found=False,
                rrset=None,
                status_records=tuple(status_records),
                proof=tuple(self._nxt_proof(handle, stamp)),
            )

    # -- zone materialization --

    def claimed_apexes(self) -> List[Handle]:
        out = []
        for entry in self._entries.values():
            if entry.handle.is_apex() and entry.slots:
                out.append(entry.handle)
        return sorted(out, key=lambda h: h.name_key())

    def root_zone_snapshot(
        self, now: Optional[str] = None, include_nxt: bool = True
    ) -> ZoneSnapshot:
        """Root zone: its own SOA/NS/KEY, claimed keys, irrevocable mirrors."""
        with self._lock:
            stamp = now or now_stamp()
            soa = ResourceRecord(
                owner=self.root_zone,
                ttl=DEFAULT_TTL,
                rtype="SOA",
                rdata=SoaData(
                    primary=f"ns.{self.root_zone}",
                    contact=f"hostmaster.{self.root_zone}",
                    serial=self._update_count,
                    refresh=86400,
                    retry=3600,
                    expire=604800,
                    minimum=3600,
                ),
            )
            ns = ResourceRecord(
                owner=self.root_zone, ttl=DEFAULT_TTL, rtype="NS", rdata=f"ns.{self.root_zone}"
            )
            rrsets = [self._server_sign([soa], stamp), self._server_sign([ns], stamp)]
            rrsets.append(self.root_key_rrset())
            for key in self._zones[self._root_key][1:]:
                entry = self._entries[_sort_key_name(key)]
                rrsets.extend(
                    slot.rrset for rtype, slot in sorted(entry.slots.items())
                    if self._in_root_zone(entry, rtype, slot)
                )
            return self._zone(self.root_zone, rrsets, stamp, include_nxt)

    def owner_zone_snapshot(
        self, apex: Handle, now: Optional[str] = None, include_nxt: bool = True
    ) -> ZoneSnapshot:
        with self._lock:
            stamp = now or now_stamp()
            rrsets = [
                slot.rrset for entry in self._subtree(apex) for _, slot in sorted(entry.slots.items())
            ]
            return self._zone(apex.fqdn_no_dot(), rrsets, stamp, include_nxt)

    def _zone(
        self, apex: str, rrsets: List[SignedRRset], now: str, include_nxt: bool
    ) -> ZoneSnapshot:
        # rrsets come in type order within each name: build_nxt_chain takes
        # a name's text from its first set, as _nxt_owner does
        zone = ZoneSnapshot(
            apex=apex,
            rrsets={(name_key(s.owner), s.rtype): s for s in rrsets},
            serial=self._update_count,
        )
        if not include_nxt:
            return zone
        zone_key = canonical_sort_key(apex)
        chain = {
            (name_key(rec.owner), "NXT"): self._signed_nxt(zone_key, rec, now)
            for rec in build_nxt_chain(zone)
        }
        return replace(zone, rrsets={**zone.rrsets, **chain})

    # -- zone ingestion --

    def load_zone(
        self, zone: ZoneSnapshot, now: Optional[str] = None
    ) -> Tuple[int, List[str]]:
        """Ingest record sets from parsed zone text.

        Apex KEY sets establish zone keys (hash-checked against the label).
        Every other set must verify against the key of the zone its signer
        names, expired signatures allowed only for irrevocable content.
        Returns (sets loaded, problems for sets skipped). A bare DNAME is
        taken as a delegation; cancel and compromise flags are recovered
        from their record content.
        """
        with self._lock:
            stamp = now or now_stamp()
            loaded = 0
            problems: List[str] = []
            keys: Dict[str, PublicKey] = {}
            handles: Dict[str, Handle] = {}

            def handle_for(owner: str) -> Optional[Handle]:
                nk = name_key(owner)
                if nk not in handles:
                    try:
                        handles[nk] = parse_handle(owner, self.root_zone)
                    except OnhsError:
                        return None
                return handles[nk]

            for rrset in zone.ordered_rrsets():
                if rrset.rtype != "KEY":
                    continue
                handle = handle_for(rrset.owner)
                if handle is None or not handle.is_apex():
                    continue
                rdata = rrset.records[0].rdata
                assert isinstance(rdata, bytes)
                try:
                    key = PublicKey.from_key_bytes(rdata)
                except OnhsError as exc:
                    problems.append(f"{rrset.owner} KEY: {exc}")
                    continue
                if not verify_key_matches_label(key, handle.apex_label):
                    problems.append(f"{rrset.owner} KEY: hash does not match label")
                    continue
                keys[handle.name_key()] = key

            for rrset in zone.ordered_rrsets():
                handle = handle_for(rrset.owner)
                if handle is None:
                    if name_key(rrset.owner) != name_key(self.root_zone):
                        problems.append(f"{rrset.owner}: not a handle under the root")
                    continue
                if rrset.rtype in ("NXT", "SOA", "NS"):
                    continue  # derived or operator-owned; never ingested
                if rrset.rtype == "KEY":
                    if handle.name_key() not in keys:
                        continue
                    entry = self._ensure_entry(handle)
                    if entry.apex_key is None:
                        entry.apex_key = keys[handle.name_key()]
                    self._merge_slot(entry, "KEY", Slot(0, False, rrset))
                    loaded += 1
                    continue
                sig = rrset.signature
                if sig is None:
                    problems.append(f"{rrset.owner} {rrset.rtype}: unsigned")
                    continue
                signer_key = keys.get(name_key(sig.params.signer))
                if signer_key is None:
                    problems.append(
                        f"{rrset.owner} {rrset.rtype}: no key for signer {sig.params.signer}"
                    )
                    continue
                rec = rrset.records[0]
                cancel_set = rrset.rtype == "A" and rec.rdata == IMPOSSIBLE_ADDRESS
                compromise_set = (
                    rrset.rtype == "TXT"
                    and isinstance(rec.rdata, str)
                    and rec.rdata.startswith("Compromised ")
                )
                sticky = cancel_set or compromise_set
                result = verify_rrset(rrset.records, sig, signer_key, stamp)
                if not result.ok:
                    if result.reason == crypto.REJECT_EXPIRED and sticky:
                        pass  # irrevocable content outlives its signature
                    else:
                        problems.append(
                            f"{rrset.owner} {rrset.rtype}: {result.reason}"
                        )
                        continue
                entry = self._ensure_entry(handle)
                self._merge_slot(entry, rrset.rtype, Slot(0, sticky, rrset))
                if cancel_set:
                    entry.status.cancelled = True
                if compromise_set:
                    entry.status.compromised = True
                    entry.status.cancelled = True
                loaded += 1
            return loaded, problems

    # -- deterministic state dump --

    def dump_state(self) -> str:
        """Canonical text for the whole store, independent of arrival order."""
        with self._lock:
            lines = ["onhs-state-v1", f"root {name_key(self.root_zone)}"]
            for key in sorted(self._entries):
                entry = self._entries[key]
                st = entry.status
                observable = (
                    entry.slots
                    or entry.apex_key is not None
                    or st.cancelled
                    or st.compromised
                    or st.transferred_to is not None
                )
                if not observable:
                    # an ancestor shell left by vivification or purging;
                    # no query can distinguish it from absence
                    continue
                lines.append(
                    f"entry {key} cancelled={int(st.cancelled)} "
                    f"compromised={int(st.compromised)} "
                    f"transferred_to={name_key(st.transferred_to) if st.transferred_to else '-'}"
                )
                if entry.apex_key is not None:
                    lines.append(
                        f"  apexkey {entry.apex_key.algorithm} "
                        f"{base64.b64encode(entry.apex_key.key_bytes).decode()}"
                    )
                for rtype in sorted(entry.slots):
                    slot = entry.slots[rtype]
                    lines.append(
                        f"  slot {rtype} serial={slot.serial} sticky={int(slot.sticky)}"
                    )
                    for rec in slot.rrset.records:
                        lines.append(f"    rec {rec.ttl} {rec.canonical_rdata_text()}")
                    sig = slot.rrset.signature
                    if sig is not None:
                        p = sig.params
                        lines.append(
                            f"    sig {p.algorithm} {p.label_count} {p.original_ttl} "
                            f"{p.expiration} {p.inception} {name_key(p.signer)} "
                            f"{base64.b64encode(sig.signature_bytes).decode()}"
                        )
            return "\n".join(lines) + "\n"

    # -- state audit --

    def audit_store(self, now: Optional[str] = None) -> List[str]:
        """Cross-check every stored record set against its authority key.

        Returns human-readable violations; an empty list means the store is
        internally consistent. Expired signatures on sticky slots are fine
        (irrevocable records outlive their signatures by design).
        """
        with self._lock:
            stamp = now or now_stamp()
            problems = []
            for key in sorted(self._entries):
                entry = self._entries[key]
                apex_entry = self._entries.get(entry.handle.apex().name_key())
                apex_key = apex_entry.apex_key if apex_entry else None
                for rtype, slot in sorted(entry.slots.items()):
                    sig = slot.rrset.signature
                    if sig is None:
                        if rtype != "KEY":
                            problems.append(f"{key} {rtype}: unsigned")
                        continue
                    verify_key = apex_key
                    if verify_key is None:
                        continue  # never claimed: self-certified messages only
                    result = verify_rrset(slot.rrset.records, sig, verify_key, stamp)
                    if not result.ok and result.reason == crypto.REJECT_EXPIRED:
                        if not slot.sticky:
                            problems.append(f"{key} {rtype}: expired signature")
                        continue
                    if not result.ok:
                        problems.append(f"{key} {rtype}: {result.reason}")
            return problems
