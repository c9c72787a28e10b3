"""Authoritative handle server: update processing and resolution.

State is organized so that the final store depends only on the set of
accepted updates, never on their arrival order or multiplicity:

  * per-(handle, rtype) slots keep the record set with the highest serial,
    ties broken by canonical payload text, then signature octets;
  * a transfer's DNAME set and the sets records.is_irrevocable calls a
    cancel or a compromise occupy sticky slots that revocable updates
    cannot displace; a name's status is read from them;
  * a sticky set purges revocable slots in the subtree it kills, the
    mirror image of the rule that rejects revocable updates arriving after
    it (KEY slots survive: verifiers always need the key);
  * every update carries the authority public key, which is checked against
    the apex label hash, so a message is verifiable on arrival even when it
    outruns the claim it depends on; once the apex is claimed it must also
    be the key in the apex's KEY slot.

_action_records holds what each update action writes: the make_* builders
sign its records, and HandleServer verifies an update against them. walk
holds the resolution rules; HandleServer.resolve and
client.verify_resolution both run it. apex_key and signed_set_verdict hold
the rule for which key vouches for a signed set, which updates, zone
loads, audit_store and client.verify_resolution all apply.
"""

from __future__ import annotations

import base64
import binascii
import datetime
import json
import re
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
    HandleStructureError,
    OnhsError,
    ParamsMismatchError,
    ResolutionError,
    RRsetFormatError,
)
from .handles import Handle, parse_handle, parse_label
# build_nxt_chain and covering_nxt are not called in this module; they stay
# imported because perfbench/tracer.py wraps both here by name.
from .records import (
    CACHE_CAP,
    DEFAULT_TTL,
    IMPOSSIBLE_ADDRESS,
    LruCache,
    NxtData,
    ResourceRecord,
    SignedRRset,
    SoaData,
    ZoneSnapshot,
    build_nxt_chain,
    canonical_sort_key,
    covering_nxt,
    is_irrevocable,
    name_key,
    parse_rrset,
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
AUDIT_QUEUE_LEN = 1024
DEFAULT_VALIDITY = 7 * 86400
IRREVOCABLE_VALIDITY = 10 * 366 * 86400
SERVER_SIG_VALIDITY = 86400


@dataclass(frozen=True, slots=True)
class Verdict:
    accepted: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def tag(self) -> str:
        return "accepted" if self.accepted else f"rejected:{self.reason}"

    def to_dict(self) -> dict:
        return {"accepted": self.accepted, "reason": self.reason, "detail": self.detail}

    @staticmethod
    def from_dict(data: dict) -> "Verdict":
        return Verdict(bool(data["accepted"]), data.get("reason"), data.get("detail"))

    @staticmethod
    def from_tag(tag: str) -> "Verdict":
        """The verdict tag() was taken from, less its detail."""
        if tag == "accepted":
            return Verdict(True)
        kind, sep, reason = tag.partition(":")
        if kind != "rejected" or not sep:
            raise ValueError(f"bad verdict tag {tag!r}")
        return Verdict(False, reason)

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
            target=body_field(data, "target", str, "update"),
            action=body_field(data, "action", str, "update"),
            payload=dict(body_field(data, "payload", dict, "update")),
            serial=body_field(data, "serial", int, "update"),
            signer_key=public_key_from_dict(
                body_field(data, "signer_key", dict, "update"), "update field 'signer_key'"
            ),
            signature=signature_from_dict(
                body_field(data, "signature", dict, "update"), "update field 'signature'"
            ),
        )


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_type(value: object) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def body_field(data: object, name: str, kind: type, where: str):
    """data[name], which must be a JSON value of type kind.

    A ValueError naming the field and what was found takes the place of the
    KeyError or TypeError that indexing a malformed body would raise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, not {_json_type(data)}")
    if name not in data:
        raise ValueError(f"{where} lacks field {name!r}")
    value = data[name]
    if type(value) is not kind:
        raise ValueError(
            f"{where} field {name!r} must be {_JSON_TYPES[kind]}, not {_json_type(value)}"
        )
    return value


def base64_field(data: object, name: str, where: str) -> bytes:
    """The octets of data[name], which must be a base64 string."""
    try:
        return base64.b64decode(body_field(data, name, str, where), validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{where} field {name!r} is not base64: {exc}") from None


def canonical_json(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# -- the update log's line form --


def encode_log_line(msg: UpdateMessage, verdict: Verdict, stamp: str) -> str:
    """One updates.log line: base64 canonical update, verdict tag, arrival stamp."""
    blob = base64.b64encode(canonical_json(msg.to_dict())).decode()
    return f"{blob} {verdict.tag()} {stamp}"


def decode_log_line(raw: bytes) -> Tuple[UpdateMessage, Verdict, str]:
    """The update, verdict (without detail) and arrival stamp of one line."""
    blob, _, rest = raw.decode("utf-8").strip().partition(" ")
    tag, _, stamp = rest.rpartition(" ")
    msg = UpdateMessage.from_dict(json.loads(base64.b64decode(blob, validate=True)))
    return msg, Verdict.from_tag(tag), crypto.check_stamp(stamp)


# -- plain-dict codecs for the pieces updates and answers are made of --


def public_key_to_dict(key: PublicKey) -> dict:
    return {"algorithm": key.algorithm, "key": base64.b64encode(key.key_bytes).decode()}


def public_key_from_dict(data: object, where: str) -> PublicKey:
    """The key in data; a ValueError names the field at fault."""
    algorithm = body_field(data, "algorithm", int, where)
    key_bytes = base64_field(data, "key", where)
    try:
        return PublicKey(algorithm=algorithm, key_bytes=key_bytes)
    except OnhsError as exc:
        raise ValueError(f"{where} field 'key': {exc}") from None


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


def signature_from_dict(data: object, where: str) -> RecordSignature:
    """The signature in data; a ValueError names the field at fault."""
    try:
        params = SignatureParams(
            algorithm=body_field(data, "algorithm", int, where),
            label_count=body_field(data, "label_count", int, where),
            original_ttl=body_field(data, "original_ttl", int, where),
            expiration=body_field(data, "expiration", str, where),
            inception=body_field(data, "inception", str, where),
            signer=body_field(data, "signer", str, where),
        )
    except ParamsMismatchError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return RecordSignature(params=params, signature_bytes=base64_field(data, "signature", where))


# -- record sets in answers --
#
# A set travels as {"octets": base64 of its canonical octets, "signature":
# base64 of its signature octets, or null for an unsigned set}. The octets
# carry the records and the signature params; see records.parse_rrset.

# Sets decoded from answers in this process, by the two strings they
# arrived as: answers repeat the sets of earlier ones (zone keys, denial
# records), and a hit skips base64, parsing and the check that the octets
# encode back to themselves. Only answers are decoded here, so the server
# never fills it.
received_sets = LruCache(CACHE_CAP)


def _set_to_json(rrset: SignedRRset) -> dict:
    sig = rrset.signature
    return {
        "octets": base64.b64encode(rrset.canonical_bytes()).decode(),
        "signature": None if sig is None else base64.b64encode(sig.signature_bytes).decode(),
    }


def _set_from_json(data: object, where: str) -> SignedRRset:
    octets = body_field(data, "octets", str, where)
    signature = _optional_field(data, "signature", str, where)
    key = (octets, signature)
    rrset = received_sets.get(key)
    if rrset is None:
        try:
            rrset = parse_rrset(
                base64_field(data, "octets", where),
                None if signature is None else base64_field(data, "signature", where),
            )
        except RRsetFormatError as exc:
            raise RRsetFormatError(f"{where}: {exc}") from None
        received_sets.put(key, rrset)
    return rrset


def _sets_from_json(data: object, name: str, where: str) -> Tuple[SignedRRset, ...]:
    items = body_field(data, name, list, where)
    return tuple(
        _set_from_json(item, f"{where} field {name!r} item {i}") for i, item in enumerate(items)
    )


def _optional_field(data: object, name: str, kind: type, where: str):
    """data[name] as body_field gives it, or None when it is null or absent."""
    if isinstance(data, dict) and data.get(name) is None:
        return None
    return body_field(data, name, kind, where)


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
            "evidence": [_set_to_json(s) for s in self.evidence],
            "transfer_notices": [_set_to_json(s) for s in self.transfer_notices],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_dict(data: dict) -> "Resolution":
        """The resolution to_dict gave data for, but with every owner name
        in lower case. A ValueError or RRsetFormatError names the field at
        fault."""
        where = "resolution"
        warnings = body_field(data, "warnings", list, where)
        for i, warning in enumerate(warnings):
            if type(warning) is not str:
                raise ValueError(f"{where} field 'warnings' item {i} must be a string")
        return Resolution(
            queried=body_field(data, "queried", str, where),
            outcome=body_field(data, "outcome", str, where),
            address=_optional_field(data, "address", str, where),
            evidence=_sets_from_json(data, "evidence", where),
            transfer_notices=_sets_from_json(data, "transfer_notices", where),
            warnings=tuple(warnings),
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
            "rrset": None if self.rrset is None else _set_to_json(self.rrset),
            "status_records": [_set_to_json(s) for s in self.status_records],
            "proof": [_set_to_json(s) for s in self.proof],
        }

    @staticmethod
    def from_dict(data: dict) -> "RecordAnswer":
        """As Resolution.from_dict, for a query_record answer."""
        where = "answer"
        rrset = _optional_field(data, "rrset", dict, where)
        return RecordAnswer(
            found=body_field(data, "found", bool, where),
            rrset=None if rrset is None else _set_from_json(rrset, f"{where} field 'rrset'"),
            status_records=_sets_from_json(data, "status_records", where),
            proof=_sets_from_json(data, "proof", where),
        )


# ---- the resolution walk ---------------------------------------------------

# One name's record sets by type, and whether its DNAME set is a transfer.
NodeSets = Tuple[Mapping[str, SignedRRset], bool]
NO_SETS: NodeSets = ({}, False)


@dataclass(frozen=True, slots=True)
class Walk:
    """What walk found. evidence lists the sets it relied on, in the order
    it met them; notices the transfers it followed; irrevocable the
    evidence sets no update can revoke. final is the name it ended at."""

    outcome: str
    address: Optional[str]
    final: Handle
    evidence: List[SignedRRset]
    notices: List[SignedRRset]
    irrevocable: List[SignedRRset]


def irrevocable_sets(node: NodeSets) -> List[SignedRRset]:
    """A name's cancel, transfer and compromise sets, in type order."""
    sets, transfer = node
    out = []
    for rtype in ("A", "DNAME", "TXT"):
        rrset = sets.get(rtype)
        if rrset is not None and (transfer if rtype == "DNAME" else is_irrevocable(rrset)):
            out.append(rrset)
    return out


def walk(queried: Handle, lookup: Callable[[str], NodeSets], budget: int) -> Walk:
    """Resolve queried over the record sets lookup gives for each name key.

    These are the resolution rules, in their one copy: HandleServer.resolve
    walks its store, client.verify_resolution the evidence that verified.
    Each pass goes from the apex toward the current name and restarts
    whenever a DNAME set rewrites it, so every name on the path is seen
    from its apex down. records.is_irrevocable tells a cancel and a
    compromise from other content; a transfer is a DNAME set lookup marks
    as one. A compromise anywhere on the path is terminal. A cancel is
    terminal at the current name itself, but a transfer record at a
    cancelled ancestor still redirects names below it, which is what lets
    a retired key hierarchy keep forwarding to its successor. An address
    is served only from the current name's own A set, and a transfer
    followed on the way makes it TRANSFERRED_AND_ADDRESS. A walk that
    finds neither ends NOT_FOUND at the current name, which the caller
    must back with a denial proof.

    Irrevocable sets outlive their signatures: they are served and
    accepted past their expiration, with a stale-irrevocable warning, so
    a revocation never lapses because nobody re-signed it.

    Raises DepthExceededError after more than budget rewrites,
    DelegationLoopError on a rewrite to a name already visited, and
    ResolutionError on a DNAME target that is not a handle.
    """
    evidence: List[SignedRRset] = []
    notices: List[SignedRRset] = []
    irrevocable: List[SignedRRset] = []
    seen: set = set()  # ids: lookup gives one object per name and type

    def emit(rrset: SignedRRset, sticky: bool = False) -> None:
        if id(rrset) not in seen:
            seen.add(id(rrset))
            evidence.append(rrset)
            if sticky:
                irrevocable.append(rrset)

    def done(outcome: str, address: Optional[str] = None) -> Walk:
        return Walk(outcome, address, current, evidence, notices, irrevocable)

    current = queried
    visited = {current.name_key()}
    apexes: set = set()
    rewrites = 0
    while True:
        current_key = current.name_key()
        for node in current.ancestry():
            node_key = node.name_key()
            node_sets = lookup(node_key)
            sets, transfer = node_sets
            if node_key not in apexes and node.is_apex():
                apexes.add(node_key)
                if "KEY" in sets:
                    emit(sets["KEY"])
            stuck = {rrset.rtype: rrset for rrset in irrevocable_sets(node_sets)}
            for rrset in stuck.values():
                emit(rrset, sticky=True)
            if "TXT" in stuck:
                return done(OUTCOME_COMPROMISED)
            at_target = node_key == current_key
            if at_target and "A" in stuck:
                return done(OUTCOME_CANCELLED)
            dname = sets.get("DNAME")
            if dname is not None:
                try:
                    dest = parse_handle(dname.records[0].rdata, queried.root_suffix)
                except OnhsError as exc:
                    raise ResolutionError(f"{node_key} DNAME target unusable: {exc}") from exc
                emit(dname)
                if transfer and dname not in notices:
                    notices.append(dname)
                rewrites += 1
                if rewrites > budget:
                    raise DepthExceededError(
                        f"depth-exceeded after {budget} rewrites resolving {queried.fqdn_no_dot()}"
                    )
                current = current.replace_prefix(node, dest)
                if current.name_key() in visited:
                    at = current.fqdn_no_dot()
                    raise DelegationLoopError(
                        f"delegation-loop at {at} resolving {queried.fqdn_no_dot()}", at
                    )
                visited.add(current.name_key())
                break
            address_set = sets.get("A")
            if at_target and address_set is not None:
                emit(address_set)
                address = address_set.records[0].rdata
                assert isinstance(address, str)
                return done(
                    OUTCOME_TRANSFERRED_AND_ADDRESS if notices else OUTCOME_ADDRESS, address
                )
            if "A" in stuck:
                return done(OUTCOME_CANCELLED)
        else:
            return done(OUTCOME_NOT_FOUND)


# ---- which key vouches for a signed set ------------------------------------
#
# The one copy of the authority rule. HandleServer._process, load_zone,
# audit_store and client.verify_resolution each give it their keys and map
# its verdicts to their own vocabulary. Names here are name keys, and root
# is the root zone's.

V_OK = "ok"
V_STALE = "stale-irrevocable"
V_WRONG_SIGNER = "wrong-signer"
V_NO_KEY = "no-signer-key"


def zone_apex(owner: str, root: str) -> Optional[str]:
    """The apex at or above owner, or None when owner is not below root."""
    if not owner.endswith("." + root):
        return None
    return owner[:-len(root) - 1].rpartition(".")[2] + "." + root


def apex_key(key_bytes: bytes, owner: str, root: str) -> Tuple[Optional[PublicKey], str]:
    """Which key an owner's KEY set vouches with: (the key key_bytes
    encode, V_OK) when owner is an apex under root whose PK label's
    algorithm and hash suffix belong to that key, or is the root, whose key
    is taken as served and vouches only for NXT sets; else (None, why):
    bad-key-bytes, bad-owner or label-mismatch."""
    try:
        key = PublicKey.from_key_bytes(key_bytes)
    except OnhsError:
        return None, "bad-key-bytes"
    if owner == root:
        return key, V_OK
    if zone_apex(owner, root) != owner:
        return None, "bad-owner"
    try:
        bound = verify_key_matches_label(key, parse_label(owner[:-len(root) - 1]))
    except OnhsError:  # not a PK label
        return None, "bad-owner"
    return (key, V_OK) if bound else (None, "label-mismatch")


class BoundApexKeys(LruCache):
    """apex_key's answers in this process, for reuse.

    apex_key is pure, so an entry keyed on all of its inputs (the key
    bytes, the owner and the root) is its answer for good, a refusal as
    well as a bound key. Past cap entries, the least recently used one goes.
    The key bytes come from a PublicKey or a KEY record, which both refuse
    more than crypto.MAX_KEY_PAYLOAD octets, so an entry stays small.
    """

    def __call__(self, key_bytes: bytes, owner: str, root: str) -> Tuple[Optional[PublicKey], str]:
        entry = (key_bytes, owner, root)
        bound = self.get(entry)
        if bound is None:
            bound = apex_key(key_bytes, owner, root)
            self.put(entry, bound)
        return bound


# Filled by update intake and through ApexKeys: the updates to an apex are
# signed by its key, and the answers under it carry its KEY set, so each
# apex key is bound, and its RSA key built, once for all of them.
bound_apex_keys = BoundApexKeys(CACHE_CAP)


class ApexKeys(dict):
    """owner -> apex_key of the KEY set key_sets holds for owner, worked
    out on first use through bound_apex_keys; (None, V_NO_KEY) where
    key_sets holds none."""

    def __init__(self, key_sets: Mapping[str, SignedRRset], root: str) -> None:
        super().__init__()
        self.key_sets = key_sets
        self.root = root

    def __missing__(self, owner: str) -> Tuple[Optional[PublicKey], str]:
        key_set = self.key_sets.get(owner)
        self[owner] = bound = (
            (None, V_NO_KEY) if key_set is None
            else bound_apex_keys(key_set.records[0].rdata, owner, self.root)
        )
        return bound

    def key(self, owner: str) -> Optional[PublicKey]:
        return self[owner][0]


def signed_set_verdict(
    rrset: SignedRRset,
    key_of: Callable[[str], Optional[PublicKey]],
    root: str,
    now: str,
    sticky: bool,
    check: crypto.SignatureCheck = crypto.rsa_check,
) -> str:
    """Whether rrset counts at now. Its authority is its owner's apex, or
    the root for an NXT set; its signer field must name that authority,
    and its signature must hold under key_of(authority), the key the
    caller holds for it. A sticky set whose signature has expired still
    counts, as V_STALE, when the signature holds at its inception.

    Returns V_OK, V_STALE, or why not: unsigned, V_WRONG_SIGNER, V_NO_KEY
    or a crypto.verify_rrset reason.
    """
    sig = rrset.signature
    if sig is None:
        return "unsigned"
    authority = root if rrset.rtype == "NXT" else zone_apex(name_key(rrset.owner), root)
    if authority is None or name_key(sig.params.signer) != authority:
        return V_WRONG_SIGNER
    key = key_of(authority)
    if key is None:
        return V_NO_KEY
    stale = sticky and crypto.check_stamp(now) >= sig.params.expiration
    at = sig.params.inception if stale else now
    result = verify_rrset(rrset.records, sig, key, at, check, rrset.canonical)
    if not result.ok:
        return result.reason
    return V_STALE if stale else V_OK


# ---- internal state --------------------------------------------------------

SortKey = Tuple[bytes, ...]  # a name's canonical_sort_key


def _sort_key_name(key: SortKey) -> str:
    """The name key a canonical sort key was made from."""
    return ".".join(label.decode() for label in reversed(key))


def _fresh(cached: Tuple[SignedRRset, str], now: str) -> bool:
    """Whether a cached NXT set may be served at now: not before its
    inception, and with at least half its validity left."""
    signed, fresh_until = cached
    return signed.signature.params.inception <= now <= fresh_until


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class HandleEntry:
    handle: Handle
    sort_key: SortKey
    slots: Dict[str, Slot] = field(default_factory=dict)
    log: array = field(default_factory=lambda: array("q"))  # offsets of its log lines

    def sticky(self, rtype: str) -> Optional[SignedRRset]:
        """The set in rtype's slot when that slot is sticky: a cancel (A),
        transfer (DNAME) or compromise (TXT)."""
        slot = self.slots.get(rtype)
        return slot.rrset if slot is not None and slot.sticky else None

    @property
    def cancelled(self) -> bool:
        """Cancelled or compromised."""
        return self.sticky("A") is not None or self.sticky("TXT") is not None


class AuditSubscriber:
    """One subscribing endpoint: the handles it watches, each with whether
    it holds the owner slot there, and up to AUDIT_QUEUE_LEN events waiting
    for it, oldest first; on overflow the oldest is dropped and counted.
    Its own lock guards them, never the server's, so a writer stuck on its
    connection holds up no update.
    """

    def __init__(self) -> None:
        self.owner_of: Dict[str, bool] = {}  # handle key -> holds the owner slot
        self.events: deque = deque(maxlen=AUDIT_QUEUE_LEN)
        self.dropped = 0
        self._closed = False
        self._ready = threading.Condition(threading.Lock())

    def put(self, event: AuditEvent) -> None:
        with self._ready:
            if len(self.events) == self.events.maxlen:
                self.dropped += 1
            self.events.append(event)
            self._ready.notify()

    def take(self) -> Optional[AuditEvent]:
        """The oldest waiting event, waiting for one; None once closed."""
        with self._ready:
            while not self.events and not self._closed:
                self._ready.wait()
            return None if self._closed else self.events.popleft()

    def close(self) -> None:
        with self._ready:
            self._closed = True
            self._ready.notify_all()


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
            "verdict": self.verdict.to_dict(),
            "stamp": self.stamp,
        }


class _Malformed(OnhsError):
    """Internal: update payload failed structural validation."""


# ---- update actions --------------------------------------------------------


def normalize_compromise_note(text: str) -> str:
    """Accept ISO YYYY-MM-DD or legacy DD/MM/YYYY naming a day that
    exists; return ISO."""
    text = text.strip()
    iso = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", text)
    legacy = re.fullmatch(r"(\d{2})/(\d{2})/(\d{4})", text)
    if iso:
        year, month, day = iso.groups()
    elif legacy:
        day, month, year = legacy.groups()
    else:
        raise _Malformed(f"compromise date {text!r} not understood")
    try:
        datetime.date(int(year), int(month), int(day))
    except ValueError as exc:
        raise _Malformed(f"compromise date {text!r}: {exc}") from None
    return f"{year}-{month}-{day}"


def _action_records(
    action: str, owner: str, payload: object, root_zone: str
) -> List[Tuple[ResourceRecord, ...]]:
    """The records of each signed set an update of action to owner carries:
    one set, or for a compromise its TXT set and then its cancel's A set.

    This is the one copy of what each action writes: the make_* builders
    sign these records, and HandleServer verifies an update's signatures
    over them. Raises _Malformed when payload cannot make them.
    """
    if not isinstance(payload, dict):
        raise _Malformed("payload must be a mapping")
    ttl = payload.get("ttl", DEFAULT_TTL)
    if not isinstance(ttl, int) or ttl < 0:
        raise _Malformed("bad ttl")

    def one(rtype: str, rdata) -> Tuple[ResourceRecord, ...]:
        return (ResourceRecord(owner=owner, ttl=ttl, rtype=rtype, rdata=rdata),)

    try:
        if action == CLAIM:
            body_field(payload, "algorithm", int, "claim payload")
            return [one("KEY", base64_field(payload, "key", "claim payload"))]
        if action == CREATE_CHILD:
            return [one("TXT", "Created")]
        if action == ASSIGN:
            address = payload.get("address")
            if not isinstance(address, str):
                raise _Malformed("assign payload needs an address")
            if address == IMPOSSIBLE_ADDRESS:
                raise _Malformed(f"address {IMPOSSIBLE_ADDRESS} is reserved for cancel")
            return [one("A", address)]
        if action in (DELEGATE, TRANSFER):
            dest = payload.get("target")
            if not isinstance(dest, str):
                raise _Malformed(f"{action.lower()} payload needs a target")
            return [one("DNAME", parse_handle(dest, root_zone).fqdn_no_dot())]
        if action == CANCEL:
            return [one("A", IMPOSSIBLE_ADDRESS)]
        if action == COMPROMISE:
            note = payload.get("note")
            if not isinstance(note, str):
                raise _Malformed("compromise payload needs a note date")
            iso = normalize_compromise_note(note)
            return [one("TXT", f"Compromised {iso}"), one("A", IMPOSSIBLE_ADDRESS)]
    except (OnhsError, ValueError) as exc:
        raise _Malformed(str(exc)) from exc
    raise _Malformed(f"unknown action {action!r}")


def _sign(
    records: Sequence[ResourceRecord], secret: SecretKey, signer: str, now: str, validity: int
) -> RecordSignature:
    """secret's signature over records as signer, valid from now for validity seconds."""
    params = SignatureParams(
        algorithm=secret.algorithm,
        label_count=crypto.name_labels(records[0].owner),
        original_ttl=records[0].ttl,
        expiration=stamp_add(now, validity),
        inception=now,
        signer=signer,
    )
    return crypto.sign_rrset(records, secret, params)


def _make_update(
    secret: SecretKey,
    target: Handle,
    action: str,
    payload: dict,
    serial: int,
    now: Optional[str],
    validity: int,
) -> UpdateMessage:
    """The builders' shared body: sign each set _action_records gives. A
    compromise's payload takes its cancel's signature."""
    now = now or now_stamp()
    owner, signer = target.fqdn_no_dot(), target.apex().fqdn_no_dot()
    signatures = [
        _sign(records, secret, signer, now, validity)
        for records in _action_records(action, owner, payload, target.root_suffix_no_dot())
    ]
    if action == COMPROMISE:
        payload["cancel_signature"] = signature_to_dict(signatures[1])
    return UpdateMessage(
        target=owner,
        action=action,
        payload=payload,
        serial=serial,
        signer_key=secret.public_key(),
        signature=signatures[0],
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
    pub = secret.public_key()
    label = crypto.derive_pk_label(pub, suffix_len)
    target = Handle(labels=(label,), root_suffix=strip_dot(root_zone))
    payload = {"key": base64.b64encode(pub.key_bytes).decode(), "algorithm": pub.algorithm, "ttl": ttl}
    return _make_update(secret, target, CLAIM, payload, serial, now, validity)


def make_create_child(
    secret: SecretKey,
    target: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = DEFAULT_VALIDITY,
) -> UpdateMessage:
    return _make_update(secret, target, CREATE_CHILD, {"ttl": ttl}, serial, now, validity)


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
    payload = {"address": address, "ttl": ttl}
    return _make_update(secret, target, ASSIGN, payload, serial, now, validity)


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
    payload = {"target": delegate_to.fqdn_no_dot(), "ttl": ttl}
    return _make_update(secret, target, DELEGATE, payload, serial, now, validity)


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
    payload = {"target": transfer_to.fqdn_no_dot(), "ttl": ttl}
    return _make_update(secret, target, TRANSFER, payload, serial, now, validity)


def make_cancel(
    secret: SecretKey,
    target: Handle,
    serial: int,
    *,
    ttl: int = DEFAULT_TTL,
    now: Optional[str] = None,
    validity: int = IRREVOCABLE_VALIDITY,
) -> UpdateMessage:
    return _make_update(secret, target, CANCEL, {"ttl": ttl}, serial, now, validity)


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
    payload = {"note": normalize_compromise_note(note_date), "ttl": ttl}
    return _make_update(secret, target, COMPROMISE, payload, serial, now, validity)


# ---- the server ------------------------------------------------------------


class HandleServer:
    """Single-writer authoritative store for one handle root zone.

    Denial proofs come from one sorted index of owner names per zone: an
    owner zone lists the names under its apex that hold a slot; the root
    zone lists the root, every apex holding a KEY slot and every name
    holding a sticky slot, as root_zone_snapshot mirrors them. Bisection
    finds a denied name's NXT records, and a zone export walks the same
    index and reads the same cache, so both hand out the same signed sets.

    Each NXT set is signed once and cached by zone and owner, then served
    as it is while fresh. A write marks the cached sets whose record it can
    change, the written name's own and its predecessor's in each zone it is
    in; a marked set is rebuilt before it is next served, and re-signed
    only when its record did change. A name that leaves a zone drops its
    cached set there, so the cache holds no more than the zone indexes.
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
        # (zone, owner) -> (signed NXT set holding its octets, last stamp to serve it at)
        self._nxt_sigs: Dict[Tuple[SortKey, SortKey], Tuple[SignedRRset, str]] = {}
        # keys of cached NXT sets whose record a write may have changed since
        self._nxt_marked: Set[Tuple[SortKey, SortKey]] = set()
        # unsigned: verifiers take the server's key as served, for denial records only
        self._root_key_rrset = SignedRRset((ResourceRecord(
            owner=self.root_zone, ttl=DEFAULT_TTL, rtype="KEY", rdata=self.server_key.key_bytes
        ),)).encoded()
        self._subscribers: Dict[str, List[AuditSubscriber]] = {}  # by handle key
        self._endpoints: Dict[str, AuditSubscriber] = {}  # by endpoint id
        self._event_seq = 0
        self._log_writer: Optional[Callable[[str], Optional[int]]] = None
        self._lock = threading.RLock()

    # -- persistence hooks --

    def set_log_writer(self, writer: Optional[Callable[[str], Optional[int]]]) -> None:
        """Install the append-only log sink; one line per apply_update call.

        The writer returns the byte offset of the line it wrote; the target's
        entry keeps it, and the audit backlog reads the line back from there.
        Without a writer the server keeps no update history.
        """
        self._log_writer = writer

    @property
    def update_count(self) -> int:
        """apply_update calls so far, accepted or not; the zone serial."""
        return self._update_count

    # -- update path --

    def apply_update(
        self, msg: UpdateMessage, now: Optional[str] = None, *, logged_at: Optional[int] = None
    ) -> Verdict:
        """Process one update and log it.

        logged_at is where the update's line already sits in the log, when
        it is replayed from there; the line is then not written again.
        """
        with self._lock:
            stamp = now or now_stamp()
            verdict = self._process(msg, stamp)
            self._update_count += 1
            if logged_at is None and self._log_writer is not None:
                logged_at = self._log_writer(encode_log_line(msg, verdict, stamp))
            if logged_at is not None:
                entry = self._entries.get(name_key(msg.target))
                if entry is not None:
                    entry.log.append(logged_at)
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
        apex_name, root = apex.name_key(), name_key(self.root_zone)
        signer, why = bound_apex_keys(msg.signer_key.key_bytes, apex_name, root)
        if why != V_OK:
            reason = R_KEY_LABEL_MISMATCH if msg.action == CLAIM else R_WRONG_AUTHORITY
            return Verdict.rejected(reason, "key hash does not end in the label suffix")

        held = self._apex_key(apex)
        if held is not None and held != signer:
            reason = R_ALREADY_CLAIMED if msg.action == CLAIM else R_WRONG_AUTHORITY
            return Verdict.rejected(reason, "another key holds this apex")

        try:
            rrsets = self._materialize(msg, target)
        except _Malformed as exc:
            return Verdict.rejected(R_MALFORMED, str(exc))

        key_of = {apex_name: signer}.get
        for rrset in rrsets:
            why = signed_set_verdict(rrset, key_of, root, stamp, sticky=False)
            if why == V_WRONG_SIGNER:
                return Verdict.rejected(
                    R_WRONG_AUTHORITY, f"signer {rrset.signature.params.signer} is not the apex"
                )
            if why == crypto.REJECT_EXPIRED:
                return Verdict.rejected(R_EXPIRED_SIGNATURE)
            if why == crypto.REJECT_PARAMS_MISMATCH:
                return Verdict.rejected(R_MALFORMED, "signature params mismatch")
            if why != V_OK:
                return Verdict.rejected(R_BAD_SIGNATURE, why)

        gate = self._gate(msg.action, target, rrsets)
        if gate is not None:
            return gate

        self._commit(msg, target, rrsets)
        return Verdict.ok()

    def _apex_key(self, handle: Handle) -> Optional[PublicKey]:
        """The key in the KEY slot of handle's apex, put there by its claim
        or by load_zone; None while the apex is unclaimed."""
        entry = self._entries.get(handle.apex().name_key())
        slot = entry.slots.get("KEY") if entry is not None else None
        return None if slot is None else PublicKey.from_key_bytes(slot.rrset.records[0].rdata)

    def _materialize(self, msg: UpdateMessage, target: Handle) -> List[SignedRRset]:
        """The signed sets msg carries, as _action_records builds them. Only
        a received update needs the two checks made here: a claim's payload
        key is its signer's, and a compromise carries its cancel's signature."""
        sets = _action_records(msg.action, target.fqdn_no_dot(), msg.payload, self.root_zone)
        key = msg.signer_key
        if msg.action == CLAIM and (
            sets[0][0].rdata != key.key_bytes or msg.payload["algorithm"] != key.algorithm
        ):
            raise _Malformed("claim payload key differs from signer key")
        signatures = [msg.signature]
        try:
            if msg.action == COMPROMISE:
                signatures.append(signature_from_dict(
                    body_field(msg.payload, "cancel_signature", dict, "compromise payload"),
                    "compromise payload field 'cancel_signature'",
                ))
            return [SignedRRset(records, sig) for records, sig in zip(sets, signatures)]
        except (OnhsError, ValueError) as exc:  # a signature that does not decode or fit
            raise _Malformed(str(exc)) from exc

    # -- gates --

    def _sticky_block(self, target: Handle) -> Optional[Verdict]:
        for node in target.ancestry():
            entry = self._entries.get(node.name_key())
            if entry is None:
                continue
            if entry.cancelled:
                return Verdict.rejected(R_HANDLE_CANCELLED, f"{node.fqdn_no_dot()} is cancelled")
            if entry.sticky("DNAME") is not None:
                return Verdict.rejected(
                    R_HANDLE_TRANSFERRED, f"{node.fqdn_no_dot()} was transferred"
                )
        return None

    def _gate(
        self, action: str, target: Handle, rrsets: List[SignedRRset]
    ) -> Optional[Verdict]:
        entry = self._entries.get(target.name_key())
        if action == CLAIM:
            if not target.is_apex():
                return Verdict.rejected(R_MALFORMED, "claim target must be an apex handle")
            return None
        if action == CREATE_CHILD:
            if target.is_apex():
                return Verdict.rejected(R_UNKNOWN_PARENT, "an apex handle has no parent")
            return self._sticky_block(target)
        if action in (ASSIGN, DELEGATE):
            return self._sticky_block(target)
        if action == TRANSFER:
            if entry is not None:
                if entry.cancelled:
                    return Verdict.rejected(R_HANDLE_CANCELLED)
                dest = name_key(rrsets[0].records[0].rdata)
                moved = entry.sticky("DNAME")
                if moved is not None and name_key(moved.records[0].rdata) != dest:
                    return Verdict.rejected(
                        R_HANDLE_TRANSFERRED, "already transferred to a different target"
                    )
            return None
        return None  # CANCEL and COMPROMISE are always applicable

    # -- commit --

    def _ensure_entry(self, handle: Handle) -> HandleEntry:
        """handle's entry, made along with any missing ancestor's. A new
        entry's handle and sort key extend its parent entry's, so the label
        objects and label bytes of a subtree are stored once."""
        parent = None
        for node in handle.ancestry():
            key = node.name_key()
            entry = self._entries.get(key)
            if entry is None:
                if parent is None:
                    entry = HandleEntry(handle=node, sort_key=canonical_sort_key(key))
                else:
                    label = node.labels[-1]
                    entry = HandleEntry(
                        handle=parent.handle.child(label),
                        sort_key=parent.sort_key + (label.encode().lower().encode(),),
                    )
                self._entries[key] = entry
            parent = entry
        return parent

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
        if rtype == "KEY":  # an apex key goes out with every answer under its apex
            candidate.rrset.encoded()
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
        """Put key in, keep it in or take it out of zone's index, and mark
        the cached NXT sets whose records this can change: key's own (its
        bitmap and owner text) and its predecessor's (its next owner). A
        name that leaves drops its cached set."""
        index = self._zones.setdefault(zone, [])
        i = bisect_left(index, key)
        held = i < len(index) and index[i] == key
        if not (present or held):
            return
        if not held:
            index.insert(i, key)
        elif not present:
            del index[i]
            self._nxt_sigs.pop((zone, key), None)
            self._nxt_marked.discard((zone, key))
        for owner in (key, index[i - 1]) if index else (key,):
            if (zone, owner) in self._nxt_sigs:
                self._nxt_marked.add((zone, owner))

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

    def _commit(self, msg: UpdateMessage, target: Handle, rrsets: List[SignedRRset]) -> None:
        """Merge msg's sets into target's slots. A transfer's DNAME and the
        sets records.is_irrevocable calls a cancel or a compromise are
        sticky, and committing one first purges the revocable subtree."""
        entry = self._ensure_entry(target)
        slots = [
            Slot(msg.serial, msg.action == TRANSFER or is_irrevocable(rrset), rrset)
            for rrset in rrsets
        ]
        if any(slot.sticky for slot in slots):
            self._purge_revocable(target)
        for slot in slots:
            self._merge_slot(entry, slot.rrset.rtype, slot)

    # -- audit --

    def subscribe_audit(self, handle: Handle, endpoint_id: str, owner: bool = False) -> Verdict:
        with self._lock:
            key = handle.name_key()
            sub = self._endpoints.get(endpoint_id)
            if sub is not None and key in sub.owner_of:
                sub.owner_of[key] = sub.owner_of[key] or owner
                return Verdict.ok()
            watchers = sum(1 for s in self._subscribers.get(key, ()) if not s.owner_of[key])
            if not owner and watchers >= self.audit_cap:
                return Verdict.rejected(R_SUBSCRIPTION_LIMIT)
            if sub is None:
                sub = self._endpoints[endpoint_id] = AuditSubscriber()
            sub.owner_of[key] = owner
            self._subscribers.setdefault(key, []).append(sub)
            return Verdict.ok()

    def audit_subscriber(self, endpoint_id: str) -> Optional[AuditSubscriber]:
        """The subscriber holding endpoint_id's subscriptions, if it has any."""
        with self._lock:
            return self._endpoints.get(endpoint_id)

    def end_audit(self, endpoint_id: str) -> None:
        """End every subscription of endpoint_id and close its queue."""
        with self._lock:
            sub = self._endpoints.pop(endpoint_id, None)
            if sub is None:
                return
            for key in sub.owner_of:
                self._subscribers[key].remove(sub)
                if not self._subscribers[key]:
                    del self._subscribers[key]
            sub.close()

    def subscriptions(self, handle: Handle) -> List[AuditSubscriber]:
        with self._lock:
            return list(self._subscribers.get(handle.name_key(), []))

    def _notify(self, msg: UpdateMessage, verdict: Verdict, stamp: str) -> None:
        subs = self._subscribers.get(name_key(msg.target))
        if not subs:
            return
        self._event_seq += 1
        event = AuditEvent(
            seq=self._event_seq, handle=msg.target, update=msg, verdict=verdict, stamp=stamp
        )
        for sub in subs:
            sub.put(event)

    def entry_log_offsets(self, handle: Handle) -> List[int]:
        """Byte offsets of the log lines of updates to handle, oldest first."""
        with self._lock:
            entry = self._entries.get(handle.name_key())
            return list(entry.log) if entry else []

    # -- queries --

    def _node_sets(self, key: str) -> NodeSets:
        """walk's view of one entry: its slot sets, and a sticky DNAME as a transfer."""
        entry = self._entries.get(key)
        if entry is None:
            return NO_SETS
        return {rtype: slot.rrset for rtype, slot in entry.slots.items()}, (
            entry.sticky("DNAME") is not None
        )

    def _server_sign(self, records: Sequence[ResourceRecord], now: str) -> SignedRRset:
        signature = _sign(records, self.server_secret, self.root_zone, now, SERVER_SIG_VALIDITY)
        return SignedRRset(tuple(records), signature)

    def root_key_rrset(self) -> SignedRRset:
        return self._root_key_rrset

    def resolve(
        self,
        handle: Handle,
        depth_budget: Optional[int] = None,
        now: Optional[str] = None,
    ) -> Resolution:
        budget = depth_budget if depth_budget is not None else self.depth_budget
        if budget < 1:
            raise ResolutionError("depth budget must be at least 1")
        with self._lock:
            stamp = now or now_stamp()
            found = walk(handle, self._node_sets, budget)
            evidence = found.evidence
            if found.outcome == OUTCOME_NOT_FOUND:
                evidence += self._nxt_proof(found.final, stamp)
                evidence.append(self.root_key_rrset())
            return Resolution(
                queried=handle.fqdn_no_dot(),
                outcome=found.outcome,
                address=found.address,
                evidence=tuple(evidence),
                transfer_notices=tuple(found.notices),
                warnings=tuple(
                    f"stale-irrevocable {rrset.owner} {rrset.rtype}"
                    for rrset in found.irrevocable
                    if rrset.signature is not None
                    and stamp >= rrset.signature.params.expiration
                ),
            )

    def _nxt_proof(self, target: Handle, now: str) -> List[SignedRRset]:
        """The signed NXT sets that deny target: the one covering it, then
        its zone apex's own when that is a different one.

        The zone is target's owner zone once anything under its apex was
        stored (every commit leaves a slot there), else the root zone.
        """
        key = canonical_sort_key(target.fqdn_no_dot())
        zone = key[:self._apex_len]
        if _sort_key_name(zone) not in self._entries:
            zone = self._root_key
        index = self._zones[zone]
        i = (bisect_right(index, key) - 1) % len(index)  # -1: the wrap-around record
        proof = [self._nxt_at(zone, index, i, now)]
        if i != 0 and index[0] == zone:
            proof.append(self._nxt_at(zone, index, 0, now))
        return proof

    def _nxt_at(self, zone: SortKey, index: List[SortKey], i: int, now: str) -> SignedRRset:
        """The signed NXT set of index[i] in zone: the cached one as it is
        while fresh and unmarked. A marked one is rebuilt, and re-signed
        only when its record changed; a stale one is signed again."""
        key = (zone, index[i])
        cached = self._nxt_sigs.get(key)
        fresh = cached is not None and _fresh(cached, now)
        if fresh and key not in self._nxt_marked:
            return cached[0]
        self._nxt_marked.discard(key)
        rec = self._indexed_nxt(zone, index, i)
        if fresh and cached[0].records[0] == rec:
            return cached[0]
        signed = self._server_sign([rec], now).encoded()
        self._nxt_sigs[key] = (signed, stamp_add(now, SERVER_SIG_VALIDITY // 2))
        return signed

    def _indexed_nxt(self, zone: SortKey, index: List[SortKey], i: int) -> ResourceRecord:
        owner, types = self._nxt_owner(zone, index[i])
        next_owner, _ = self._nxt_owner(zone, index[(i + 1) % len(index)])
        return ResourceRecord(
            owner=owner, ttl=DEFAULT_TTL, rtype="NXT",
            rdata=NxtData(next_owner=next_owner, types=types),
        )

    def _zone_slots(self, zone: SortKey, key: SortKey) -> List[Tuple[str, Slot]]:
        """The slots zone holds at one indexed name other than the root, in
        type order: all of them in an owner zone, and in the root zone an
        apex's key and the sticky sets."""
        entry = self._entries[_sort_key_name(key)]
        return [
            (rtype, slot) for rtype, slot in sorted(entry.slots.items())
            if zone != self._root_key or self._in_root_zone(entry, rtype, slot)
        ]

    def _nxt_owner(self, zone: SortKey, key: SortKey) -> Tuple[str, Tuple[str, ...]]:
        """Owner text and NXT type bitmap of one indexed name in one zone."""
        if key == self._root_key:
            # root_zone_snapshot's signed SOA and NS and unsigned KEY
            return self.root_zone, ("KEY", "NS", "NXT", "SIG", "SOA")
        slots = self._zone_slots(zone, key)
        types = {rtype for rtype, _ in slots} | {"NXT"}
        if any(slot.rrset.signature is not None for _, slot in slots):
            types.add("SIG")
        return slots[0][1].rrset.owner, tuple(types)

    def query_record(
        self, handle: Handle, rtype: str, now: Optional[str] = None
    ) -> RecordAnswer:
        with self._lock:
            stamp = now or now_stamp()
            status_records = tuple(
                rrset for node in handle.ancestry()
                for rrset in irrevocable_sets(self._node_sets(node.name_key()))
            )
            entry = self._entries.get(handle.name_key())
            slot = entry.slots.get(rtype) if entry is not None else None
            if slot is not None:
                return RecordAnswer(True, slot.rrset, status_records, ())
            # an absent NXT set is answered by the covering record, which
            # _nxt_proof always gives first
            proof = tuple(self._nxt_proof(handle, stamp))
            cover = proof[0] if rtype == "NXT" else None
            return RecordAnswer(cover is not None, cover, status_records, proof)

    # -- zone materialization --

    def claimed_apexes(self) -> List[Handle]:
        out = []
        for entry in self._entries.values():
            if entry.handle.is_apex() and entry.slots:
                out.append(entry.handle)
        return sorted(out, key=lambda h: h.name_key())

    def root_zone_snapshot(self, now: Optional[str] = None) -> ZoneSnapshot:
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
            return self._zone(self.root_zone, rrsets, stamp)

    def owner_zone_snapshot(self, apex: Handle, now: Optional[str] = None) -> ZoneSnapshot:
        """An apex's owner zone: every set stored at or under it."""
        if not apex.is_apex():
            raise HandleStructureError(f"only an apex has an owner zone, not {apex.fqdn_no_dot()}")
        with self._lock:
            return self._zone(apex.fqdn_no_dot(), [], now or now_stamp())

    def _zone(self, apex: str, rrsets: List[SignedRRset], now: str) -> ZoneSnapshot:
        """apex's zone: rrsets, then at each name of its index the sets the
        zone holds there and the NXT set its denials serve. A zone with no
        names has no NXT set."""
        zone = canonical_sort_key(apex)
        index = self._zones.get(zone, [])
        for i, key in enumerate(index):
            if key != self._root_key:
                rrsets.extend(slot.rrset for _, slot in self._zone_slots(zone, key))
            rrsets.append(self._nxt_at(zone, index, i, now))
        return ZoneSnapshot(
            apex=apex,
            rrsets={(name_key(s.owner), s.rtype): s for s in rrsets},
            serial=self._update_count,
        )

    # -- zone ingestion --

    def load_zone(
        self, zone: ZoneSnapshot, now: Optional[str] = None
    ) -> Tuple[int, List[str]]:
        """Ingest record sets from parsed zone text.

        An apex KEY set counts when apex_key binds it, and every other set
        when signed_set_verdict accepts it under the key of its owner's
        apex, an expired signature only on content records.is_irrevocable
        calls a cancel or a compromise, which takes a sticky slot. A bare
        DNAME is taken as a delegation. Returns (sets loaded, problems for
        sets skipped).
        """
        with self._lock:
            stamp = now or now_stamp()
            root = name_key(self.root_zone)
            keys = ApexKeys({o: s for (o, rtype), s in zone.rrsets.items() if rtype == "KEY"}, root)
            loaded = 0
            problems: List[str] = []
            for rrset in zone.ordered_rrsets():
                try:
                    handle = parse_handle(rrset.owner, self.root_zone)
                except OnhsError:
                    if name_key(rrset.owner) != root:
                        problems.append(f"{rrset.owner}: not a handle under the root")
                    continue
                if rrset.rtype in ("NXT", "SOA", "NS"):
                    continue  # derived or operator-owned; never ingested
                sticky = is_irrevocable(rrset)
                if rrset.rtype == "KEY":
                    why = keys[handle.name_key()][1]
                else:
                    why = signed_set_verdict(rrset, keys.key, root, stamp, sticky)
                if why not in (V_OK, V_STALE):
                    problems.append(f"{rrset.owner} {rrset.rtype}: {why}")
                    continue
                self._merge_slot(self._ensure_entry(handle), rrset.rtype, Slot(0, sticky, rrset))
                loaded += 1
            return loaded, problems

    # -- deterministic state dump --

    def dump_state(self) -> str:
        """Canonical text for the whole store, independent of arrival order."""
        with self._lock:
            lines = ["onhs-state-v1", f"root {name_key(self.root_zone)}"]
            for key in sorted(self._entries):
                entry = self._entries[key]
                if not entry.slots:
                    # an ancestor shell left by vivification or purging;
                    # no query can distinguish it from absence
                    continue
                moved = entry.sticky("DNAME")
                lines.append(
                    f"entry {key} cancelled={int(entry.cancelled)} "
                    f"compromised={int(entry.sticky('TXT') is not None)} "
                    f"transferred_to={name_key(moved.records[0].rdata) if moved else '-'}"
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
        internally consistent. Sets under an apex nobody claimed are
        skipped (their updates were self-certified), and so are unsigned
        KEY sets; expired signatures on sticky slots are fine.
        """
        with self._lock:
            stamp = now or now_stamp()
            root = name_key(self.root_zone)
            keys = ApexKeys({
                key: entry.slots["KEY"].rrset
                for key, entry in self._entries.items() if "KEY" in entry.slots
            }, root)
            problems = []
            for key in sorted(self._entries):
                for rtype, slot in sorted(self._entries[key].slots.items()):
                    why = keys[key][1] if rtype == "KEY" else V_OK
                    if why == V_OK and (rtype != "KEY" or slot.rrset.signature is not None):
                        why = signed_set_verdict(slot.rrset, keys.key, root, stamp, slot.sticky)
                    if why not in (V_OK, V_STALE, V_NO_KEY):
                        problems.append(f"{key} {rtype}: {why}")
            return problems
