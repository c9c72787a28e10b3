"""Authoritative handle server: update processing and resolution.

State is organized so that the final store depends only on the set of
accepted updates, never on their arrival order or multiplicity:

  * per-(handle, rtype) slots keep the record set with the highest serial,
    ties broken by canonical payload text, then signature octets;
  * the sets records.is_sticky calls sticky, a transfer's DNAME set and
    a cancel's or a compromise's content, occupy sticky slots that
    revocable updates cannot displace; a name's standing is read from
    them by sticky_sets alone, and cancelled says what cancels a name;
  * a sticky set purges revocable slots in the subtree it kills, the
    mirror image of the rule that rejects revocable updates arriving after
    it (KEY slots survive: verifiers always need the key);
  * every update carries the authority public key, which is checked against
    the apex label hash, so a message is verifiable on arrival even when it
    outruns the claim it depends on; once the apex is claimed it must also
    be the key in the apex's KEY slot;
  * updates, replay and zone loads enter the store one way,
    HandleServer._admit, whose gate reads what each set is (a KEY set, a
    cancel or compromise, a transfer, revocable content), never the name
    of the action that carried it, so one merge law holds for all three.

_action_records holds what each update action writes, from the payload
fields ACTION_FIELDS gives the action and no other: the make_* builders
sign its records, and HandleServer verifies an update against them. walk
holds the resolution rules; HandleServer.resolve runs it over its slots
and client.verify_resolution over the evidence that verified, each set
with the sticky flag its holder decided once, and each warns of the
stale sets its own walk relied on through stale_warnings. apex_key and
signed_set_verdict hold the rule for which key vouches for a signed set,
which updates, zone loads, audit_store and client.verify_resolution all
apply. The JSON forms of updates, answers and events, and the update
log's line, are in codec.
"""

from __future__ import annotations

import base64
import datetime
import functools
import re
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from . import crypto
from .codec import (
    AuditEvent,
    RecordAnswer,
    Resolution,
    UpdateMessage,
    Verdict,
    base64_field,
    body_field,
    encode_log_line,
    only_fields,
    signature_from_dict,
    signature_to_dict,
)
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
    RdataFormatError,
    ResolutionError,
)
from .handles import CACHE_CAP, Handle, parse_handle, parse_label
# build_nxt_chain and covering_nxt are not called in this module; they stay
# imported because perfbench/tracer.py wraps both here by name.
from .records import (
    DEFAULT_TTL,
    IMPOSSIBLE_ADDRESS,
    NxtData,
    ResourceRecord,
    SignedRRset,
    SoaData,
    SortKey,
    ZoneSnapshot,
    build_nxt_chain,
    canonical_sort_key,
    covering_nxt,
    is_sticky,
    key_sort_key,
    name_key,
    strip_dot,
)

# ---- actions, verdict reasons and outcomes --------------------------------

CLAIM = "CLAIM"
CREATE_CHILD = "CREATE_CHILD"
ASSIGN = "ASSIGN"
DELEGATE = "DELEGATE"
CANCEL = "CANCEL"
TRANSFER = "TRANSFER"
COMPROMISE = "COMPROMISE"

# The fields each action's payload holds; _action_records refuses any other.
ACTION_FIELDS = {
    CLAIM: frozenset({"key", "algorithm", "ttl"}),
    CREATE_CHILD: frozenset({"ttl"}),
    ASSIGN: frozenset({"address", "ttl"}),
    DELEGATE: frozenset({"target", "ttl"}),
    CANCEL: frozenset({"ttl"}),
    TRANSFER: frozenset({"target", "ttl"}),
    COMPROMISE: frozenset({"note", "ttl", "cancel_signature"}),
}
ACTIONS = tuple(ACTION_FIELDS)

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

OUTCOME_ADDRESS = "ADDRESS"
OUTCOME_CANCELLED = "CANCELLED"
OUTCOME_COMPROMISED = "COMPROMISED"
OUTCOME_TRANSFERRED_AND_ADDRESS = "TRANSFERRED_AND_ADDRESS"
OUTCOME_NOT_FOUND = "NOT_FOUND"

# ---- the resolution walk ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class Slot:
    """A held set and whether it is sticky (records.is_sticky), decided
    when it was taken in; the store's slots also keep its serial."""

    rrset: SignedRRset
    sticky: bool
    serial: int = 0

    def merge_key(self):
        sig = self.rrset.signature
        return (
            self.serial,
            tuple(r.canonical_rdata_text() for r in self.rrset.records),
            sig.signature_bytes if sig else b"",
        )


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


def sticky_sets(held: Mapping[str, Slot]) -> Dict[str, SignedRRset]:
    """One name's standing: the sets of its slots held that are sticky,
    by type in type order, its cancel (A), transfer (DNAME) and
    compromise (TXT). The store, walk and key_upgrade all read it here."""
    stuck = {}  # a loop, not a comprehension: half the time on Python 3.11
    for rtype in ("A", "DNAME", "TXT"):
        slot = held.get(rtype)
        if slot is not None and slot.sticky:
            stuck[rtype] = slot.rrset
    return stuck


def cancelled(stuck: Mapping[str, SignedRRset]) -> bool:
    """Whether a name whose sticky_sets are stuck is cancelled: a cancel
    or a compromise, which also cancels."""
    return "A" in stuck or "TXT" in stuck


def walk(queried: Handle, lookup: Callable[[str], Mapping[str, Slot]], budget: int) -> Walk:
    """Resolve queried over the slots lookup gives for each name key: the
    sets held there by type, each with the sticky flag its holder decided
    once, through records.is_sticky, when it took the set in.

    These are the resolution rules, in their one copy: HandleServer.resolve
    walks its store's slots, client.verify_resolution the evidence that
    verified. Each pass goes from the apex toward the current name and
    restarts whenever a DNAME set rewrites it, so every name on the path
    is seen from its apex down. A sticky A set is a cancel, a sticky TXT
    set a compromise and a sticky DNAME set a transfer; walk reads the
    flags and never works them out again. A compromise anywhere on the
    path is terminal. A cancel is terminal at the current name itself, but
    a transfer record at a cancelled ancestor still redirects names below
    it, which is what lets a retired key hierarchy keep forwarding to its
    successor. An address is served only from the current name's own A
    set, and a transfer followed on the way makes it
    TRANSFERRED_AND_ADDRESS. A walk that finds neither ends NOT_FOUND at
    the current name, which the caller must back with a denial proof.

    Irrevocable sets outlive their signatures: they are served and
    accepted past their expiration, with a stale-irrevocable warning
    (stale_warnings), so a revocation never lapses because nobody
    re-signed it.

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
            held = lookup(node_key)
            if node_key not in apexes and node.is_apex():
                apexes.add(node_key)
                if "KEY" in held:
                    emit(held["KEY"].rrset)
            stuck = sticky_sets(held)
            for rrset in stuck.values():
                emit(rrset, sticky=True)
            if "TXT" in stuck:
                return done(OUTCOME_COMPROMISED)
            at_target = node_key == current_key
            if at_target and "A" in stuck:
                return done(OUTCOME_CANCELLED)
            dname_slot = held.get("DNAME")
            if dname_slot is not None:
                dname = dname_slot.rrset
                try:
                    dest = parse_handle(dname.records[0].rdata, queried.root_suffix)
                except OnhsError as exc:
                    raise ResolutionError(f"{node_key} DNAME target unusable: {exc}") from exc
                emit(dname)
                if dname_slot.sticky and dname not in notices:
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
            address_slot = held.get("A")
            if at_target and address_slot is not None:
                address_set = address_slot.rrset
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


def stale_warnings(found: Walk, now: str) -> Tuple[str, ...]:
    """The one text of the warning for each irrevocable set found relied
    on whose signature has expired at now, in walk order: the server's
    for the sets it serves, the verifier's for the sets that verified."""
    return tuple(
        f"{V_STALE} {rrset.owner_key} {rrset.rtype}"
        for rrset in found.irrevocable
        if rrset.signature is not None and now >= rrset.signature.params.expiration
    )


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


# apex_key's answers in this process, filled by update intake and through
# ApexKeys: the updates to an apex are signed by its key, and the answers
# under it carry its KEY set, so each apex key is bound, and its RSA key
# built, once for all of them. apex_key is pure, so an entry keyed on all of
# its inputs is its answer for good, a refusal as well as a bound key. The
# key bytes come from a PublicKey or a KEY record, which both refuse more
# than crypto.MAX_KEY_PAYLOAD octets, so an entry stays small.
bound_apex_keys = functools.lru_cache(maxsize=CACHE_CAP)(apex_key)


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
    if rrset.rtype == "NXT":
        authority = root
    else:
        authority = zone_apex(rrset.owner_key, root)
    if authority is None or name_key(sig.params.signer) != authority:
        return V_WRONG_SIGNER
    key = key_of(authority)
    if key is None:
        return V_NO_KEY
    stale = sticky and crypto.check_stamp(now) >= sig.params.expiration
    at = sig.params.inception if stale else now
    why = verify_rrset(rrset, key, at, check)
    if why != crypto.ACCEPT:
        return why
    return V_STALE if stale else V_OK


# ---- internal state --------------------------------------------------------

def _sort_key_name(key: SortKey) -> str:
    """The name key a canonical sort key was made from."""
    return b".".join(key[::-1]).decode()


def _itself(value):
    """value itself. Under functools.lru_cache, the first value equal to it
    that the cache still holds: a table of shared copies."""
    return value


class ZoneIndex(list):
    """The sorted sort keys of one zone's owner names, with zone, the
    zone's own key in HandleServer._zones. The NXT cache's keys hold these
    key objects, so a cached set adds no copy of its zone's or owner's key."""

    __slots__ = ("zone",)

    def __init__(self, zone: SortKey, keys: Sequence[SortKey] = ()) -> None:
        super().__init__(keys)
        self.zone = zone


def _fresh(cached: Tuple[SignedRRset, str], now: str) -> bool:
    """Whether a cached NXT set may be served at now: not before its
    inception, and with at least half its validity left."""
    signed, fresh_until = cached
    return signed.signature.params.inception <= now <= fresh_until


@dataclass(slots=True)
class HandleEntry:
    handle: Handle
    sort_key: SortKey
    slots: Dict[str, Slot] = field(default_factory=dict)
    log: array = field(default_factory=lambda: array("q"))  # offsets of its log lines


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


# ---- update actions --------------------------------------------------------


def normalize_compromise_note(text: str) -> str:
    """Accept ISO YYYY-MM-DD or legacy DD/MM/YYYY, in ASCII digits, naming
    a day that exists; return ISO."""
    text = text.strip()
    iso = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})", text)
    legacy = re.fullmatch(r"([0-9]{2})/([0-9]{2})/([0-9]{4})", text)
    if iso:
        year, month, day = iso.groups()
    elif legacy:
        day, month, year = legacy.groups()
    else:
        raise RdataFormatError(f"compromise date {text!r} not understood")
    try:
        datetime.date(int(year), int(month), int(day))
    except ValueError as exc:
        raise RdataFormatError(f"compromise date {text!r}: {exc}") from None
    return f"{year}-{month}-{day}"


def _action_records(
    action: str, owner: str, payload: object, root_zone: str
) -> List[Tuple[ResourceRecord, ...]]:
    """The records of each signed set an update of action to owner carries:
    one set, or for a compromise its TXT set and then its cancel's A set.

    This is the one copy of what each action writes: the make_* builders
    sign these records, and HandleServer verifies an update's signatures
    over them. Raises an OnhsError or a ValueError, naming the payload field
    at fault, when payload cannot make them or holds a field that
    ACTION_FIELDS does not give the action.
    """
    if action not in ACTION_FIELDS:
        raise ValueError(f"unknown action {action!r}")
    where = f"{action.lower()} payload"
    ttl = body_field(payload, "ttl", int, where, DEFAULT_TTL)
    only_fields(payload, ACTION_FIELDS[action], where)

    def one(rtype: str, rdata) -> Tuple[ResourceRecord, ...]:
        return (ResourceRecord(owner=owner, ttl=ttl, rtype=rtype, rdata=rdata),)

    if action == CLAIM:
        body_field(payload, "algorithm", int, where)
        return [one("KEY", base64_field(payload, "key", where))]
    if action == CREATE_CHILD:
        return [one("TXT", "Created")]
    if action == ASSIGN:
        address = body_field(payload, "address", str, where)
        if address == IMPOSSIBLE_ADDRESS:
            raise RdataFormatError(f"address {IMPOSSIBLE_ADDRESS} is reserved for cancel")
        return [one("A", address)]
    if action in (DELEGATE, TRANSFER):
        dest = parse_handle(body_field(payload, "target", str, where), root_zone)
        return [one("DNAME", dest.fqdn_no_dot())]
    if action == CANCEL:
        return [one("A", IMPOSSIBLE_ADDRESS)]
    # COMPROMISE
    iso = normalize_compromise_note(body_field(payload, "note", str, where))
    return [one("TXT", f"Compromised {iso}"), one("A", IMPOSSIBLE_ADDRESS)]


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
    now: Optional[str] = None,
    validity: Optional[int] = None,
    *,
    ttl: int = DEFAULT_TTL,
) -> UpdateMessage:
    """The one body of the make_* builders: sign each set _action_records
    gives for payload with ttl added, from now (by default the current
    second) for validity seconds. Without a validity, a KEY set or a set
    is_sticky calls sticky is signed for IRREVOCABLE_VALIDITY and any other
    for DEFAULT_VALIDITY. A compromise's payload takes its cancel's
    signature."""
    now = now or now_stamp()
    payload = {**payload, "ttl": ttl}
    owner, signer = target.fqdn_no_dot(), target.apex().fqdn_no_dot()
    sets = _action_records(action, owner, payload, target.root_suffix_no_dot())
    if validity is None:
        first = SignedRRset(sets[0])
        lasting = first.rtype == "KEY" or is_sticky(first, action == TRANSFER)
        validity = IRREVOCABLE_VALIDITY if lasting else DEFAULT_VALIDITY
    signatures = [_sign(records, secret, signer, now, validity) for records in sets]
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


# The seven builders. Each makes its action's payload from its own
# arguments; the keywords ttl, now and validity go on to _make_update.


def make_claim(
    secret: SecretKey, root_zone: str, suffix_len: int, serial: int = 1, **signing
) -> UpdateMessage:
    pub = secret.public_key()
    label = crypto.derive_pk_label(pub, suffix_len)
    target = Handle(labels=(label,), root_suffix=strip_dot(root_zone))
    payload = {"key": base64.b64encode(pub.key_bytes).decode(), "algorithm": pub.algorithm}
    return _make_update(secret, target, CLAIM, payload, serial, **signing)


def make_create_child(secret: SecretKey, target: Handle, serial: int, **signing) -> UpdateMessage:
    return _make_update(secret, target, CREATE_CHILD, {}, serial, **signing)


def make_assign(
    secret: SecretKey, target: Handle, address: str, serial: int, **signing
) -> UpdateMessage:
    return _make_update(secret, target, ASSIGN, {"address": address}, serial, **signing)


def make_delegate(
    secret: SecretKey, target: Handle, delegate_to: Handle, serial: int, **signing
) -> UpdateMessage:
    payload = {"target": delegate_to.fqdn_no_dot()}
    return _make_update(secret, target, DELEGATE, payload, serial, **signing)


def make_transfer(
    secret: SecretKey, target: Handle, transfer_to: Handle, serial: int, **signing
) -> UpdateMessage:
    payload = {"target": transfer_to.fqdn_no_dot()}
    return _make_update(secret, target, TRANSFER, payload, serial, **signing)


def make_cancel(secret: SecretKey, target: Handle, serial: int, **signing) -> UpdateMessage:
    return _make_update(secret, target, CANCEL, {}, serial, **signing)


def make_compromise(
    secret: SecretKey, target: Handle, note_date: str, serial: int, **signing
) -> UpdateMessage:
    payload = {"note": normalize_compromise_note(note_date)}
    return _make_update(secret, target, COMPROMISE, payload, serial, **signing)


# ---- the server ------------------------------------------------------------


class HandleServer:
    """Single-writer authoritative store for one handle root zone.

    Denial proofs come from one sorted index of owner names per zone: an
    owner zone lists the names under its apex that hold a slot; the root
    zone lists the root, every apex holding a KEY slot and every name
    holding a sticky slot, as root_zone_snapshot mirrors them. Bisection
    finds a denied name's NXT records, and a zone export walks the same
    index and reads the same cache, so both hand out the same signed sets.

    Each NXT set is signed once and cached by zone and owner, keyed by the
    index's own key objects, then served as it is while fresh. A write
    marks the cached sets whose record it can change, the written name's
    own and its predecessor's in each zone it is in; a marked set is
    rebuilt before it is next served, and re-signed only when its record
    did change. A name that leaves a zone drops its cached set there, so
    the cache holds no more than the zone indexes.
    """

    def __init__(
        self,
        root_zone: str,
        server_secret: SecretKey,
        *,
        audit_cap: int = DEFAULT_AUDIT_CAP,
    ):
        self.root_zone = strip_dot(root_zone)
        self.server_secret = server_secret
        self.server_key = server_secret.public_key()
        self.audit_cap = audit_cap
        self._entries: Dict[str, HandleEntry] = {}
        self._update_count = 0
        self._root_key = canonical_sort_key(self.root_zone)
        self._apex_len = len(self._root_key) + 1  # labels in an apex's sort key
        # zone apex sort key -> sorted sort keys of the zone's owner names
        self._zones: Dict[SortKey, ZoneIndex] = {
            self._root_key: ZoneIndex(self._root_key, [self._root_key])
        }
        # (zone, owner) -> (signed NXT set holding its octets, last stamp to serve it at)
        self._nxt_sigs: Dict[Tuple[SortKey, SortKey], Tuple[SignedRRset, str]] = {}
        # keys of cached NXT sets whose record a write may have changed since
        self._nxt_marked: Set[Tuple[SortKey, SortKey]] = set()
        # the root zone's signed SOA and NS sets, each with its last stamp to
        # serve it at, and the update count (the SOA serial) they were made at
        self._root_soa_ns: Tuple[int, List[Tuple[SignedRRset, str]]] = (-1, [])
        # unsigned: verifiers take the server's key as served, for denial records only
        self._root_key_rrset = SignedRRset((ResourceRecord(
            owner=self.root_zone, ttl=DEFAULT_TTL, rtype="KEY", rdata=self.server_key.key_bytes
        ),)).encoded()
        self._subscribers: Dict[str, List[AuditSubscriber]] = {}  # by handle key
        self._endpoints: Dict[str, AuditSubscriber] = {}  # by endpoint id
        self._event_seq = 0
        self._log_writer: Optional[Callable[[str], Optional[int]]] = None
        self._lock = threading.RLock()
        # one copy of each signature's params among the sets it holds and
        # signs: sets signed in one burst share their stamps, signer and TTL
        self._shared_params = functools.lru_cache(maxsize=CACHE_CAP)(_itself)

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

        # the apex's KEY slot, filled by its claim or by load_zone
        entry = self._entries.get(apex_name)
        held = entry.slots.get("KEY") if entry is not None else None
        if held is not None and held.rrset.records[0].rdata != signer.key_bytes:
            reason = R_ALREADY_CLAIMED if msg.action == CLAIM else R_WRONG_AUTHORITY
            return Verdict.rejected(reason, "another key holds this apex")

        try:
            rrsets = self._materialize(msg, target)
        except (OnhsError, ValueError) as exc:
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

        return self._admit(target, rrsets, msg.serial, msg.action == TRANSFER)

    def _materialize(self, msg: UpdateMessage, target: Handle) -> List[SignedRRset]:
        """The signed sets msg carries, as _action_records builds them. Only
        a received update needs the two checks made here: a claim's payload
        key is its signer's, and a compromise carries its cancel's signature."""
        sets = _action_records(msg.action, target.fqdn_no_dot(), msg.payload, self.root_zone)
        key = msg.signer_key
        if msg.action == CLAIM and (
            sets[0][0].rdata != key.key_bytes or msg.payload["algorithm"] != key.algorithm
        ):
            raise ValueError("claim payload key differs from signer key")
        signatures = [msg.signature]
        if msg.action == COMPROMISE:
            signatures.append(signature_from_dict(
                body_field(msg.payload, "cancel_signature", dict, "compromise payload"),
                "compromise payload field 'cancel_signature'",
            ))
        return [SignedRRset(records, sig) for records, sig in zip(sets, signatures)]

    # -- gates --

    def _sticky_block(self, target: Handle) -> Optional[Verdict]:
        for node in target.ancestry():
            stuck = sticky_sets(self._node_sets(node.name_key()))
            if cancelled(stuck):
                return Verdict.rejected(R_HANDLE_CANCELLED, f"{node.fqdn_no_dot()} is cancelled")
            if "DNAME" in stuck:
                return Verdict.rejected(
                    R_HANDLE_TRANSFERRED, f"{node.fqdn_no_dot()} was transferred"
                )
        return None

    def _gate(self, target: Handle, rrset: SignedRRset, transfer: bool) -> Optional[Verdict]:
        """Why rrset, a transfer's DNAME when transfer, may not go into
        target's slots, read from what the set is: a KEY set is a claim,
        and records.is_sticky tells a transfer, a cancel and a compromise,
        which are always applicable, from revocable content."""
        if rrset.rtype == "KEY":
            if not target.is_apex():
                return Verdict.rejected(R_MALFORMED, "claim target must be an apex handle")
            return None
        if not is_sticky(rrset, transfer):
            if rrset.rtype == "TXT" and target.is_apex():
                return Verdict.rejected(R_UNKNOWN_PARENT, "an apex handle has no parent")
            return self._sticky_block(target)
        if rrset.rtype == "DNAME":
            stuck = sticky_sets(self._node_sets(target.name_key()))
            if cancelled(stuck):
                return Verdict.rejected(R_HANDLE_CANCELLED)
            dest = name_key(rrset.records[0].rdata)
            moved = stuck.get("DNAME")
            if moved is not None and name_key(moved.records[0].rdata) != dest:
                return Verdict.rejected(
                    R_HANDLE_TRANSFERRED, "already transferred to a different target"
                )
        return None

    # -- commit --

    def _admit(
        self, target: Handle, rrsets: List[SignedRRset], serial: int, transfer: bool
    ) -> Verdict:
        """The one way into the store, for updates, replay and zone loads:
        the gate, then a merge of rrsets into target's slots. Each set takes
        the entry's names and the server's copy of equal signature params
        in place of its own (SignedRRset.sharing). Each slot keeps whether
        records.is_sticky calls its set sticky, and admitting a sticky set
        first purges the revocable subtree."""
        refused = self._gate(target, rrsets[0], transfer)
        if refused is not None:
            return refused
        apex, entry = self._ensure_entry(target)
        names = (entry.handle.fqdn_no_dot(), entry.handle.name_key(), apex.handle.fqdn_no_dot())
        slots = [
            Slot(rrset.sharing(*names, self._shared_params), is_sticky(rrset, transfer), serial)
            for rrset in rrsets
        ]
        if any(slot.sticky for slot in slots):
            self._purge_revocable(target)
        for slot in slots:
            self._merge_slot(entry, slot.rrset.rtype, slot)
        return Verdict.ok()

    def _ensure_entry(self, handle: Handle) -> Tuple[HandleEntry, HandleEntry]:
        """handle's apex entry and its own, made along with any missing
        ancestor's. A new entry's handle and sort key extend its parent
        entry's, so the label objects and label bytes of a subtree are
        stored once, and the store's key for an entry is its handle's."""
        apex = parent = None
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
                self._entries[entry.handle.name_key()] = entry
            parent = entry
            apex = apex or entry
        return apex, parent

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
        index = self._zones.get(zone)
        if index is None:
            if not present:
                return
            index = self._zones[zone] = ZoneIndex(zone)
        zone = index.zone
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

    def _node_sets(self, key: str) -> Mapping[str, Slot]:
        """walk's view of one entry: its slots as they are."""
        entry = self._entries.get(key)
        return {} if entry is None else entry.slots

    def _server_sign(self, records: Sequence[ResourceRecord], now: str) -> SignedRRset:
        """records signed with the server key at now, holding the server's
        copy of equal signature params, as _admit's sets do."""
        signature = _sign(records, self.server_secret, self.root_zone, now, SERVER_SIG_VALIDITY)
        params = self._shared_params(signature.params)
        return SignedRRset(tuple(records), RecordSignature(params, signature.signature_bytes))

    def root_key_rrset(self) -> SignedRRset:
        return self._root_key_rrset

    def resolve(
        self,
        handle: Handle,
        depth_budget: Optional[int] = None,
        now: Optional[str] = None,
    ) -> Resolution:
        # a request may lower the budget, not raise it: the walk holds the lock
        budget = DEFAULT_DEPTH_BUDGET if depth_budget is None else depth_budget
        budget = min(budget, DEFAULT_DEPTH_BUDGET)
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
                warnings=stale_warnings(found, stamp),
            )

    def _nxt_proof(self, target: Handle, now: str) -> List[SignedRRset]:
        """The signed NXT sets that deny target: the one covering it, then
        its zone apex's own when that is a different one.

        The zone is target's owner zone once anything under its apex was
        stored (every commit leaves a slot there), else the root zone.
        """
        key = key_sort_key(target.name_key())
        zone = key[:self._apex_len]
        if _sort_key_name(zone) not in self._entries:
            zone = self._root_key
        index = self._zones[zone]
        i = (bisect_right(index, key) - 1) % len(index)  # -1: the wrap-around record
        proof = [self._nxt_at(index, i, now)]
        if i != 0 and index[0] == zone:
            proof.append(self._nxt_at(index, 0, now))
        return proof

    def _nxt_at(self, index: ZoneIndex, i: int, now: str) -> SignedRRset:
        """The signed NXT set of index[i] in index's zone: the cached one as
        it is while fresh and unmarked. A marked one is rebuilt, and
        re-signed only when its record changed; a stale one is signed again.
        A newly signed set holds its entry's name key, as _admit's sets do."""
        key = (index.zone, index[i])
        cached = self._nxt_sigs.get(key)
        fresh = cached is not None and _fresh(cached, now)
        if fresh and key not in self._nxt_marked:
            return cached[0]
        self._nxt_marked.discard(key)
        rec = self._indexed_nxt(index, i)
        if fresh and cached[0].records[0] == rec:
            return cached[0]
        signed = self._server_sign([rec], now).encoded()
        entry = self._entries.get(_sort_key_name(index[i]))
        if entry is not None:  # every indexed name but the root's
            signed.sharing(rec.owner, entry.handle.name_key(), self.root_zone, self._shared_params)
        self._nxt_sigs[key] = (signed, stamp_add(now, SERVER_SIG_VALIDITY // 2))
        return signed

    def _indexed_nxt(self, index: ZoneIndex, i: int) -> ResourceRecord:
        owner, types = self._nxt_owner(index.zone, index[i])
        next_owner, _ = self._nxt_owner(index.zone, index[(i + 1) % len(index)])
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
                for rrset in sticky_sets(self._node_sets(node.name_key())).values()
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

    def root_zone_snapshot(self, now: Optional[str] = None) -> ZoneSnapshot:
        """Root zone: its own SOA/NS/KEY, claimed keys, irrevocable mirrors.
        The SOA and NS sets are signed once per serial, and again when
        either is no longer fresh, as an NXT set is (_nxt_at)."""
        with self._lock:
            stamp = now or now_stamp()
            count, kept = self._root_soa_ns
            if count != self._update_count or not all(_fresh(c, stamp) for c in kept):
                kept = self._sign_root_soa_ns(stamp)
                self._root_soa_ns = (self._update_count, kept)
            rrsets = [signed for signed, _ in kept]
            rrsets.append(self.root_key_rrset())
            return self._zone(self.root_zone, rrsets, stamp)

    def _sign_root_soa_ns(self, now: str) -> List[Tuple[SignedRRset, str]]:
        """The root zone's SOA and NS sets signed at now, each with its last
        stamp to serve it at."""
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
        until = stamp_add(now, SERVER_SIG_VALIDITY // 2)
        return [(self._server_sign([rec], now), until) for rec in (soa, ns)]

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
            rrsets.append(self._nxt_at(index, i, now))
        return ZoneSnapshot(
            apex=apex,
            rrsets={(s.owner_key, s.rtype): s for s in rrsets},
            serial=self._update_count,
        )

    # -- zone ingestion --

    def load_zone(
        self, zone: ZoneSnapshot, now: Optional[str] = None
    ) -> Tuple[int, List[str]]:
        """Ingest record sets from parsed zone text.

        An apex KEY set counts when apex_key binds it, and every other set
        when signed_set_verdict accepts it under the key of its owner's
        apex, an expired signature only on a set records.is_sticky calls
        sticky, a cancel or a compromise, which takes a sticky slot. A set
        that counts is admitted as an update's sets are, at serial 0, so
        the update gate may still refuse it: a revocable set at or under a
        cancelled name is refused handle-cancelled, and a cancel purges the
        revocable sets loaded under it before. A bare DNAME is taken as a
        delegation. Returns (sets loaded, "<owner> <rtype>: <reason>" for
        each set skipped).
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
                    if rrset.owner_key != root:
                        problems.append(f"{rrset.owner}: not a handle under the root")
                    continue
                if rrset.rtype in ("NXT", "SOA", "NS"):
                    continue  # derived or operator-owned; never ingested
                if rrset.rtype == "KEY":
                    why = keys[handle.name_key()][1]
                else:
                    sticky = is_sticky(rrset, transfer=False)
                    why = signed_set_verdict(rrset, keys.key, root, stamp, sticky)
                if why in (V_OK, V_STALE):
                    why = self._admit(handle, [rrset], 0, transfer=False).reason
                if why is None:
                    loaded += 1
                else:
                    problems.append(f"{rrset.owner} {rrset.rtype}: {why}")
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
                stuck = sticky_sets(entry.slots)
                moved = stuck.get("DNAME")
                lines.append(
                    f"entry {key} cancelled={int(cancelled(stuck))} "
                    f"compromised={int('TXT' in stuck)} "
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
