"""The JSON shapes of updates, verdicts, answers and audit events.

Each shape has one writer, its to_dict or *_to_dict, and one reader where
one is needed, its from_dict or *_from_dict, which takes every field
through body_field, optional_field or base64_field. canonical_json is the
one serialisation, of wire frames and update log lines. Nothing here
imports wire, server, service or the client.

An answer's writer and reader may each take a connection's slot table
(WriterSlots, ReaderSlots; see "record sets in answers" below): over one
connection each KEY and NXT set then travels in full once and is named by
its slot after that. Without a table, answers carry every set in full.
"""

from __future__ import annotations

import base64
import copy
import functools
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import crypto
from .crypto import PublicKey, RecordSignature, SignatureParams
from .errors import LogFormatError, OnhsError, ParamsMismatchError, RRsetFormatError
from .handles import CACHE_CAP
from .records import SignedRRset, parse_rrset

# ---- field readers ---------------------------------------------------------

_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_type(value: object) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


_REQUIRED = object()


def body_field(data: object, name: str, kind: type, where: str, default=_REQUIRED):
    """data[name], which must be a JSON value of type kind; default when
    data lacks the field, if a default is given. A bool is not an int.

    A ValueError naming the field and what was found takes the place of the
    KeyError or TypeError that indexing a malformed body would raise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, not {_json_type(data)}")
    if name not in data:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{where} lacks field {name!r}")
    value = data[name]
    if type(value) is not kind:
        raise ValueError(
            f"{where} field {name!r} must be {_JSON_TYPES[kind]}, not {_json_type(value)}"
        )
    return value


def base64_field(data: object, name: str, where: str) -> bytes:
    """The octets of data[name], which must be a base64 string."""
    return _base64(body_field(data, name, str, where), f"{where} field {name!r}")


def _base64(text: str, what: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character past ASCII
        raise ValueError(f"{what} is not base64: {exc}") from None


def optional_field(data: object, name: str, kind: type, where: str, default=None):
    """data[name] as body_field gives it, or default when it is null or absent."""
    if isinstance(data, dict):
        value = data.get(name)
        if value is None:
            return default
        if type(value) is kind:
            return value
    return body_field(data, name, kind, where)


def only_fields(data: dict, names: frozenset, where: str) -> None:
    """Refuses a field of data that names does not hold: a reader that let
    it pass would give a value that writes back without it."""
    if not names.issuperset(data):
        extra = min(key for key in data if key not in names)
        raise ValueError(f"{where} has unknown field {extra!r}")


# The C encoder json.dumps(data, sort_keys=True, separators=(",", ":"))
# builds on each call, built once: no circular-reference markers (the
# program's values hold no cycles, and too deep a value raises
# RecursionError either way), ASCII escapes, NaN and the infinities
# allowed, as json.dumps writes them.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
)


def canonical_json(data: dict) -> bytes:
    """data as json.dumps(data, sort_keys=True, separators=(",", ":")) writes it."""
    return "".join(_encode(data, 0)).encode()


# ---- verdicts and updates --------------------------------------------------


_VERDICT_FIELDS = frozenset(("accepted", "reason", "detail"))


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
        """The verdict to_dict gave data for; a reason or detail data lacks
        reads as null. A ValueError names the field at fault."""
        verdict = Verdict(
            body_field(data, "accepted", bool, "verdict"),
            optional_field(data, "reason", str, "verdict"),
            optional_field(data, "detail", str, "verdict"),
        )
        only_fields(data, _VERDICT_FIELDS, "verdict")
        return verdict

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
            "payload": copy.deepcopy(self.payload),
            "serial": self.serial,
            "signer_key": public_key_to_dict(self.signer_key),
            "signature": signature_to_dict(self.signature),
        }

    @staticmethod
    def from_dict(data: dict) -> "UpdateMessage":
        return UpdateMessage(
            target=body_field(data, "target", str, "update"),
            action=body_field(data, "action", str, "update"),
            payload=_shallow(body_field(data, "payload", dict, "update"), "update field 'payload'"),
            serial=body_field(data, "serial", int, "update"),
            signer_key=public_key_from_dict(
                body_field(data, "signer_key", dict, "update"), "update field 'signer_key'"
            ),
            signature=signature_from_dict(
                body_field(data, "signature", dict, "update"), "update field 'signature'"
            ),
        )


# The deepest nesting of objects and arrays an update's payload may hold.
# An update is copied and written out by recursion, which a payload nested
# as deep as a frame may be would overrun after the update had been merged;
# the builders write payloads of depth 1, a compromise's of depth 2.
MAX_PAYLOAD_DEPTH = 16


def _shallow(payload: dict, where: str) -> dict:
    """A copy of payload, which must nest no deeper than MAX_PAYLOAD_DEPTH."""
    level, depth = [payload], 0
    while level:
        depth += 1
        if depth > MAX_PAYLOAD_DEPTH:
            raise ValueError(f"{where} nests deeper than {MAX_PAYLOAD_DEPTH} levels")
        level = [
            item for value in level
            for item in (value.values() if isinstance(value, dict) else value)
            if isinstance(item, (dict, list))
        ]
    return dict(payload)


# -- the update log's line form --


def encode_log_line(msg: UpdateMessage, verdict: Verdict, stamp: str) -> str:
    """One updates.log line: base64 canonical update, verdict tag, arrival stamp."""
    blob = base64.b64encode(canonical_json(msg.to_dict())).decode()
    return f"{blob} {verdict.tag()} {stamp}"


def decode_log_line(raw: bytes) -> Tuple[UpdateMessage, Verdict, str]:
    """The update, verdict (without detail) and arrival stamp of one line,
    with or without the newline that ends it in the log. The line must be
    the one encode_log_line writes for them: a ValueError or OnhsError
    names the part at fault, and an update nested too deep to read or
    write raises LogFormatError."""
    try:
        line = raw.removesuffix(b"\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"log line is not UTF-8: {exc}") from None
    blob, _, rest = line.partition(" ")
    tag, _, stamp = rest.rpartition(" ")
    update = _exact_base64(blob, "update")
    try:
        try:
            data = json.loads(update)
        except ValueError as exc:  # not JSON, or octets that are not UTF-8
            raise ValueError(f"update is not JSON: {exc}") from None
        msg = UpdateMessage.from_dict(data)
        canonical = canonical_json(msg.to_dict())
    except RecursionError:
        raise LogFormatError("update is nested too deep to read") from None
    if canonical != update:
        # a field the update does not hold; or a space, a key out of order, an escape
        raise ValueError("update is not the canonical JSON of the update it holds")
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
#
# Over one connection both ends keep a table of the KEY and NXT sets its
# answers have carried: the writer maps each set to its slot, the reader
# each slot to its set. The first time a connection carries such a set,
# its item also holds "slot": n, the writer's next free slot; each later
# time, the item is the bare integer n. A content set (A, TXT, DNAME, ...)
# takes no slot, nor does any set once SET_SLOTS slots are filled, and
# nothing leaves a table, so no message manages it. Only KEY and NXT sets
# repeat across the answers of one client; a table that took every set
# would keep each superseded content set alive while its connection lasts.
#
# The reader takes a carried set into the slot the item names, any that
# is free, so an answer it never reads (a reply its endpoint skipped)
# shifts no later slot: a later item naming that answer's slot is refused
# as naming an empty one. A KEY or NXT set carried in full without a slot
# while slots are free is refused too, as is a slot on any other set. An
# answer written without a table carries every set in full, and a reader
# without a table refuses a slot or an integer as any field the shape lacks.
# One reader, _read_set, reads every item, a slot number first.

SET_SLOTS = 1024
SLOTTED_TYPES = frozenset(("KEY", "NXT"))

WriterSlots = Dict[SignedRRset, int]
ReaderSlots = Dict[int, SignedRRset]


@functools.lru_cache(maxsize=CACHE_CAP)
def received_sets(octets: str, signature: Optional[str]) -> SignedRRset:
    """The set an answer carries as these two strings, each of which must
    be the one base64 form of its octets.

    Kept for the process, because answers repeat sets no slot names (every
    content set, and every set on a one-request connection), and a hit
    skips base64, parsing and the check that the octets encode back to
    themselves. A string that fails raises, and lru_cache keeps no
    exception. Only _read_set calls it, so the server never fills it.
    """
    return parse_rrset(
        _exact_base64(octets, "field 'octets'"),
        None if signature is None else _exact_base64(signature, "field 'signature'"),
    )


def _exact_base64(text: str, what: str) -> bytes:
    """The octets text encodes, of which it must be the one base64 form: a
    string with stray bits in its last character decodes, but it is not
    the string those octets write back as."""
    data = _base64(text, what)
    if base64.b64encode(data).decode() != text:
        raise ValueError(f"{what} is not base64: a character carries stray bits")
    return data


def _set_to_json(rrset: SignedRRset, slots: Optional[WriterSlots]):
    """rrset's item: its slot when slots holds it, else the set in full,
    with the slot it takes when it is a KEY or NXT set and one is free."""
    slot = None
    if slots is not None and rrset.rtype in SLOTTED_TYPES:
        slot = slots.get(rrset)
        if slot is not None:
            return slot
        if len(slots) < SET_SLOTS:
            slot = slots[rrset] = len(slots)
    sig = rrset.signature
    item = {
        "octets": base64.b64encode(rrset.canonical_bytes()).decode(),
        "signature": None if sig is None else base64.b64encode(sig.signature_bytes).decode(),
    }
    if slot is not None:
        item["slot"] = slot
    return item


_SET_FIELDS = frozenset(("octets", "signature"))
_SLOTTED_SET_FIELDS = _SET_FIELDS | {"slot"}


def _read_set(data: object, slots: Optional[ReaderSlots]) -> SignedRRset:
    """The set data names by its slot or carries in full, which enters
    slots when it comes with its slot. A set that only lacks its null
    signature reads. A ValueError or RRsetFormatError names the field at
    fault from the item on, and its caller puts the item's path in front:
    the path is built only for an error."""
    if type(data) is int and slots is not None:
        rrset = slots.get(data)
        if rrset is not None:
            return rrset
        if 0 <= data < SET_SLOTS:
            raise ValueError(f" names slot {data}, which holds no set")
        raise ValueError(f" names slot {data}, outside 0 to {SET_SLOTS - 1}")
    if slots is not None and type(data) is not dict:
        raise ValueError(f" must be an object or a slot, not {_json_type(data)}")
    octets = body_field(data, "octets", str, "")
    signature = optional_field(data, "signature", str, "")
    slot = None
    if slots is not None and "slot" in data:
        slot = body_field(data, "slot", int, "")
        if not 0 <= slot < SET_SLOTS:
            raise ValueError(f" field 'slot' {slot} is outside 0 to {SET_SLOTS - 1}")
        if slot in slots:
            raise ValueError(f" field 'slot' {slot} is already filled")
        only_fields(data, _SLOTTED_SET_FIELDS, "")
    else:
        only_fields(data, _SET_FIELDS, "")
    try:
        rrset = received_sets(octets, signature)
    except RRsetFormatError as exc:
        raise RRsetFormatError(f": {exc}") from None
    except ValueError as exc:  # a field that is not base64
        raise ValueError(f" {exc}") from None
    if slot is not None:
        if rrset.rtype not in SLOTTED_TYPES:
            raise ValueError(f" field 'slot': {rrset.rtype} sets take no slot")
        slots[slot] = rrset
    elif slots is not None and rrset.rtype in SLOTTED_TYPES and len(slots) < SET_SLOTS:
        raise ValueError(f" lacks field 'slot': a {rrset.rtype} set takes a free slot")
    return rrset


def _sets_from_json(
    data: object, name: str, where: str, slots: Optional[ReaderSlots]
) -> Tuple[SignedRRset, ...]:
    """The sets of the list data[name], read in order."""
    sets = []
    for i, item in enumerate(body_field(data, name, list, where)):
        try:
            sets.append(_read_set(item, slots))
        except (ValueError, RRsetFormatError) as exc:
            raise type(exc)(f"{where} field {name!r} item {i}{exc}") from None
    return tuple(sets)


# ---- answers and events ----------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    queried: str
    outcome: str
    address: Optional[str]
    evidence: Tuple[SignedRRset, ...]
    transfer_notices: Tuple[SignedRRset, ...]
    warnings: Tuple[str, ...] = ()

    def to_dict(self, slots: Optional[WriterSlots] = None) -> dict:
        """The resolution's JSON form; with slots, a connection's writer
        table, each KEY and NXT set it holds travels by its slot."""
        return {
            "queried": self.queried,
            "outcome": self.outcome,
            "address": self.address,
            "evidence": [_set_to_json(s, slots) for s in self.evidence],
            "transfer_notices": [_set_to_json(s, slots) for s in self.transfer_notices],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_dict(data: dict, slots: Optional[ReaderSlots] = None) -> "Resolution":
        """The resolution to_dict gave data for, but with every owner name
        in lower case; an address data lacks reads as null. With slots, the
        connection's reader table, sets travel as to_dict writes them with
        the writer's. A ValueError or RRsetFormatError names the field at
        fault."""
        where = "resolution"
        warnings = body_field(data, "warnings", list, where)
        for i, warning in enumerate(warnings):
            if type(warning) is not str:
                raise ValueError(f"{where} field 'warnings' item {i} must be a string")
        resolution = Resolution(
            queried=body_field(data, "queried", str, where),
            outcome=body_field(data, "outcome", str, where),
            address=optional_field(data, "address", str, where),
            evidence=_sets_from_json(data, "evidence", where, slots),
            transfer_notices=_sets_from_json(data, "transfer_notices", where, slots),
            warnings=tuple(warnings),
        )
        only_fields(data, _RESOLUTION_FIELDS, where)
        return resolution


_RESOLUTION_FIELDS = frozenset(
    ("queried", "outcome", "address", "evidence", "transfer_notices", "warnings")
)


@dataclass(frozen=True)
class RecordAnswer:
    """query_record result: the set if present, sticky context, NXT proof."""

    found: bool
    rrset: Optional[SignedRRset]
    status_records: Tuple[SignedRRset, ...]
    proof: Tuple[SignedRRset, ...]

    def to_dict(self, slots: Optional[WriterSlots] = None) -> dict:
        """As Resolution.to_dict, for a query_record answer."""
        return {
            "found": self.found,
            "rrset": None if self.rrset is None else _set_to_json(self.rrset, slots),
            "status_records": [_set_to_json(s, slots) for s in self.status_records],
            "proof": [_set_to_json(s, slots) for s in self.proof],
        }

    @staticmethod
    def from_dict(data: dict, slots: Optional[ReaderSlots] = None) -> "RecordAnswer":
        """As Resolution.from_dict, for a query_record answer; an rrset
        data lacks reads as null."""
        where = "answer"
        found = body_field(data, "found", bool, where)
        rrset = data.get("rrset")
        if rrset is not None:
            try:
                rrset = _read_set(rrset, slots)
            except (ValueError, RRsetFormatError) as exc:
                raise type(exc)(f"{where} field 'rrset'{exc}") from None
        answer = RecordAnswer(
            found=found,
            rrset=rrset,
            status_records=_sets_from_json(data, "status_records", where, slots),
            proof=_sets_from_json(data, "proof", where, slots),
        )
        only_fields(data, _ANSWER_FIELDS, where)
        return answer


_ANSWER_FIELDS = frozenset(("found", "rrset", "status_records", "proof"))


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
