"""Resource records, signed record sets, zone snapshots, and zone text.

Supported record types are the seven the handle system actually uses:
SOA, NS, A, KEY, DNAME, TXT, NXT. Anything else is rejected at parse time.

Names are stored fully qualified without a trailing dot, with their case
preserved (comparisons fold case). A-record payloads keep their original
text, so an address written 183.021.254.010 round-trips exactly.

The zone text format is master-file flavored: $ORIGIN/$TTL/$SERIAL
directives, one logical line per record (parentheses allow continuation),
and each signature line directly after the record set it covers.
"""

from __future__ import annotations

import base64
import re
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .crypto import RecordSignature, SignatureParams, check_stamp
from .errors import (
    ParamsMismatchError,
    RdataFormatError,
    RecordError,
    UnknownRecordTypeError,
    ZoneSyntaxError,
)

RRTYPES = ("SOA", "NS", "A", "KEY", "DNAME", "TXT", "NXT")
_RTYPE_ORDER = {rt: i for i, rt in enumerate(RRTYPES)}

IMPOSSIBLE_ADDRESS = "0.0.0.0"

DEFAULT_TTL = 3600


# ---- names ---------------------------------------------------------------


def strip_dot(name: str) -> str:
    return name[:-1] if name.endswith(".") else name


def name_key(name: str) -> str:
    """Case-folded, dot-stripped map key for a domain name."""
    return strip_dot(name).lower()


def canonical_sort_key(name: str) -> Tuple[bytes, ...]:
    """Sort key for canonical zone order.

    Names compare by label sequence from the root side down, each label
    bytewise after case folding; a parent therefore sorts before every
    name under it, and h0k10 sorts before h0k2.
    """
    labels = name_key(name).split(".")
    return tuple(lab.encode() for lab in reversed(labels))


def canonical_order(names: Iterable[str]) -> List[str]:
    return sorted(names, key=canonical_sort_key)


# ---- durations -----------------------------------------------------------

_DURATION_RE = re.compile(r"([0-9]+)([smhdw]?)$", re.IGNORECASE)
_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
_RENDER_UNITS = (("w", 604800), ("d", 86400), ("h", 3600), ("m", 60))


def parse_duration(text: str) -> int:
    m = _DURATION_RE.fullmatch(text)
    if not m:
        raise RdataFormatError(f"bad duration {text!r}")
    value = int(m.group(1))
    unit = m.group(2).lower()
    return value * _UNIT_SECONDS[unit] if unit else value


def render_duration(seconds: int) -> str:
    if seconds > 0:
        for unit, mult in _RENDER_UNITS:
            if seconds % mult == 0:
                return f"{seconds // mult}{unit}"
    return str(seconds)


# ---- record payloads -----------------------------------------------------


@dataclass(frozen=True)
class SoaData:
    primary: str
    contact: str
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@dataclass(frozen=True)
class NxtData:
    next_owner: str
    types: Tuple[str, ...]

    def __post_init__(self) -> None:
        for t in self.types:
            if t not in RRTYPES and t != "SIG":
                raise RdataFormatError(f"unknown type {t!r} in NXT bitmap")
        object.__setattr__(self, "types", tuple(sorted(set(self.types))))


Rdata = Union[str, bytes, SoaData, NxtData]

_A_OCTET_RE = re.compile(r"[0-9]{1,3}$")


def _check_address_text(text: str) -> str:
    parts = text.split(".")
    if len(parts) != 4:
        raise RdataFormatError(f"address {text!r} does not have four octets")
    for part in parts:
        if not _A_OCTET_RE.fullmatch(part) or int(part) > 255:
            raise RdataFormatError(f"address octet {part!r} outside 0..255")
    return text


def key_payload_fields(payload: bytes) -> Tuple[int, int, int, bytes]:
    """Split a KEY payload into flags, protocol, algorithm, material."""
    if len(payload) < 5:
        raise RdataFormatError("KEY payload too short")
    flags, proto, alg = struct.unpack(">HBB", payload[:4])
    return flags, proto, alg, payload[4:]


@dataclass(frozen=True)
class ResourceRecord:
    owner: str
    ttl: int
    rtype: str
    rdata: Rdata

    def __post_init__(self) -> None:
        if self.rtype not in RRTYPES:
            raise UnknownRecordTypeError(f"record type {self.rtype!r} not supported")
        if self.ttl < 0:
            raise RdataFormatError("negative ttl")
        object.__setattr__(self, "owner", strip_dot(self.owner))
        rd = self.rdata
        if self.rtype == "A":
            if not isinstance(rd, str):
                raise RdataFormatError("A rdata must be address text")
            _check_address_text(rd)
        elif self.rtype in ("NS", "DNAME", "TXT"):
            if not isinstance(rd, str) or (self.rtype != "TXT" and not rd):
                raise RdataFormatError(f"{self.rtype} rdata must be text")
            if self.rtype in ("NS", "DNAME"):
                object.__setattr__(self, "rdata", strip_dot(rd))
        elif self.rtype == "KEY":
            if not isinstance(rd, bytes):
                raise RdataFormatError("KEY rdata must be payload octets")
            key_payload_fields(rd)
        elif self.rtype == "SOA":
            if not isinstance(rd, SoaData):
                raise RdataFormatError("SOA rdata must be SoaData")
        elif self.rtype == "NXT":
            if not isinstance(rd, NxtData):
                raise RdataFormatError("NXT rdata must be NxtData")

    def canonical_rdata_text(self) -> str:
        """One-line deterministic text for ordering, signing, and merging."""
        rd = self.rdata
        if self.rtype == "KEY":
            assert isinstance(rd, bytes)
            flags, proto, alg, material = key_payload_fields(rd)
            return f"{flags} {proto} {alg} {base64.b64encode(material).decode()}"
        if self.rtype == "SOA":
            assert isinstance(rd, SoaData)
            return (
                f"{rd.primary} {rd.contact} {rd.serial} {rd.refresh} "
                f"{rd.retry} {rd.expire} {rd.minimum}"
            )
        if self.rtype == "NXT":
            assert isinstance(rd, NxtData)
            return " ".join((rd.next_owner,) + rd.types)
        assert isinstance(rd, str)
        return rd


# ---- signed record sets --------------------------------------------------


@dataclass(frozen=True)
class SignedRRset:
    """One record set (single owner and type) plus its signature.

    The signature is optional at this level so that zone text can be
    parsed and re-rendered as written; whether an unsigned set is
    acceptable is the consumer's decision. Keys registered in the root
    zone are the one case that legitimately stays unsigned (the label
    hash self-certifies them).
    """

    records: Tuple[ResourceRecord, ...]
    signature: Optional[RecordSignature] = None

    def __post_init__(self) -> None:
        if not self.records:
            raise RecordError("empty record set")
        owners = {name_key(r.owner) for r in self.records}
        rtypes = {r.rtype for r in self.records}
        if len(owners) != 1 or len(rtypes) != 1:
            raise RecordError("record set spans more than one owner or type")
        ordered = tuple(
            sorted(set(self.records), key=lambda r: r.canonical_rdata_text())
        )
        object.__setattr__(self, "records", ordered)
        if self.signature is not None:
            expected = len(name_key(self.owner).split("."))
            if self.signature.params.label_count != expected:
                raise ParamsMismatchError(
                    f"signature label count {self.signature.params.label_count} "
                    f"!= owner label count {expected}"
                )

    @property
    def owner(self) -> str:
        return self.records[0].owner

    @property
    def rtype(self) -> str:
        return self.records[0].rtype


# ---- zone snapshots ------------------------------------------------------


@dataclass(frozen=True)
class ZoneSnapshot:
    """An immutable view of one zone's record sets.

    rrsets maps (owner name key, rtype) to the set. Mutation goes through
    with_rrset, which returns a new snapshot.
    """

    apex: str
    rrsets: Dict[Tuple[str, str], SignedRRset] = field(default_factory=dict)
    serial: int = 0
    default_ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        object.__setattr__(self, "apex", strip_dot(self.apex))
        object.__setattr__(self, "rrsets", dict(self.rrsets))
        soa_keys = [k for k in self.rrsets if k[1] == "SOA"]
        if len(soa_keys) > 1:
            raise RecordError("more than one SOA record set")
        if soa_keys and soa_keys[0][0] != name_key(self.apex):
            raise RecordError("SOA record set is not at the zone apex")

    def get(self, owner: str, rtype: str) -> Optional[SignedRRset]:
        return self.rrsets.get((name_key(owner), rtype))

    def owners(self) -> List[str]:
        seen: Dict[str, str] = {}
        for rrset in self.rrsets.values():
            seen.setdefault(name_key(rrset.owner), rrset.owner)
        return canonical_order(seen.values())

    def ordered_rrsets(self) -> List[SignedRRset]:
        return sorted(
            self.rrsets.values(),
            key=lambda s: (canonical_sort_key(s.owner), _RTYPE_ORDER[s.rtype]),
        )

    def with_rrset(self, rrset: SignedRRset) -> "ZoneSnapshot":
        rrsets = dict(self.rrsets)
        rrsets[(name_key(rrset.owner), rrset.rtype)] = rrset
        return ZoneSnapshot(self.apex, rrsets, self.serial, self.default_ttl)


# ---- NXT chains ----------------------------------------------------------


def build_nxt_chain(zone: ZoneSnapshot) -> List[ResourceRecord]:
    """Materialize the denial chain for a zone's current owner names.

    One NXT per owner, pointing at the canonical successor, last wrapping
    to first. Each carries its owner's type bitmap (including NXT itself,
    and SIG where the owner holds signed sets). A zone whose only owner is
    the apex yields the degenerate apex-to-apex record.
    """
    owners = [
        o for o in zone.owners()
        if any(rt != "NXT" for (ok, rt) in zone.rrsets if ok == name_key(o))
    ]
    if not owners:
        owners = [zone.apex]
    out: List[ResourceRecord] = []
    for i, owner in enumerate(owners):
        nxt_owner = owners[(i + 1) % len(owners)]
        types = {rt for (ok, rt) in zone.rrsets if ok == name_key(owner) and rt != "NXT"}
        signed_here = any(
            s.signature is not None
            for (ok, rt), s in zone.rrsets.items()
            if ok == name_key(owner)
        )
        types.add("NXT")
        if signed_here:
            types.add("SIG")
        out.append(
            ResourceRecord(
                owner=owner,
                ttl=zone.default_ttl,
                rtype="NXT",
                rdata=NxtData(next_owner=nxt_owner, types=tuple(sorted(types))),
            )
        )
    return out


def covering_nxt(chain: Sequence[ResourceRecord], target: str) -> Optional[ResourceRecord]:
    """Pick the chain record whose interval contains target.

    That is the last record whose owner sorts at or before target; a
    target before every owner falls in the last record's interval, the
    one that wraps around to the first owner.
    """
    if not chain:
        return None
    ordered = sorted(chain, key=lambda r: canonical_sort_key(r.owner))
    keys = [canonical_sort_key(r.owner) for r in ordered]
    return ordered[bisect_right(keys, canonical_sort_key(target)) - 1]


# ---- zone text: serialization --------------------------------------------


def _render_name(name: str, apex: str) -> str:
    if name_key(name) == name_key(apex):
        return strip_dot(name) + "."
    suffix = "." + name_key(apex)
    if name_key(name).endswith(suffix):
        return strip_dot(name)[: -len(suffix)]
    return strip_dot(name) + "."


def _quote_txt(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_rdata(rec: ResourceRecord, apex: str) -> str:
    rd = rec.rdata
    if rec.rtype == "A":
        assert isinstance(rd, str)
        return rd
    if rec.rtype in ("NS", "DNAME"):
        assert isinstance(rd, str)
        return _render_name(rd, apex)
    if rec.rtype == "TXT":
        assert isinstance(rd, str)
        return _quote_txt(rd)
    if rec.rtype == "KEY":
        assert isinstance(rd, bytes)
        flags, proto, alg, material = key_payload_fields(rd)
        return f"{flags} {proto} {alg} {base64.b64encode(material).decode()}"
    if rec.rtype == "SOA":
        assert isinstance(rd, SoaData)
        return (
            f"{_render_name(rd.primary, apex)} {_render_name(rd.contact, apex)} "
            f"( {rd.serial} {render_duration(rd.refresh)} {render_duration(rd.retry)} "
            f"{render_duration(rd.expire)} {render_duration(rd.minimum)} )"
        )
    assert isinstance(rd, NxtData)
    return " ".join((_render_name(rd.next_owner, apex),) + rd.types)


def serialize_zone(zone: ZoneSnapshot) -> str:
    lines = [
        f"$ORIGIN {strip_dot(zone.apex)}.",
        f"$SERIAL {zone.serial}",
        f"$TTL {render_duration(zone.default_ttl)}",
    ]
    for rrset in zone.ordered_rrsets():
        for rec in rrset.records:
            owner = _render_name(rec.owner, zone.apex)
            ttl_part = "" if rec.ttl == zone.default_ttl else f" {render_duration(rec.ttl)}"
            in_part = "" if rec.rtype == "DNAME" else " IN"
            lines.append(f"{owner}{ttl_part}{in_part} {rec.rtype} {_render_rdata(rec, zone.apex)}")
        if rrset.signature is not None:
            p = rrset.signature.params
            sig64 = base64.b64encode(rrset.signature.signature_bytes).decode()
            owner = _render_name(rrset.owner, zone.apex)
            lines.append(
                f"{owner} SIG {rrset.rtype} ( {p.algorithm} {p.label_count} "
                f"{p.original_ttl} {p.expiration} {p.inception} "
                f"{strip_dot(p.signer)}. {sig64} )"
            )
    return "\n".join(lines) + "\n"


# ---- zone text: parsing ---------------------------------------------------


def _tokenize(line: str, line_no: int) -> Tuple[List[str], int]:
    """Split one physical line into tokens; returns tokens and the net
    parenthesis balance (quotes keep their delimiters for TXT handling)."""
    tokens: List[str] = []
    buf: List[str] = []
    in_quote = False
    escaped = False
    balance = 0

    def flush() -> None:
        if buf:
            tokens.append("".join(buf))
            buf.clear()

    for ch in line:
        if in_quote:
            buf.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
                flush()
            continue
        if ch == '"':
            flush()
            buf.append(ch)
            in_quote = True
        elif ch == ";":
            break
        elif ch in "()":
            flush()
            balance += 1 if ch == "(" else -1
        elif ch.isspace():
            flush()
        else:
            buf.append(ch)
    if in_quote:
        raise ZoneSyntaxError("unterminated quoted string", line_no)
    flush()
    return tokens, balance


def _logical_lines(text: str) -> Iterable[Tuple[int, List[str]]]:
    pending: List[str] = []
    start_no = 0
    balance = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens, delta = _tokenize(raw, no)
        if not pending and not tokens and delta == 0:
            continue
        if not pending:
            start_no = no
        pending.extend(tokens)
        balance += delta
        if balance < 0:
            raise ZoneSyntaxError("unbalanced parenthesis", no)
        if balance == 0 and pending:
            yield start_no, pending
            pending = []
    if balance != 0:
        raise ZoneSyntaxError("unclosed parenthesis at end of file", start_no)
    if pending:
        yield start_no, pending


def _resolve_name(token: str, origin: Optional[str], line_no: int) -> str:
    if token == "@":
        if origin is None:
            raise ZoneSyntaxError("@ used with no $ORIGIN", line_no)
        return origin
    if token.endswith("."):
        return strip_dot(token)
    if origin is None:
        raise ZoneSyntaxError(f"relative name {token!r} with no $ORIGIN", line_no)
    return f"{token}.{origin}"


def _unquote_txt(token: str, line_no: int) -> str:
    if len(token) >= 2 and token.startswith('"') and token.endswith('"'):
        body = token[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    raise ZoneSyntaxError("TXT payload must be quoted", line_no)


def _parse_rdata(
    rtype: str, args: List[str], origin: Optional[str], line_no: int
) -> Rdata:
    try:
        if rtype == "A":
            if len(args) != 1:
                raise RdataFormatError("A takes one address")
            return _check_address_text(args[0])
        if rtype in ("NS", "DNAME"):
            if len(args) != 1:
                raise RdataFormatError(f"{rtype} takes one name")
            return _resolve_name(args[0], origin, line_no)
        if rtype == "TXT":
            if len(args) != 1:
                raise RdataFormatError("TXT takes one quoted string")
            return _unquote_txt(args[0], line_no)
        if rtype == "KEY":
            if len(args) != 4:
                raise RdataFormatError("KEY takes flags, protocol, algorithm, base64")
            flags, proto, alg = (int(args[0]), int(args[1]), int(args[2]))
            material = base64.b64decode(args[3], validate=True)
            return struct.pack(">HBB", flags, proto, alg) + material
        if rtype == "SOA":
            if len(args) != 7:
                raise RdataFormatError("SOA takes seven fields")
            return SoaData(
                primary=_resolve_name(args[0], origin, line_no),
                contact=_resolve_name(args[1], origin, line_no),
                serial=int(args[2]),
                refresh=parse_duration(args[3]),
                retry=parse_duration(args[4]),
                expire=parse_duration(args[5]),
                minimum=parse_duration(args[6]),
            )
        if rtype == "NXT":
            if len(args) < 2:
                raise RdataFormatError("NXT takes a next owner and at least one type")
            return NxtData(
                next_owner=_resolve_name(args[0], origin, line_no),
                types=tuple(args[1:]),
            )
    except (ValueError, struct.error) as exc:
        raise RdataFormatError(f"bad {rtype} payload: {exc}") from exc
    raise UnknownRecordTypeError(f"record type {rtype!r} not supported")


def parse_zone(text: str, apex: Optional[str] = None) -> ZoneSnapshot:
    """Parse zone text into a snapshot.

    The apex comes from the explicit argument, else the SOA owner, else
    $ORIGIN. Signature lines attach to the record set named by their
    owner and covered type.
    """
    origin: Optional[str] = apex
    serial: Optional[int] = None
    default_ttl = DEFAULT_TTL
    grouped: Dict[Tuple[str, str], List[ResourceRecord]] = {}
    owner_text: Dict[Tuple[str, str], str] = {}
    sigs: Dict[Tuple[str, str], RecordSignature] = {}
    soa_owner: Optional[str] = None

    for line_no, tokens in _logical_lines(text):
        directive = tokens[0].upper()
        if directive == "$ORIGIN":
            if len(tokens) != 2:
                raise ZoneSyntaxError("$ORIGIN takes one name", line_no)
            origin = strip_dot(tokens[1])
            continue
        if directive == "$TTL":
            if len(tokens) != 2:
                raise ZoneSyntaxError("$TTL takes one duration", line_no)
            default_ttl = parse_duration(tokens[1])
            continue
        if directive == "$SERIAL":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ZoneSyntaxError("$SERIAL takes one integer", line_no)
            serial = int(tokens[1])
            continue
        if directive.startswith("$"):
            raise ZoneSyntaxError(f"unknown directive {tokens[0]!r}", line_no)

        if len(tokens) < 3:
            raise ZoneSyntaxError("record line needs owner, type, payload", line_no)
        owner = _resolve_name(tokens[0], origin, line_no)
        rest = tokens[1:]

        ttl = default_ttl
        if rest and _DURATION_RE.fullmatch(rest[0]):
            ttl = parse_duration(rest[0])
            rest = rest[1:]
        if rest and rest[0].upper() == "IN":
            rest = rest[1:]
        if not rest:
            raise ZoneSyntaxError("record line has no type", line_no)
        rtype = rest[0].upper()
        args = rest[1:]

        if rtype == "SIG":
            if len(args) != 8:
                raise ZoneSyntaxError("SIG takes covered type and seven fields", line_no)
            covered = args[0].upper()
            try:
                params = SignatureParams(
                    algorithm=int(args[1]),
                    label_count=int(args[2]),
                    original_ttl=parse_duration(args[3]),
                    expiration=check_stamp(args[4]),
                    inception=check_stamp(args[5]),
                    signer=_resolve_name(args[6], origin, line_no),
                    )
                sig_bytes = base64.b64decode(args[7], validate=True)
            except (ValueError, ParamsMismatchError) as exc:
                raise ZoneSyntaxError(f"bad SIG fields: {exc}", line_no) from exc
            key = (name_key(owner), covered)
            if key in sigs:
                raise ZoneSyntaxError(f"duplicate SIG for {owner} {covered}", line_no)
            sigs[key] = RecordSignature(params=params, signature_bytes=sig_bytes)
            continue

        if rtype not in RRTYPES:
            raise UnknownRecordTypeError(f"record type {rtype!r} not supported")
        rdata = _parse_rdata(rtype, args, origin, line_no)
        record = ResourceRecord(owner=owner, ttl=ttl, rtype=rtype, rdata=rdata)
        if rtype == "SOA":
            soa_owner = owner
        grouped.setdefault((name_key(owner), rtype), []).append(record)
        owner_text.setdefault((name_key(owner), rtype), owner)

    zone_apex = apex or soa_owner or origin
    if zone_apex is None:
        raise ZoneSyntaxError("zone has no apex ($ORIGIN or SOA required)")
    rrsets: Dict[Tuple[str, str], SignedRRset] = {}
    for key, recs in grouped.items():
        rrsets[key] = SignedRRset(records=tuple(recs), signature=sigs.pop(key, None))
    if sigs:
        (owner_key, covered) = next(iter(sigs))
        raise ZoneSyntaxError(f"SIG for absent record set {owner_key} {covered}")
    if serial is None:
        soa = rrsets.get((name_key(zone_apex), "SOA"))
        serial = soa.records[0].rdata.serial if soa else 0  # type: ignore[union-attr]
    return ZoneSnapshot(apex=zone_apex, rrsets=rrsets, serial=serial, default_ttl=default_ttl)
