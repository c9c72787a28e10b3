"""Handle names: label grammar, parsing, and rendering.

A handle is a sequence of labels hung under a root domain suffix. The apex
label embeds a hash suffix of the owner's public key; labels below it carry
decimal ordinals assigned by the owner (IA) or by a third party (OA).

Label text forms:

    PK   h1g<code>k<hex>     code: decimal algorithm code, 1..255, no leading zero
                             hex: 14..40 hex digits of the key hash suffix
    IA   h0k<ordinal>        ordinal: 1..60 decimal digits, no leading zero
    OA   h2k<ordinal>        same ordinal rules as IA

Parsing is case-insensitive over ASCII letters only; the canonical form
uses uppercase hex and lowercase structural letters. Rendered names obey
DNS limits: 63 octets per label, 253 for the full name.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from .errors import (
    HandleStructureError,
    InvalidLabelError,
    LabelLengthError,
    LabelSyntaxError,
    LeadingZeroError,
    NotUnderRootError,
)

PK = "PK"
IA = "IA"
OA = "OA"

MIN_SUFFIX_HEX = 14
MAX_SUFFIX_HEX = 40
MAX_ORDINAL_DIGITS = 60
MAX_LABEL_LEN = 63
MAX_NAME_LEN = 253

# Entries in each process-wide memo: handles._check_root,
# codec.received_sets, server.bound_apex_keys and
# client.verified_signatures. Each is a functools.lru_cache keyed on input
# from outside the process, so each is bounded, and past the cap the least
# recently used entry goes.
CACHE_CAP = 4096

# The three label forms in one pattern: a PK label's code and hex, or an
# IA (0) or OA (2) label's form digit and ordinal. re.ASCII keeps
# IGNORECASE from matching a letter that only folds to one of these, such
# as the Kelvin sign to k.
_LABEL_RE = re.compile(
    r"h(?:1g([0-9]+)k([0-9a-f]+)|([02])k([0-9]+))", re.IGNORECASE | re.ASCII
)
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")
_DECIMAL_RE = re.compile(r"[0-9]+")


# -- the label rules, each in one place; the parser's pattern checks the
# syntax that HandleLabel checks with _HEX_RE and _DECIMAL_RE --


def _check_code(code: object) -> None:
    if not isinstance(code, int) or not 1 <= code <= 255:
        raise LabelSyntaxError(f"algorithm code {code!r} outside 1..255")


def _checked_suffix(suffix: str) -> str:
    """The key suffix in upper case, if its length is allowed."""
    if not MIN_SUFFIX_HEX <= len(suffix) <= MAX_SUFFIX_HEX:
        raise LabelLengthError(
            f"key suffix length {len(suffix)} outside "
            f"{MIN_SUFFIX_HEX}..{MAX_SUFFIX_HEX}"
        )
    return suffix.upper()


def _check_ordinal(text: str) -> None:
    if len(text) > MAX_ORDINAL_DIGITS:
        raise LabelLengthError(f"ordinal longer than {MAX_ORDINAL_DIGITS} digits")
    if len(text) > 1 and text[0] == "0":
        raise LeadingZeroError(f"ordinal {text!r} has a leading zero")


@dataclass(frozen=True, slots=True)
class HandleLabel:
    """One label of a handle.

    kind is PK, IA, or OA. PK labels carry algorithm_code and key_suffix;
    IA/OA labels carry ordinal (kept as decimal text so very large ordinals
    round-trip exactly).
    """

    kind: str
    algorithm_code: Optional[int] = None
    key_suffix: Optional[str] = None
    ordinal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind == PK:
            code = self.algorithm_code
            suffix = self.key_suffix
            if code is None or suffix is None or self.ordinal is not None:
                raise InvalidLabelError("PK label needs algorithm_code and key_suffix")
            _check_code(code)
            if not _HEX_RE.fullmatch(suffix):
                raise LabelSyntaxError(f"key suffix {suffix!r} is not hex")
            object.__setattr__(self, "key_suffix", _checked_suffix(suffix))
        elif self.kind in (IA, OA):
            if self.ordinal is None or self.algorithm_code is not None or self.key_suffix is not None:
                raise InvalidLabelError(f"{self.kind} label needs only an ordinal")
            if not _DECIMAL_RE.fullmatch(self.ordinal):
                raise LabelSyntaxError(f"ordinal {self.ordinal!r} is not decimal")
            _check_ordinal(self.ordinal)
        else:
            raise InvalidLabelError(f"unknown label kind {self.kind!r}")

    @staticmethod
    def _made(kind: str, code: Optional[int], suffix: Optional[str],
              ordinal: Optional[str]) -> "HandleLabel":
        """The label of fields parse_label has already checked."""
        label = object.__new__(HandleLabel)
        object.__setattr__(label, "kind", kind)
        object.__setattr__(label, "algorithm_code", code)
        object.__setattr__(label, "key_suffix", suffix)
        object.__setattr__(label, "ordinal", ordinal)
        return label

    # -- constructors --

    @staticmethod
    def pk(algorithm_code: int, key_suffix: str) -> "HandleLabel":
        return HandleLabel(kind=PK, algorithm_code=algorithm_code, key_suffix=key_suffix)

    @staticmethod
    def ia(ordinal: int | str) -> "HandleLabel":
        return HandleLabel(kind=IA, ordinal=str(ordinal))

    @staticmethod
    def oa(ordinal: int | str) -> "HandleLabel":
        return HandleLabel(kind=OA, ordinal=str(ordinal))

    def encode(self) -> str:
        if self.kind == PK:
            return f"h1g{self.algorithm_code}k{self.key_suffix}"
        prefix = "h0k" if self.kind == IA else "h2k"
        return f"{prefix}{self.ordinal}"

    def __str__(self) -> str:
        return self.encode()


def parse_label(text: str) -> HandleLabel:
    """Parse one label, checking each rule once. Raises a subclass of
    InvalidLabelError on bad input."""
    if not text:
        raise LabelSyntaxError("empty label")
    if len(text) > MAX_LABEL_LEN:
        raise LabelLengthError(f"label longer than {MAX_LABEL_LEN} octets")
    m = _LABEL_RE.fullmatch(text)
    if m is None:
        raise LabelSyntaxError(f"label {text!r} does not match any handle form")
    code_text, suffix, form, ordinal = m.groups()
    if form is None:
        # the one rule the code's number cannot show
        if len(code_text) > 1 and code_text[0] == "0":
            raise LeadingZeroError(f"algorithm code {code_text!r} has a leading zero")
        code = int(code_text)
        _check_code(code)
        return HandleLabel._made(PK, code, _checked_suffix(suffix), None)
    _check_ordinal(ordinal)
    return HandleLabel._made(IA if form == "0" else OA, None, None, ordinal)


def strip_dot(name: str) -> str:
    return name[:-1] if name.endswith(".") else name


def name_key(name: str) -> str:
    """Case-folded, dot-stripped map key for a domain name."""
    return strip_dot(name).lower()


@dataclass(frozen=True, eq=False, slots=True)
class Handle:
    """A full handle: labels ordered apex first, under a root suffix.

    The apex label must be PK; labels below it must be IA or OA. The root
    suffix is kept verbatim (case and trailing dot) so rendering reproduces
    the parsed text; comparisons ignore both. The rendered name and its map
    key are built once, here, and kept outside equality, hashing and repr.
    A prefix of a valid handle is valid, so apex, parent and ancestry cut
    theirs from this handle's parts without checking them again.
    """

    labels: Tuple[HandleLabel, ...]
    root_suffix: str
    _fqdn: str = field(init=False, repr=False, compare=False)
    _name_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_structure(self.labels)
        fqdn = _rendered(self.labels, self.root_suffix)
        object.__setattr__(self, "_fqdn", fqdn)
        object.__setattr__(self, "_name_key", name_key(fqdn))

    @staticmethod
    def _made(labels: Tuple[HandleLabel, ...], root_suffix: str, fqdn: str,
              key: str) -> "Handle":
        """The handle of parts already checked, with its names."""
        handle = object.__new__(Handle)
        object.__setattr__(handle, "labels", labels)
        object.__setattr__(handle, "root_suffix", root_suffix)
        object.__setattr__(handle, "_fqdn", fqdn)
        object.__setattr__(handle, "_name_key", key)
        return handle

    def _prefix(self, count: int) -> "Handle":
        """The handle of this one's first count labels, its names cut from
        this one's past the leaf labels it drops."""
        drop = len(self.labels) - count
        return Handle._made(
            self.labels[:count],
            self.root_suffix,
            self._fqdn.split(".", drop)[drop],
            self._name_key.split(".", drop)[drop],
        )

    # -- rendering --

    def fqdn(self) -> str:
        """Leaf-first dotted name ending in the root suffix, verbatim."""
        return self._fqdn

    def fqdn_no_dot(self) -> str:
        return strip_dot(self._fqdn)

    def root_suffix_no_dot(self) -> str:
        return strip_dot(self.root_suffix)

    def name_key(self) -> str:
        """Case-folded, dot-stripped form for use as a map key."""
        return self._name_key

    def __str__(self) -> str:
        return self._fqdn

    def __repr__(self) -> str:
        return f"Handle({self._fqdn!r})"

    # -- identity --

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Handle):
            return NotImplemented
        return self.labels == other.labels and (
            name_key(self.root_suffix) == name_key(other.root_suffix)
        )

    def __hash__(self) -> int:
        return hash((self.labels, name_key(self.root_suffix)))

    # -- structure --

    @property
    def apex_label(self) -> HandleLabel:
        return self.labels[0]

    def apex(self) -> "Handle":
        return self._prefix(1)

    def is_apex(self) -> bool:
        return len(self.labels) == 1

    def parent(self) -> Optional["Handle"]:
        if self.is_apex():
            return None
        return self._prefix(len(self.labels) - 1)

    def child(self, label: HandleLabel) -> "Handle":
        return Handle(labels=self.labels + (label,), root_suffix=self.root_suffix)

    def ancestry(self) -> Iterator["Handle"]:
        """Yield apex, then each deeper prefix, ending with this handle."""
        for i in range(1, len(self.labels)):
            yield self._prefix(i)
        yield self

    def is_under(self, other: "Handle") -> bool:
        """True when this handle sits strictly below other."""
        if name_key(self.root_suffix) != name_key(other.root_suffix):
            return False
        return (
            len(self.labels) > len(other.labels)
            and self.labels[: len(other.labels)] == other.labels
        )

    def replace_prefix(self, old: "Handle", new: "Handle") -> "Handle":
        """Rewrite this handle by swapping its leading portion old for new.

        Used when following a delegation or transfer record at old.
        """
        if not (self == old or self.is_under(old)):
            raise HandleStructureError(f"{self} is not under {old}")
        rest = self.labels[len(old.labels):]
        return Handle(labels=new.labels + rest, root_suffix=new.root_suffix)


def _check_structure(labels: Tuple[HandleLabel, ...]) -> None:
    if not labels:
        raise HandleStructureError("handle needs at least an apex label")
    if labels[0].kind != PK:
        raise HandleStructureError("apex label must be a PK label")
    for lab in labels[1:]:
        if lab.kind not in (IA, OA):
            raise HandleStructureError("labels below the apex must be IA or OA")


@functools.lru_cache(maxsize=CACHE_CAP)
def _check_root(root_suffix: str) -> None:
    """Refuses a root suffix with an empty or over-long label. Kept per
    root, as every handle of a server or client hangs under the same one;
    lru_cache keeps no refusal."""
    root = strip_dot(root_suffix)
    if not root:
        raise HandleStructureError("empty root suffix")
    for part in root.split("."):
        if not part or len(part) > MAX_LABEL_LEN:
            raise LabelLengthError(f"bad root suffix label {part!r}")


def _rendered(labels: Tuple[HandleLabel, ...], root_suffix: str) -> str:
    """The name of these labels under root_suffix, if the root and the
    name's length are allowed."""
    _check_root(root_suffix)
    fqdn = ".".join([lab.encode() for lab in reversed(labels)] + [root_suffix])
    if len(strip_dot(fqdn)) > MAX_NAME_LEN:
        raise HandleStructureError(f"rendered name longer than {MAX_NAME_LEN} octets")
    return fqdn


def parse_handle(text: str, root_suffix: str) -> Handle:
    """Parse a dotted name into a Handle under root_suffix.

    The root portion matches case-insensitively and with or without a
    trailing dot; whatever text actually appeared is preserved so that
    re-rendering reproduces the input byte for byte (hex case aside, which
    canonicalizes to uppercase). Each label is read and checked once, in
    one pass, and the handle is built from the checked parts.
    """
    stripped = strip_dot(text)
    key = stripped.lower()
    tail = "." + strip_dot(root_suffix).lower()
    if not key.endswith(tail):
        if key == tail[1:]:
            raise HandleStructureError(f"{text!r} is the root itself, not a handle")
        raise NotUnderRootError(f"{text!r} is not under root {root_suffix!r}")
    cut = len(stripped) - len(tail)
    if not cut:
        raise HandleStructureError(f"{text!r} has no handle labels")
    parts = stripped[:cut].split(".")
    parts.reverse()
    labels = tuple([parse_label(part) for part in parts])
    _check_structure(labels)
    root_verbatim = text[cut + 1:]
    # Rendering changes only the case of ASCII letters, so the rendered
    # name's key is the text's.
    return Handle._made(labels, root_verbatim, _rendered(labels, root_verbatim), key)


def parse_handle_guess_root(text: str) -> Handle:
    """Parse a full name, taking the root to start at the first label that
    is not a handle label. Convenient for command lines; ambiguous only if
    the root zone itself begins with a handle-shaped label."""
    stripped = strip_dot(text)
    parts = stripped.split(".")
    head_len = 0
    for part in parts:
        try:
            parse_label(part)
        except InvalidLabelError:
            break
        head_len += 1
    if head_len == 0:
        raise HandleStructureError(f"{text!r} does not start with a handle label")
    if head_len == len(parts):
        raise NotUnderRootError(f"{text!r} has no root suffix after its labels")
    root = ".".join(parts[head_len:])
    return parse_handle(text, root)
