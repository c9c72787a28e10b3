"""Handle names: label grammar, parsing, and rendering.

A handle is a sequence of labels hung under a root domain suffix. The apex
label embeds a hash suffix of the owner's public key; labels below it carry
decimal ordinals assigned by the owner (IA) or by a third party (OA).

Label text forms:

    PK   h1g<code>k<hex>     code: decimal algorithm code, 1..255, no leading zero
                             hex: 14..40 hex digits of the key hash suffix
    IA   h0k<ordinal>        ordinal: 1..60 decimal digits, no leading zero
    OA   h2k<ordinal>        same ordinal rules as IA

Parsing is case-insensitive; the canonical form uses uppercase hex and
lowercase structural letters. Rendered names obey DNS limits: 63 octets per
label, 253 for the full name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

_PK_RE = re.compile(r"h1g([0-9]+)k([0-9a-f]+)$", re.IGNORECASE)
_IA_RE = re.compile(r"h0k([0-9]+)$", re.IGNORECASE)
_OA_RE = re.compile(r"h2k([0-9]+)$", re.IGNORECASE)


def _check_ordinal(text: str) -> None:
    if len(text) > MAX_ORDINAL_DIGITS:
        raise LabelLengthError(f"ordinal longer than {MAX_ORDINAL_DIGITS} digits")
    if len(text) > 1 and text[0] == "0":
        raise LeadingZeroError(f"ordinal {text!r} has a leading zero")


@dataclass(frozen=True)
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
            if not isinstance(code, int) or not 1 <= code <= 255:
                raise LabelSyntaxError(f"algorithm code {code!r} outside 1..255")
            if not re.fullmatch(r"[0-9A-Fa-f]+", suffix):
                raise LabelSyntaxError(f"key suffix {suffix!r} is not hex")
            if not MIN_SUFFIX_HEX <= len(suffix) <= MAX_SUFFIX_HEX:
                raise LabelLengthError(
                    f"key suffix length {len(suffix)} outside "
                    f"{MIN_SUFFIX_HEX}..{MAX_SUFFIX_HEX}"
                )
            object.__setattr__(self, "key_suffix", suffix.upper())
        elif self.kind in (IA, OA):
            if self.ordinal is None or self.algorithm_code is not None or self.key_suffix is not None:
                raise InvalidLabelError(f"{self.kind} label needs only an ordinal")
            if not re.fullmatch(r"[0-9]+", self.ordinal):
                raise LabelSyntaxError(f"ordinal {self.ordinal!r} is not decimal")
            _check_ordinal(self.ordinal)
        else:
            raise InvalidLabelError(f"unknown label kind {self.kind!r}")

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
    """Parse one label. Raises a subclass of InvalidLabelError on bad input."""
    if not text:
        raise LabelSyntaxError("empty label")
    if len(text) > MAX_LABEL_LEN:
        raise LabelLengthError(f"label longer than {MAX_LABEL_LEN} octets")
    m = _PK_RE.fullmatch(text)
    if m:
        code_text, hex_text = m.group(1), m.group(2)
        if len(code_text) > 1 and code_text[0] == "0":
            raise LeadingZeroError(f"algorithm code {code_text!r} has a leading zero")
        code = int(code_text)
        if not 1 <= code <= 255:
            raise LabelSyntaxError(f"algorithm code {code} outside 1..255")
        if not MIN_SUFFIX_HEX <= len(hex_text) <= MAX_SUFFIX_HEX:
            raise LabelLengthError(
                f"key suffix length {len(hex_text)} outside "
                f"{MIN_SUFFIX_HEX}..{MAX_SUFFIX_HEX}"
            )
        return HandleLabel.pk(code, hex_text)
    m = _IA_RE.fullmatch(text)
    if m:
        _check_ordinal(m.group(1))
        return HandleLabel.ia(m.group(1))
    m = _OA_RE.fullmatch(text)
    if m:
        _check_ordinal(m.group(1))
        return HandleLabel.oa(m.group(1))
    raise LabelSyntaxError(f"label {text!r} does not match any handle form")


def _strip_dot(name: str) -> str:
    return name[:-1] if name.endswith(".") else name


def _norm(name: str) -> str:
    return _strip_dot(name).lower()


@dataclass(frozen=True, eq=False)
class Handle:
    """A full handle: labels ordered apex first, under a root suffix.

    The apex label must be PK; labels below it must be IA or OA. The root
    suffix is kept verbatim (case and trailing dot) so rendering reproduces
    the parsed text; comparisons ignore both.
    """

    labels: Tuple[HandleLabel, ...]
    root_suffix: str

    def __post_init__(self) -> None:
        if not self.labels:
            raise HandleStructureError("handle needs at least an apex label")
        if self.labels[0].kind != PK:
            raise HandleStructureError("apex label must be a PK label")
        for lab in self.labels[1:]:
            if lab.kind not in (IA, OA):
                raise HandleStructureError("labels below the apex must be IA or OA")
        root = _strip_dot(self.root_suffix)
        if not root:
            raise HandleStructureError("empty root suffix")
        for part in root.split("."):
            if not part or len(part) > MAX_LABEL_LEN:
                raise LabelLengthError(f"bad root suffix label {part!r}")
        if len(self.fqdn_no_dot()) > MAX_NAME_LEN:
            raise HandleStructureError(
                f"rendered name longer than {MAX_NAME_LEN} octets"
            )

    # -- rendering --

    def fqdn(self) -> str:
        """Leaf-first dotted name ending in the root suffix, verbatim."""
        head = ".".join(lab.encode() for lab in reversed(self.labels))
        return f"{head}.{self.root_suffix}"

    def fqdn_no_dot(self) -> str:
        return _strip_dot(self.fqdn())

    def root_suffix_no_dot(self) -> str:
        return _strip_dot(self.root_suffix)

    def name_key(self) -> str:
        """Case-folded, dot-stripped form for use as a map key."""
        return _norm(self.fqdn())

    def __str__(self) -> str:
        return self.fqdn()

    def __repr__(self) -> str:
        return f"Handle({self.fqdn()!r})"

    # -- identity --

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Handle):
            return NotImplemented
        return self.labels == other.labels and _norm(self.root_suffix) == _norm(other.root_suffix)

    def __hash__(self) -> int:
        return hash((self.labels, _norm(self.root_suffix)))

    # -- structure --

    @property
    def apex_label(self) -> HandleLabel:
        return self.labels[0]

    def apex(self) -> "Handle":
        return Handle(labels=(self.labels[0],), root_suffix=self.root_suffix)

    def is_apex(self) -> bool:
        return len(self.labels) == 1

    def parent(self) -> Optional["Handle"]:
        if self.is_apex():
            return None
        return Handle(labels=self.labels[:-1], root_suffix=self.root_suffix)

    def child(self, label: HandleLabel) -> "Handle":
        return Handle(labels=self.labels + (label,), root_suffix=self.root_suffix)

    def ancestry(self) -> Iterator["Handle"]:
        """Yield apex, then each deeper prefix, ending with this handle."""
        for i in range(1, len(self.labels) + 1):
            yield Handle(labels=self.labels[:i], root_suffix=self.root_suffix)

    def is_under(self, other: "Handle") -> bool:
        """True when this handle sits strictly below other."""
        if _norm(self.root_suffix) != _norm(other.root_suffix):
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


def parse_handle(text: str, root_suffix: str) -> Handle:
    """Parse a dotted name into a Handle under root_suffix.

    The root portion matches case-insensitively and with or without a
    trailing dot; whatever text actually appeared is preserved so that
    re-rendering reproduces the input byte for byte (hex case aside, which
    canonicalizes to uppercase).
    """
    stripped = _strip_dot(text)
    root = _strip_dot(root_suffix)
    if _norm(text) == root.lower():
        raise HandleStructureError(f"{text!r} is the root itself, not a handle")
    tail = f".{root}".lower()
    if not stripped.lower().endswith(tail):
        raise NotUnderRootError(f"{text!r} is not under root {root_suffix!r}")
    head = stripped[: -len(tail)]
    if not head:
        raise HandleStructureError(f"{text!r} has no handle labels")
    root_verbatim = text[len(head) + 1:]
    labels_leaf_first = head.split(".")
    labels = tuple(parse_label(lab) for lab in reversed(labels_leaf_first))
    return Handle(labels=labels, root_suffix=root_verbatim)


def parse_handle_guess_root(text: str) -> Handle:
    """Parse a full name, taking the root to start at the first label that
    is not a handle label. Convenient for command lines; ambiguous only if
    the root zone itself begins with a handle-shaped label."""
    stripped = _strip_dot(text)
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
