"""Exception types shared across the package."""

from __future__ import annotations


class OnhsError(Exception):
    """Base class for every error raised by this package."""


# ---- handle name errors ----


class InvalidLabelError(OnhsError):
    """A handle label violates the grammar or its structural limits."""


class LabelSyntaxError(InvalidLabelError):
    """Bad prefix letters, bad digit set, or unparseable label text."""


class LabelLengthError(InvalidLabelError):
    """A field is shorter or longer than the grammar allows."""


class LeadingZeroError(InvalidLabelError):
    """A decimal field carries a leading zero."""


class NotUnderRootError(OnhsError):
    """A domain name does not fall under the expected root suffix."""


class HandleStructureError(OnhsError):
    """Labels do not form a valid handle (apex must be a PK label)."""


# ---- key and signature errors ----


class CryptoError(OnhsError):
    """Base class for key handling and signature errors."""


class UnsupportedAlgorithmError(CryptoError):
    """Algorithm code is not in the registry."""


class SuffixLengthError(CryptoError):
    """Requested hash suffix length is outside 14..40."""


class WrongLabelKindError(CryptoError):
    """A key was compared against a label that is not a PK label."""


class ParamsMismatchError(CryptoError):
    """Signature parameters are inconsistent with the record set."""


class KeyFormatError(CryptoError):
    """A key file or key blob could not be decoded."""


# ---- record and zone errors ----


class RecordError(OnhsError):
    """Base class for record model errors."""


class UnknownRecordTypeError(RecordError):
    """Record type outside the supported set."""


class RdataFormatError(RecordError):
    """Record payload text is malformed for its type."""


class RRsetFormatError(RecordError):
    """Octets received as a record set are not the canonical encoding of one."""


class ZoneSyntaxError(RecordError):
    """Zone text could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


# ---- server-side errors ----


class ResolutionError(OnhsError):
    """Resolution could not produce an outcome."""


class DelegationLoopError(ResolutionError):
    """The rewrite walk revisited a name it had already visited; at names it."""

    def __init__(self, message: str, at: str = "") -> None:
        super().__init__(message)
        self.at = at


class DepthExceededError(ResolutionError):
    """The rewrite walk ran out of depth budget."""


# ---- client-side errors ----


class VerificationError(OnhsError):
    """Served evidence failed independent verification."""


# ---- wire errors ----


class WireError(OnhsError):
    """Base class for framing and codec errors."""


class FrameTooLargeError(WireError):
    """Frame length prefix exceeds the 1 MiB ceiling."""


class MalformedFrameError(WireError):
    """Frame bytes could not be decoded into a message."""


# ---- durability errors ----


class LogFormatError(OnhsError):
    """A complete line of the update log does not decode."""


class DataDirInUseError(OnhsError):
    """Another server holds the lock of the data directory."""
