"""Keys, hash-derived labels, and record-set signatures.

Public keys are carried everywhere in one canonical octet form: the KEY
record payload (two flag octets 0x0100, protocol octet 3, the algorithm
code octet, then the RSA material in exponent-length / exponent / modulus
layout). The SHA-1 hash whose suffix appears in PK labels is computed over
exactly these octets.

Signatures cover a canonical serialization of one record set together with
the signature parameters, so a record set plus its signature is verifiable
in isolation.
"""

from __future__ import annotations

import base64
import datetime as _dt
import functools
import os
import re
import struct
import time
from dataclasses import InitVar, dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    load_der_private_key,
)
from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm

from .errors import (
    KeyFormatError,
    ParamsMismatchError,
    RRsetFormatError,
    SuffixLengthError,
    UnsupportedAlgorithmError,
    WrongLabelKindError,
)
from .handles import MAX_SUFFIX_HEX, MIN_SUFFIX_HEX, PK, HandleLabel, strip_dot

KEY_FLAGS = 256
KEY_PROTOCOL = 3

RSA_SHA1 = 5
RSA_SHA256 = 8

# A new key's algorithm and size where none is asked for: the server's own
# key's, and onhs keygen's defaults.
DEFAULT_ALGORITHM = RSA_SHA1
DEFAULT_RSA_BITS = 2048

# The largest RSA modulus OpenSSL works with (OPENSSL_RSA_MAX_MODULUS_BITS).
# A key payload holding one is at most its 4 octets of flags, protocol and
# algorithm, a 3-octet exponent length, and an exponent and a modulus of
# that size; a longer payload is refused before it is kept anywhere.
MAX_RSA_BITS = 16384
MAX_KEY_PAYLOAD = 4 + 3 + 2 * (MAX_RSA_BITS // 8)

# Registry of supported signature algorithm codes. Code 5 is the mandatory
# baseline; code 8 is the modern alternative, using the same public key
# layout with a SHA-256 digest.
ALGORITHMS = {
    RSA_SHA1: ("RSA/SHA-1", hashes.SHA1),
    RSA_SHA256: ("RSA/SHA-256", hashes.SHA256),
}


def _digest_for(algorithm: int):
    try:
        return ALGORITHMS[algorithm][1]()
    except KeyError:
        raise UnsupportedAlgorithmError(f"algorithm code {algorithm} not registered") from None


# ---- timestamps ----------------------------------------------------------

_STAMP_RE = re.compile(r"[0-9]{14}$")
_STAMP_FORMAT = "%Y%m%d%H%M%S"


# (second, its stamp): the stamp of the second now_stamp last formatted
_last_stamp = (-1, "")


def now_stamp() -> str:
    """The current UTC second as a 14-digit stamp. It is formatted once a
    second and kept until time.time() reaches the next one."""
    global _last_stamp
    second = int(time.time())
    kept = _last_stamp
    if kept[0] != second:
        moment = _dt.datetime.fromtimestamp(second, _dt.timezone.utc)
        kept = _last_stamp = (second, moment.strftime(_STAMP_FORMAT))
    return kept[1]


def check_stamp(text: str) -> str:
    if not _STAMP_RE.fullmatch(text):
        raise ParamsMismatchError(f"timestamp {text!r} is not 14 digits")
    return text


def stamp_add(stamp: str, seconds: int) -> str:
    """stamp moved by seconds. Its fields are read by position; one out
    of range raises ValueError."""
    s = check_stamp(stamp)
    dt = _dt.datetime(
        int(s[:4]), int(s[4:6]), int(s[6:8]), int(s[8:10]), int(s[10:12]), int(s[12:])
    )
    return (dt + _dt.timedelta(seconds=seconds)).strftime(_STAMP_FORMAT)


# ---- key material --------------------------------------------------------


def _rsa_material(pub: rsa.RSAPublicKey) -> bytes:
    """Exponent-length, exponent, modulus octets."""
    numbers = pub.public_numbers()
    exp = numbers.e.to_bytes((numbers.e.bit_length() + 7) // 8, "big")
    mod = numbers.n.to_bytes((numbers.n.bit_length() + 7) // 8, "big")
    if len(exp) <= 255:
        head = bytes([len(exp)])
    else:
        head = b"\x00" + struct.pack(">H", len(exp))
    return head + exp + mod


def _material_to_rsa(material: bytes) -> rsa.RSAPublicKey:
    if not material:
        raise KeyFormatError("empty key material")
    if material[0] != 0:
        exp_len = material[0]
        offset = 1
    else:
        if len(material) < 3:
            raise KeyFormatError("truncated key material")
        exp_len = struct.unpack(">H", material[1:3])[0]
        offset = 3
    exp_bytes = material[offset:offset + exp_len]
    mod_bytes = material[offset + exp_len:]
    if len(exp_bytes) != exp_len or not mod_bytes:
        raise KeyFormatError("truncated key material")
    e = int.from_bytes(exp_bytes, "big")
    n = int.from_bytes(mod_bytes, "big")
    try:
        return rsa.RSAPublicNumbers(e, n).public_key()
    except ValueError as exc:
        raise KeyFormatError(f"bad RSA numbers: {exc}") from exc


@dataclass(frozen=True)
class PublicKey:
    """A public key in canonical octet form.

    key_bytes holds the complete KEY record payload; two equal keys always
    have identical key_bytes, and the label hash is taken over them. The
    RSA key they encode is built on the first verify and kept for the
    next; equality, hashing and repr do not see it.
    """

    algorithm: int
    key_bytes: bytes

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise UnsupportedAlgorithmError(f"algorithm code {self.algorithm} not registered")
        if len(self.key_bytes) < 5:
            raise KeyFormatError("key payload too short")
        if len(self.key_bytes) > MAX_KEY_PAYLOAD:
            raise KeyFormatError(f"key payload longer than {MAX_KEY_PAYLOAD} octets")
        flags, proto, alg = struct.unpack(">HBB", self.key_bytes[:4])
        if alg != self.algorithm:
            raise KeyFormatError(f"payload algorithm {alg} != declared {self.algorithm}")
        if flags != KEY_FLAGS or proto != KEY_PROTOCOL:
            raise KeyFormatError(f"unexpected flags/protocol {flags}/{proto}")

    @staticmethod
    def from_key_bytes(key_bytes: bytes) -> "PublicKey":
        """Rebuild a key from its canonical payload octets."""
        if len(key_bytes) < 5:
            raise KeyFormatError("key payload too short")
        return PublicKey(algorithm=key_bytes[3], key_bytes=key_bytes)

    @property
    def material(self) -> bytes:
        return self.key_bytes[4:]

    def key_hash_hex(self) -> str:
        """Uppercase 40-digit SHA-1 of the canonical key octets. It hashes
        with the OpenSSL that signs and verifies, so the process maps no
        second one for hashlib."""
        digest = hashes.Hash(hashes.SHA1())
        digest.update(self.key_bytes)
        return digest.finalize().hex().upper()

    @functools.cached_property
    def _rsa(self) -> rsa.RSAPublicKey:
        return _material_to_rsa(self.material)

    def verify(self, signature: bytes, message: bytes) -> bool:
        try:
            self._rsa.verify(signature, message, padding.PKCS1v15(), _digest_for(self.algorithm))
            return True
        except InvalidSignature:
            return False


@dataclass(frozen=True)
class SecretKey:
    """Private half of a keypair; private_bytes is a DER blob.

    The DER is parsed and validated once, when the key is made, unless the
    maker passes the key it encodes as parsed (generate_keypair does). The
    parsed key and the public half are kept, so signing costs only the RSA
    operation. Equality and hashing see only algorithm and private_bytes;
    repr shows only the algorithm.
    """

    algorithm: int
    private_bytes: bytes = field(repr=False)
    parsed: InitVar[Optional[rsa.RSAPrivateKey]] = None
    _key: rsa.RSAPrivateKey = field(init=False, repr=False, compare=False)
    _public: PublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self, parsed: Optional[rsa.RSAPrivateKey]) -> None:
        key = self._load() if parsed is None else parsed
        head = struct.pack(">HBB", KEY_FLAGS, KEY_PROTOCOL, self.algorithm)
        material = _rsa_material(key.public_key())
        public = PublicKey(algorithm=self.algorithm, key_bytes=head + material)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_public", public)

    def _load(self) -> rsa.RSAPrivateKey:
        """Parse and validate private_bytes."""
        try:
            key = load_der_private_key(self.private_bytes, password=None)
        except (ValueError, TypeError, UnsupportedAlgorithm) as exc:
            raise KeyFormatError(f"bad secret key: {exc}") from exc
        if not isinstance(key, rsa.RSAPrivateKey):
            raise KeyFormatError("secret key is not RSA")
        return key

    def public_key(self) -> PublicKey:
        return self._public

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message, padding.PKCS1v15(), _digest_for(self.algorithm))


def generate_keypair(algorithm: int, bits: int = DEFAULT_RSA_BITS) -> Tuple[PublicKey, SecretKey]:
    if algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithmError(f"algorithm code {algorithm} not registered")
    priv = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    der = priv.private_bytes(Encoding.DER, PrivateFormat.PKCS8, NoEncryption())
    secret = SecretKey(algorithm=algorithm, private_bytes=der, parsed=priv)
    return secret.public_key(), secret


# ---- labels from keys ----------------------------------------------------


def derive_pk_label(key: PublicKey, suffix_len: int) -> HandleLabel:
    """Build the apex label for key, embedding its low-order hash digits."""
    if not MIN_SUFFIX_HEX <= suffix_len <= MAX_SUFFIX_HEX:
        raise SuffixLengthError(
            f"suffix length {suffix_len} outside {MIN_SUFFIX_HEX}..{MAX_SUFFIX_HEX}"
        )
    digest = key.key_hash_hex()
    return HandleLabel.pk(key.algorithm, digest[-suffix_len:])


def verify_key_matches_label(key: PublicKey, label: HandleLabel) -> bool:
    """True when label's hash suffix and algorithm code belong to key."""
    if label.kind != PK:
        raise WrongLabelKindError(f"label {label} is not a PK label")
    if label.algorithm_code != key.algorithm:
        return False
    return key.key_hash_hex().endswith(label.key_suffix or "")


# ---- key files -----------------------------------------------------------


def save_secret_key(path, secret: SecretKey) -> None:
    """Write a key file, the one form there is: three lines, the algorithm
    code, the base64 public key payload, and the base64 private key DER.
    load_secret_key rebuilds the public half from the DER and checks line two.
    The file is readable by its owner alone (0600), a file it overwrites too."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as fh:
        os.fchmod(fh.fileno(), 0o600)
        fh.write(_key_file_text(secret).encode())


def _key_file_text(secret: SecretKey) -> str:
    return (
        f"{secret.algorithm}\n"
        f"{base64.b64encode(secret.public_key().key_bytes).decode()}\n"
        f"{base64.b64encode(secret.private_bytes).decode()}\n"
    )


def load_secret_key(path) -> SecretKey:
    """The key of a key file, which must be the text save_secret_key writes
    for that key. Anything else raises KeyFormatError: a blank line, a
    space, a carriage return, a leading zero, a base64 character with stray
    bits, a missing last newline."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise KeyFormatError(f"key file {path} is not ASCII text") from None
    lines = text.split("\n")
    if len(lines) != 4 or lines[3]:
        raise KeyFormatError(f"key file {path} is not three lines, each ending in a newline")
    if not lines[0].isdigit() or int(lines[0]) not in ALGORITHMS:
        raise KeyFormatError(f"key file {path} has a bad algorithm line")
    try:
        public, der = (base64.b64decode(line, validate=True) for line in lines[1:3])
    except ValueError as exc:
        raise KeyFormatError(f"bad base64 in {path}: {exc}") from exc
    secret = SecretKey(algorithm=int(lines[0]), private_bytes=der)
    if secret.public_key().key_bytes != public:
        raise KeyFormatError(f"key file {path}: the public key line is not the private key's")
    if _key_file_text(secret) != text:
        raise KeyFormatError(f"key file {path} is not in the form save_secret_key writes")
    return secret


# ---- record-set signatures ----------------------------------------------


class RecordLike(Protocol):
    owner: str
    ttl: int
    rtype: str

    def canonical_rdata_text(self) -> str: ...


class SignedSetLike(Protocol):
    """A records.SignedRRset: the records of one owner and type, whose
    constructor refuses a signature whose label count is not the owner's."""

    records: Sequence[RecordLike]
    signature: Optional["RecordSignature"]

    def canonical_bytes(self) -> bytes: ...


@dataclass(frozen=True, slots=True)
class SignatureParams:
    """Everything a verifier needs besides the records and the key.

    expiration and inception are 14-digit UTC timestamps (YYYYMMDDHHMMSS);
    signer is the dotted name of the signing authority.
    """

    algorithm: int
    label_count: int
    original_ttl: int
    expiration: str
    inception: str
    signer: str

    def __post_init__(self) -> None:
        check_stamp(self.expiration)
        check_stamp(self.inception)
        if not self.inception < self.expiration:
            raise ParamsMismatchError(
                f"inception {self.inception} not before expiration {self.expiration}"
            )
        if self.label_count < 1:
            raise ParamsMismatchError(f"label count {self.label_count} < 1")
        if self.original_ttl < 0:
            raise ParamsMismatchError("negative original ttl")


@dataclass(frozen=True, slots=True)
class RecordSignature:
    params: SignatureParams
    signature_bytes: bytes


def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def name_labels(name: str) -> int:
    """The label count a signature over a set owned by name must carry."""
    return len(strip_dot(name).split("."))


_SIGNED_SET_MAGIC = b"onhs-sig-v1"


def canonical_rrset_bytes(
    records: Sequence[RecordLike], params: Optional[SignatureParams]
) -> bytes:
    """Deterministic octets covering params and every record field.

    They are what a signature covers and the wire form of a set. Records
    sort by rdata text; owner and signer names fold to lowercase (name
    comparisons are case-insensitive); every field is length-prefixed so
    no two distinct sets share an encoding. An unsigned set (params None)
    encodes as the records part alone: the record count, then each record.
    decode_canonical_rrset splits them again.
    """
    out = []
    if params is not None:
        out.append(_SIGNED_SET_MAGIC)
        for field in (
            str(params.algorithm),
            str(params.label_count),
            str(params.original_ttl),
            params.expiration,
            params.inception,
            params.signer.rstrip(".").lower(),
        ):
            out.append(_lp(field.encode()))
    ordered = sorted(records, key=lambda r: r.canonical_rdata_text().encode())
    out.append(_lp(str(len(ordered)).encode()))
    for rec in ordered:
        out.append(_lp(rec.owner.rstrip(".").lower().encode()))
        out.append(_lp(str(rec.ttl).encode()))
        out.append(_lp(rec.rtype.encode()))
        out.append(_lp(rec.canonical_rdata_text().encode()))
    return b"".join(out)


# (owner, ttl, rtype, rdata text) of one record, as canonical octets hold it
RecordFields = Tuple[str, int, str, str]


def decode_canonical_rrset(
    data: bytes, signed: bool
) -> Tuple[Optional[SignatureParams], List[RecordFields]]:
    """Split what canonical_rrset_bytes made into params and record fields.

    signed says whether data is a signed set's encoding (with params) or
    an unsigned one's. Raises RRsetFormatError, naming the field, when
    data does not split; that data is the canonical encoding of what it
    splits into is the caller's check, by encoding that again.
    """
    offset = 0
    if signed:
        if not data.startswith(_SIGNED_SET_MAGIC):
            raise RRsetFormatError("signed set octets lack the onhs-sig-v1 header")
        offset = len(_SIGNED_SET_MAGIC)
    fields = []
    while offset < len(data):
        if len(data) - offset < 4:
            raise RRsetFormatError(f"length prefix cut short at offset {offset}")
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if length > len(data) - offset:
            raise RRsetFormatError(
                f"field at offset {offset - 4} declares {length} octets, "
                f"{len(data) - offset} remain"
            )
        fields.append(data[offset:offset + length])
        offset += length
    params = None
    if signed:
        if len(fields) < 6:
            raise RRsetFormatError(f"signature params need 6 fields, found {len(fields)}")
        head, fields = [_field_text(f, "signature params") for f in fields[:6]], fields[6:]
        try:
            params = SignatureParams(
                algorithm=_field_number(head[0], "signature algorithm"),
                label_count=_field_number(head[1], "signature label count"),
                original_ttl=_field_number(head[2], "signature original ttl"),
                expiration=head[3],
                inception=head[4],
                signer=head[5],
            )
        except ParamsMismatchError as exc:
            raise RRsetFormatError(f"signature params: {exc}") from None
    if not fields:
        raise RRsetFormatError("no record count")
    count = _field_number(_field_text(fields[0], "record count"), "record count")
    if len(fields) - 1 != 4 * count:
        raise RRsetFormatError(
            f"record count {count} needs {4 * count} record fields, found {len(fields) - 1}"
        )
    records = []
    for i in range(count):
        what = f"record {i}"
        owner, ttl, rtype, rdata = (_field_text(f, what) for f in fields[1 + 4 * i:5 + 4 * i])
        records.append((owner, _field_number(ttl, f"{what} ttl"), rtype, rdata))
    return params, records


def _field_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RRsetFormatError(f"{what}: not UTF-8: {exc}") from None


def _field_number(text: str, what: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise RRsetFormatError(f"{what} {text[:40]!r} is not a decimal number")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise RRsetFormatError(f"{what}: {exc}") from None


def sign_rrset(
    records: Sequence[RecordLike], secret: SecretKey, params: SignatureParams
) -> RecordSignature:
    if params.algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithmError(f"algorithm code {params.algorithm} not registered")
    if params.algorithm != secret.algorithm:
        raise ParamsMismatchError(
            f"params algorithm {params.algorithm} != key algorithm {secret.algorithm}"
        )
    if not records:
        raise ParamsMismatchError("empty record set")
    if len({(r.owner.rstrip(".").lower(), r.rtype) for r in records}) != 1:
        raise ParamsMismatchError("records span more than one owner or type")
    expected = name_labels(records[0].owner)
    if params.label_count != expected:
        raise ParamsMismatchError(
            f"label count {params.label_count} != owner label count {expected}"
        )
    message = canonical_rrset_bytes(records, params)
    return RecordSignature(params=params, signature_bytes=secret.sign(message))


ACCEPT = "accept"
REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_EXPIRED = "expired"
REJECT_NOT_YET_VALID = "not-yet-valid"
REJECT_PARAMS_MISMATCH = "params-mismatch"


# (key, signature bytes, message) -> whether the signature holds.
SignatureCheck = Callable[[PublicKey, bytes, bytes], bool]


def rsa_check(key: PublicKey, signature: bytes, message: bytes) -> bool:
    return key.verify(signature, message)


def verify_rrset(
    rrset: SignedSetLike, key: PublicKey, now: str, check: SignatureCheck = rsa_check
) -> str:
    """Check one signed set, a records.SignedRRset, against key at time
    now; returns ACCEPT or why not.

    The window test is inception <= now < expiration; param inconsistencies
    report params-mismatch rather than a crypto failure so callers can tell
    tampering from clock problems. The set's shape (one owner and type,
    the owner's label count) is its constructor's check. Every other rule
    runs here on every call; only the last step, whether the signature
    holds over the set's canonical octets, is left to check, so a caller
    may pass one that remembers its answers.
    """
    params = rrset.signature.params
    check_stamp(now)
    if params.algorithm not in ALGORITHMS or params.algorithm != key.algorithm:
        return REJECT_PARAMS_MISMATCH
    if now < params.inception:
        return REJECT_NOT_YET_VALID
    if now >= params.expiration:
        return REJECT_EXPIRED
    if check(key, rrset.signature.signature_bytes, rrset.canonical_bytes()):
        return ACCEPT
    return REJECT_BAD_SIGNATURE
