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
import hashlib
import re
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence, Tuple

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    load_der_private_key,
)
from cryptography.exceptions import InvalidSignature

from .errors import (
    KeyFormatError,
    ParamsMismatchError,
    SuffixLengthError,
    UnsupportedAlgorithmError,
    WrongLabelKindError,
)
from .handles import MAX_SUFFIX_HEX, MIN_SUFFIX_HEX, PK, HandleLabel

KEY_FLAGS = 256
KEY_PROTOCOL = 3

RSA_SHA1 = 5
RSA_SHA256 = 8

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


def now_stamp() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d%H%M%S")


def make_stamp(dt: _dt.datetime) -> str:
    return dt.astimezone(_dt.timezone.utc).strftime("%Y%m%d%H%M%S")


def check_stamp(text: str) -> str:
    if not _STAMP_RE.fullmatch(text):
        raise ParamsMismatchError(f"timestamp {text!r} is not 14 digits")
    return text


def stamp_add(stamp: str, seconds: int) -> str:
    dt = _dt.datetime.strptime(check_stamp(stamp), "%Y%m%d%H%M%S")
    dt = dt.replace(tzinfo=_dt.timezone.utc) + _dt.timedelta(seconds=seconds)
    return make_stamp(dt)


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
    have identical key_bytes, and the label hash is taken over them.
    """

    algorithm: int
    key_bytes: bytes

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise UnsupportedAlgorithmError(f"algorithm code {self.algorithm} not registered")
        if len(self.key_bytes) < 5:
            raise KeyFormatError("key payload too short")
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
        """Uppercase 40-digit SHA-1 of the canonical key octets."""
        return hashlib.sha1(self.key_bytes).hexdigest().upper()

    def verify(self, signature: bytes, message: bytes) -> bool:
        pub = _material_to_rsa(self.material)
        try:
            pub.verify(signature, message, padding.PKCS1v15(), _digest_for(self.algorithm))
            return True
        except InvalidSignature:
            return False


@dataclass(frozen=True)
class SecretKey:
    """Private half of a keypair; private_bytes is a DER blob."""

    algorithm: int
    private_bytes: bytes

    def _load(self) -> rsa.RSAPrivateKey:
        key = load_der_private_key(self.private_bytes, password=None)
        if not isinstance(key, rsa.RSAPrivateKey):
            raise KeyFormatError("secret key is not RSA")
        return key

    def public_key(self) -> PublicKey:
        material = _rsa_material(self._load().public_key())
        head = struct.pack(">HBB", KEY_FLAGS, KEY_PROTOCOL, self.algorithm)
        return PublicKey(algorithm=self.algorithm, key_bytes=head + material)

    def sign(self, message: bytes) -> bytes:
        return self._load().sign(message, padding.PKCS1v15(), _digest_for(self.algorithm))


def generate_keypair(algorithm: int, bits: int = 2048) -> Tuple[PublicKey, SecretKey]:
    if algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithmError(f"algorithm code {algorithm} not registered")
    priv = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    der = priv.private_bytes(Encoding.DER, PrivateFormat.PKCS8, NoEncryption())
    secret = SecretKey(algorithm=algorithm, private_bytes=der)
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


def save_public_key(path, key: PublicKey) -> None:
    text = f"{key.algorithm}\n{base64.b64encode(key.key_bytes).decode()}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_secret_key(path, secret: SecretKey) -> None:
    pub = secret.public_key()
    text = (
        f"{secret.algorithm}\n"
        f"{base64.b64encode(pub.key_bytes).decode()}\n"
        f"{base64.b64encode(secret.private_bytes).decode()}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_key_lines(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) not in (2, 3):
        raise KeyFormatError(f"key file {path} has {len(lines)} lines, expected 2 or 3")
    if not lines[0].isdigit():
        raise KeyFormatError(f"key file {path} has a bad algorithm line")
    return lines


def load_public_key(path) -> PublicKey:
    lines = _read_key_lines(path)
    try:
        blob = base64.b64decode(lines[1], validate=True)
    except Exception as exc:
        raise KeyFormatError(f"bad base64 in {path}: {exc}") from exc
    return PublicKey(algorithm=int(lines[0]), key_bytes=blob)


def load_secret_key(path) -> SecretKey:
    lines = _read_key_lines(path)
    if len(lines) != 3:
        raise KeyFormatError(f"key file {path} has no secret line")
    try:
        der = base64.b64decode(lines[2], validate=True)
    except Exception as exc:
        raise KeyFormatError(f"bad base64 in {path}: {exc}") from exc
    return SecretKey(algorithm=int(lines[0]), private_bytes=der)


# ---- record-set signatures ----------------------------------------------


class RecordLike(Protocol):
    owner: str
    ttl: int
    rtype: str

    def canonical_rdata_text(self) -> str: ...


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RecordSignature:
    params: SignatureParams
    signature_bytes: bytes


def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _name_labels(name: str) -> int:
    return len(name.rstrip(".").split("."))


def canonical_rrset_bytes(records: Sequence[RecordLike], params: SignatureParams) -> bytes:
    """Deterministic octets covering params and every record field.

    Records sort by rdata text; owner and signer names fold to lowercase
    (name comparisons are case-insensitive); every field is length-prefixed
    so no two distinct sets share an encoding.
    """
    out = [b"onhs-sig-v1"]
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


def _check_set_shape(records: Sequence[RecordLike], params: SignatureParams) -> Optional[str]:
    if not records:
        return "empty record set"
    owners = {r.owner.rstrip(".").lower() for r in records}
    rtypes = {r.rtype for r in records}
    if len(owners) != 1 or len(rtypes) != 1:
        return "records span more than one owner or type"
    if params.label_count != _name_labels(records[0].owner):
        return (
            f"label count {params.label_count} != owner label count "
            f"{_name_labels(records[0].owner)}"
        )
    return None


def sign_rrset(
    records: Sequence[RecordLike], secret: SecretKey, params: SignatureParams
) -> RecordSignature:
    if params.algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithmError(f"algorithm code {params.algorithm} not registered")
    if params.algorithm != secret.algorithm:
        raise ParamsMismatchError(
            f"params algorithm {params.algorithm} != key algorithm {secret.algorithm}"
        )
    shape_problem = _check_set_shape(records, params)
    if shape_problem:
        raise ParamsMismatchError(shape_problem)
    message = canonical_rrset_bytes(records, params)
    return RecordSignature(params=params, signature_bytes=secret.sign(message))


ACCEPT = "accept"
REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_EXPIRED = "expired"
REJECT_NOT_YET_VALID = "not-yet-valid"
REJECT_PARAMS_MISMATCH = "params-mismatch"


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def verify_rrset(
    records: Sequence[RecordLike],
    signature: RecordSignature,
    key: PublicKey,
    now: str,
) -> VerifyResult:
    """Check one signed record set against key at time now.

    The window test is inception <= now < expiration; param inconsistencies
    report params-mismatch rather than a crypto failure so callers can tell
    tampering from clock problems.
    """
    params = signature.params
    check_stamp(now)
    if params.algorithm not in ALGORITHMS or params.algorithm != key.algorithm:
        return VerifyResult(False, REJECT_PARAMS_MISMATCH)
    if _check_set_shape(records, params):
        return VerifyResult(False, REJECT_PARAMS_MISMATCH)
    if now < params.inception:
        return VerifyResult(False, REJECT_NOT_YET_VALID)
    if now >= params.expiration:
        return VerifyResult(False, REJECT_EXPIRED)
    message = canonical_rrset_bytes(records, params)
    if key.verify(signature.signature_bytes, message):
        return VerifyResult(True, ACCEPT)
    return VerifyResult(False, REJECT_BAD_SIGNATURE)
