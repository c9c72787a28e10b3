"""Keys, label derivation, and record-set signatures.

The label derivation tests check the package against the from-scratch
SHA-1 in oracles.py, so a digest bug in either implementation shows up as
a disagreement rather than a shared blind spot.
"""

import base64
import datetime
import hashlib
import os
import random
import stat
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import sha1_hex, SHA1_VECTORS

from onhs import crypto, server
from onhs.codec import decode_log_line
from onhs.crypto import (
    PublicKey,
    RecordSignature,
    SecretKey,
    SignatureParams,
    canonical_rrset_bytes,
    derive_pk_label,
    generate_keypair,
    sign_rrset,
    verify_key_matches_label,
    verify_rrset,
)
from onhs.errors import (
    KeyFormatError,
    OnhsError,
    ParamsMismatchError,
    RecordError,
    SuffixLengthError,
    UnsupportedAlgorithmError,
    WrongLabelKindError,
)
from onhs.handles import HandleLabel, parse_label
from onhs.records import ResourceRecord, SignedRRset

NOW = "20260816120000"


def test_oracle_agrees_with_its_pinned_vectors():
    for data, want in SHA1_VECTORS:
        assert sha1_hex(data) == want


def make_record(owner="h0k1.h1g5kAABBCCDDEEFF0011.example.org",
                ttl=3600, rtype="A", rdata="10.0.0.1"):
    return ResourceRecord(owner=owner, ttl=ttl, rtype=rtype, rdata=rdata)


def make_params(secret, owner, ttl=3600,
                inception="20260816000000", expiration="20260830000000"):
    return SignatureParams(
        algorithm=secret.algorithm,
        label_count=len(owner.rstrip(".").split(".")),
        original_ttl=ttl,
        expiration=expiration,
        inception=inception,
        signer="h1g5kAABBCCDDEEFF0011.example.org",
    )


class TestLabelDerivation:
    def test_suffix_matches_independent_sha1_for_many_keys(self, keypool):
        rng = random.Random(11)
        for index in range(40):
            public, _ = keypool.key(index)
            suffix_len = rng.randint(14, 40)
            label = derive_pk_label(public, suffix_len)
            want = sha1_hex(public.key_bytes)[-suffix_len:]
            assert label.key_suffix == want
            assert label.kind == "PK"
            assert label.algorithm_code == public.algorithm
            assert verify_key_matches_label(public, label)

    def test_suffix_length_bounds(self, keypool):
        public, _ = keypool.key(0)
        with pytest.raises(SuffixLengthError):
            derive_pk_label(public, 13)
        with pytest.raises(SuffixLengthError):
            derive_pk_label(public, 41)
        assert len(derive_pk_label(public, 14).key_suffix) == 14
        assert len(derive_pk_label(public, 40).key_suffix) == 40

    def test_full_hash_suffix_is_whole_digest(self, keypool):
        public, _ = keypool.key(1)
        label = derive_pk_label(public, 40)
        assert label.key_suffix == hashlib.sha1(public.key_bytes).hexdigest().upper()

    def test_leading_zero_digest_chars_kept(self):
        # the label must keep a suffix's leading 0 (labels are text, not
        # numbers); derive_pk_label hashes only the KEY payload, so these
        # fixed octets, found once by a search, give a 0 at position -16
        header = struct.pack(">HBB", crypto.KEY_FLAGS, crypto.KEY_PROTOCOL, crypto.RSA_SHA1)
        public = PublicKey(crypto.RSA_SHA1, header + b"leading zero 11")
        assert sha1_hex(public.key_bytes)[-16:] == "002EF1D17EC38E84"
        label = derive_pk_label(public, 16)
        assert label.key_suffix == "002EF1D17EC38E84"
        assert label.encode().endswith(label.key_suffix)

    def test_wrong_key_does_not_match_label(self, keypool):
        pub_a, _ = keypool.key(0)
        pub_b, _ = keypool.key(1)
        label = derive_pk_label(pub_a, 16)
        assert not verify_key_matches_label(pub_b, label)

    def test_wrong_algorithm_code_does_not_match(self, keypool):
        public, _ = keypool.key(0)
        label = derive_pk_label(public, 16)
        other = HandleLabel.pk(8, label.key_suffix)
        assert not verify_key_matches_label(public, other)

    def test_non_pk_label_is_a_usage_error(self, keypool):
        public, _ = keypool.key(0)
        with pytest.raises(WrongLabelKindError):
            verify_key_matches_label(public, parse_label("h0k2"))

    def test_key_hash_is_hashlib_sha1_of_the_key_octets(self, keypool):
        fixture = Path(__file__).parent / "data" / "parent-updates.log"
        claims = [
            msg.signer_key for msg, _, _ in map(decode_log_line, fixture.read_bytes().splitlines())
            if msg.action == server.CLAIM
        ]
        keys = [keypool.key(i)[0] for i in range(4)] + claims
        assert len(claims) >= 3
        for key in keys:
            want = hashlib.sha1(key.key_bytes).hexdigest().upper()
            assert key.key_hash_hex() == want
            assert derive_pk_label(key, 40).key_suffix == want
            assert derive_pk_label(key, 16).key_suffix == want[-16:]

    def test_distinct_keys_distinct_hashes(self, keypool):
        hashes = {keypool.key(i)[0].key_hash_hex() for i in range(20)}
        assert len(hashes) == 20


BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def stray_bits(text: bytes) -> bytes:
    """A key file with the lowest bit flipped in the character before its
    first "==": a 1024-bit key's 136 payload octets end their base64 so,
    and that character holds four bits past the octets, so the line still
    decodes to the same octets."""
    i = text.index(b"==\n") - 1
    flipped = BASE64_ALPHABET[BASE64_ALPHABET.index(text[i]) ^ 1]
    return text[:i] + bytes([flipped]) + text[i + 1:]


class TestKeyMaterial:
    def test_key_bytes_header(self, keypool):
        public, _ = keypool.key(0)
        assert public.key_bytes[:4] == bytes([1, 0, 3, public.algorithm])

    def test_from_key_bytes_round_trip(self, keypool):
        public, _ = keypool.key(0)
        again = PublicKey.from_key_bytes(public.key_bytes)
        assert again == public

    def test_bad_header_rejected(self, keypool):
        public, _ = keypool.key(0)
        mangled = b"\x00\x00" + public.key_bytes[2:]
        with pytest.raises(KeyFormatError):
            PublicKey.from_key_bytes(mangled)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UnsupportedAlgorithmError):
            generate_keypair(99)

    def test_payload_past_the_largest_modulus_rejected(self, keypool):
        public, _ = keypool.key(0)
        head = public.key_bytes[:4]
        largest = head + b"\x01" * (crypto.MAX_KEY_PAYLOAD - 4)
        assert PublicKey.from_key_bytes(largest).key_bytes == largest
        with pytest.raises(KeyFormatError, match=f"longer than {crypto.MAX_KEY_PAYLOAD} octets"):
            PublicKey.from_key_bytes(largest + b"\x01")
        with pytest.raises(KeyFormatError, match="longer than"):
            PublicKey(algorithm=public.algorithm, key_bytes=largest + b"\x01")

    def test_both_algorithms_sign_and_verify(self):
        for alg in (crypto.RSA_SHA1, crypto.RSA_SHA256):
            public, secret = generate_keypair(alg, bits=1024)
            sig = secret.sign(b"hello")
            assert public.verify(sig, b"hello")
            assert not public.verify(sig, b"hellp")

    def test_key_files_round_trip(self, keypool, tmp_path):
        public, secret = keypool.key(2)
        path = tmp_path / "k.key"
        crypto.save_secret_key(path, secret)
        loaded = crypto.load_secret_key(path)
        assert loaded == secret
        assert loaded.public_key() == public
        # the file carries the public half on line two
        lines = path.read_text().splitlines()
        assert lines == [str(secret.algorithm), base64.b64encode(public.key_bytes).decode(),
                         base64.b64encode(secret.private_bytes).decode()]

    def test_key_files_are_readable_by_their_owner_alone(self, keypool, tmp_path):
        """A new key file is 0600, and so is one written over a readable
        file, under a umask that would leave either readable by all."""
        secret = keypool.key(2)[1]
        fresh, old = tmp_path / "fresh.key", tmp_path / "old.key"
        old.write_text("an earlier file\n")
        old.chmod(0o644)
        umask = os.umask(0o022)
        try:
            crypto.save_secret_key(fresh, secret)
            crypto.save_secret_key(old, secret)
        finally:
            os.umask(umask)
        for path in (fresh, old):
            assert stat.S_IMODE(path.stat().st_mode) == 0o600, path
            assert crypto.load_secret_key(path) == secret

    def test_key_file_garbage_rejected(self, keypool, tmp_path):
        public, secret = keypool.key(2)
        pub64 = base64.b64encode(public.key_bytes).decode()
        der64 = base64.b64encode(secret.private_bytes).decode()
        path = tmp_path / "bad.key"
        for text in (
            f"5\n{pub64}\nnot base64!!\n",
            "hello\n",
            f"5\n{pub64}\n",  # a public half alone is no key file
            f"x\n{pub64}\n{der64}\n",
            f"5\n{pub64}\n{der64}\n{der64}\n",
        ):
            path.write_text(text)
            with pytest.raises(KeyFormatError):
                crypto.load_secret_key(path)

    def test_key_file_whose_public_line_is_another_key_rejected(self, keypool, tmp_path):
        _, secret_a = keypool.key(2)
        public_b, _ = keypool.key(3)
        path = tmp_path / "mixed.key"
        crypto.save_secret_key(path, secret_a)
        lines = path.read_text().splitlines()
        lines[1] = base64.b64encode(public_b.key_bytes).decode()
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KeyFormatError, match="public key line"):
            crypto.load_secret_key(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda text: b"0" + text,  # a leading zero on the algorithm
            lambda text: text.replace(b"\n", b"\n\n", 1),  # a blank line
            lambda text: text.replace(b"\n", b" \n", 1),
            lambda text: text.replace(b"\n", b"\r\n"),
            lambda text: text[:-1],  # no last newline
            lambda text: b"\x80" + text,  # not text at all
            lambda text: b"300" + text[1:],  # an algorithm past one octet
            stray_bits,
        ],
    )
    def test_key_file_the_writer_never_writes_is_refused(self, keypool, tmp_path, change):
        path = tmp_path / "k.key"
        crypto.save_secret_key(path, keypool.key(2)[1])
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(KeyFormatError):
            crypto.load_secret_key(path)

    def test_secret_key_file_with_garbage_der_rejected_at_load(self, tmp_path):
        # valid base64 over bytes that are no DER key
        junk = base64.b64encode(b"not a DER private key").decode()
        path = tmp_path / "bad.key"
        path.write_text(f"5\n{junk}\n{junk}\n")
        with pytest.raises(KeyFormatError):
            crypto.load_secret_key(path)


# ---- the key file form's properties -------------------------------------------

ALGORITHM_LINES = ["05", "+5", "\u0665", " 5", "5 ", "8", "0", "300", "9" * 30, "-5", "5.0", ""]


@st.composite
def altered_key_files(draw, written: bytes) -> bytes:
    """written, a key file, with one change: a byte changed, put in or
    taken out, a line added or dropped, or the algorithm line rewritten."""
    how = draw(st.sampled_from(["change", "insert", "delete", "add", "drop", "algorithm"]))
    if how in ("change", "insert", "delete"):
        i = draw(st.integers(0, len(written) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        if how == "change":
            return written[:i] + byte + written[i + 1:]
        return written[:i] + byte + written[i:] if how == "insert" else written[:i] + written[i + 1:]
    lines = written.split(b"\n")
    if how == "add":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=4)).encode())
    elif how == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    else:
        lines[0] = draw(st.sampled_from(ALGORITHM_LINES) | st.text(max_size=4)).encode()
    return b"\n".join(lines)


class TestKeyFileForm:
    """save_secret_key writes one form, and load_secret_key reads only it."""

    @pytest.mark.parametrize("algorithm", [crypto.RSA_SHA1, crypto.RSA_SHA256])
    def test_a_written_key_file_reads_back_and_writes_the_same_bytes(
        self, keypool, tmp_path, algorithm
    ):
        path = tmp_path / "k.key"
        for index in range(3):
            secret = SecretKey(algorithm, keypool.key(index)[1].private_bytes)
            crypto.save_secret_key(path, secret)
            written = path.read_bytes()
            loaded = crypto.load_secret_key(path)
            assert loaded == secret and loaded.public_key() == secret.public_key()
            crypto.save_secret_key(path, loaded)
            assert path.read_bytes() == written

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_refused_or_read_as_written(self, keypool, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("keys") / "k.key"
        crypto.save_secret_key(path, keypool.key(data.draw(st.integers(0, 2)))[1])
        altered = data.draw(altered_key_files(path.read_bytes()))
        path.write_bytes(altered)
        try:
            loaded = crypto.load_secret_key(path)
        except OnhsError:
            return
        crypto.save_secret_key(path, loaded)
        assert path.read_bytes() == altered


class TestSecretKeyCache:
    """A SecretKey parses its DER once; the parsed key stays out of sight."""

    @pytest.fixture()
    def der_loads(self, monkeypatch):
        calls = []
        real = crypto.load_der_private_key

        def counting(data, password=None, **kwargs):
            calls.append(data)
            return real(data, password=password, **kwargs)

        monkeypatch.setattr(crypto, "load_der_private_key", counting)
        return calls

    def test_one_parse_per_key_however_often_it_signs(self, keypool, der_loads):
        public, pooled = keypool.key(0)
        secret = SecretKey(pooled.algorithm, pooled.private_bytes)
        assert len(der_loads) == 1
        for i in range(5):
            assert public.verify(secret.sign(b"m%d" % i), b"m%d" % i)
            assert secret.public_key() == public
        assert len(der_loads) == 1

    def test_generated_key_signs_without_loading_der(self, der_loads):
        public, secret = generate_keypair(crypto.RSA_SHA1, bits=1024)
        assert public.verify(secret.sign(b"hello"), b"hello")
        assert secret.public_key() == public
        assert der_loads == []

    def test_equality_and_hash_follow_algorithm_and_der(self, keypool):
        _, secret = keypool.key(0)
        again = SecretKey(secret.algorithm, secret.private_bytes)
        assert again == secret and hash(again) == hash(secret)
        assert SecretKey(crypto.RSA_SHA256, secret.private_bytes) != secret
        assert SecretKey(secret.algorithm, keypool.key(1)[1].private_bytes) != secret

    def test_repr_shows_neither_der_nor_parsed_key(self, keypool):
        _, secret = keypool.key(0)
        text = repr(secret)
        assert text == f"SecretKey(algorithm={secret.algorithm})"
        assert repr(secret.private_bytes) not in text


class TestPublicKeyCache:
    """A PublicKey builds its RSA key on the first verify and keeps it."""

    def test_one_rsa_key_however_often_it_verifies(self, keypool, monkeypatch):
        calls = []
        real = crypto._material_to_rsa
        monkeypatch.setattr(crypto, "_material_to_rsa", lambda m: calls.append(m) or real(m))
        public, secret = keypool.key(0)
        key = PublicKey.from_key_bytes(public.key_bytes)
        assert calls == []
        for i in range(5):
            assert key.verify(secret.sign(b"m%d" % i), b"m%d" % i)
            assert not key.verify(secret.sign(b"m%d" % i), b"other")
        assert calls == [public.material]

    def test_equality_hash_and_repr_do_not_see_the_rsa_key(self, keypool):
        public, secret = keypool.key(0)
        used = PublicKey.from_key_bytes(public.key_bytes)
        fresh = PublicKey.from_key_bytes(public.key_bytes)
        assert used.verify(secret.sign(b"m"), b"m")
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestTimestamps:
    def test_stamp_shape_enforced(self):
        crypto.check_stamp("20050415223412")
        for bad in ("2005041522341", "200504152234120", "2005-04-15T22:34",
                    "abcdefghijklmn", ""):
            with pytest.raises(ParamsMismatchError):
                crypto.check_stamp(bad)

    def test_stamp_add_rolls_calendar(self):
        assert crypto.stamp_add("20050401223412", 14 * 86400) == "20050415223412"
        assert crypto.stamp_add("20231231235959", 1) == "20240101000000"

    def test_stamps_compare_as_strings(self):
        assert "20050401223412" < "20050415223412" < "20260816000000"

    @staticmethod
    def strptime_stamp_add(stamp: str, seconds: int) -> str:
        """stamp_add as it was written with strptime."""
        dt = datetime.datetime.strptime(crypto.check_stamp(stamp), "%Y%m%d%H%M%S")
        dt = dt.replace(tzinfo=datetime.timezone.utc) + datetime.timedelta(seconds=seconds)
        return dt.strftime("%Y%m%d%H%M%S")

    @pytest.mark.parametrize(
        "stamp,seconds,expected",
        [
            ("20261231235959", 1, "20270101000000"),  # year end
            ("20280228120000", 86400, "20280229120000"),  # Feb 29 of a leap year
            ("20280229120000", 86400, "20280301120000"),
            ("20270228120000", 86400, "20270301120000"),  # no Feb 29 in 2027
            ("20000228000000", 86400, "20000229000000"),  # 2000 is a leap year
            ("21000228000000", 86400, "21000301000000"),  # 2100 is not
            ("20260816120000", server.SERVER_SIG_VALIDITY, "20260817120000"),
            ("20260816120000", server.SERVER_SIG_VALIDITY // 2, "20260817000000"),
            ("20260816120000", server.DEFAULT_VALIDITY, "20260823120000"),
            ("20260101000000", server.IRREVOCABLE_VALIDITY, "20360109000000"),
            ("20260301000000", -1, "20260228235959"),
        ],
    )
    def test_stamp_add_matches_the_strptime_form(self, stamp, seconds, expected):
        assert crypto.stamp_add(stamp, seconds) == expected
        assert self.strptime_stamp_add(stamp, seconds) == expected

    def test_stamp_add_matches_the_strptime_form_on_random_stamps(self):
        rng = random.Random(1415)
        for _ in range(500):
            stamp = datetime.datetime(
                rng.randint(1970, 2200), rng.randint(1, 12), rng.randint(1, 28),
                rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
            ).strftime("%Y%m%d%H%M%S")
            seconds = rng.randint(-10 ** 9, 10 ** 9)
            assert crypto.stamp_add(stamp, seconds) == self.strptime_stamp_add(stamp, seconds)

    @pytest.mark.parametrize(
        "stamp,error",
        [
            ("2026123123595", ParamsMismatchError),  # 13 digits
            ("202612312359590", ParamsMismatchError),  # 15 digits
            ("2026-12-31T23:5", ParamsMismatchError),
            ("20261301000000", ValueError),  # month 13
            ("20260001000000", ValueError),  # month 0
            ("20270229000000", ValueError),  # Feb 29 of a year without one
            ("20260101240000", ValueError),  # hour 24
            ("20260101000060", ValueError),  # second 60
        ],
    )
    def test_bad_stamps_raise_as_before(self, stamp, error):
        for add in (crypto.stamp_add, self.strptime_stamp_add):
            with pytest.raises(error):
                add(stamp, 1)


    @staticmethod
    def datetime_now_stamp(moment: float) -> str:
        """now_stamp as it was written, formatting every call, at moment."""
        utc = datetime.datetime.fromtimestamp(moment, datetime.timezone.utc)
        return utc.strftime("%Y%m%d%H%M%S")

    def test_now_stamp_matches_datetime_across_second_boundaries(self, monkeypatch):
        monkeypatch.setattr(crypto, "_last_stamp", (-1, ""))
        # 2026-12-31 23:59:59 UTC, the last second of a year
        year_end = datetime.datetime(2026, 12, 31, 23, 59, 59, tzinfo=datetime.timezone.utc)
        edge = int(year_end.timestamp()) + 1
        moments = [edge - 1.5, edge - 0.75, edge - 0.001, edge, edge + 0.999, edge + 1,
                   edge - 0.25, edge + 86400.5]
        for moment in moments:
            monkeypatch.setattr(crypto.time, "time", lambda moment=moment: moment)
            assert crypto.now_stamp() == self.datetime_now_stamp(moment), moment
        assert self.datetime_now_stamp(edge - 0.001) == "20261231235959"
        assert self.datetime_now_stamp(edge) == "20270101000000"

    def test_now_stamp_is_the_current_second(self):
        before = self.datetime_now_stamp(datetime.datetime.now(datetime.timezone.utc).timestamp())
        stamp = crypto.now_stamp()
        after = self.datetime_now_stamp(datetime.datetime.now(datetime.timezone.utc).timestamp())
        assert before <= stamp <= after


def verify(records, sig, key, now):
    """verify_rrset over the set of records that sig signs."""
    return verify_rrset(SignedRRset(tuple(records), sig), key, now)


class TestSignatures:
    def test_sign_verify_closure(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        sig = sign_rrset([record], secret, params)
        assert verify([record], sig, public, NOW) == crypto.ACCEPT

    def test_verify_fails_with_other_key(self, keypool):
        public_b, _ = keypool.key(1)
        _, secret = keypool.key(0)
        record = make_record()
        sig = sign_rrset([record], secret, make_params(secret, record.owner))
        result = verify([record], sig, public_b, NOW)
        assert result == crypto.REJECT_BAD_SIGNATURE

    def test_expiration_boundary_is_exclusive(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(
            secret, record.owner,
            inception="20050401223412", expiration="20050415223412",
        )
        sig = sign_rrset([record], secret, params)
        assert verify([record], sig, public, "20050415223411") == crypto.ACCEPT
        at_edge = verify([record], sig, public, "20050415223412")
        assert at_edge == crypto.REJECT_EXPIRED

    def test_inception_boundary_is_inclusive(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(
            secret, record.owner,
            inception="20050401223412", expiration="20050415223412",
        )
        sig = sign_rrset([record], secret, params)
        assert verify([record], sig, public, "20050401223412") == crypto.ACCEPT
        early = verify([record], sig, public, "20050401223411")
        assert early == crypto.REJECT_NOT_YET_VALID

    def test_inception_after_expiration_rejected(self, keypool):
        _, secret = keypool.key(0)
        with pytest.raises(ParamsMismatchError):
            SignatureParams(
                algorithm=secret.algorithm, label_count=4, original_ttl=60,
                expiration="20050401223412", inception="20050415223412",
                signer="x.example",
            )

    def test_signature_covers_ttl(self, keypool):
        public, secret = keypool.key(0)
        record = make_record(ttl=3600)
        sig = sign_rrset([record], secret, make_params(secret, record.owner))
        slower = make_record(ttl=60)
        result = verify([slower], sig, public, NOW)
        assert result != crypto.ACCEPT

    def test_record_order_does_not_matter(self, keypool):
        public, secret = keypool.key(0)
        rec_a = make_record(rdata="10.0.0.1")
        rec_b = make_record(rdata="10.0.0.2")
        params = make_params(secret, rec_a.owner)
        assert canonical_rrset_bytes([rec_a, rec_b], params) == canonical_rrset_bytes(
            [rec_b, rec_a], params
        )
        sig = sign_rrset([rec_a, rec_b], secret, params)
        assert verify([rec_b, rec_a], sig, public, NOW) == crypto.ACCEPT

    def test_label_count_must_match_owner(self, keypool):
        _, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        wrong = SignatureParams(
            algorithm=params.algorithm, label_count=params.label_count + 1,
            original_ttl=params.original_ttl, expiration=params.expiration,
            inception=params.inception, signer=params.signer,
        )
        with pytest.raises(ParamsMismatchError):
            sign_rrset([record], secret, wrong)

    def test_the_set_constructor_makes_the_shape_check(self, keypool):
        """verify_rrset takes a SignedRRset alone, whose constructor refuses
        what the shape check did: records of more than one owner, and a
        signature whose label count is not the owner's."""
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        sig = sign_rrset([record], secret, params)
        elsewhere = make_record(owner="h0k2.h1g5kAABBCCDDEEFF0011.example.org")
        with pytest.raises(RecordError):
            SignedRRset((record, elsewhere), sig)
        wrong = SignatureParams(
            algorithm=params.algorithm, label_count=params.label_count + 1,
            original_ttl=params.original_ttl, expiration=params.expiration,
            inception=params.inception, signer=params.signer,
        )
        miscounted = RecordSignature(params=wrong, signature_bytes=sig.signature_bytes)
        with pytest.raises(ParamsMismatchError):
            SignedRRset((record,), miscounted)
        assert verify_rrset(SignedRRset((record,), sig), public, NOW) == crypto.ACCEPT

    def test_params_mutation_detected(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        sig = sign_rrset([record], secret, params)
        bumped = SignatureParams(
            algorithm=params.algorithm, label_count=params.label_count,
            original_ttl=params.original_ttl + 1, expiration=params.expiration,
            inception=params.inception, signer=params.signer,
        )
        forged = RecordSignature(params=bumped, signature_bytes=sig.signature_bytes)
        result = verify([record], forged, public, NOW)
        assert result != crypto.ACCEPT

    def test_signer_mutation_detected(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        sig = sign_rrset([record], secret, params)
        moved = SignatureParams(
            algorithm=params.algorithm, label_count=params.label_count,
            original_ttl=params.original_ttl, expiration=params.expiration,
            inception=params.inception, signer="h1g5kAABBCCDDEEFF0012.example.org",
        )
        forged = RecordSignature(params=moved, signature_bytes=sig.signature_bytes)
        assert verify([record], forged, public, NOW) != crypto.ACCEPT

    def test_every_single_octet_flip_in_signature_fails(self, keypool):
        public, secret = keypool.key(0)
        record = make_record()
        sig = sign_rrset([record], secret, make_params(secret, record.owner))
        rng = random.Random(3)
        raw = bytearray(sig.signature_bytes)
        for _ in range(40):
            pos = rng.randrange(len(raw))
            flipped = bytearray(raw)
            flipped[pos] ^= 1 + rng.randrange(255)
            forged = RecordSignature(params=sig.params, signature_bytes=bytes(flipped))
            assert verify([record], forged, public, NOW) != crypto.ACCEPT

    def test_rdata_mutation_fails(self, keypool):
        public, secret = keypool.key(0)
        record = make_record(rdata="10.0.0.1")
        sig = sign_rrset([record], secret, make_params(secret, record.owner))
        swapped = make_record(rdata="10.0.0.2")
        assert verify([swapped], sig, public, NOW) != crypto.ACCEPT

    def test_signing_is_deterministic(self, keypool):
        _, secret = keypool.key(0)
        record = make_record()
        params = make_params(secret, record.owner)
        sig1 = sign_rrset([record], secret, params)
        sig2 = sign_rrset([record], secret, params)
        assert sig1.signature_bytes == sig2.signature_bytes
