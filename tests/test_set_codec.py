"""The wire form of a record set: its canonical octets.

crypto.canonical_rrset_bytes is the one encoder and records.parse_rrset
the one parser. Round trips run over every record type and set shape,
signed and unsigned; hostile octets must raise RRsetFormatError and
nothing else; an answer's decoder names the field at fault.
"""

import base64
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from onhs import crypto
from onhs.crypto import SignatureParams
from onhs.errors import RRsetFormatError
from onhs.records import (
    RRTYPES,
    NxtData,
    ResourceRecord,
    SignedRRset,
    SoaData,
    parse_rrset,
)
from onhs.codec import Resolution, received_sets

# ---- drawing sets ----------------------------------------------------------

label = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-", min_size=1,
                max_size=12)
names = st.lists(label, min_size=1, max_size=4).map(".".join)
octet = st.integers(0, 255).flatmap(lambda n: st.sampled_from([str(n), f"{n:03d}"]))
u32 = st.integers(0, 2**32 - 1)
stamps = st.integers(10**13, 10**14 - 2).map(str)

RDATA = {
    "A": st.lists(octet, min_size=4, max_size=4).map(".".join),
    "NS": names,
    "DNAME": names,
    "TXT": st.text(max_size=40),
    "KEY": st.tuples(st.integers(0, 65535), st.integers(0, 255), st.integers(0, 255),
                     st.binary(min_size=1, max_size=40)).map(
        lambda t: struct.pack(">HBB", *t[:3]) + t[3]),
    "SOA": st.builds(SoaData, names, names, u32, u32, u32, u32, u32),
    "NXT": st.builds(NxtData, names,
                     st.lists(st.sampled_from(RRTYPES + ("SIG",)), min_size=1).map(tuple)),
}


@st.composite
def signed_sets(draw):
    """A set of one to four records of one type, owner and ttl, signed or not."""
    rtype = draw(st.sampled_from(RRTYPES))
    owner, ttl = draw(names), draw(u32)
    rdatas = draw(st.lists(RDATA[rtype], min_size=1, max_size=4))
    records = tuple(ResourceRecord(owner, ttl, rtype, rd) for rd in rdatas)
    if not draw(st.booleans()):
        return SignedRRset(records)
    inception = draw(stamps)
    params = SignatureParams(
        algorithm=draw(st.integers(1, 255)),
        label_count=len(owner.split(".")),
        original_ttl=draw(u32),
        expiration=draw(stamps.filter(lambda e: e > inception)),
        inception=inception,
        signer=draw(names).lower(),
    )
    return SignedRRset(records, crypto.RecordSignature(params, draw(st.binary(max_size=40))))


def octets_of(rrset: SignedRRset) -> bytes:
    sig = rrset.signature
    return crypto.canonical_rrset_bytes(rrset.records, None if sig is None else sig.params)


def sig_of(rrset: SignedRRset):
    return None if rrset.signature is None else rrset.signature.signature_bytes


def owners_lowered(rrset: SignedRRset) -> SignedRRset:
    return SignedRRset(
        tuple(ResourceRecord(r.owner.lower(), r.ttl, r.rtype, r.rdata) for r in rrset.records),
        rrset.signature,
    )


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(rrset=signed_sets())
    def test_parse_inverts_encode_up_to_owner_case(self, rrset):
        data = octets_of(rrset)
        parsed = parse_rrset(data, sig_of(rrset))
        assert parsed == owners_lowered(rrset)
        assert parsed.canonical is data
        assert octets_of(parsed) == data

    @settings(max_examples=150, deadline=None)
    @given(rrset=signed_sets())
    def test_a_set_travels_in_an_answer(self, rrset):
        res = Resolution("q", "NOT_FOUND", None, (rrset,), (rrset,), ("w",))
        received_sets.cache_clear()
        got = Resolution.from_dict(res.to_dict())
        assert got.evidence == (owners_lowered(rrset),) == got.transfer_notices
        assert got.to_dict() == res.to_dict()
        assert Resolution.from_dict(res.to_dict()).evidence[0] is got.evidence[0]

    def test_encoded_keeps_the_octets_and_replace_drops_them(self):
        rec = ResourceRecord("h0k1.Example", 60, "A", "10.0.0.1")
        rrset = SignedRRset((rec,))
        assert rrset.canonical is None
        assert rrset.encoded() is rrset and rrset.canonical == octets_of(rrset)
        forged = replace(rrset, records=(replace(rec, rdata="10.0.0.2"),))
        assert forged.canonical is None


# ---- hostile octets --------------------------------------------------------


def lp(text) -> bytes:
    data = text.encode() if isinstance(text, str) else text
    return struct.pack(">I", len(data)) + data


def layout(records, params=None, count=None) -> bytes:
    """Octets laid out by hand: header and params when signed, the count,
    then owner, ttl, type and rdata text of each record as given."""
    head = b""
    if params is not None:
        head = b"onhs-sig-v1" + b"".join(lp(str(v)) for v in params)
    body = b"".join(lp(str(field)) for rec in records for field in rec)
    return head + lp(str(len(records) if count is None else count)) + body


PARAMS = (5, 3, 3600, "20260916120000", "20260816120000", "handleroot.example.org")
ADDRESSES = [("h0k1.example.org", 60, "A", "10.0.0.1"), ("h0k1.example.org", 60, "A", "10.0.0.2")]


class TestHostileOctets:
    def test_the_hand_layout_is_the_encoding(self):
        for params, sig in ((None, None), (PARAMS, b"sig")):
            rrset = parse_rrset(layout(ADDRESSES, params), sig)
            assert [r.rdata for r in rrset.records] == ["10.0.0.1", "10.0.0.2"]

    @pytest.mark.parametrize("params, sig", [(None, None), (PARAMS, b"sig")])
    def test_truncation_at_every_offset(self, params, sig):
        data = layout(ADDRESSES, params)
        for cut in range(len(data)):
            with pytest.raises(RRsetFormatError):
                parse_rrset(data[:cut], sig)

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00\x00\x00\x05ab", lp("x"), lp("")])
    def test_trailing_octets(self, tail):
        with pytest.raises(RRsetFormatError):
            parse_rrset(layout(ADDRESSES) + tail, None)

    @pytest.mark.parametrize("records, params, count, sig, why", [
        (ADDRESSES[::-1], None, None, None, "canonical"),
        ([("H0K1.example.org", 60, "A", "10.0.0.1")], None, None, None, "canonical"),
        ([("h0k1.example.org", 60, "MX", "10 mail")], None, None, None, "not supported"),
        (ADDRESSES, None, 3, None, "record count 3"),
        (ADDRESSES, None, 1, None, "record count 1"),
        ([], None, None, None, "empty record set"),
        ([ADDRESSES[0], ADDRESSES[0]], None, None, None, "canonical"),
        ([("h0k1.example.org", "060", "A", "10.0.0.1")], None, None, None, "canonical"),
        ([("h0k1.example.org", "-1", "A", "10.0.0.1")], None, None, None, "decimal"),
        ([("h0k1.example.org", 60, "A", "10.0.0.256")], None, None, None, "0..255"),
        ([("h0k1.example.org", 60, "KEY", "70000 3 5 AAAA")], None, None, None, "KEY"),
        ([("h0k1.example.org", 60, "KEY", "1 3 5 !!")], None, None, None, "KEY"),
        ([("h0k1.example.org", 60, "NXT", "next")], None, None, None, "NXT"),
        ([("h0k1.example.org", 60, "NXT", "next BOGUS")], None, None, None, "BOGUS"),
        ([("h0k1.example.org", 60, "SOA", "a b 1 2 3")], None, None, None, "SOA"),
        (ADDRESSES, PARAMS, None, None, "declares"),  # signed octets, no signature
        (ADDRESSES, None, None, b"sig", "header"),  # unsigned octets, a signature
        (ADDRESSES, PARAMS[:2] + (3600, "x") + PARAMS[4:], None, b"sig", "14 digits"),
        (ADDRESSES, (5, 2) + PARAMS[2:], None, b"sig", "label count"),
        (ADDRESSES, (5, 3, 3600, "20260916120000", "20260816120000", "Root.Example"), None,
         b"sig", "canonical"),
    ])
    def test_malformed_sets(self, records, params, count, sig, why):
        with pytest.raises(RRsetFormatError, match=why):
            parse_rrset(layout(records, params, count), sig)

    def test_bad_utf8_is_named(self):
        data = layout([("h0k1.example.org", 60, "TXT", "x")])
        with pytest.raises(RRsetFormatError, match="record 0: not UTF-8"):
            parse_rrset(data[:-1] + b"\xff", None)

    @settings(max_examples=150, deadline=None)
    @given(rrset=signed_sets(), data=st.data())
    def test_altered_octets_parse_only_as_their_own_encoding(self, rrset, data):
        octets = bytearray(octets_of(rrset))
        for _ in range(data.draw(st.integers(1, 3))):
            octets[data.draw(st.integers(0, len(octets) - 1))] = data.draw(st.integers(0, 255))
        try:
            parsed = parse_rrset(bytes(octets), sig_of(rrset))
        except RRsetFormatError:
            return
        assert octets_of(parsed) == bytes(octets)

    @settings(max_examples=150, deadline=None)
    @given(octets=st.binary(max_size=200), signed=st.booleans())
    def test_random_octets_never_crash(self, octets, signed):
        try:
            parse_rrset(octets, b"sig" if signed else None)
        except RRsetFormatError:
            pass


# ---- the answer's decoder names the field ----------------------------------


class TestAnswerFields:
    def answer(self, **changes) -> dict:
        item = {"octets": base64.b64encode(layout(ADDRESSES)).decode(), "signature": None}
        item.update(changes)
        return {"queried": "q", "outcome": "NOT_FOUND", "address": None,
                "evidence": [item, item], "transfer_notices": [], "warnings": []}

    def test_a_good_answer_decodes(self):
        assert len(Resolution.from_dict(self.answer()).evidence) == 2

    @pytest.mark.parametrize("changes, error, detail", [
        ({"octets": "!!"}, ValueError,
         "resolution field 'evidence' item 0 field 'octets' is not base64"),
        ({"octets": 7}, ValueError,
         "resolution field 'evidence' item 0 field 'octets' must be a string, not an integer"),
        ({"signature": 7}, ValueError,
         "resolution field 'evidence' item 0 field 'signature' must be a string, not an integer"),
        ({"octets": base64.b64encode(layout(ADDRESSES[::-1])).decode()}, RRsetFormatError,
         "resolution field 'evidence' item 0: octets are not the canonical encoding"),
        ({"octets": base64.b64encode(layout(ADDRESSES, count=5)).decode()}, RRsetFormatError,
         "resolution field 'evidence' item 0: record count 5 needs 20 record fields, found 8"),
    ])
    def test_a_bad_set_is_named(self, changes, error, detail):
        with pytest.raises(error) as err:
            Resolution.from_dict(self.answer(**changes))
        assert str(err.value).startswith(detail)

    def test_a_dict_form_set_is_named(self):
        answer = self.answer()
        answer["evidence"][0] = {"records": [], "signature": None}
        with pytest.raises(ValueError, match="item 0 lacks field 'octets'"):
            Resolution.from_dict(answer)

    def test_missing_top_level_field_is_named(self):
        answer = self.answer()
        del answer["transfer_notices"]
        with pytest.raises(ValueError, match="resolution lacks field 'transfer_notices'"):
            Resolution.from_dict(answer)
