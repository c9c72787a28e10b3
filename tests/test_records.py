"""Record sets, canonical ordering, zone text, and denial chains."""

import operator
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from oracles import chain_pairs, zone_sort

from onhs import crypto
from onhs.crypto import SignatureParams, sign_rrset
from onhs.errors import (
    RdataFormatError,
    RecordError,
    UnknownRecordTypeError,
    ZoneSyntaxError,
)
from onhs.records import (
    RRTYPES,
    NxtData,
    ResourceRecord,
    SignedRRset,
    SoaData,
    ZoneSnapshot,
    build_nxt_chain,
    canonical_order,
    covering_nxt,
    parse_duration,
    parse_zone,
    render_duration,
    serialize_zone,
)

APEX = "handleroot.example.org"


def signed(records, secret, signer=APEX, inception="20260801000000",
           expiration="20270801000000"):
    recs = records if isinstance(records, list) else [records]
    params = SignatureParams(
        algorithm=secret.algorithm,
        label_count=len(recs[0].owner.rstrip(".").split(".")),
        original_ttl=recs[0].ttl,
        expiration=expiration,
        inception=inception,
        signer=signer,
    )
    return SignedRRset(tuple(recs), sign_rrset(recs, secret, params))


class TestRecordValidation:
    def test_address_text_preserved_verbatim(self):
        rec = ResourceRecord(owner=f"hs1.{APEX}", ttl=60, rtype="A",
                             rdata="183.021.254.010")
        assert rec.rdata == "183.021.254.010"
        assert rec.canonical_rdata_text() == "183.021.254.010"

    def test_address_octet_range_checked(self):
        for bad in ("999.1.1.1", "256.0.0.1", "1.2.3", "1.2.3.4.5",
                    "a.b.c.d", "1..2.3", "1.2.3.0004"):
            with pytest.raises(RdataFormatError):
                ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="A", rdata=bad)

    def test_impossible_address_is_storable(self):
        rec = ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="A", rdata="0.0.0.0")
        assert rec.rdata == "0.0.0.0"

    def test_key_payload_past_the_largest_modulus_rejected(self):
        head = bytes([1, 0, 3, crypto.RSA_SHA1])
        largest = head + b"\x01" * (crypto.MAX_KEY_PAYLOAD - 4)
        assert ResourceRecord(owner=APEX, ttl=60, rtype="KEY", rdata=largest).rdata == largest
        with pytest.raises(RdataFormatError, match="longer than"):
            ResourceRecord(owner=APEX, ttl=60, rtype="KEY", rdata=largest + b"\x01")

    def test_unknown_type_rejected(self):
        with pytest.raises(UnknownRecordTypeError):
            ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="MX", rdata="10 mail")

    def test_rrset_must_be_single_owner_and_type(self):
        a1 = ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="A", rdata="10.0.0.1")
        a2 = ResourceRecord(owner=f"y.{APEX}", ttl=60, rtype="A", rdata="10.0.0.2")
        with pytest.raises(RecordError):
            SignedRRset((a1, a2), None)

    def test_rrset_orders_and_dedupes_records(self):
        a1 = ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="A", rdata="10.0.0.2")
        a2 = ResourceRecord(owner=f"x.{APEX}", ttl=60, rtype="A", rdata="10.0.0.1")
        rrset = SignedRRset((a1, a2, a1), None)
        assert [r.rdata for r in rrset.records] == ["10.0.0.1", "10.0.0.2"]


class TestCanonicalOrder:
    def test_matches_independent_oracle_on_random_names(self):
        rng = random.Random(41)
        pool = []
        for _ in range(120):
            depth = rng.randint(0, 3)
            labels = [f"h0k{rng.randint(0, 99)}" for _ in range(depth)]
            labels.append(f"h1g5k{''.join(rng.choice('0123456789ABCDEF') for _ in range(14))}")
            pool.append(".".join(labels) + f".{APEX}")
        ours = canonical_order(pool)
        assert ours == zone_sort(pool)

    def test_ordinal_ten_sorts_before_two(self):
        names = [f"h0k2.{APEX}", f"h0k10.{APEX}"]
        assert canonical_order(names)[0] == f"h0k10.{APEX}"

    def test_parent_sorts_before_children(self):
        names = [f"h0k2.h0k3.{APEX}", f"h0k3.{APEX}", APEX]
        assert canonical_order(names) == [APEX, f"h0k3.{APEX}", f"h0k2.h0k3.{APEX}"]


class TestDurations:
    def test_parse_units(self):
        assert parse_duration("90") == 90
        assert parse_duration("2h") == 7200
        assert parse_duration("1d") == 86400
        assert parse_duration("1w") == 604800
        assert parse_duration("3m") == 180

    def test_render_exact_units(self):
        assert render_duration(86400) == "1d"
        assert render_duration(3600) == "1h"
        assert render_duration(604800) == "1w"
        assert render_duration(60) == "1m"
        assert render_duration(90) == "90"
        assert render_duration(7200) == "2h"

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(200):
            seconds = rng.randint(0, 10 ** 7)
            assert parse_duration(render_duration(seconds)) == seconds

    @pytest.mark.parametrize("text", ["5ſ", "5K", "٥", "5Sſ"])
    def test_a_letter_that_only_folds_to_a_unit_is_refused(self, text):
        # the long s folds to s and the Kelvin sign to k; an Arabic-Indic
        # five is a digit, but not an ASCII one
        with pytest.raises(RdataFormatError, match="bad duration"):
            parse_duration(text)

    def test_a_zone_ttl_in_a_long_s_is_refused(self):
        with pytest.raises(RdataFormatError, match="bad duration"):
            parse_zone("$TTL 1ſ\n")
        assert parse_duration("1S") == 1


class TestZoneText:
    def test_golden_glue_line_renders_exactly(self, keypool):
        _, secret = keypool.key(0)
        rec = ResourceRecord(owner=f"handleserver1.{APEX}", ttl=3600,
                             rtype="A", rdata="183.021.254.010")
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(rec, secret))
        text = serialize_zone(zone)
        assert "\nhandleserver1 IN A 183.021.254.010\n" in text

    def test_golden_glue_line_parses_back_identically(self, keypool):
        _, secret = keypool.key(0)
        rec = ResourceRecord(owner=f"handleserver1.{APEX}", ttl=3600,
                             rtype="A", rdata="183.021.254.010")
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(rec, secret))
        text = serialize_zone(zone)
        again = parse_zone(text)
        got = again.get(f"handleserver1.{APEX}", "A")
        assert got is not None
        assert got.records[0].rdata == "183.021.254.010"
        assert serialize_zone(again) == text

    def test_representative_zone_round_trips_idempotently(self, keypool):
        public, secret = keypool.key(0)
        apex_handle = f"h1g5k{'A' * 16}.{APEX}"
        soa = ResourceRecord(
            owner=apex_handle, ttl=3600, rtype="SOA",
            rdata=SoaData(f"handleserver1.{APEX}", f"handlemaster.{APEX}", 1,
                          86400, 3600, 604800, 3600),
        )
        key_rec = ResourceRecord(owner=apex_handle, ttl=3600, rtype="KEY",
                                 rdata=public.key_bytes)
        addr = ResourceRecord(owner=f"h0k2.h0k3.{apex_handle}", ttl=3600,
                              rtype="A", rdata="192.253.254.63")
        dname = ResourceRecord(owner=f"h0k1.{apex_handle}", ttl=3600,
                               rtype="DNAME",
                               rdata=f"h0k427.h1g5k{'B' * 16}.{APEX}")
        txt = ResourceRecord(owner=f"h0k9.{apex_handle}", ttl=3600,
                             rtype="TXT", rdata="Compromised 2003-04-01")
        ns = ResourceRecord(owner=apex_handle, ttl=3600, rtype="NS",
                            rdata=f"handleserver1.{APEX}")
        zone = ZoneSnapshot(apex=apex_handle, serial=1)
        for rec in (soa, key_rec, addr, dname, txt, ns):
            zone = zone.with_rrset(signed(rec, secret, signer=apex_handle))
        for nxt in build_nxt_chain(zone):
            zone = zone.with_rrset(signed(nxt, secret, signer=apex_handle))
        text = serialize_zone(zone)
        parsed = parse_zone(text)
        assert serialize_zone(parsed) == text
        assert parsed.serial == 1
        assert parse_zone(serialize_zone(parsed)).rrsets.keys() == zone.rrsets.keys()

    def test_soa_renders_with_duration_units(self, keypool):
        _, secret = keypool.key(0)
        soa = ResourceRecord(
            owner=APEX, ttl=3600, rtype="SOA",
            rdata=SoaData(f"handleserver1.{APEX}", f"handlemaster.{APEX}", 1,
                          86400, 3600, 604800, 3600),
        )
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(soa, secret))
        text = serialize_zone(zone)
        assert "SOA handleserver1 handlemaster ( 1 1d 1h 1w 1h )" in text

    def test_dname_and_sig_render_without_class_column(self, keypool):
        _, secret = keypool.key(0)
        dname = ResourceRecord(owner=f"h0k1.{APEX}", ttl=3600, rtype="DNAME",
                               rdata=f"h0k427.{APEX}")
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(dname, secret))
        text = serialize_zone(zone)
        lines = [ln for ln in text.splitlines() if "DNAME" in ln]
        assert any(ln.startswith("h0k1 DNAME ") for ln in lines)
        assert any(ln.startswith("h0k1 SIG DNAME ") for ln in lines)

    def test_txt_with_spaces_and_quotes_round_trips(self, keypool):
        _, secret = keypool.key(0)
        body = 'Compromised 01/04/2003 "quoted" back\\slash'
        txt = ResourceRecord(owner=f"h0k9.{APEX}", ttl=3600, rtype="TXT", rdata=body)
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(txt, secret))
        parsed = parse_zone(serialize_zone(zone))
        got = parsed.get(f"h0k9.{APEX}", "TXT")
        assert got.records[0].rdata == body

    def test_unsigned_zone_parses(self):
        text = f"$ORIGIN {APEX}.\nhandleserver1 IN A 183.021.254.010\n"
        zone = parse_zone(text)
        rrset = zone.get(f"handleserver1.{APEX}", "A")
        assert rrset.signature is None

    def test_unknown_rtype_raises(self):
        with pytest.raises(UnknownRecordTypeError):
            parse_zone(f"$ORIGIN {APEX}.\nx IN MX 10 mail\n")

    def test_orphan_sig_rejected(self, keypool):
        _, secret = keypool.key(0)
        rec = ResourceRecord(owner=f"x.{APEX}", ttl=3600, rtype="A", rdata="10.0.0.1")
        zone = ZoneSnapshot(apex=APEX).with_rrset(signed(rec, secret))
        text = serialize_zone(zone)
        # drop the A line, keep its SIG
        mangled = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("x IN A")
        )
        with pytest.raises(ZoneSyntaxError):
            parse_zone(mangled)

    def test_syntax_errors_carry_line_numbers(self):
        text = f"$ORIGIN {APEX}.\nx IN\n"
        with pytest.raises(ZoneSyntaxError) as info:
            parse_zone(text)
        assert info.value.line_no == 2

    def test_unbalanced_parens_rejected(self):
        text = f"$ORIGIN {APEX}.\nx IN SOA a b ( 1 2 3 4\n"
        with pytest.raises(ZoneSyntaxError):
            parse_zone(text)

    def test_zone_without_apex_rejected(self):
        with pytest.raises(ZoneSyntaxError):
            parse_zone("handleserver1.x.example. IN A 10.0.0.1\n")


# ---- drawn zones -------------------------------------------------------------

ORIGIN = f"h1g5k{'C' * 16}.{APEX}"
ELSEWHERE = "elsewhere.example.net"
zone_label = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
                     min_size=1, max_size=8)
prefixes = st.lists(zone_label, min_size=1, max_size=3).map(".".join)
# the origin itself, a name under it (written with the origin's own case,
# which the parser gives a relative name back in), or a name outside it
zone_names = st.one_of(
    st.just(ORIGIN),
    prefixes.map(lambda p: f"{p}.{ORIGIN}"),
    prefixes.map(lambda p: f"{p}.{ELSEWHERE}"),
)
u32 = st.integers(0, 2**32 - 1)
# seconds on a whole week, day, hour or minute, which render with a unit,
# and any count, which mostly does not
durations = st.one_of(
    st.builds(operator.mul, st.integers(1, 500), st.sampled_from([60, 3600, 86400, 604800])),
    u32,
)
stamps = st.integers(10**13, 10**14 - 2).map(str)
# zone text holds one record per line, so a TXT string cannot hold what
# str.splitlines breaks a line at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

ZONE_RDATA = {
    "A": st.lists(st.integers(0, 255).flatmap(lambda n: st.sampled_from([str(n), f"{n:03d}"])),
                  min_size=4, max_size=4).map(".".join),
    "NS": zone_names,
    "DNAME": zone_names,
    "TXT": st.text(st.characters(exclude_categories=("Cs",), exclude_characters=LINE_BREAKS),
                   max_size=30),
    "KEY": st.tuples(st.integers(0, 65535), st.integers(0, 255), st.integers(0, 255),
                     st.binary(min_size=1, max_size=40)).map(
        lambda t: struct.pack(">HBB", *t[:3]) + t[3]),
    "SOA": st.builds(SoaData, zone_names, zone_names, u32, durations, durations, durations,
                     durations),
    "NXT": st.builds(NxtData, zone_names,
                     st.lists(st.sampled_from(RRTYPES + ("SIG",)), min_size=1).map(tuple)),
}


@st.composite
def zone_sets(draw):
    """One set of any type, owned in or outside the origin (an SOA set at
    the origin), with a drawn ttl, signed or not."""
    rtype = draw(st.sampled_from(RRTYPES))
    owner = ORIGIN if rtype == "SOA" else draw(zone_names)
    ttl = draw(durations)
    rdatas = draw(st.lists(ZONE_RDATA[rtype], min_size=1, max_size=1 if rtype == "SOA" else 3))
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
        signer=draw(zone_names),
    )
    return SignedRRset(records, crypto.RecordSignature(params, draw(st.binary(min_size=1,
                                                                             max_size=40))))


@st.composite
def zones(draw):
    sets = draw(st.lists(zone_sets(), max_size=8))
    rrsets = {(s.owner.lower(), s.rtype): s for s in sets}
    return ZoneSnapshot(ORIGIN, rrsets, serial=draw(u32), default_ttl=draw(durations))


class TestZoneTextRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(zone=zones())
    def test_parse_inverts_serialize_and_serialize_is_stable(self, zone):
        text = serialize_zone(zone)
        parsed = parse_zone(text)
        assert (parsed.apex, parsed.serial, parsed.default_ttl) == (
            zone.apex, zone.serial, zone.default_ttl)
        assert parsed.rrsets == zone.rrsets
        assert [s.canonical_bytes() for s in parsed.ordered_rrsets()] == [
            s.canonical_bytes() for s in zone.ordered_rrsets()]
        assert serialize_zone(parsed) == text


class TestDenialChain:
    def build_zone(self, keypool, owners_types):
        _, secret = keypool.key(0)
        zone = ZoneSnapshot(apex=APEX)
        for owner, rtype in owners_types:
            if rtype == "A":
                rec = ResourceRecord(owner=owner, ttl=60, rtype="A", rdata="10.0.0.1")
            elif rtype == "TXT":
                rec = ResourceRecord(owner=owner, ttl=60, rtype="TXT", rdata="Created")
            else:
                raise AssertionError(rtype)
            zone = zone.with_rrset(signed(rec, secret))
        return zone

    def test_chain_shape_matches_oracle(self, keypool):
        owners = [f"h0k{i}.{APEX}" for i in (1, 2, 10, 3)] + [f"h0k2.h0k3.{APEX}"]
        zone = self.build_zone(keypool, [(o, "A") for o in owners])
        chain = build_nxt_chain(zone)
        got_pairs = [(r.owner, r.rdata.next_owner) for r in chain]
        assert sorted(got_pairs) == sorted(chain_pairs(owners))

    def test_bitmap_lists_present_types_plus_nxt_and_sig(self, keypool):
        zone = self.build_zone(keypool, [(f"h0k1.{APEX}", "A")])
        chain = build_nxt_chain(zone)
        rec = next(r for r in chain if r.owner == f"h0k1.{APEX}")
        assert rec.rdata.types == ("A", "NXT", "SIG")

    def test_bitmap_skips_sig_for_unsigned_sets(self):
        rec = ResourceRecord(owner=f"h0k1.{APEX}", ttl=60, rtype="A", rdata="10.0.0.1")
        zone = ZoneSnapshot(apex=APEX).with_rrset(SignedRRset((rec,), None))
        chain = build_nxt_chain(zone)
        got = next(r for r in chain if r.owner == f"h0k1.{APEX}")
        assert got.rdata.types == ("A", "NXT")

    def test_single_owner_zone_wraps_to_itself(self, keypool):
        zone = self.build_zone(keypool, [(APEX, "A")])
        chain = build_nxt_chain(zone)
        assert len(chain) == 1
        assert chain[0].owner == APEX
        assert chain[0].rdata.next_owner == APEX

    def test_adding_an_owner_touches_exactly_two_links(self, keypool):
        owners = [f"h0k{i}.{APEX}" for i in (1, 2, 3, 5)]
        zone_before = self.build_zone(keypool, [(o, "A") for o in owners])
        zone_after = self.build_zone(keypool, [(o, "A") for o in owners + [f"h0k4.{APEX}"]])
        before = {r.owner: r.rdata.next_owner for r in build_nxt_chain(zone_before)}
        after = {r.owner: r.rdata.next_owner for r in build_nxt_chain(zone_after)}
        new_owners = set(after) - set(before)
        assert new_owners == {f"h0k4.{APEX}"}
        changed = [o for o in before if before[o] != after[o]]
        assert len(changed) == 1  # only the predecessor's next pointer moved

    def test_covering_nxt_brackets_missing_names(self, keypool):
        owners = [f"h0k1.{APEX}", f"h0k3.{APEX}", APEX]
        zone = self.build_zone(keypool, [(o, "A") for o in owners])
        chain = build_nxt_chain(zone)
        cover = covering_nxt(chain, f"h0k2.{APEX}")
        assert cover is not None
        assert cover.owner == f"h0k1.{APEX}"
        assert cover.rdata.next_owner == f"h0k3.{APEX}"

    def test_covering_nxt_wraps_past_the_end(self, keypool):
        owners = [f"h0k1.{APEX}", APEX]
        zone = self.build_zone(keypool, [(o, "A") for o in owners])
        chain = build_nxt_chain(zone)
        cover = covering_nxt(chain, f"h0k9.{APEX}")
        assert cover is not None
        assert cover.owner == f"h0k1.{APEX}"
        assert cover.rdata.next_owner == APEX

    def test_covering_nxt_wraps_before_the_first(self, keypool):
        # no record at the apex: h0k1 sorts before every owner, so the
        # wrap-around record h0k3 -> h0k2 is the one that covers it
        owners = [f"h0k2.{APEX}", f"h0k3.{APEX}"]
        zone = self.build_zone(keypool, [(o, "A") for o in owners])
        chain = build_nxt_chain(zone)
        cover = covering_nxt(chain, f"h0k1.{APEX}")
        assert cover is not None
        assert cover.owner == f"h0k3.{APEX}"
        assert cover.rdata.next_owner == f"h0k2.{APEX}"

    def test_existing_name_is_its_own_cover(self, keypool):
        owners = [f"h0k1.{APEX}", APEX]
        zone = self.build_zone(keypool, [(o, "A") for o in owners])
        chain = build_nxt_chain(zone)
        cover = covering_nxt(chain, f"h0k1.{APEX}")
        assert cover.owner == f"h0k1.{APEX}"
