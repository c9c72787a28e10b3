"""Every memo keyed on input from outside the process is capped.

Each process-wide memo in onhs is a functools.lru_cache capped at
handles.CACHE_CAP. Each is keyed on input from outside the process
(answers, updates, KEY records), so one without a cap would let any
client or server fill it. A memo added later is found here by its
cache_info().

A connection's slot tables, the sets its answers have carried, hold at
most codec.SET_SLOTS sets at either end: past that, sets travel in full
and no table grows.
"""

import importlib
import json
import pkgutil
import struct

import onhs
from onhs import client, codec, server
from onhs.codec import SET_SLOTS, Resolution, canonical_json
from onhs.handles import CACHE_CAP
from onhs.records import ResourceRecord, SignedRRset


def module_memos():
    """(qualified name, memo) for every lru_cache wrapper at module level
    of an onhs module, each memo once under the first name found."""
    found = {}
    for info in pkgutil.iter_modules(onhs.__path__):
        module = importlib.import_module(f"onhs.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found.setdefault(id(value), (f"{module.__name__}.{attr}", value))
    return list(found.values())


def test_every_module_memo_is_capped():
    memos = module_memos()
    assert memos
    for name, memo in memos:
        assert memo.cache_info().maxsize == CACHE_CAP, name


def test_the_three_memos_are_found():
    found = {id(memo) for _, memo in module_memos()}
    for memo in (codec.received_sets, server.bound_apex_keys, client.verified_signatures):
        assert id(memo) in found


def test_a_connection_table_holds_at_most_set_slots_sets():
    assert SET_SLOTS == 1024
    key_sets = [
        SignedRRset((ResourceRecord(
            f"h1g5k{i:x}.example.org", 60, "KEY", struct.pack(">HBBI", 256, 3, 5, i)
        ),))
        for i in range(SET_SLOTS + 2)
    ]
    writer, reader = {}, {}
    written = []
    for rrset in key_sets + key_sets[-3:]:  # the last three again, past the cap
        item = Resolution("q", "NOT_FOUND", None, (rrset,), (), ()).to_dict(writer)
        got = Resolution.from_dict(json.loads(canonical_json(item)), reader)
        assert got.evidence == (rrset,)
        written.append(item["evidence"][0])
    assert len(writer) == len(reader) == SET_SLOTS
    assert written[SET_SLOTS - 1]["slot"] == SET_SLOTS - 1
    assert [set(item) for item in written[SET_SLOTS:SET_SLOTS + 2]] == [{"octets", "signature"}] * 2
    assert written[-3] == SET_SLOTS - 1  # a set inside the cap goes by its slot
    assert written[-2:] == written[SET_SLOTS:SET_SLOTS + 2]  # past it, in full each time
