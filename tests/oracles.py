"""Independent reference implementations used to cross-check the package.

Nothing here imports from onhs: the value of these oracles is that they
share no code with the implementation under test. The SHA-1 below is the
textbook 80-round construction; the ordering and chain oracles are written
from the rules directly, in deliberately different shapes than the package
uses.
"""

import struct


# ---- pure-Python SHA-1 ------------------------------------------------------


def _rol(value, count):
    return ((value << count) | (value >> (32 - count))) & 0xFFFFFFFF


def sha1_hex(data: bytes) -> str:
    """SHA-1 as 40 uppercase hex digits, computed from scratch."""
    h0, h1, h2, h3, h4 = (
        0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0,
    )
    message = bytearray(data)
    bit_len = len(data) * 8
    message.append(0x80)
    while len(message) % 64 != 56:
        message.append(0)
    message += struct.pack(">Q", bit_len)

    for start in range(0, len(message), 64):
        words = list(struct.unpack(">16I", bytes(message[start:start + 64])))
        for i in range(16, 80):
            words.append(_rol(words[i - 3] ^ words[i - 8] ^ words[i - 14] ^ words[i - 16], 1))
        a, b, c, d, e = h0, h1, h2, h3, h4
        for i in range(80):
            if i < 20:
                f = (b & c) | ((~b) & d)
                k = 0x5A827999
            elif i < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif i < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            a, b, c, d, e = (
                (_rol(a, 5) + f + e + k + words[i]) & 0xFFFFFFFF,
                a,
                _rol(b, 30),
                c,
                d,
            )
        h0 = (h0 + a) & 0xFFFFFFFF
        h1 = (h1 + b) & 0xFFFFFFFF
        h2 = (h2 + c) & 0xFFFFFFFF
        h3 = (h3 + d) & 0xFFFFFFFF
        h4 = (h4 + e) & 0xFFFFFFFF
    return "".join(f"{h:08X}" for h in (h0, h1, h2, h3, h4))


# Known digests; any change to sha1_hex that breaks these disqualifies it.
SHA1_VECTORS = [
    (b"", "DA39A3EE5E6B4B0D3255BFEF95601890AFD80709"),
    (b"abc", "A9993E364706816ABA3E25717850C26C9CD0D89D"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "2FD4E1C67A2D28FCED849EE1BB76E7391B93EB12",
    ),
    (b"a" * 1000, "291E9A6C66994949B57BA5E650361E98FC36B1BA"),
]


# ---- canonical name ordering ------------------------------------------------


def ordering_key(name: str):
    """Sort key for zone order, written as a left-to-right walk from the
    root: compare the last label first, then the next one in, byte by
    byte over the lowercased text."""
    trimmed = name[:-1] if name.endswith(".") else name
    labels = trimmed.lower().split(".")
    return [lab.encode() for lab in labels[::-1]]


def zone_sort(names):
    return sorted(names, key=ordering_key)


# ---- denial chain shape ------------------------------------------------------


def chain_pairs(names):
    """Expected (owner, next) pairs for a denial chain over these names:
    each name points at its canonical successor and the last wraps to the
    first."""
    ordered = zone_sort(names)
    return [
        (ordered[i], ordered[(i + 1) % len(ordered)])
        for i in range(len(ordered))
    ]


def nxt_chain(sets):
    """Expected NXT records of a zone holding these record sets, as
    (owner, next owner, types) triples in zone order. Each set is an
    (owner, type, signed) triple. A name is written as the owner of its
    first set by type name. Its types are those of its sets, plus NXT,
    plus SIG when any of its sets is signed (RFC 2535 section 5.2)."""
    written, types = {}, {}
    for owner, rtype, signed in sorted(sets, key=lambda s: s[1]):
        name = tuple(ordering_key(owner))
        written.setdefault(name, owner)
        types.setdefault(name, {"NXT"}).add(rtype)
        if signed:
            types[name].add("SIG")
    return [
        (owner, after, tuple(sorted(types[tuple(ordering_key(owner))])))
        for owner, after in chain_pairs(list(written.values()))
    ]


def covering(chain, target):
    """The chain record that denies target: the last one whose owner is at
    or before target in zone order, or, when target comes before every
    owner, the last one, which wraps around to the first."""
    if not chain:
        return None
    pick = chain[-1]
    for record in chain:
        if ordering_key(record[0]) <= ordering_key(target):
            pick = record
    return pick


# ---- the merge law over a state dump -----------------------------------------


def merge_law_violations(dump_text):
    """Each revocable slot, other than a KEY slot, stored at or below a
    name that holds a sticky slot, as "<name> <type> under <sticky name>".

    dump_text is HandleServer.dump_state() text: an "entry <name> ..." line
    per name, then a "  slot <type> serial=<n> sticky=<0|1>" line per slot.
    A sticky set (a cancel, a compromise, a transfer) kills the revocable
    sets below it whichever arrived first, so a store that keeps the merge
    law lists none. KEY slots survive, because verifiers always need keys.
    """
    slots = {}
    name = None
    for line in dump_text.splitlines():
        fields = line.split()
        if fields[:1] == ["entry"]:
            name = fields[1]
            slots[name] = []
        elif fields[:1] == ["slot"]:
            slots[name].append((fields[1], fields[3] == "sticky=1"))
    killers = [n for n, held in slots.items() if any(sticky for _, sticky in held)]
    return [
        f"{n} {rtype} under {killer}"
        for n, held in sorted(slots.items())
        for rtype, sticky in held
        if not sticky and rtype != "KEY"
        for killer in killers
        if n == killer or n.endswith("." + killer)
    ]
