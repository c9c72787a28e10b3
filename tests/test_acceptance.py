"""Acceptance suite: the system's headline guarantees, one test per criterion.

Each test prints a single "criterion NN <title>: PASS/FAIL" line (run with
``pytest tests/test_acceptance.py -s`` to watch them go by) and then asserts,
so a failure shows both the line and the detail. The whole file is budgeted
to run in well under a minute.
"""

import io
import random
import time
from dataclasses import replace

import pytest

from conftest import FIXED_NOW, ROOT, build_example_zones, new_server, with_server_key

from oracles import sha1_hex

from onhs import crypto, wire
from onhs.client import cancel_old_key, key_upgrade, verify_resolution
from onhs.crypto import sign_rrset
from onhs.errors import DelegationLoopError, WireError
from onhs.handles import HandleLabel, parse_handle
from onhs.records import SignedRRset
from onhs.server import (
    OUTCOME_ADDRESS,
    OUTCOME_CANCELLED,
    OUTCOME_COMPROMISED,
    OUTCOME_TRANSFERRED_AND_ADDRESS,
    make_assign,
    make_cancel,
    make_claim,
    make_compromise,
    make_create_child,
    make_delegate,
    make_transfer,
)
from onhs.service import HandleService, ServerConfig

IA = HandleLabel.ia
NOW = FIXED_NOW


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    line = f"criterion {number:02d} {title}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


@pytest.fixture()
def example_zones(keypool):
    return build_example_zones(keypool)


# ---- 1: the worked grammar examples round-trip byte-identically --------------


def test_criterion_01_grammar_goldens():
    apex_text = "h1g5k0061A38F9A3540B9.handleroot.example.org."
    leaf_text = "h0k2.h0k3.h1g5k0061A38F9A3540B9.handleroot.example.org"
    apex = parse_handle(apex_text, ROOT)
    leaf = parse_handle(leaf_text, ROOT)
    ok = (
        apex.fqdn() == apex_text
        and leaf.fqdn_no_dot() == leaf_text
        and apex.is_apex()
        and leaf.apex().name_key() == apex.name_key()
    )
    report(1, "grammar goldens", ok, "both worked names re-encode byte-identically")


# ---- 2: label suffixes match an independent hash oracle ----------------------


def test_criterion_02_hash_rule_oracle(keypool):
    rng = random.Random(0xACC2)
    checked = 0
    mismatch = None
    for i in range(110):
        if i < 8:
            public, _ = keypool.key(i)
        else:
            public, _ = crypto.generate_keypair(crypto.RSA_SHA1, bits=1024)
        suffix_len = rng.choice((14, 16, 18, 20, 24, 32, 40))
        label = crypto.derive_pk_label(public, suffix_len)
        want = sha1_hex(public.key_bytes).upper()[-suffix_len:]
        if label.key_suffix != want:
            mismatch = f"key {i}: {label.key_suffix} != {want}"
            break
        checked += 1
    report(2, "hash-rule oracle", mismatch is None,
           mismatch or f"{checked} keys, suffix always the oracle's low-order digits")


# ---- 3: the worked-example zones resolve and verify --------------------------


def test_criterion_03_fixture_resolution(example_zones):
    z = example_zones
    problems = []

    res = z.server.resolve(z.leaf_2_3, now=NOW)
    checked = verify_resolution(res, z.leaf_2_3, ROOT, now=NOW)
    if (res.outcome, res.address) != (OUTCOME_ADDRESS, "192.253.254.63"):
        problems.append(f"address case served {res.outcome}/{res.address}")
    if not checked.verified:
        problems.append(f"address case failed verification: {checked.failures}")

    res = z.server.resolve(z.under_compromised, now=NOW)
    checked = verify_resolution(res, z.under_compromised, ROOT, now=NOW)
    txt_bodies = [
        rec.rdata
        for rrset in res.evidence if rrset.rtype == "TXT"
        for rec in rrset.records
    ]
    if res.outcome != OUTCOME_COMPROMISED:
        problems.append(f"compromise case served {res.outcome}")
    if not any(str(b).startswith("Compromised 2003-04-01") for b in txt_bodies):
        problems.append(f"compromise TXT evidence missing: {txt_bodies}")
    if not checked.verified:
        problems.append(f"compromise case failed verification: {checked.failures}")

    res = z.server.resolve(z.old_leaf, now=NOW)
    checked = verify_resolution(res, z.old_leaf, ROOT, now=NOW)
    if (res.outcome, res.address) != (
        OUTCOME_TRANSFERRED_AND_ADDRESS, "192.253.254.78"
    ):
        problems.append(f"transfer case served {res.outcome}/{res.address}")
    if not res.transfer_notices:
        problems.append("transfer case carried no notice")
    if not checked.verified:
        problems.append(f"transfer case failed verification: {checked.failures}")

    report(3, "fixture resolution", not problems,
           "; ".join(problems) or "address, compromise, and transfer cases all verify")


# ---- 4: accepted state is order- and duplication-independent -----------------


def _update_corpus(keypool):
    _, sec1 = keypool.key(0)
    _, sec2 = keypool.key(1)
    _, sec3 = keypool.key(2)
    claim1 = make_claim(sec1, ROOT, 16, 1, now=NOW)
    claim2 = make_claim(sec2, ROOT, 16, 1, now=NOW)
    claim3 = make_claim(sec3, ROOT, 16, 1, now=NOW)
    a1 = parse_handle(claim1.target, ROOT)
    a2 = parse_handle(claim2.target, ROOT)
    a3 = parse_handle(claim3.target, ROOT)
    mid = a1.child(IA("3"))
    leaf = mid.child(IA("2"))
    moved = a1.child(IA("1"))
    new_home = a3.child(IA("427"))
    return [
        claim1,
        claim2,
        claim3,
        make_create_child(sec1, mid, 2, now=NOW),
        make_create_child(sec1, leaf, 3, now=NOW),
        # equal serials, different payloads: the tiebreak must be orderless too
        make_assign(sec1, leaf, "192.253.254.63", 4, now=NOW),
        make_assign(sec1, leaf, "192.253.254.64", 4, now=NOW),
        make_create_child(sec1, mid.child(IA("3")), 5, now=NOW),
        make_assign(sec1, mid.child(IA("3")), "192.253.254.65", 6, now=NOW),
        make_create_child(sec1, moved, 7, now=NOW),
        make_create_child(sec3, new_home, 2, now=NOW),
        make_assign(sec3, new_home, "192.253.254.77", 3, now=NOW),
        # irrevocable operations racing the revocable ones they purge
        make_transfer(sec1, moved, new_home, 8, now=NOW),
        make_assign(sec1, moved.child(IA("5")), "192.253.254.79", 9, now=NOW),
        make_cancel(sec1, a1.child(IA("9")), 10, now=NOW),
        make_create_child(sec1, a1.child(IA("9")), 11, now=NOW),
        make_compromise(sec2, a2, "01/04/2003", 4, now=NOW),
        make_assign(sec2, a2.child(IA("9")), "192.253.254.80", 3, now=NOW),
        make_delegate(sec3, a3.child(IA("8")), a3.child(IA("2")), 6, now=NOW),
    ]


def _state_after(messages):
    server = new_server()
    for msg in messages:
        server.apply_update(msg, now=NOW)
    return server.dump_state()


def test_criterion_04_replay_permutation_law(keypool):
    corpus = _update_corpus(keypool)
    reference = _state_after(corpus)
    rng = random.Random(0xACC4)
    rounds = 100
    divergence = None
    for round_no in range(rounds):
        batch = list(corpus)
        for _ in range(rng.randint(1, 6)):
            batch.append(rng.choice(corpus))
        rng.shuffle(batch)
        if _state_after(batch) != reference:
            divergence = f"round {round_no} diverged"
            break
    report(4, "replay permutation law", divergence is None,
           divergence
           or f"{rounds} shuffled+duplicated replays of {len(corpus)} updates, "
              "all stores byte-identical")


# ---- 5: irrevocable state never reverts --------------------------------------


def _sticky_flags(state_dump):
    flags = {}
    for line in state_dump.splitlines():
        if not line.startswith("entry "):
            continue
        _, key, cancelled, compromised, transferred = line.split(" ")
        flags[key] = (
            cancelled.removeprefix("cancelled="),
            compromised.removeprefix("compromised="),
            transferred.removeprefix("transferred_to="),
        )
    return flags


def test_criterion_05_irrevocability(keypool):
    rng = random.Random(0xACC5)
    server = new_server()
    secrets = []
    apexes = []
    for i in range(3):
        _, sec = keypool.key(i)
        claim = make_claim(sec, ROOT, 16, 1, now=NOW)
        assert server.apply_update(claim, now=NOW).accepted
        secrets.append(sec)
        apexes.append(parse_handle(claim.target, ROOT))
    pools = []
    for apex in apexes:
        names = [apex]
        names += [apex.child(IA(str(i))) for i in range(1, 5)]
        names += [
            apex.child(IA(str(i))).child(IA(str(j)))
            for i in range(1, 3) for j in range(1, 3)
        ]
        pools.append(names)
    everything = [h for pool in pools for h in pool]

    steps = 1000
    violations = []
    seen = {}
    for step in range(steps):
        owner = rng.randrange(3)
        target = rng.choice(pools[owner])
        secret = secrets[owner] if rng.random() > 0.05 else secrets[(owner + 1) % 3]
        serial = rng.randint(1, 40)
        roll = rng.random()
        if roll < 0.35:
            msg = make_assign(secret, target, f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                              serial, now=NOW)
        elif roll < 0.55:
            msg = make_create_child(secret, target, serial, now=NOW)
        elif roll < 0.70:
            msg = make_delegate(secret, target, rng.choice(everything), serial, now=NOW)
        elif roll < 0.82:
            msg = make_cancel(secret, target, serial, now=NOW)
        elif roll < 0.94:
            msg = make_transfer(secret, target, rng.choice(everything), serial, now=NOW)
        else:
            msg = make_compromise(secret, target, "2003-04-01", serial, now=NOW)
        server.apply_update(msg, now=NOW)

        flags = _sticky_flags(server.dump_state())
        for key, (was_c, was_m, was_t) in seen.items():
            now_c, now_m, now_t = flags.get(key, ("0", "0", "-"))
            if was_c == "1" and now_c != "1":
                violations.append(f"step {step}: {key} lost cancelled")
            if was_m == "1" and now_m != "1":
                violations.append(f"step {step}: {key} lost compromised")
            if was_t != "-" and now_t != was_t:
                violations.append(f"step {step}: {key} transferred_to changed")
        seen.update(flags)
        if violations:
            break

    report(5, "irrevocability", not violations,
           "; ".join(violations[:3]) or f"{steps} random updates, no sticky state reverted")


# ---- 6: delegation cycles terminate quickly ----------------------------------


def test_criterion_06_cycle_termination(keypool):
    _, sec = keypool.key(0)
    server = new_server()
    claim = make_claim(sec, ROOT, 16, 1, now=NOW)
    assert server.apply_update(claim, now=NOW).accepted
    apex = parse_handle(claim.target, ROOT)

    serial = 2
    worst = 0.0
    failures = []
    for length in range(2, 9):
        nodes = [apex.child(IA(str(100 * length + i))) for i in range(length)]
        for i, node in enumerate(nodes):
            msg = make_delegate(sec, node, nodes[(i + 1) % length], serial, now=NOW)
            assert server.apply_update(msg, now=NOW).accepted
            serial += 1
        began = time.monotonic()
        try:
            server.resolve(nodes[0], now=NOW)
            failures.append(f"length {length}: resolve returned instead of looping")
        except DelegationLoopError:
            pass
        elapsed = time.monotonic() - began
        worst = max(worst, elapsed)
        if elapsed >= 5.0:
            failures.append(f"length {length}: took {elapsed:.1f}s")
    report(6, "cycle termination", not failures,
           "; ".join(failures) or f"cycle lengths 2..8 all loop-detected, "
                                  f"worst query {worst * 1000:.1f} ms")


# ---- 7: a lying server cannot get a forged record past the verifier ----------


def _foreign_substitute(rrset, foreign_public, foreign_secret):
    if rrset.rtype == "KEY":
        forged = tuple(
            replace(rec, rdata=foreign_public.key_bytes) for rec in rrset.records
        )
        return SignedRRset(forged, rrset.signature)
    signature = sign_rrset(rrset.records, foreign_secret, rrset.signature.params)
    return SignedRRset(rrset.records, signature)


def test_criterion_07_byzantine_rejection(example_zones, keypool):
    z = example_zones
    foreign_public, foreign_secret = keypool.key(5)
    substitutions = 0
    false_accepts = []
    for handle in (z.leaf_2_3, z.under_compromised, z.old_leaf):
        res = z.server.resolve(handle, now=NOW)
        assert verify_resolution(res, handle, ROOT, now=NOW).verified
        for i, rrset in enumerate(res.evidence):
            forged = _foreign_substitute(rrset, foreign_public, foreign_secret)
            evidence = tuple(
                forged if j == i else kept for j, kept in enumerate(res.evidence)
            )
            notices = tuple(
                forged if n == rrset else n for n in res.transfer_notices
            )
            tampered = replace(res, evidence=evidence, transfer_notices=notices)
            got = verify_resolution(tampered, handle, ROOT, now=NOW)
            substitutions += 1
            if got.verified:
                false_accepts.append(f"{handle.fqdn_no_dot()} evidence[{i}] {rrset.rtype}")
        for i, notice in enumerate(res.transfer_notices):
            forged = _foreign_substitute(notice, foreign_public, foreign_secret)
            notices = tuple(
                forged if j == i else kept
                for j, kept in enumerate(res.transfer_notices)
            )
            tampered = replace(res, transfer_notices=notices)
            got = verify_resolution(tampered, handle, ROOT, now=NOW)
            substitutions += 1
            if got.verified:
                false_accepts.append(f"{handle.fqdn_no_dot()} notice[{i}]")
    report(7, "byzantine rejection", not false_accepts,
           "; ".join(false_accepts)
           or f"{substitutions} single-record substitutions, zero false accepts")


# ---- 8: key upgrade carries the whole hierarchy to the new key ---------------


def _relative_owners(server, apex):
    zone = server.owner_zone_snapshot(apex, now=NOW)
    suffix = apex.name_key()
    owners = set()
    for owner, _rtype in zone.rrsets:
        if owner == suffix:
            owners.add("@")
        elif owner.endswith("." + suffix):
            owners.add(owner[: -len(suffix) - 1])
    return owners


def test_criterion_08_key_upgrade(keypool):
    _, old_secret = keypool.key(6)
    _, new_secret = keypool.key(7)
    server = new_server()
    claim = make_claim(old_secret, ROOT, 16, 1, now=NOW)
    assert server.apply_update(claim, now=NOW).accepted
    apex = parse_handle(claim.target, ROOT)
    mid = apex.child(IA("3"))
    leaves = {
        apex.child(IA("1")): "192.253.254.61",
        apex.child(IA("2")): "192.253.254.62",
        mid.child(IA("2")): "192.253.254.63",
        mid.child(IA("3")): "192.253.254.65",
    }
    serial = 2
    assert server.apply_update(make_create_child(old_secret, mid, serial, now=NOW), now=NOW).accepted
    for leaf, address in leaves.items():
        serial += 1
        assert server.apply_update(
            make_create_child(old_secret, leaf, serial, now=NOW), now=NOW
        ).accepted
        serial += 1
        assert server.apply_update(
            make_assign(old_secret, leaf, address, serial, now=NOW), now=NOW
        ).accepted
    old_owners = _relative_owners(server, apex)

    upgrade = key_upgrade(old_secret, apex, new_secret, server, ROOT, now=NOW)
    problems = []
    if not upgrade.ok:
        problems.append(f"upgrade failed: {upgrade.steps}")
    verdicts, warnings = cancel_old_key(old_secret, apex, server, serial=90, now=NOW)
    if not all(v.accepted for v in verdicts):
        problems.append(f"cancel of the old apex rejected: {verdicts}")
    if warnings:
        problems.append(f"cancel warned: {warnings}")

    new_apex = upgrade.new_apex
    if not problems:
        if _relative_owners(server, new_apex) != old_owners:
            problems.append("ordinal paths under the new apex differ from the old ones")
        for leaf, address in leaves.items():
            res = server.resolve(leaf, now=NOW)
            checked = verify_resolution(res, leaf, ROOT, now=NOW)
            if (res.outcome, res.address) != (OUTCOME_TRANSFERRED_AND_ADDRESS, address):
                problems.append(
                    f"{leaf.fqdn_no_dot()} served {res.outcome}/{res.address}"
                )
            elif not res.transfer_notices:
                problems.append(f"{leaf.fqdn_no_dot()} carried no transfer notice")
            elif not checked.verified:
                problems.append(f"{leaf.fqdn_no_dot()} failed verification")
        old_apex_now = server.resolve(apex, now=NOW)
        if old_apex_now.outcome != OUTCOME_CANCELLED:
            problems.append(f"old apex reports {old_apex_now.outcome}")

    report(8, "key upgrade", not problems,
           "; ".join(problems)
           or f"{len(leaves)} leaves redirect with notices, ordinal paths equal, "
              "old apex cancelled")


# ---- 9: the update log survives kill-and-restart -----------------------------


def test_criterion_09_durability(tmp_path, keypool):
    _, secret = keypool.key(0)
    problems = []
    for n in (1, 10, 100):
        config = ServerConfig(root_zone=ROOT)
        config.data_dir = str(tmp_path / f"store-{n}")
        service = HandleService(with_server_key(config))
        claim = make_claim(secret, ROOT, 16, 1)
        assert service.server.apply_update(claim).accepted
        apex = parse_handle(claim.target, ROOT)
        for serial in range(2, n + 1):
            verdict = service.server.apply_update(
                make_assign(secret, apex.child(IA(str(serial))), "10.0.0.1", serial)
            )
            assert verdict.accepted
        before = service.server.dump_state()
        service.close()

        reborn = HandleService(config)
        if reborn.replayed != n:
            problems.append(f"N={n}: replayed {reborn.replayed}")
        elif reborn.server.dump_state() != before:
            problems.append(f"N={n}: store differs after restart")
        reborn.close()
    report(9, "durability", not problems,
           "; ".join(problems) or "restart reproduces the store for N in {1, 10, 100}")


# ---- 10: the codec shrugs off arbitrary bytes --------------------------------


def test_criterion_10_codec_fuzz():
    rng = random.Random(0xACC10)
    good = wire.encode_message(
        wire.WireMessage(wire.KIND_QUERY_RESOLVE, "fuzz-1",
                         {"handle": "h0k1.x.example", "depth_budget": 4})
    )
    crashes = []
    rejected = 0
    decoded = 0
    for i in range(10000):
        roll = rng.random()
        if roll < 0.35:
            data = rng.randbytes(rng.randint(0, 80))
        elif roll < 0.65:
            data = good[: rng.randint(0, len(good) - 1)]
        elif roll < 0.90:
            mutated = bytearray(good)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            data = bytes(mutated)
        else:
            data = rng.randbytes(4) + rng.randbytes(rng.randint(0, 40))
        for attempt in (
            lambda: wire.decode_message(data),
            lambda: wire.read_message(io.BytesIO(data)),
        ):
            try:
                attempt()
                decoded += 1
            except WireError:
                rejected += 1
            except Exception as exc:  # noqa: BLE001 - the point of the fuzz
                crashes.append(f"input {i}: {type(exc).__name__}: {exc}")
    report(10, "codec fuzz", not crashes,
           "; ".join(crashes[:3])
           or f"10000 frames: {rejected} structured rejections, "
              f"{decoded} clean decodes, zero crashes")
