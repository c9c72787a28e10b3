"""Build the benchmark's prepared zone from a seed.

    python3 perfbench/prepare.py --seed 1 --out DIR

DIR receives what a benchmark run starts from:

  server.key     the server's signing key (RSA-2048)
  updates.log    the zone recipe as signed updates, written by the
                 program's own UpdateLog through HandleServer.set_log_writer
  owners/*.key   one RSA-2048 key per owner, from crypto.generate_keypair
  recipe.json    the answer table and the name pools the workloads draw
                 their query lists from

Every update is built by the program's make_* builders with a fixed
inception stamp and a 20-year validity, so the signatures verify at query
time until EXPIRES. The same seed gives the same names, addresses and
answer table; the RSA keys are fresh random keys each time.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from onhs import crypto  # noqa: E402
from onhs import server as srv  # noqa: E402
from onhs.client import verify_resolution  # noqa: E402
from onhs.handles import Handle, HandleLabel, parse_handle  # noqa: E402
from onhs.service import UpdateLog  # noqa: E402

ROOT = "handleroot.example.org"
SUFFIX_LEN = 16
INCEPTION = "20260101000000"
VALIDITY = 20 * 365 * 86400
EXPIRES = crypto.stamp_add(INCEPTION, VALIDITY)

# Owner zones, by name: (names below the apex, children per name).
# "home" is where delegations and the transfer point; "moved" hands one
# subtree to "home"; "burnt" ends with its apex key compromised; "writes"
# holds the two per-connection workspaces of the update workload plus
# cancelled subtrees.
OWNERS = {
    "tiny": (10, 4),
    "small": (30, 6),
    "medium": (100, 10),
    "large": (300, 16),
    "home": (60, 8),
    "moved": (20, 5),
    "burnt": (10, 4),
    "writes": (40, 8),
}
MISS_ZONES = ("tiny", "small", "medium", "large", "home", "moved", "writes")
DELEGATED = 6          # names in "small" delegated into "home"
CANCELLED = 4          # subtrees in "writes" cancelled after creation
CANCELLED_CHILDREN = 3
WORKSPACES = 2         # one per update connection
REBIND_POOL = 12
DELEGATE_POOL = 6


class _ParsedKey(crypto.SecretKey):
    """A SecretKey that parses its DER once.

    Only the recipe is signed with it, so that preparing takes seconds
    instead of minutes; the messages are byte-identical to those signed
    with a plain SecretKey (PKCS#1 v1.5 signatures are deterministic).
    The workloads sign with plain SecretKey objects.
    """

    def _load(self):
        parsed = self.__dict__.get("_parsed")
        if parsed is None:
            parsed = super()._load()
            object.__setattr__(self, "_parsed", parsed)
        return parsed


def _tree(apex: Handle, count: int, fanout: int) -> list:
    """count names below apex, breadth first, fanout children per name."""
    out: list = []
    frontier = [apex]
    while len(out) < count:
        parents, frontier = frontier, []
        for parent in parents:
            for ordinal in range(1, fanout + 1):
                if len(out) == count:
                    return out
                child = parent.child(HandleLabel.ia(ordinal))
                out.append(child)
                frontier.append(child)
    return out


def _address(rng: random.Random) -> str:
    return f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


def build(seed: int, out: Path) -> dict:
    """Write the prepared data set for seed into the empty directory out."""
    rng = random.Random(seed)
    out.mkdir(parents=True)
    (out / "owners").mkdir()
    _, server_secret = crypto.generate_keypair(crypto.RSA_SHA1)
    crypto.save_secret_key(out / "server.key", server_secret)

    server = srv.HandleServer(ROOT, server_secret)
    log = UpdateLog(out / "updates.log")
    log.open_for_append()
    server.set_log_writer(log.append)
    serial = 0

    def apply(msg: srv.UpdateMessage) -> None:
        verdict = server.apply_update(msg, now=INCEPTION)
        if not verdict.accepted:
            raise RuntimeError(f"recipe step {msg.action} {msg.target}: {verdict.tag()}")

    def next_serial() -> int:
        nonlocal serial
        serial += 1
        return serial

    stamp = {"now": INCEPTION, "validity": VALIDITY}
    keys: dict = {}
    apexes: dict = {}
    names: dict = {}
    expected: dict = {}   # name -> [outcome, address]
    for owner, (count, fanout) in OWNERS.items():
        _, plain = crypto.generate_keypair(crypto.RSA_SHA1)
        crypto.save_secret_key(out / "owners" / f"{owner}.key", plain)
        secret = _ParsedKey(plain.algorithm, plain.private_bytes)
        keys[owner] = secret
        claim = srv.make_claim(secret, ROOT, SUFFIX_LEN, next_serial(), **stamp)
        apply(claim)
        apex = parse_handle(claim.target, ROOT)
        apexes[owner] = apex
        names[owner] = _tree(apex, count, fanout)
        for handle in names[owner]:
            address = _address(rng)
            apply(srv.make_create_child(secret, handle, next_serial(), **stamp))
            apply(srv.make_assign(secret, handle, address, next_serial(), **stamp))
            expected[handle.fqdn_no_dot()] = ["ADDRESS", address]

    home = apexes["home"]

    # Delegations: leaves of "small" re-pointed at names in "home".
    delegated = []
    home_targets = [h for h in names["home"] if len(h.labels) == 3]
    for handle in rng.sample([h for h in names["small"] if len(h.labels) == 3], DELEGATED):
        dest = rng.choice(home_targets)
        apply(srv.make_delegate(keys["small"], handle, dest, next_serial(), **stamp))
        expected[handle.fqdn_no_dot()] = ["ADDRESS", expected[dest.fqdn_no_dot()][1]]
        delegated.append(handle.fqdn_no_dot())

    # Transfer: "moved" hands its subtree h0k1 to h0k1 of "home"; the
    # children mirror by ordinal, so every old name still resolves.
    moved_top = apexes["moved"].child(HandleLabel.ia(1))
    home_top = home.child(HandleLabel.ia(1))
    apply(srv.make_transfer(keys["moved"], moved_top, home_top, next_serial(), **stamp))
    transferred = []
    for handle in names["moved"]:
        if not (handle == moved_top or handle.is_under(moved_top)):
            continue
        dest = handle.replace_prefix(moved_top, home_top)
        if dest.fqdn_no_dot() not in expected:
            raise RuntimeError(f"transfer mirror {dest} missing from home")
        expected[handle.fqdn_no_dot()] = [
            "TRANSFERRED_AND_ADDRESS", expected[dest.fqdn_no_dot()][1]
        ]
        transferred.append(handle.fqdn_no_dot())

    # Cancelled subtrees in "writes": each cancelled name has children
    # created before the cancel, which the sticky purge empties.
    writes = apexes["writes"]
    cancelled = []
    for i in range(CANCELLED):
        top = writes.child(HandleLabel.ia(500 + i))
        apply(srv.make_create_child(keys["writes"], top, next_serial(), **stamp))
        apply(srv.make_assign(keys["writes"], top, _address(rng), next_serial(), **stamp))
        subtree = [top]
        for c in range(1, CANCELLED_CHILDREN + 1):
            child = top.child(HandleLabel.ia(c))
            apply(srv.make_create_child(keys["writes"], child, next_serial(), **stamp))
            apply(srv.make_assign(keys["writes"], child, _address(rng), next_serial(), **stamp))
            subtree.append(child)
        apply(srv.make_cancel(keys["writes"], top, next_serial(), **stamp))
        for handle in subtree:
            expected[handle.fqdn_no_dot()] = ["CANCELLED", None]
            cancelled.append(handle.fqdn_no_dot())

    # Update workspaces: one per connection, each with names to rebind
    # and names to delegate; new names are created below the workspace.
    workspaces = []
    for c in range(WORKSPACES):
        top = writes.child(HandleLabel.ia(900 + c))
        address = _address(rng)
        apply(srv.make_create_child(keys["writes"], top, next_serial(), **stamp))
        apply(srv.make_assign(keys["writes"], top, address, next_serial(), **stamp))
        expected[top.fqdn_no_dot()] = ["ADDRESS", address]
        pool = {"workspace": top.fqdn_no_dot(), "rebind": [], "delegate": []}
        for ordinal in range(1, REBIND_POOL + DELEGATE_POOL + 1):
            child = top.child(HandleLabel.ia(ordinal))
            address = _address(rng)
            apply(srv.make_create_child(keys["writes"], child, next_serial(), **stamp))
            apply(srv.make_assign(keys["writes"], child, address, next_serial(), **stamp))
            expected[child.fqdn_no_dot()] = ["ADDRESS", address]
            kind = "rebind" if ordinal <= REBIND_POOL else "delegate"
            pool[kind].append(child.fqdn_no_dot())
        workspaces.append(pool)

    # The compromised apex: every name under it answers COMPROMISED.
    burnt = apexes["burnt"]
    apply(srv.make_compromise(keys["burnt"], burnt, "2026-01-01", next_serial(), **stamp))
    compromised = [burnt.fqdn_no_dot()]
    for handle in names["burnt"]:
        compromised.append(handle.fqdn_no_dot())
    for name in compromised:
        expected[name] = ["COMPROMISED", None]
    log.close()

    skip = set(delegated) | set(transferred) | set(cancelled) | set(compromised)
    skip |= {p["workspace"] for p in workspaces}
    for pool in workspaces:
        skip |= set(pool["rebind"]) | set(pool["delegate"])
    plain = [
        h.fqdn_no_dot()
        for owner in ("tiny", "small", "medium", "large", "home", "moved", "writes")
        for h in names[owner]
        if h.fqdn_no_dot() not in skip
    ]
    recipe = {
        "seed": seed,
        "root": ROOT,
        "inception": INCEPTION,
        "expires": EXPIRES,
        "log_lines": sum(1 for _ in open(out / "updates.log", encoding="utf-8")),
        "last_serial": serial,
        "apexes": {owner: apex.fqdn_no_dot() for owner, apex in apexes.items()},
        "zone_names": {owner: len(names[owner]) + 1 for owner in OWNERS},
        "miss_zones": list(MISS_ZONES),
        "update_owner": "writes",
        "hit": {
            "plain": plain,
            "delegated": delegated,
            "transferred": transferred,
            "cancelled": cancelled,
            "compromised": compromised,
        },
        "delegate_targets": [h.fqdn_no_dot() for h in home_targets],
        "workspaces": workspaces,
        "expected": expected,
    }
    _check_in_process(server, recipe)
    (out / "recipe.json").write_text(json.dumps(recipe, indent=1, sort_keys=True) + "\n")
    return recipe


def _check_in_process(server: srv.HandleServer, recipe: dict) -> None:
    """The in-memory server must already give every answer in the table."""
    for name, (outcome, address) in recipe["expected"].items():
        handle = parse_handle(name, ROOT)
        checked = verify_resolution(server.resolve(handle), handle, ROOT)
        if (checked.outcome, checked.address) != (outcome, address) or not checked.verified:
            raise RuntimeError(
                f"{name}: served {checked.outcome} {checked.address} "
                f"verified={checked.verified}, recipe says {outcome} {address}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.out.exists():
        shutil.rmtree(args.out)
    recipe = build(args.seed, args.out)
    print(
        f"prepared {args.out}: {recipe['log_lines']} log lines, "
        f"{len(recipe['expected'])} answers, signatures valid until {recipe['expires']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
