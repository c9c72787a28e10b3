"""Shared fixtures: a session key pool and the worked-example zone setup.

Key generation dominates test time, so tests draw RSA-1024 keys from one
session-scoped pool instead of generating their own, and every server
built with new_server() signs with one pooled key instead of making an
RSA-2048 key of its own. 1024-bit keys are fine here: nothing in the tests
depends on key strength, only on the signing and hashing relationships.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from onhs import crypto
from onhs.crypto import PublicKey, SecretKey
from onhs.handles import Handle, HandleLabel, parse_handle
from onhs import server as srv
from onhs.service import HandleService, ServerConfig

ROOT = "handleroot.example.org"
TEST_BITS = 1024
FIXED_NOW = "20260816120000"


class KeyPool:
    """Hands out deterministic-size RSA keys, generating lazily."""

    def __init__(self, bits: int = TEST_BITS):
        self.bits = bits
        self._keys: List[Tuple[PublicKey, SecretKey]] = []

    def key(self, index: int) -> Tuple[PublicKey, SecretKey]:
        while len(self._keys) <= index:
            self._keys.append(crypto.generate_keypair(crypto.RSA_SHA1, bits=self.bits))
        return self._keys[index]

    def fresh(self) -> Tuple[PublicKey, SecretKey]:
        pair = crypto.generate_keypair(crypto.RSA_SHA1, bits=self.bits)
        self._keys.append(pair)
        return pair


@pytest.fixture(scope="session")
def keypool() -> KeyPool:
    return KeyPool()


_SERVER_KEYS = KeyPool()


def new_server(**kwargs) -> srv.HandleServer:
    """A HandleServer for ROOT signing with the pooled server key."""
    return srv.HandleServer(ROOT, _SERVER_KEYS.key(0)[1], **kwargs)


def with_server_key(config: ServerConfig) -> ServerConfig:
    """config, with the pooled server key written into its data_dir unless
    a key is there already, so a HandleService over it makes no key."""
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    key_path = data_dir / "server.key"
    if not key_path.exists():
        crypto.save_secret_key(key_path, _SERVER_KEYS.key(0)[1])
    return config


def new_service(data_dir: Path) -> HandleService:
    """A HandleService for ROOT over data_dir, signing with the pooled
    server key; it logs every update, so it keeps the update history."""
    return HandleService(
        with_server_key(ServerConfig(root_zone=ROOT, data_dir=str(data_dir), listen_port=0))
    )


@pytest.fixture()
def logged_service(tmp_path):
    service = new_service(tmp_path / "data")
    yield service
    service.close()


@dataclass
class ExampleZones:
    """The three-owner setup from the worked examples, with live keys.

    Owner 1 has addresses below an intermediate handle, and one child that
    was transferred to owner 3. Owner 2's key is compromised. Addresses
    reuse the documented values so tests read like the examples.
    """

    root: str
    server: srv.HandleServer
    secrets: Dict[str, SecretKey]
    apex1: Handle
    apex2: Handle
    apex3: Handle
    leaf_2_3: Handle       # h0k2.h0k3.<apex1> -> 192.253.254.63
    leaf_3_3: Handle       # h0k3.h0k3.<apex1> -> 192.253.254.65
    transferred: Handle    # h0k1.<apex1> -> DNAME h0k427.<apex3>
    new_home: Handle       # h0k427.<apex3> -> 192.253.254.77
    new_leaf: Handle       # h0k5.h0k427.<apex3> -> 192.253.254.78
    old_leaf: Handle       # h0k5.h0k1.<apex1>, reachable only via rewrite
    under_compromised: Handle  # h0k9.<apex2>, created before the compromise


def build_example_zones(
    keypool: KeyPool, now: str = FIXED_NOW, server: Optional[srv.HandleServer] = None
) -> ExampleZones:
    _, sec1 = keypool.key(0)
    _, sec2 = keypool.key(1)
    _, sec3 = keypool.key(2)
    if server is None:
        server = new_server()

    claim1 = srv.make_claim(sec1, ROOT, 16, 1, now=now)
    claim2 = srv.make_claim(sec2, ROOT, 16, 1, now=now)
    claim3 = srv.make_claim(sec3, ROOT, 16, 1, now=now)
    for claim in (claim1, claim2, claim3):
        verdict = server.apply_update(claim, now=now)
        assert verdict.accepted, verdict
    apex1 = parse_handle(claim1.target, ROOT)
    apex2 = parse_handle(claim2.target, ROOT)
    apex3 = parse_handle(claim3.target, ROOT)

    ia = HandleLabel.ia
    mid = apex1.child(ia("3"))
    leaf_2_3 = mid.child(ia("2"))
    leaf_3_3 = mid.child(ia("3"))
    transferred = apex1.child(ia("1"))
    old_leaf = transferred.child(ia("5"))
    new_home = apex3.child(ia("427"))
    new_leaf = new_home.child(ia("5"))
    under_compromised = apex2.child(ia("9"))

    steps = [
        srv.make_create_child(sec1, mid, 2, now=now),
        srv.make_create_child(sec1, leaf_2_3, 3, now=now),
        srv.make_assign(sec1, leaf_2_3, "192.253.254.63", 4, now=now),
        srv.make_create_child(sec1, leaf_3_3, 5, now=now),
        srv.make_assign(sec1, leaf_3_3, "192.253.254.65", 6, now=now),
        srv.make_create_child(sec1, transferred, 7, now=now),
        srv.make_create_child(sec2, under_compromised, 2, now=now),
        srv.make_assign(sec2, under_compromised, "192.253.254.80", 3, now=now),
        srv.make_create_child(sec3, new_home, 2, now=now),
        srv.make_assign(sec3, new_home, "192.253.254.77", 3, now=now),
        srv.make_create_child(sec3, new_leaf, 4, now=now),
        srv.make_assign(sec3, new_leaf, "192.253.254.78", 5, now=now),
        srv.make_transfer(sec1, transferred, new_home, 8, now=now),
        srv.make_compromise(sec2, apex2, "01/04/2003", 4, now=now),
    ]
    for msg in steps:
        verdict = server.apply_update(msg, now=now)
        assert verdict.accepted, (msg.action, msg.target, verdict)

    return ExampleZones(
        root=ROOT,
        server=server,
        secrets={"k1": sec1, "k2": sec2, "k3": sec3},
        apex1=apex1,
        apex2=apex2,
        apex3=apex3,
        leaf_2_3=leaf_2_3,
        leaf_3_3=leaf_3_3,
        transferred=transferred,
        new_home=new_home,
        new_leaf=new_leaf,
        old_leaf=old_leaf,
        under_compromised=under_compromised,
    )


@pytest.fixture()
def example_zones(keypool) -> ExampleZones:
    return build_example_zones(keypool)
