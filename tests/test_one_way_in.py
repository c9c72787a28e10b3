"""Record sets enter the store one way: HandleServer._admit.

Updates, replay and zone loads all pass its gate before they merge, so one
merge law holds for all three. A later path that reached _merge_slot or
_purge_revocable itself would fork that law again; this finds any such
reference in the source of onhs.server.

A set's standing, sticky or not, is decided by one predicate,
records.is_sticky, and travels with the set into the one resolution walk:
the store's sticky flag, the verifier's and the key upgrade's reading of a
served set must agree on every kind of set.

An answer's set items are read one way too: codec._read_set, whether an
item names a set by its slot or carries it in full.
"""

import ast
import inspect
import re
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import FIXED_NOW, ROOT, new_server

import onhs
from onhs import client, crypto, server
from onhs.handles import HandleLabel, parse_handle
from onhs.server import HandleServer

SOURCES = sorted(Path(onhs.__file__).parent.glob("*.py"))

GUARDED = {"_merge_slot", "_purge_revocable"}


def references(tree: ast.AST, names) -> list:
    """(innermost enclosing function, name) for each attribute access of a
    name in names, as self._merge_slot is one, called or not."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_only_admit_merges_or_purges():
    found = references(ast.parse(inspect.getsource(server)), GUARDED)
    assert sorted(found) == [("_admit", "_merge_slot"), ("_admit", "_purge_revocable")]


def test_updates_and_zone_loads_both_go_through_admit():
    found = references(ast.parse(inspect.getsource(server)), {"_admit"})
    assert sorted(found) == [("_process", "_admit"), ("load_zone", "_admit")]


def test_the_gate_reads_the_sets_not_the_action():
    params = inspect.signature(HandleServer._gate).parameters
    assert list(params) == ["self", "target", "rrset", "transfer"]


def named(tree: ast.AST, name: str, calls_only: bool = False) -> list:
    """The innermost enclosing function of each use of name in tree, as a
    bare name, an attribute or an imported name; with calls_only, of each
    call of it."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if calls_only:
            target = node.func if isinstance(node, ast.Call) else None
        else:
            target = node
        if (
            isinstance(target, ast.Name) and target.id == name
            or isinstance(target, ast.Attribute) and target.attr == name
            or isinstance(target, ast.alias) and (target.asname or target.name) == name
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def uses(name: str, calls_only: bool = False) -> list:
    """(module, enclosing function) of each use of name in the package."""
    return sorted(
        (path.stem, function)
        for path in SOURCES
        for function in named(ast.parse(path.read_text()), name, calls_only)
    )


def test_only_the_sticky_predicate_asks_is_irrevocable():
    assert uses("is_irrevocable") == [("records", "is_sticky")]


def test_only_resolve_and_the_verifier_walk():
    assert uses("walk", calls_only=True) == [
        ("client", "verify_resolution"), ("server", "resolve")
    ]


def test_only_the_set_reader_parses_an_answers_set():
    assert uses("received_sets", calls_only=True) == [("codec", "_read_set")]


IA = HandleLabel.ia
NOW = FIXED_NOW
LATER = crypto.stamp_add(NOW, 2 * 3600)  # past every signature made below


def _kinds():
    """(kind, rtype, builder of its update for (secret, apex, target))."""
    return [
        ("KEY", "KEY", None),
        ("TXT Created", "TXT", lambda sec, apex, t: server.make_create_child(
            sec, t, 2, now=NOW, validity=3600)),
        ("A address", "A", lambda sec, apex, t: server.make_assign(
            sec, t, "10.0.0.1", 2, now=NOW, validity=3600)),
        ("A 0.0.0.0", "A", lambda sec, apex, t: server.make_cancel(
            sec, t, 2, now=NOW, validity=3600)),
        ("TXT Compromised", "TXT", lambda sec, apex, t: server.make_compromise(
            sec, t, "2026-08-01", 2, now=NOW, validity=3600)),
        ("delegate DNAME", "DNAME", lambda sec, apex, t: server.make_delegate(
            sec, t, apex.child(IA(2)), 2, now=NOW, validity=3600)),
        ("transfer DNAME", "DNAME", lambda sec, apex, t: server.make_transfer(
            sec, t, apex.child(IA(2)), 2, now=NOW, validity=3600)),
    ]


STICKY = {"A 0.0.0.0", "TXT Compromised", "transfer DNAME"}


def dumped_sticky(dump: str, owner: str, rtype: str) -> bool:
    """The sticky= of owner's rtype slot in a dump_state text."""
    entry = dump.split(f"\nentry {owner} ", 1)[1].split("\nentry ", 1)[0]
    return re.search(rf"\n  slot {rtype} serial=[0-9]+ sticky=([01])\n", entry).group(1) == "1"


@pytest.mark.parametrize("kind, rtype, build", _kinds(), ids=[k[0] for k in _kinds()])
def test_store_verifier_and_upgrade_agree_on_what_is_sticky(keypool, kind, rtype, build):
    public, secret = keypool.key(5)
    store = new_server()
    claim = server.make_claim(secret, ROOT, 16, 1, now=NOW, validity=3600)
    assert store.apply_update(claim, now=NOW).accepted
    apex = parse_handle(claim.target, ROOT)
    target = apex if build is None else apex.child(IA(1))
    if build is not None:
        assert store.apply_update(build(secret, apex, target), now=NOW).accepted
    owner = target.name_key()

    in_store = dumped_sticky(store.dump_state(), owner, rtype)

    # a served answer, carrying the set also where the walk does not need it
    held = store.query_record(target, rtype, now=LATER).rrset
    answer = store.resolve(target, now=LATER)
    if held not in answer.evidence:
        answer = replace(answer, evidence=answer.evidence + (held,))
    checked = client.verify_resolution(answer, target, ROOT, now=LATER)
    verdicts = {why for o, t, why in checked.record_verdicts if (o, t) == (owner, rtype)}
    assert len(verdicts) == 1
    by_verifier = verdicts == {server.V_STALE}

    _, why, sticky = client._served_set(store, target, rtype, apex, public, LATER)
    by_upgrade = why == server.V_STALE

    assert (in_store, by_verifier, by_upgrade) == (kind in STICKY,) * 3
    assert sticky == in_store
