"""Record sets enter the store one way: HandleServer._admit.

Updates, replay and zone loads all pass its gate before they merge, so one
merge law holds for all three. A later path that reached _merge_slot or
_purge_revocable itself would fork that law again; this finds any such
reference in the source of onhs.server.
"""

import ast
import inspect

from onhs import server
from onhs.server import HandleServer

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
