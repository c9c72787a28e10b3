"""Every name a module of the package imports is used in that module.

No linter runs on this code, so this reads each module with the standard
library's ast. A name counts as used when it appears as a name anywhere
in the module (quoted annotations included) or is listed in __all__.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onhs"

# (module, name) pairs imported on purpose without a use
KEPT = {
    # perfbench/tracer.py wraps server.build_nxt_chain and
    # server.covering_nxt by those names
    ("server", "build_nxt_chain"),
    ("server", "covering_nxt"),
}


def imported_names(tree: ast.Module) -> dict:
    """name -> line of each name the module binds by an import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= quoted_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= quoted_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= quoted_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def quoted_names(annotation: ast.expr) -> set:
    """The names in an annotation written as a string."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        parsed = ast.parse(annotation.value, mode="eval")
        return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return set()


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used and (path.stem, name) not in KEPT:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
