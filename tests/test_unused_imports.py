"""Every name a module of the package imports is used in that module, and
every function and class it defines is used somewhere in the package.

No linter runs on this code, so this reads each module with the standard
library's ast. A name counts as used when it appears as a name anywhere
in the module (quoted annotations included) or is listed in __all__.

The served program also imports no module it can do without that maps
memory of its own: hashlib maps a second OpenSSL beside the one
cryptography signs with, and uuid imports platform.
"""

import ast
import os
import subprocess
import sys
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


# (module, name) pairs defined on purpose without a use in the package
KEPT_DEFINITIONS = {
    # the whole-frame decoder, which the frame fuzz tests drive; the
    # server reads frames from a stream with read_message
    ("wire", "decode_message"),
}


def defined_names(tree: ast.Module) -> dict:
    """name -> line of each function and class the module defines at top level."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def referenced_names(tree: ast.Module) -> set:
    """used_names, imported_names (the test above holds every import to a
    use or to KEPT), and every attribute name read off an object, as in
    crypto.rsa_check."""
    return used_names(tree) | set(imported_names(tree)) | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_function_and_class_is_used_or_exported():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [
        f"{module}.py:{line} {name}"
        for module, tree in trees.items()
        for name, line in defined_names(tree).items()
        if name not in referenced and (module, name) not in KEPT_DEFINITIONS
    ]
    assert unused == []


def package_imports(tree: ast.Module) -> set:
    """The modules of the package that a module imports, by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names |= {alias.name for alias in node.names}
    return names


def test_codec_sits_below_wire_and_holds_every_dict_codec():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert package_imports(trees["codec"]) <= {"errors", "crypto", "handles", "records"}
    assert "codec" in package_imports(trees["wire"])
    assert "server" not in package_imports(trees["wire"])
    elsewhere = [
        f"{module}.py:{node.lineno} {node.name}"
        for module, tree in trees.items()
        if module != "codec"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "from_dict")
    ]
    assert elsewhere == []


def modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after running statement."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    ))
    code = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_served_program_imports_neither_hashlib_nor_uuid():
    # against a bare interpreter, so a module the environment loads at start does not count
    added = modules_after("import onhs.__main__, onhs.service") - modules_after("pass")
    assert "onhs.service" in added
    assert not added & {"hashlib", "_hashlib", "uuid"}
