"""Dead-code guard over the package source, with the stdlib `ast` only.

Fails when a module-level import of a package module (other than
`__init__.py`, which re-exports) is never referenced in that module, or
when a module-level `_private` function or class is referenced nowhere in
the package besides its own definition.  Also keeps the checkers on the
one sparse vector type: the modules that compute with vectors never name
`Poly`, and the dense-vector helpers stay gone; keeps the explicit chiral
layers read only where a family is built, copied or written; and keeps
`dataclasses` (which imports `inspect`) off the import path of the CLI.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chiralva"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _loaded_names(tree) -> Counter:
    """Every identifier the module reads: bare names and attribute names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        loaded = _loaded_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {bound}" for bound in _bound_names(node) if not loaded[bound]]
    assert not unused, unused


def test_every_private_definition_is_referenced():
    loaded = Counter()
    imported = Counter()
    for tree in MODULES.values():
        loaded += _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    dead = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                private = node.name.startswith("_") and not node.name.startswith("__")
                if private and not loaded[node.name] and not imported[node.name]:
                    dead.append(f"{name}: {node.name}")
    assert not dead, dead


VECTOR_MODULES = ("vertex.py", "chiral.py", "equivalence.py", "fixtures.py", "cli.py")


def test_checkers_never_name_the_polynomial_type():
    named = []
    for name in VECTOR_MODULES:
        for node in ast.walk(MODULES[name]):
            ident = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                     else None)
            imported = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            named += [f"{name}: {x}" for x in (ident, *imported) if x in ("Poly", "PZERO", "PONE")]
    assert not named, named


def test_dense_vector_helpers_are_gone():
    defined = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.append((name, node.id))
    gone = [f"{name}: {x}" for name, x in defined if x in ("vzero", "vconst", "_scalars")]
    assert not gone, gone


def _attribute_readers(attr: str) -> set:
    """The scopes, as module.Class.function, that load the attribute `attr`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name, tree in MODULES.items():
        visit(tree, name[:-3])
    return found


def test_explicit_layers_are_read_only_by_the_gate():
    # Past the O-linearity gate every layer is its closed form, so the
    # explicit layers are read where the family is built and compared with
    # it, copied by the mutation helper and written to a file: nowhere else.
    readers = _attribute_readers("overrides")
    allowed = {"chiral.ChiralData.__init__", "chiral.bump_b_entry", "serialize.chiral_to_obj"}
    assert readers and readers <= allowed, readers - allowed


def test_no_module_imports_dataclasses():
    importing = [f"{name}: line {node.lineno}" for name, tree in MODULES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 or isinstance(node, ast.Import) and "dataclasses" in (a.name for a in node.names)]
    assert not importing, importing


def test_a_fresh_cli_import_leaves_dataclasses_unloaded():
    # `dataclasses` and the `inspect` it imports were about half of the
    # start-up time that is not the interpreter's own
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    code = "import sys, chiralva.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
