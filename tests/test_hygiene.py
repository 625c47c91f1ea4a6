"""Public names and imports of the cpb modules.

Every name a module lists in ``__all__`` must exist, a star import of
every module must work, and no module may import a name it never uses.
Every public name must be read somewhere in the package or be named in
the README, as the documented test oracles are.  The checks use only the
standard library, so they need no linter.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cpb

SRC = Path(cpb.__file__).resolve().parent
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ["cpb"] + [f"cpb.{info.name}" for info in pkgutil.iter_modules([str(SRC)])]


def source_of(name: str) -> Path:
    return SRC / "__init__.py" if name == "cpb" else SRC / f"{name.split('.')[1]}.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that nothing reads or re-exports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = source_of(name)
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_unused_import_check_sees_one():
    tree = ast.parse("import math\nimport sys\nfrom os import path, sep\nprint(sys.argv, sep)\n")
    assert unused_imports(tree) == ["math (line 1)", "path (line 3)"]


def names_read(tree: ast.Module) -> set[str]:
    """The names a module reads: a loaded name or attribute, not an __all__ string."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_public_names_are_reached_or_documented():
    # a public name no module reads is surface only the tests reach: it is
    # either an oracle the README names, or it belongs in the tests
    read = set().union(*(names_read(ast.parse(path.read_text())) for path in SRC.glob("*.py")))
    unreached = [f"{name}.{n}" for name in MODULES
                 for n in getattr(importlib.import_module(name), "__all__", [])
                 if n not in read and not re.search(rf"\b{n}\b", README)]
    assert unreached == []


def test_names_read_skips_definitions_and_strings():
    tree = ast.parse("__all__ = ['f']\ndef f(): pass\nx = g(y.z)\n")
    assert names_read(tree) == {"g", "y", "z"}
