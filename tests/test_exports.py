"""Every exported name resolves and every imported name is read, so a
deletion can leave neither a stale export nor a stale import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rankgap

MODULES = [rankgap] + [
    importlib.import_module(f"rankgap.{info.name}")
    for info in pkgutil.iter_modules(rankgap.__path__)
    if info.name != "__main__"
]

SOURCES = sorted(Path(rankgap.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), module.__name__
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names {missing}"


def imported_names(tree):
    """The names the module's imports bind, from __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    """An attribute chain such as rankgap.oracles.x starts with a read of
    its first name, so reads are the Name nodes of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted(set(imported_names(tree)) - read - exported_names(tree))
    assert unread == [], f"{path.name} imports {unread} and never reads them"


# the private helpers one module of the package may import from another
SHARED_PRIVATE = {"_pack_row", "_unpack_row", "_dense_rows"}


@pytest.mark.parametrize(
    "path", sorted(Path(rankgap.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_private_names_stay_in_their_module(path):
    """A _-prefixed name imported across modules is an engine detail leaking
    out, unless it is one of SHARED_PRIVATE."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    leaked = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE
    )
    assert leaked == [], f"{path.name} imports the private names {leaked}"
