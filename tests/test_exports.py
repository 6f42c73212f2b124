"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import rankgap

MODULES = [rankgap] + [
    importlib.import_module(f"rankgap.{info.name}")
    for info in pkgutil.iter_modules(rankgap.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), module.__name__
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names {missing}"
