"""What importing rankgap costs: no code-generating standard-library
modules are loaded, and no source text is compiled at run time."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "rankgap"

# modules whose import took a third of rankgap's own import time, and
# pathlib, which brings urllib.parse, ipaddress and fnmatch with it
HEAVY = ("dataclasses", "inspect", "pathlib", "typing")


def test_importing_the_cli_loads_no_heavy_module():
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rankgap.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_source_is_compiled_at_run_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval")
    ]
    assert calls == [], f"{path.name} calls exec or eval on lines {calls}"
