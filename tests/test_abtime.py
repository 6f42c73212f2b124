"""tools/abtime.py, run on the smoke corpora: one round with the same
tree on both sides, and one against a tree whose reports differ."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cnf_pipeline", "minrank_gf2", "minrank_gfq")


def abtime(old, new, workload):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abtime.py"), str(old), str(new),
         "--workload", workload, "--rounds", "1", "--instances", "2", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_tree_against_itself(workload):
    done = abtime(ROOT, ROOT, workload)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"{workload}: 2 runs per side, identical outputs; median ms"
    commands = {line.split()[0] for line in lines[2:]}
    assert {"reduce", "verify", "minrank", "pipeline"} <= commands


def test_trees_whose_reports_differ_fail(tmp_path):
    shutil.copytree(ROOT / "src" / "rankgap", tmp_path / "src" / "rankgap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "rankgap" / "cli.py"
    text = cli.read_text()
    assert "json.dumps(doc, indent=2, sort_keys=True)" in text
    cli.write_text(text.replace("json.dumps(doc, indent=2, sort_keys=True)",
                                "json.dumps(doc, indent=1, sort_keys=True)"))
    done = abtime(ROOT, tmp_path, "minrank_gf2")
    assert done.returncode == 1
    assert "outputs differ between the trees: decode, minrank, verify" in done.stdout
