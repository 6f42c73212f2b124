"""tools/abtime.py, run on the smoke corpora: one round with the same
tree on both sides, and one against a tree whose reports differ."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_the_class_lines_combine_as_the_benchmark_does():
    """One line per class, then the medians within each class combined by
    their geometric mean: class X's reduce times 1, 2, 3 ms and class Y's
    8 ms give 4 ms, where the median over all four runs is 2.5 ms."""
    spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
    abtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abtime)

    def outcome(klass, ms, scale):
        return SimpleNamespace(instance=SimpleNamespace(klass=klass),
                               seconds={"reduce": ms * scale / 1e3}, pipeline_s=ms * scale / 1e3)

    plan = [("X", 1), ("Y", 8), ("X", 2), ("X", 3)]
    runs = {"a": [outcome(k, ms, 1) for k, ms in plan],
            "b": [outcome(k, ms, 0.5) for k, ms in plan]}
    runs["b"][1] = outcome("Y", 8, 2)
    lines = abtime.table(runs)
    assert lines[0].split() == ["command", "class", "A", "B", "change", "B", "faster"]
    assert [line.split() for line in lines[1:5]] == [
        ["reduce", "X", "2.000", "1.000", "-50.0%", "3/3"],
        ["reduce", "Y", "8.000", "16.000", "+100.0%", "0/1"],
        ["pipeline", "X", "2.000", "1.000", "-50.0%", "3/3"],
        ["pipeline", "Y", "8.000", "16.000", "+100.0%", "0/1"],
    ]
    assert lines[5] == "per-class medians, geometric mean over classes, as perfbench/run.py combines them"
    assert lines[6].split() == ["reduce", "4.000", "4.000", "+0.0%"]
    assert lines[7].split() == ["pipeline", "4.000", "4.000", "+0.0%"]


def test_the_round_lines_apply_the_benchmark_rule():
    """Rounds of two runs, one per class: class X's reduce times 1, 4, 9
    and 16 ms and class Y's 1 ms combine to rounds of 1, 2, 3 and 4 ms on
    side A (median 2.5, interquartile range 2.5); side B takes half the
    time in three rounds and twice the time in the last.  One round gives
    no lines."""
    spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
    abtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abtime)

    def outcome(klass, ms):
        return SimpleNamespace(instance=SimpleNamespace(klass=klass),
                               seconds={"reduce": ms / 1e3}, pipeline_s=ms / 1e3)

    runs = {"a": [], "b": []}
    for i, x in enumerate((1, 4, 9, 16)):
        scale = 2 if i == 3 else 0.5
        runs["a"] += [outcome("X", x), outcome("Y", 1)]
        runs["b"] += [outcome("X", x * scale), outcome("Y", scale)]
    lines = abtime.rounds_table(runs, 2)
    assert lines[0].split() == ["command", "A", "B", "change", "B", "faster", "A", "IQR"]
    assert [line.split() for line in lines[1:]] == [
        ["reduce", "2.500", "1.250", "-50.0%", "3/4", "2.500"],
        ["pipeline", "2.500", "1.250", "-50.0%", "3/4", "2.500"],
    ]
    assert abtime.rounds_table({"a": runs["a"][:2], "b": runs["b"][:2]}, 2) == []
