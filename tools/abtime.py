"""Time two rankgap trees against each other, interleaved in one process.

    python3 tools/abtime.py OLD NEW --workload cnf_pipeline --rounds 20

OLD and NEW are source checkouts, each holding src/rankgap.  Each tree's
package is copied into a temporary directory as rankgap_a and rankgap_b
(every import inside the package is relative) and both are imported here.
Every round runs each instance's pipeline once per side through the
benchmark's own perfbench/pipeline.run_instance, the two sides in a
shuffled order, so the machine's drift falls on both alike; separate
benchmark runs, minutes apart, cannot resolve a few percent on the small
workloads.  Standard library only.

Exits 1, after naming them, when the two sides' output digests differ or
a pipeline fails its own checks.  Otherwise prints, per command and for
the whole pipeline, one line per instance class (instance i is of class i
mod the number of classes): each side's median time over that class's
(round, instance) runs, the change in percent, and in how many of those
pairs NEW was faster.  A median over every class at once would read the
share of runs each class has, not a change.  Then one line per command
combines the class medians as the benchmark does: their geometric mean.
"""

from __future__ import annotations

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import DEFAULT_SEED, WORKLOADS  # noqa: E402
from pipeline import Runner, run_instance  # noqa: E402
from run import class_p50, per_class  # noqa: E402

SIDES = ("a", "b")


def load_side(tree: Path, side: str, tmp: Path):
    """rankgap.cli of tree, imported as rankgap_<side>.cli."""
    package = tree / "src" / "rankgap"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no rankgap package under {tree / 'src'}")
    shutil.copytree(package, tmp / f"rankgap_{side}",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"rankgap_{side}.cli")


def failures(outcomes: dict) -> list[str]:
    """What one instance's two runs got wrong, or the digests that differ."""
    found = [f"{side}: {m}" for side, out in outcomes.items()
             for ms in out.errors.values() for m in ms]
    if outcomes["a"].digests != outcomes["b"].digests:
        ops = sorted(op for op in outcomes["a"].digests.keys() | outcomes["b"].digests.keys()
                     if outcomes["a"].digests.get(op) != outcomes["b"].digests.get(op))
        found.append(f"outputs differ between the trees: {', '.join(ops)}")
    return found


def timing(op: str):
    """An outcome's seconds in op, None where op did not run."""
    if op == "pipeline":
        return lambda out: out.pipeline_s
    return lambda out: out.seconds.get(op)


def table(runs: dict) -> list[str]:
    """Per command, and for the whole pipeline, per instance class: each
    side's median ms, the change and the pairs B won; then the benchmark's
    combination of the classes.  runs[side] holds that side's outcomes,
    the same instances in the same order on both sides."""
    lines = [f"{'command':<10}{'class':<22}{'A':>10}{'B':>10}{'change':>9}  B faster"]
    ops = [*dict.fromkeys(op for out in runs["a"] for op in out.seconds), "pipeline"]
    for op in ops:
        # equal digests mean the same commands ran on both sides, so each
        # class's timings pair up in order
        by_a, by_b = (per_class(runs[side], timing(op)) for side in SIDES)
        for klass, xs in by_a.items():
            ys = by_b[klass]
            ma, mb = statistics.median(xs), statistics.median(ys)
            wins = sum(y < x for x, y in zip(xs, ys))
            lines.append(f"{op:<10}{klass:<22}{ma * 1e3:>10.3f}{mb * 1e3:>10.3f}"
                         f"{(mb / ma - 1) * 100:>+8.1f}%  {wins}/{len(xs)}")
    lines.append("per-class medians, geometric mean over classes, as perfbench/run.py combines them")
    for op in ops:
        ma, mb = (class_p50(runs[side], timing(op))[0] for side in SIDES)
        lines.append(f"{op:<10}{ma * 1e3:>10.3f}{mb * 1e3:>10.3f}{(mb / ma - 1) * 100:>+8.1f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source checkout timed as side A")
    parser.add_argument("new", type=Path, help="source checkout timed as side B")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--instances", type=int, default=12, help="instances per round")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="corpus seed")
    parser.add_argument("--smoke", action="store_true", help="use the workload's smoke corpus")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.instances < 1:
        parser.error("--rounds and --instances must be positive")
    work = WORKLOADS[args.workload]
    instances = [work.instance(args.seed, i, args.smoke) for i in range(args.instances)]
    order = random.Random(args.seed)
    runs: dict = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="abtime") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        runners = {}
        for side, tree in zip(SIDES, (args.old, args.new)):
            (tmp / f"work_{side}").mkdir()
            runners[side] = Runner(load_side(tree, side, tmp), tmp / f"work_{side}")
        # one untimed pipeline per side fills the caches a long run keeps warm
        for side in SIDES:
            run_instance(runners[side], work, instances[0], "warmup")
        for _ in range(args.rounds):
            for inst in instances:
                sides = list(SIDES)
                order.shuffle(sides)
                outcomes = {side: run_instance(runners[side], work, inst, f"i{inst.index}")
                            for side in sides}
                found = failures(outcomes)
                if found:
                    print(f"instance {inst.index}:", *found, sep="\n  ")
                    return 1
                for side, out in outcomes.items():
                    runs[side].append(out)
    print(f"{args.workload}: {len(runs['a'])} runs per side, identical outputs; median ms")
    print(*table(runs), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
