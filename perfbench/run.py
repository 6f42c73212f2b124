"""rankgap benchmark: seeded CLI pipelines, timed end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload minrank_gf2 --seed 3 --seconds 30 --trace 0

Each run imports rankgap from ./src, sets up (import plus one warm-up
pipeline on the workload's smoke corpus), then runs instance after instance
of the seeded corpus through rankgap.cli.main for --seconds, checking every
command's output.  --trace 0 reports the end-to-end metrics; --trace 1
splits the time between an untraced and a traced pass, then counts field
operations on one pipeline and measures the superposition build's memory,
and reports the per-layer metrics.  The last line of standard output is
the result as JSON; the full record, with provenance, goes to
.perfbench/BENCH_<workload>_s<seed>_t<trace>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from corpus import DEFAULT_SEED, WORKLOADS, Workload
from pipeline import Outcome, Runner, run_instance
from spans import CallCounter, Tracer, layer_metrics, superposition_memory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_PROBES = 9
# instances per workload whose default-seed digests are recorded
RECORDED = {"smoke": 4, "timed": 4}

# iterations of the reference loop: about 10 ms on a 2.1 GHz core
REFERENCE_STEPS = 30_000
# setup_s is reported at this reference-loop time (see measure_setup)
NOMINAL_REFERENCE_S = 0.010


class SetupError(RuntimeError):
    pass


def load_cli():
    """rankgap.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "rankgap" / "__init__.py").is_file():
        raise SetupError(f"no rankgap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(os.environ):
        if name.startswith("RANKGAP_"):
            del os.environ[name]
    import rankgap.cli

    if Path(rankgap.cli.__file__).resolve().parent != (SRC / "rankgap").resolve():
        raise SetupError(f"rankgap was imported from {rankgap.cli.__file__}, not {SRC}")
    return rankgap.cli


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# -- passes --------------------------------------------------------------------


def warm_up(cli, path: Path, work: Workload) -> Outcome:
    """One pipeline on the default-seed smoke instance, each command run
    once, held to its recorded digests."""
    runner = Runner(cli, path, repeats=1)
    out = run_instance(runner, work, work.instance(DEFAULT_SEED, 0, smoke=True), "warmup")
    expected = recorded_digests().get(work.name, {}).get("smoke", [])
    if expected:
        out.compare(expected[0], "the recorded default-seed digest")
    return out


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python loop that does what
    rankgap's inner loops do (integer arithmetic, dict stores, tuples
    appended to a list): how fast this machine runs Python right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table, rows, acc = {}, [], 0
        for i in range(REFERENCE_STEPS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
            rows.append((acc, i))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(runner, work, seed, seconds, smoke, tag, before=None) -> list[Outcome]:
    """Instances 0, 1, 2, ... until --seconds have passed and every class
    has run at least once.  The reference loop runs between instances; each
    instance keeps the mean of the timings on either side of it."""
    classes = len(work.smoke_classes if smoke else work.classes)
    outcomes = []
    reference = reference_s()
    start = time.perf_counter()
    while len(outcomes) < classes or time.perf_counter() - start < seconds:
        inst = work.instance(seed, len(outcomes), smoke)
        if before is not None:
            before(inst.index)
        out = run_instance(runner, work, inst, f"{tag}{inst.index}")
        after = reference_s()
        out.reference_s = (reference + after) / 2
        reference = after
        outcomes.append(out)
    return outcomes


def check_stability(runner, work, outcomes, seed, smoke) -> Outcome:
    """Rerun the first instance with the other worker count and hold every
    output to the first run's bytes; at the default seed, also hold the
    first instances to the recorded digests."""
    first = outcomes[0]
    workers = 2 if work.workers == 1 else 1
    again = run_instance(runner, work, first.instance, "repeat", workers=workers)
    again.compare(first.digests, "the first run of the same instance")
    if seed == DEFAULT_SEED:
        expected = recorded_digests().get(work.name, {}).get("smoke" if smoke else "timed", [])
        for out, digests in zip(outcomes, expected):
            out.compare(digests, "the recorded default-seed digest")
    return again


# -- setup time ----------------------------------------------------------------


def probe_setup(work: Workload) -> dict:
    """Import rankgap and run the warm-up pipeline; reports its own time
    and the reference loop timed on either side of it."""
    work.instance(DEFAULT_SEED, 0, smoke=True)  # corpus generation is not set-up
    before = reference_s()
    start = time.perf_counter()
    cli = load_cli()
    with workdir() as path:
        out = warm_up(cli, path, work)
    setup = time.perf_counter() - start
    return {"setup_s": setup, "reference_s": (before + reference_s()) / 2,
            "attempted": out.attempted, "failed": out.failed, "errors": out.errors}


def measure_setup(work: Workload) -> tuple[list[tuple[float, float]], int, int, list]:
    """Set up in fresh interpreters SETUP_PROBES times; returns (set-up
    seconds, reference seconds) per probe.  Set-up takes about 0.1 s; on a
    shared 2-core VM the reference loop took 7.6-13 ms from one probe to
    the next, and the median of raw set-up seconds spread 15-29% between
    runs.  Divided by the reference loop timed in the same interpreter,
    it spread a few percent."""
    probes, attempted, failed, errors = [], 0, 0, []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", work.name, "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        probes.append((doc["setup_s"], doc["reference_s"]))
        attempted += doc["attempted"]
        failed += doc["failed"]
        errors.extend(m for ms in doc["errors"].values() for m in ms)
    return probes, attempted, failed, errors


# -- summaries -----------------------------------------------------------------


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_class(outcomes, value) -> dict:
    by = defaultdict(list)
    for out in outcomes:
        v = value(out)
        if v is not None:
            by[out.instance.klass].append(v)
    return by


def class_p50(outcomes, value) -> tuple[float | None, int]:
    """Median within each instance class, geometric mean across classes."""
    by = per_class(outcomes, value)
    if not by:
        return None, 0
    return geomean(statistics.median(v) for v in by.values()), sum(map(len, by.values()))


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    for pct in (99, 95, 90, 75, 50):
        beyond = len(values) - math.ceil(len(values) * pct / 100)
        if beyond >= 10:
            return {f"p{pct}": values[math.ceil(len(values) * pct / 100) - 1]}
    return {}


def end_to_end(outcomes: list[Outcome], setup_times: list[tuple[float, float]]) -> dict:
    """Every end-to-end figure of a timed pass.  Each timing comes twice:
    in seconds (*_s_p50) and in multiples of the reference loop timed just
    before the same instance (*_ref_p50), which cancels the drift of this
    machine's speed between runs."""
    metrics = {}

    def timing(name, value):
        v, n = class_p50(outcomes, value)
        if v is not None:
            metrics[name] = {"value": v, "samples": n, **tail(
                x for xs in per_class(outcomes, value).values() for x in xs)}

    for op in ("pipeline", "reduce", "verify", "minrank", "decode"):
        def seconds(o, op=op):
            return o.pipeline_s if op == "pipeline" else o.seconds.get(op)

        timing(f"{op}_s_p50", seconds)
        timing(f"{op}_ref_p50", lambda o, seconds=seconds: None if seconds(o) is None else seconds(o) / o.reference_s)
    by = per_class(outcomes, lambda o: o.pipeline_s)
    metrics["instances_per_s"] = {"value": geomean(len(v) / sum(v) for v in by.values()),
                                  "samples": len(outcomes)}
    metrics["reference_s"] = {"value": statistics.median(o.reference_s for o in outcomes),
                              "samples": len(outcomes)}
    members = sum(o.members for o in outcomes)
    scan_time = sum(o.seconds.get("minrank", 0.0) for o in outcomes)
    if members:
        metrics["minrank_members_per_s"] = {"value": members / scan_time, "samples": len(outcomes)}
    v, n = class_p50(outcomes, lambda o: o.instance_bytes or None)
    metrics["instance_bytes"] = {"value": v, "samples": n}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if setup_times:
        # seconds at NOMINAL_REFERENCE_S per reference loop; raw seconds in setup_raw_s
        metrics["setup_s"] = {"value": NOMINAL_REFERENCE_S * statistics.median(t / r for t, r in setup_times),
                              "samples": len(setup_times)}
        metrics["setup_raw_s"] = {"value": statistics.median(t for t, _ in setup_times),
                                  "samples": len(setup_times)}
    return metrics


def unit_of(name: str) -> str:
    """Units of the figures in a record, by their names."""
    for suffix, unit in (("_s_p50", "s"), ("_ref_p50", "ref"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_bytes", "bytes"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- the run -------------------------------------------------------------------


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed on exit."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as name:
        yield Path(name)


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(work: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the full record."""
    setup_times, attempted, failed, errors = ([], 0, 0, []) if trace else measure_setup(work)
    cli = load_cli()
    outcomes: list[Outcome] = []
    record: dict = {}
    with workdir() as path:
        outcomes.append(warm_up(cli, path, work))
        if not trace:
            runner = Runner(cli, path)
            timed = timed_pass(runner, work, seed, seconds, smoke, "i")
            metrics = end_to_end(timed, setup_times)
            outcomes += [*timed, check_stability(runner, work, timed, seed, smoke)]
        else:
            # commands run once each, so per-pipeline totals count each once
            runner = Runner(cli, path, repeats=1)
            timed, metrics, extra = traced_run(runner, work, seed, seconds, smoke)
            outcomes += extra
            record["overhead_frac"] = metrics["trace.overhead_frac"]["value"]
    attempted += sum(o.attempted for o in outcomes)
    failed += sum(o.failed for o in outcomes)
    errors += [m for o in outcomes for ms in o.errors.values() for m in ms]
    if not trace:
        metrics["failed_frac"] = {"value": failed / attempted}
    record.update({
        "workload": work.name,
        "why": work.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "seed": seed,
            "parameters": work.params(smoke),
            "instances": len(timed),
            "scans": sum(o.scanned for o in timed),
            "refusals": sum(o.refused for o in timed),
            "tracing_overhead_frac": record.get("overhead_frac"),
        },
        "metrics": metrics,
        "instances": [{"index": o.instance.index, "class": o.instance.klass, "seconds": o.seconds}
                      for o in timed],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
    })
    return record


def traced_run(runner, work, seed, seconds, smoke):
    """Untraced pass, traced pass, field-operation count, build memory."""
    plain = timed_pass(runner, work, seed, seconds / 2, smoke, "u")
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_pass(runner, work, seed, seconds / 2, smoke, "t", before=tracer.begin)
    finally:
        tracer.uninstall()
    counter = CallCounter()
    counter.install()
    try:
        counted = run_instance(runner, work, plain[0].instance, "c")
    finally:
        counts = counter.uninstall()
    inst = plain[0].instance
    memory = superposition_memory(inst.text, work.degree) if work.kind == "cnf" else {}
    import rankgap.boolalg

    metrics = layer_metrics(tracer, traced, counts, memory, rankgap.boolalg.basis_make.cache_info().misses)
    matched = min(len(plain), len(traced))
    untraced_p50, _ = class_p50(plain[:matched], lambda o: o.pipeline_s / o.reference_s)
    traced_p50, _ = class_p50(traced[:matched], lambda o: o.pipeline_s / o.reference_s)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    metrics = {name: {"value": value} for name, value in metrics.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans_{work.name}_s{seed}.jsonl", "w", encoding="utf-8") as fh:
        for request, span, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"request": request, "span": span, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")
    return plain, metrics, plain + traced + [counted]


def declared() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


def record_digests() -> dict:
    """Digests of the first default-seed instances of every workload."""
    cli = load_cli()
    doc = {}
    with workdir() as path:
        runner = Runner(cli, path)
        for work in WORKLOADS.values():
            doc[work.name] = {}
            for size, count in RECORDED.items():
                outs = [run_instance(runner, work, work.instance(DEFAULT_SEED, i, size == "smoke"), f"r{i}")
                        for i in range(count)]
                bad = [m for o in outs for ms in o.errors.values() for m in ms]
                if bad:
                    raise SetupError(f"{work.name}: {bad[0]}")
                doc[work.name][size] = [o.digests for o in outs]
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="use the small corpus the tests run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json from this checkout")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            DIGESTS.write_text(json.dumps(record_digests(), indent=1, sort_keys=True) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        work = WORKLOADS[args.workload]
        if args.probe_setup:
            print(json.dumps(probe_setup(work)))
            return 0
        load_cli()
        reported = declared()[args.trace]
        record = run(work, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = {**declared()[0], **declared()[1]}
    for name, m in record["metrics"].items():
        m["unit"] = units.get(name) or unit_of(name)
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{work.name}_s{args.seed}_t{args.trace}{'_smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for message in record["errors"]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
