"""Spans and counters around rankgap's layers, installed from outside.

Tracer.install() swaps selected public functions and methods of the
rankgap modules for timing wrappers, in every module that binds them, and
uninstall() puts the originals back; no source file changes.  A "span"
target records one span per call (name, start, end, parent span, request
id).  A "leaf" target is too hot for that: it gets a call count and
aggregate time only.  Spans stay in memory until the run writes them out.

Each wrapper adds its duration to the enclosing frame on the same thread,
so a function's self time is its duration minus the time its wrapped
children took.  Calls made on the scan's worker threads have no parent
there: their time is not subtracted from the span that waits for them.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = (
    "gfarith", "boolalg", "frontends", "gflinalg", "subspace",
    "moment", "superposition", "oracles", "decoder", "cli",
)

# (layer, attribute path in rankgap.<layer>, kind)
TARGETS = (
    ("cli", "main", "span"),
    ("frontends", "parse_dimacs", "span"),
    ("frontends", "parse_quadeq", "span"),
    ("frontends", "clause_polynomial", "span"),
    ("frontends", "booleanity_polynomial", "span"),
    ("gfarith", "parse_field_descriptor", "span"),
    ("gfarith", "make_field", "span"),
    ("gfarith", "format_field", "leaf"),
    ("boolalg", "basis_make", "leaf"),
    ("boolalg", "SquarefreePoly.shift", "leaf"),
    ("superposition", "choose_degree", "span"),
    ("superposition", "build_constant_free_system", "span"),
    ("superposition", "build_monomial_quad_system", "span"),
    ("superposition", "build_matrix_subspace", "span"),
    ("moment", "build_moment_subspace", "span"),
    ("subspace", "SubspaceSpec.to_text", "span"),
    ("subspace", "SubspaceSpec.from_text", "span"),
    ("subspace", "SubspaceSpec.dense_rows", "span"),
    ("subspace", "SubspaceSpec.kernel_basis", "span"),
    ("subspace", "SubspaceSpec.expand", "span"),
    ("subspace", "SubspaceSpec.membership_violation", "span"),
    ("subspace", "PseudoMomentVector.expand", "span"),
    ("subspace", "honest_moment_vector", "span"),
    ("gflinalg", "FFMatrix.__init__", "leaf"),
    ("gflinalg", "FFMatrix.rank", "leaf"),
    ("gflinalg", "packed_rank", "leaf"),
    ("gflinalg", "FFMatrix.kernel_basis", "span"),
    ("gflinalg", "FFMatrix.mat_vec", "span"),
    ("gflinalg", "FFMatrix.rref", "span"),
    ("gflinalg", "FFMatrix.solve_columns", "span"),
    ("oracles", "check_membership", "span"),
    ("oracles", "subspace_digest", "span"),
    ("oracles", "minrank_bruteforce", "span"),
    ("decoder", "decode_assignment", "span"),
    ("decoder", "level_ranks", "span"),
    ("decoder", "find_flat_level", "span"),
    ("decoder", "multiplication_operators", "span"),
    ("decoder", "common_eigenvector", "span"),
)

# field operations: counted in a pass of their own, since timing them would
# distort everything around them
COUNTED = ("FieldSpec.mul", "FieldSpec.add", "FieldSpec.validate")

_RANK_LEAVES = frozenset({"gflinalg.packed_rank", "gflinalg.FFMatrix.rank"})


def _dense_sizes(args, result):
    space = args[0]
    return {"dense_nonzeros": sum(len(r) for r in space.rows),
            "dense_entries": len(space.rows) * space.coord_count}


# sizes read off a call's arguments or result, summed per request
PROBES = {
    "superposition.build_constant_free_system": lambda a, r: {"constant_free_equations": len(r.equations)},
    "superposition.build_monomial_quad_system": lambda a, r: {"multiplicativity": len(r.multiplicativity)},
    "superposition.build_matrix_subspace": lambda a, r: {"superposition_rows": len(r.rows)},
    "moment.build_moment_subspace": lambda a, r: {"moment_rows": len(r.rows)},
    "subspace.SubspaceSpec.dense_rows": _dense_sizes,
    "oracles.minrank_bruteforce": lambda a, r: {"scan_members": r.enumerated, "kernel_dimension": r.kernel_dimension},
}


class RequestStats:
    """Everything the tracer learned during one instance's pipeline."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.sizes = defaultdict(int)
        self.rank_evals = 0


def _resolve(layer: str, path: str):
    """(owner, attribute, raw object) for rankgap.<layer>.<path>."""
    module = importlib.import_module(f"rankgap.{layer}")
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr, holder.__dict__[attr]


def _rebind(holder, attr, raw, replacement, patches):
    """Replace raw under every name that binds it: the class attribute for
    a method, every rankgap module's global for a function."""
    if isinstance(holder, type):
        patches.append((holder, attr, raw))
        setattr(holder, attr, replacement)
        return
    for module in _rankgap_modules():
        for name, value in list(vars(module).items()):
            if value is raw:
                patches.append((module, name, raw))
                setattr(module, name, replacement)


def _restore(patches: list) -> None:
    for holder, name, raw in reversed(patches):
        setattr(holder, name, raw)
    patches.clear()


def _rankgap_modules():
    return [m for name, m in list(sys.modules.items()) if name == "rankgap" or name.startswith("rankgap.")]


class Tracer:
    """Span recorder; install() before the traced pass, uninstall() after."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.requests: dict[int, RequestStats] = {}
        self.request = None
        self.command = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def begin(self, request: int) -> None:
        self.request = request
        self.requests[request] = RequestStats()

    def install(self) -> None:
        for layer, path, kind in TARGETS:
            holder, attr, raw = _resolve(layer, path)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(fn, f"{layer}.{path}", layer, kind == "leaf")
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            _rebind(holder, attr, raw, wrapped, self._patches)

    def uninstall(self) -> None:
        _restore(self._patches)

    def _wrap(self, fn, name: str, layer: str, leaf: bool):
        clock = time.perf_counter
        local = self._local
        probe = PROBES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [0.0, None if leaf else next(tracer._ids), name]
            if name == "cli.main":
                tracer.command = (args[0] if args else kwargs.get("argv") or [None])[0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                tracer._close(name, layer, frame, parent, start, end, args, result, probe)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, name, layer, frame, parent, start, end, args, result, probe):
        duration = end - start
        with self._lock:
            stats = self.requests.get(self.request)
            if stats is None:
                return
            stats.total[name] += duration
            stats.self_time[name] += duration - frame[0]
            stats.calls[name] += 1
            stats.layer_self[layer] += duration - frame[0]
            if name in _RANK_LEAVES and self.command == "minrank" and (
                parent is None or parent[2] not in _RANK_LEAVES
            ):
                stats.rank_evals += 1
            if frame[1] is not None:
                self.spans.append((self.request, frame[1], parent[1] if parent else None, name, start, end))
            if probe is not None and result is not None:
                for key, value in probe(args, result).items():
                    stats.sizes[key] += value


class CallCounter:
    """Counts calls of the field operations; no timing."""

    def __init__(self):
        self.counters = {}
        self._patches: list[tuple] = []

    def install(self) -> None:
        for path in COUNTED:
            holder, attr, raw = _resolve("gfarith", path)
            counter = self.counters[path] = itertools.count()

            def counted(*args, _fn=raw, _next=counter.__next__):
                _next()
                return _fn(*args)

            _rebind(holder, attr, raw, counted, self._patches)

    def uninstall(self) -> dict:
        _restore(self._patches)
        return {path: next(counter) for path, counter in self.counters.items()}


def superposition_memory(cnf_text: str, d: int) -> dict:
    """Peak traced memory (MB) each superposition build stage adds on top
    of what the earlier stages left allocated."""
    from rankgap.frontends import parse_dimacs
    from rankgap.superposition import (
        build_constant_free_system,
        build_matrix_subspace,
        build_monomial_quad_system,
    )

    cnf = parse_dimacs(cnf_text)
    peaks: dict = {}
    tracemalloc.start()
    try:
        system = _stage(peaks, "constant_free", build_constant_free_system, cnf, d)
        quad = _stage(peaks, "quad_system", build_monomial_quad_system, system)
        _stage(peaks, "matrix_subspace", build_matrix_subspace, quad)
    finally:
        tracemalloc.stop()
    return peaks


def _stage(peaks: dict, name: str, build, *args):
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    value = build(*args)
    peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    return value


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, outcomes, counts: dict, memory: dict, basis_misses: int) -> dict:
    """Per-layer figures for the traced pass: each is the median over its
    pipelines of that pipeline's total, so passes of different lengths
    compare."""
    per = [(tracer.requests[o.instance.index], o) for o in outcomes if o.instance.index in tracer.requests]

    def total(*names):
        return _median(sum(s.total[n] for n in names) for s, _ in per)

    def calls(name):
        return _median(s.calls[name] for s, _ in per)

    def size(key, per_call=None):
        if per_call is None:
            return _median(s.sizes[key] for s, _ in per)
        return _median(s.sizes[key] / s.calls[per_call] for s, _ in per if s.calls[per_call])

    def ratio(num, den):
        return _median(num(s) / den(s) for s, _ in per if den(s))

    m = {
        "frontends.parse_s": total("frontends.parse_dimacs", "frontends.parse_quadeq"),
        "boolalg.basis_make_misses": basis_misses,
        "boolalg.basis_make_calls": calls("boolalg.basis_make"),
        "boolalg.shift_calls": calls("boolalg.SquarefreePoly.shift"),
        "superposition.constant_free_s": total("superposition.build_constant_free_system"),
        "superposition.constant_free_equations": size("constant_free_equations"),
        "superposition.quad_system_s": total("superposition.build_monomial_quad_system"),
        "superposition.multiplicativity": size("multiplicativity"),
        "superposition.matrix_subspace_s": total("superposition.build_matrix_subspace"),
        "superposition.rows": size("superposition_rows"),
        "superposition.multiplicativity_per_row": ratio(
            lambda s: s.sizes["multiplicativity"], lambda s: s.sizes["superposition_rows"]),
        "superposition.quad_system_peak_mb": memory.get("quad_system", 0.0),
        "superposition.matrix_subspace_peak_mb": memory.get("matrix_subspace", 0.0),
        "moment.build_s": total("moment.build_moment_subspace"),
        "moment.rows": size("moment_rows", per_call="moment.build_moment_subspace"),
        "subspace.to_text_s": total("subspace.SubspaceSpec.to_text"),
        "subspace.from_text_s": total("subspace.SubspaceSpec.from_text"),
        "subspace.dense_rows_s": total("subspace.SubspaceSpec.dense_rows"),
        "subspace.dense_rows_calls": calls("subspace.SubspaceSpec.dense_rows"),
        "subspace.dense_density": ratio(
            lambda s: s.sizes["dense_nonzeros"], lambda s: s.sizes["dense_entries"]),
        "subspace.kernel_basis_s": total("subspace.SubspaceSpec.kernel_basis"),
        "subspace.kernel_dimension": size("kernel_dimension", per_call="oracles.minrank_bruteforce"),
        "subspace.expand_s": total("subspace.SubspaceSpec.expand", "subspace.PseudoMomentVector.expand"),
        "subspace.membership_violation_s": total("subspace.SubspaceSpec.membership_violation"),
        "gflinalg.packed_rank_calls": calls("gflinalg.packed_rank"),
        "gflinalg.packed_rank_s": total("gflinalg.packed_rank"),
        "gflinalg.ffmatrix_rank_calls": calls("gflinalg.FFMatrix.rank"),
        "gflinalg.ffmatrix_rank_s": total("gflinalg.FFMatrix.rank"),
        "gflinalg.ffmatrix_new_calls": calls("gflinalg.FFMatrix.__init__"),
        "gfarith.mul_calls": counts.get("FieldSpec.mul", 0),
        "gfarith.add_calls": counts.get("FieldSpec.add", 0),
        "gfarith.validate_calls": counts.get("FieldSpec.validate", 0),
        "oracles.check_membership_s": total("oracles.check_membership"),
        "oracles.subspace_digest_s": total("oracles.subspace_digest"),
        "oracles.scan_s": _median(s.self_time["oracles.minrank_bruteforce"] for s, _ in per),
        "oracles.scan_members": size("scan_members"),
        "oracles.scan_members_per_s": ratio(
            lambda s: s.sizes["scan_members"], lambda s: s.total["oracles.minrank_bruteforce"]),
        "oracles.rank_calls_per_member": ratio(lambda s: s.rank_evals, lambda s: s.sizes["scan_members"]),
        "decoder.decode_s": total("decoder.decode_assignment"),
        "decoder.level_ranks_s": total("decoder.level_ranks"),
        "decoder.operators_s": total("decoder.multiplication_operators"),
        "decoder.eigenvector_s": total("decoder.common_eigenvector"),
        "cli.report_bytes": _median(o.report_bytes for _, o in per),
        "trace.covered_frac": _median(
            (s.total["cli.main"] - s.self_time["cli.main"]) / o.pipeline_s for s, o in per),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _median(s.layer_self[layer] for s, _ in per)
    return m
