"""Spans around the calls into each sqw layer, and the per-layer metrics.

`TABLE` maps `module.name` of every public function the CLI calls to its
layer and to the per-layer time metric its span feeds.  Installing the tracer
replaces each such function, wherever a sqw module holds it (the defining
module, `sqw.cli`, modules that import it by name, the package root), with a
wrapper that records a span: name, start, end, parent span and session id.
Spans stay in memory; the session writes them out at the end.

Self time is span time minus the time of its child spans, where a child's
time includes its wrapper's bookkeeping and counter hook (`wrapper_ns`), so
the tracer's own cost is charged to no layer.  Every `_s` metric is self
time, except `simulation.evolve_s` and `cli.<command>_s`, which are inclusive
as their names say.  A name missing from the package (say, after a
refactor) is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "operators", "simulation", "line_analytic", "coined", "cli")


def _graph_counts(g, tessellations=()):
    return {"graphs.vertices": g.vertex_count, "graphs.edges": len(g.edges),
            "graphs.polygons": sum(len(t.polygons) for t in tessellations)}


def _nbytes(obj, depth=0) -> int:
    """Bytes held in numpy arrays reachable from obj (lists, tuples, dataclasses)."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 3:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x, depth + 1) for x in obj)
    fields = getattr(obj, "__dict__", None)
    if fields:
        return sum(_nbytes(x, depth + 1) for x in fields.values())
    return 0


_OPERATOR_BYTES = {}  # id -> (operator, bytes); holding the operator pins its id


def _step_counts(args, result):
    op, psi = args[0], args[1]
    sites = psi.shape[0]
    if id(op) not in _OPERATOR_BYTES:
        _OPERATOR_BYTES[id(op)] = (op, _nbytes(op))
    # Computed, not measured: the state read and written once per step plus
    # every array the operator holds read once.
    return {"operators.step_calls": 1, "_step_sites": sites,
            "_step_bytes": 32 * sites + _OPERATOR_BYTES[id(op)][1]}


# name -> (layer, time metric or None, counter hook(args, result) or None)
TABLE = {
    "sqw.cli.main": ("cli", "cli.self_s", None),
    "sqw.cli.cmd_simulate": ("cli", "cli.self_s", None),
    "sqw.cli.cmd_analytic": ("cli", "cli.self_s", None),
    "sqw.cli.cmd_sigma_surface": ("cli", "cli.self_s", None),
    "sqw.cli.cmd_embed": ("cli", "cli.self_s", None),
    "sqw.cli.cmd_validate": ("cli", "cli.self_s", None),
    "sqw.graphs.line_tessellations": (
        "graphs", "graphs.build_s", lambda a, r: _graph_counts(r[0].parent, r)),
    "sqw.graphs.from_document": (
        "graphs", "graphs.build_s", lambda a, r: _graph_counts(r[0], r[1])),
    "sqw.graphs.to_document": ("graphs", "graphs.build_s", None),
    "sqw.graphs.validate_tessellation": ("graphs", "graphs.validate_s", None),
    "sqw.graphs.union_covers_edges": ("graphs", "graphs.coverage_s", None),
    "sqw.graphs.clique_expansion": (
        "graphs", "graphs.expand_s", lambda a, r: _graph_counts(r.expanded)),
    "sqw.operators.reflection_from_tessellation": ("operators", "operators.compile_s", None),
    "sqw.operators.compose": ("operators", "operators.compile_s", None),
    "sqw.operators.EvolutionOperator.step_array": (
        "operators", "operators.step_s", _step_counts),
    "sqw.simulation.evolve": (
        "simulation", "simulation.loop_overhead_s",
        lambda a, r: {"_trajectory_bytes": _nbytes(r)}),
    "sqw.simulation.wrap_check": ("simulation", "simulation.wrap_check_s", None),
    "sqw.simulation.distribution": ("simulation", "simulation.summary_s", None),
    "sqw.simulation.moments": ("simulation", "simulation.summary_s", None),
    "sqw.state.superposition_state": ("simulation", None, None),
    "sqw.line_analytic.wavefunction": (
        "line_analytic", "line_analytic.wavefunction_s",
        lambda a, r: {"line_analytic.positions": len(r)}),
    "sqw.line_analytic.sigma2_surface": ("line_analytic", "line_analytic.sigma_surface_s", None),
    "sqw.coined.coined_walk_from_descriptor": (
        "coined", "coined.walk_build_s",
        lambda a, r: {"coined.arcs": r.expansion.arc_count}),
    "sqw.coined.shift_tessellation": ("coined", "coined.walk_build_s", None),
    "sqw.coined.coin_tessellation": ("coined", "coined.walk_build_s", None),
    "sqw.coined.certify_equivalence": ("coined", "coined.certify_s", None),
}

_INCLUSIVE = {
    "sqw.simulation.evolve": "simulation.evolve_s",
    "sqw.cli.cmd_simulate": "cli.simulate_s",
    "sqw.cli.cmd_analytic": "cli.analytic_s",
    "sqw.cli.cmd_sigma_surface": "cli.sigma_surface_s",
    "sqw.cli.cmd_embed": "cli.embed_s",
    "sqw.cli.cmd_validate": "cli.validate_s",
}

MIB = float(1 << 20)

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
METRICS = {
    "graphs.build_s": "s", "graphs.validate_s": "s", "graphs.coverage_s": "s",
    "graphs.expand_s": "s", "graphs.vertices": "count", "graphs.edges": "count",
    "graphs.polygons": "count",
    "operators.compile_s": "s", "operators.step_calls": "count", "operators.step_s": "s",
    "operators.ns_per_site_step": "ns", "operators.bytes_per_site_step": "B_computed",
    "simulation.evolve_s": "s", "simulation.loop_overhead_s": "s",
    "simulation.wrap_check_s": "s", "simulation.summary_s": "s",
    "simulation.trajectory_mb": "MiB_computed",
    "line_analytic.wavefunction_s": "s", "line_analytic.positions": "count",
    "line_analytic.sigma_surface_s": "s",
    "coined.walk_build_s": "s", "coined.certify_s": "s", "coined.arcs": "count",
    "coined.oracle_mb": "MiB_computed",
    "cli.simulate_s": "s", "cli.analytic_s": "s", "cli.sigma_surface_s": "s",
    "cli.embed_s": "s", "cli.validate_s": "s", "cli.self_s": "s",
    "cli.output_bytes": "B",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def _resolve(name):
    """(owner, attribute, function) for a dotted name, or None if absent."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, parts[-1], None)
        return (owner, parts[-1], fn) if callable(fn) else None
    return None


class Tracer:
    """Records spans (id, name, start_ns, end_ns, parent id, session) in memory."""

    def __init__(self, session: str):
        self.session = session
        self.spans = []          # [name, start, end, parent, error, wrapper_ns]
        self.counts = defaultdict(float)
        self.stack = []
        self.absent = []
        self.hook_errors = defaultdict(int)

    def wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            enter = time.perf_counter_ns()
            span = [name, 0, 0, tracer.stack[-1] if tracer.stack else None, False, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                tracer.stack.pop()
                span[5] = span[1] - enter
            if hook is not None:
                try:
                    for key, value in hook(args, result).items():
                        tracer.counts[key] += value
                except Exception:  # a changed return type must not abort the run
                    tracer.hook_errors[name] += 1
            # The wrapper's own bookkeeping and counter hook run inside the
            # caller's span; metrics() takes them out of the caller's self time.
            span[5] += time.perf_counter_ns() - span[2]
            return result

        return traced

    def install(self):
        """Wrap every TABLE entry wherever a sqw module holds it."""
        for name, (_, _, hook) in TABLE.items():
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self.wrap(name, fn, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "sqw" or mod_name.startswith("sqw."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def metrics(self) -> dict:
        """Per-layer metrics of this session (all but trace.overhead_frac)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, wrapper_ns in self.spans:
            if parent is not None:
                child_ns[parent] += end - start + wrapper_ns
        out = dict.fromkeys(METRICS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, error, _) in enumerate(self.spans):
            layer, metric, _ = TABLE[name]
            self_s = (end - start - child_ns[i]) * 1e-9
            layer_self[layer] += self_s
            if metric is not None:
                out[metric] += self_s
            if name in _INCLUSIVE:
                out[_INCLUSIVE[name]] += (end - start) * 1e-9
            if error:
                out[f"{layer}.errors"] += 1
        for key, value in self.counts.items():
            if key in out:
                out[key] += value
        sites = self.counts.get("_step_sites", 0.0)
        if sites:
            out["operators.ns_per_site_step"] = out["operators.step_s"] * 1e9 / sites
            out["operators.bytes_per_site_step"] = self.counts["_step_bytes"] / sites
        out["simulation.trajectory_mb"] = self.counts.get("_trajectory_bytes", 0.0) / MIB
        out["coined.oracle_mb"] = 2 * out["coined.arcs"] ** 2 * 16 / MIB
        out.pop("trace.overhead_frac")
        return {"metrics": out, "layer_self_s": layer_self}

    def dump(self, fh):
        """Append this session's spans, one JSON object a line."""
        import json
        for i, (name, start, end, parent, error, wrapper_ns) in enumerate(self.spans):
            fh.write(json.dumps({"session": self.session, "id": i, "name": name,
                                 "start_ns": start, "end_ns": end, "parent": parent,
                                 "error": error, "wrapper_ns": wrapper_ns}) + "\n")
