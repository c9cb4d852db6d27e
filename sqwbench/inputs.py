"""Seeded inputs for the four benchmark workloads.

The seed draws only what leaves the amount of work unchanged: the line
phases phi0 and phi1, a 2-4-site initial state near the origin, and a vertex
relabelling of each grid.  Sizes, step counts and theta are fixed, because
the quadrature node count and every layer's work depend on them.  The grid
and clique-expanded documents are built here, without calling sqw, so the
set-up time does not move with library changes.

Run this file directly to check that the work counts are identical across
seeds:  python3 sqwbench/inputs.py
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "line-long": "simulate, 2000 steps on an 8012-site ring: small-n step kernel, "
                 "per-step state overhead and trajectory dominate; construction <6%",
    "line-wide": "simulate, 32 steps on a 262144-site ring: tessellation build and "
                 "reflection compile dominate; 4 MiB vectors exceed L2",
    "line-analytic": "analytic at t=1000 plus a 101x101 sigma-surface: the only "
                     "workload whose time is mostly line_analytic quadrature",
    "grid-coined": "embed on a 16x16 grid, then validate and 1000-step graph simulate "
                   "on the clique-expanded 32x32 grid: coined oracle, coverage, "
                   "mixed polygon sizes",
}

LINE_LONG_STEPS = 2000
LINE_WIDE_STEPS = 32
LINE_WIDE_RING = 262144
ANALYTIC_STEPS = 1000
SURFACE_COUNT = 101
EMBED_GRID = 16
EMBED_STEPS = 16
EXPANDED_GRID = 32
GRAPH_STEPS = 1000


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and the name of the check its output must pass."""

    check: str
    argv: tuple[str, ...]
    out: str | None = None


@dataclass(frozen=True)
class Inputs:
    workload: str
    invocations: tuple[Invocation, ...]
    work: dict          # sizes that must not depend on the seed
    params: dict        # what the output checks need to rebuild the expectation


def _initial_state(rng, positions):
    """2-4 distinct sites drawn from `positions` with random unit-norm amplitudes."""
    count = int(rng.integers(2, 5))
    sites = rng.choice(np.asarray(positions), size=count, replace=False)
    amps = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    amps /= np.linalg.norm(amps)
    return [[int(s), float(a.real), float(a.imag)] for s, a in zip(sites, amps)]


def _line_config(rng, theta, steps, ring_size=None):
    cfg = {
        "model": "line", "theta": theta, "alpha": "pi/3", "beta": "pi/3",
        "phi0": float(rng.uniform(0.0, 2.0 * math.pi)),
        "phi1": float(rng.uniform(0.0, 2.0 * math.pi)),
        "steps": steps,
        "init": _initial_state(rng, range(-3, 4)),
    }
    if ring_size is not None:
        cfg["ring_size"] = ring_size
    return cfg


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def grid_edges(m: int, relabel) -> list[tuple[int, int]]:
    """Canonical sorted edge list of the m x m grid under a vertex relabelling."""
    edges = set()
    for r in range(m):
        for c in range(m):
            v = relabel[r * m + c]
            if c + 1 < m:
                w = relabel[r * m + c + 1]
                edges.add((min(v, w), max(v, w)))
            if r + 1 < m:
                w = relabel[(r + 1) * m + c]
                edges.add((min(v, w), max(v, w)))
    return sorted(edges)


def clique_expanded_document(vertex_count: int, edges) -> tuple[dict, list]:
    """The clique expansion with its shift and coin tessellations, as a document.

    Arcs are ordered by vertex, then by edge label, as sqw orders them; returns
    the document and the arc lists of each original vertex.
    """
    incident = [[] for _ in range(vertex_count)]
    for j, (u, w) in enumerate(edges):
        incident[u].append(j)
        incident[w].append(j)
    index = {}
    arcs_of = []
    for v in range(vertex_count):
        arcs_of.append([])
        for j in incident[v]:
            index[(v, j)] = len(index)
            arcs_of[v].append(index[(v, j)])
    new_edges = []
    for arcs in arcs_of:
        new_edges.extend([a, b] for i, a in enumerate(arcs) for b in arcs[i + 1:])
    shift = []
    for j, (u, w) in enumerate(edges):
        pair = [index[(u, j)], index[(w, j)]]
        new_edges.append(sorted(pair))
        shift.append({"vertices": pair})
    doc = {
        "vertices": len(index),
        "edges": new_edges,
        "tessellations": [
            {"polygons": shift},
            {"polygons": [{"vertices": arcs} for arcs in arcs_of]},
        ],
    }
    return doc, arcs_of


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files into `workdir` and list its CLI calls."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, list(WHY).index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)

    def out(name):
        return str(workdir / name)

    if workload in ("line-long", "line-wide"):
        if workload == "line-long":
            cfg = _line_config(rng, "pi/4", LINE_LONG_STEPS)
            sites = 4 * (LINE_LONG_STEPS + 1) + 8
        else:
            cfg = _line_config(rng, "pi/4", LINE_WIDE_STEPS, LINE_WIDE_RING)
            sites = LINE_WIDE_RING
        path = _write_json(workdir / "line.json", cfg)
        calls = (Invocation("line_simulate",
                            ("simulate", "--config", path, "--out", out("dist.tsv")),
                            out("dist.tsv")),)
        work = {"sites": sites, "steps": cfg["steps"]}
        params = dict(cfg, ring_size=sites, ring_mode=workload == "line-long")
        return Inputs(workload, calls, work, params)

    if workload == "line-analytic":
        cfg = _line_config(rng, "pi/3", ANALYTIC_STEPS)
        path = _write_json(workdir / "analytic.json", cfg)
        calls = (
            Invocation("analytic",
                       ("analytic", "--config", path, "--out", out("analytic.tsv")),
                       out("analytic.tsv")),
            Invocation("sigma_surface",
                       ("sigma-surface", "--out", out("surface.tsv")),
                       out("surface.tsv")),
        )
        work = {"positions": 4 * (ANALYTIC_STEPS + 1) + 8, "steps": ANALYTIC_STEPS,
                "surface_cells": SURFACE_COUNT ** 2}
        params = {"spots": [int(i) for i in rng.choice(SURFACE_COUNT ** 2, 16,
                                                         replace=False)]}
        return Inputs(workload, calls, work, params)

    # grid-coined
    small = grid_edges(EMBED_GRID, rng.permutation(EMBED_GRID ** 2).tolist())
    embed_doc = {"vertices": EMBED_GRID ** 2, "edges": [list(e) for e in small],
                 "coin": {"type": "grover"}}
    relabel = rng.permutation(EXPANDED_GRID ** 2).tolist()
    big = grid_edges(EXPANDED_GRID, relabel)
    expanded, arcs_of = clique_expanded_document(EXPANDED_GRID ** 2, big)
    centre = relabel[(EXPANDED_GRID // 2) * EXPANDED_GRID + EXPANDED_GRID // 2]
    sim_cfg = {"model": "graph", "theta": "pi/3", "steps": GRAPH_STEPS,
               "init": _initial_state(rng, arcs_of[centre])}
    embed_path = _write_json(workdir / "grid.json", embed_doc)
    expanded_path = _write_json(workdir / "expanded.json", expanded)
    sim_path = _write_json(workdir / "graph_sim.json", sim_cfg)
    calls = (
        Invocation("embed", ("embed", "--graph", embed_path, "--steps", str(EMBED_STEPS),
                             "--out", out("embed.json")), out("embed.json")),
        Invocation("validate", ("validate", "--graph", expanded_path)),
        Invocation("graph_simulate", ("simulate", "--config", sim_path,
                                      "--graph", expanded_path,
                                      "--out", out("graph_dist.tsv")),
                   out("graph_dist.tsv")),
    )
    work = {"arcs": 2 * len(small), "expanded_vertices": expanded["vertices"],
            "expanded_edges": len(expanded["edges"]), "steps": GRAPH_STEPS,
            "embed_steps": EMBED_STEPS}
    return Inputs(workload, calls, work, {"embed_steps": EMBED_STEPS})


def main(argv) -> int:
    """Check that every workload's work counts are the same for seeds 0..19."""
    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for workload in WHY:
            counts = {seed: generate(workload, seed, Path(tmp)).work for seed in range(20)}
            same = all(c == counts[0] for c in counts.values())
            failures += not same
            print(f"{workload}\t{'same' if same else 'DIFFERENT'}\t{counts[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
