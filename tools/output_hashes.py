"""Hash what the benchmark workloads' CLI calls write, to compare two source trees.

Usage:  python3 tools/output_hashes.py [--tree DIR] SEED [SEED ...]

For each seed and each workload of DIR/sqwbench/inputs.py (DIR defaults to
the checkout that holds this script), writes the workload's inputs into a
temporary directory, runs its CLI calls in this process through
`sqw.cli.main` imported from DIR/src, and prints one line per call: seed,
workload, call index, subcommand, exit code, the sha256 of what it prints
(standard output and standard error, in the order written) and the sha256 of
its output file ("-" if it has none or wrote none).  Then, once
and with seed "-", it does the same for `grid-48`: `embed` on the fixed
48x48 grid with the Grover coin, then `validate` and a 64-step graph
`simulate` on the document `embed` wrote, and prints one more line for the
library form of that document: the sha256 of
`json.dumps(to_document(*from_document(...)), indent=2)` read from `embed`'s
file, in the output-file column.  Last, with seed "-", four fixed line cases:
`sparse-line`, a 1500-step `simulate` from the origin of a 2^16-site ring with
phi0 = phi1 = 0, whose front decays through the subnormal range;
`ring-4002`, `simulate` and `analytic` on a 4002-site ring, whose half is odd;
`wide-ring`, `simulate` and `analytic` of 64 steps on a 2^20-site ring from
sources near position 1000, whose light cone is a small part of the ring; and
`antipode-start`, a `simulate` from 3 sites short of the antipode of a
4096-site ring, which fails once its front reaches the antipode.  Then
`big-polygons`, a graph `simulate` from site 1 of a chain of 6-site cliques,
the second tessellation's shifted by 3, so that every polygon takes the rank-1
update and each step cuts those rows to a partial window round site 0.
Then `surface-grid`, a `sigma-surface` on a 90 x 70 grid that is not
symmetric, theta in [pi/7, 3pi/4] and alpha from pi/9: its 6300 rows cross
the TSV writer's run of `operators.ROW_RUN` rows, and its repeated values fall
unevenly across the runs.
Compare two trees by running the script once on each and diffing the lines:

    python3 tools/output_hashes.py --tree OLD 1 2 > old.txt
    python3 tools/output_hashes.py 1 2 > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

GRID = 48
LINE = ("--theta", "pi/4", "--alpha", "pi/3", "--beta", "pi/3")
CLIQUE, CLIQUES = 6, 1000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_calls(tmp: Path) -> list[tuple[list[str], Path | None]]:
    """The (argv, output file) of `embed` on the GRID x GRID grid, then of `validate` and a
    graph `simulate` that read the document it writes."""
    edges = [[r * GRID + c, r * GRID + c + 1] for r in range(GRID) for c in range(GRID - 1)]
    edges += [[r * GRID + c, (r + 1) * GRID + c] for r in range(GRID - 1) for c in range(GRID)]
    graph, embedded, dist = tmp / "grid.json", tmp / "embed.json", tmp / "dist.tsv"
    graph.write_text(json.dumps({"vertices": GRID ** 2, "edges": edges,
                                 "coin": {"type": "grover"}}))
    return [(["embed", "--graph", str(graph), "--out", str(embedded)], embedded),
            (["validate", "--graph", str(embedded)], None),
            (["simulate", "--model", "graph", "--graph", str(embedded), "--theta", "pi/3",
              "--steps", "64", "--init", "basis:0", "--out", str(dist)], dist)]


def line_calls(tmp: Path) -> dict[str, list[tuple[list[str], Path]]]:
    """The (argv, output file) of the fixed line cases, by case name."""
    sparse, ring, analytic = tmp / "sparse.tsv", tmp / "ring.tsv", tmp / "analytic.tsv"
    wide, wide_analytic, wrapped = tmp / "wide.tsv", tmp / "wide-analytic.tsv", tmp / "wrap.tsv"
    init = ["--init", "superpos:-3,2"]
    odd_half = [*LINE, "--phi0", "0.3", "--phi1", "-0.7", "--steps", "990",
                "--ring-size", "4002", *init]
    far = [*LINE, "--phi0", "0.3", "--phi1", "-0.7", "--steps", "64",
           "--ring-size", str(2 ** 20), "--init", "superpos:997,1000,1002"]
    return {"sparse-line": [(["simulate", *LINE, "--phi0", "0", "--phi1", "0", "--steps", "1500",
                              "--ring-size", str(2 ** 16), "--init", "basis:0",
                              "--out", str(sparse)], sparse)],
            "ring-4002": [(["simulate", *odd_half, "--out", str(ring)], ring),
                          (["analytic", *odd_half, "--out", str(analytic)], analytic)],
            "wide-ring": [(["simulate", *far, "--out", str(wide)], wide),
                          (["analytic", *far, "--out", str(wide_analytic)], wide_analytic)],
            "antipode-start": [(["simulate", *LINE, "--steps", "20", "--ring-size", "4096",
                                 "--init", "basis:2045", "--out", str(wrapped)], wrapped)]}


def big_polygon_calls(tmp: Path) -> list[tuple[list[str], Path]]:
    """The (argv, output file) of a 100-step graph `simulate` from site 1 of a chain of
    CLIQUES cliques of CLIQUE sites, tiled once from site 0 and once from site 3 (with
    singletons at both ends)."""
    n, shift = CLIQUE * CLIQUES, CLIQUE // 2
    tessellations = [[list(range(s, s + CLIQUE)) for s in range(first, n - CLIQUE + 1, CLIQUE)]
                     for first in (0, shift)]
    tessellations[1] += [[v] for v in [*range(shift), *range(n - shift, n)]]
    edges = [list(e) for t in tessellations for p in t for e in itertools.combinations(p, 2)]
    graph, dist = tmp / "cliques.json", tmp / "cliques.tsv"
    graph.write_text(json.dumps({"vertices": n, "edges": edges, "tessellations": [
        {"polygons": [{"vertices": p} for p in t]} for t in tessellations]}))
    return [(["simulate", "--model", "graph", "--graph", str(graph), "--theta", "pi/3",
              "--steps", "100", "--init", "basis:1", "--out", str(dist)], dist)]


def surface_calls(tmp: Path) -> list[tuple[list[str], Path]]:
    """The (argv, output file) of `sigma-surface` on a 90 x 70 grid."""
    surface = tmp / "surface.tsv"
    return [(["sigma-surface", "--theta-min", "pi/7", "--theta-max", "3pi/4", "--theta-count",
              "90", "--alpha-min", "pi/9", "--alpha-count", "70", "--out", str(surface)],
             surface)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree holding src/sqw and sqwbench/inputs.py")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "sqwbench")]
    from sqw import cli, from_document, to_document
    import inputs

    lines = []

    def run(seed, workload, calls):
        for i, (call, out_path) in enumerate(calls):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(list(call))
            written = sha256(Path(out_path).read_bytes()) \
                if out_path and Path(out_path).exists() else "-"
            lines.append(f"{seed}\t{workload}\t{i}\t{call[0]}\t{code}\t"
                         f"{sha256(out.getvalue().encode())}\t{written}")

    for seed in args.seeds:
        for workload in inputs.WHY:
            with tempfile.TemporaryDirectory() as tmp:
                generated = inputs.generate(workload, seed, Path(tmp))
                run(seed, workload, [(c.argv, c.out) for c in generated.invocations])
    with tempfile.TemporaryDirectory() as tmp:
        calls = grid_calls(Path(tmp))
        run("-", f"grid-{GRID}", calls)
        with open(calls[0][1], encoding="utf-8") as fh:
            document = to_document(*from_document(json.load(fh)))
        lines.append(f"-\tgrid-{GRID}\t{len(calls)}\tto_document\t-\t-\t"
                     f"{sha256(json.dumps(document, indent=2).encode())}")
    with tempfile.TemporaryDirectory() as tmp:
        for case, calls in line_calls(Path(tmp)).items():
            run("-", case, calls)
        run("-", "big-polygons", big_polygon_calls(Path(tmp)))
        run("-", "surface-grid", surface_calls(Path(tmp)))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
