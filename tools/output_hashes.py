"""Hash what the benchmark workloads' CLI calls write, to compare two source trees.

Usage:  python3 tools/output_hashes.py [--tree DIR] SEED [SEED ...]

For each seed and each workload of DIR/sqwbench/inputs.py (DIR defaults to
the checkout that holds this script), writes the workload's inputs into a
temporary directory, runs its CLI calls in this process through
`sqw.cli.main` imported from DIR/src, and prints one line per call: seed,
workload, call index, subcommand, exit code, the sha256 of its standard
output and the sha256 of its output file ("-" if it has none).  Then, once
and with seed "-", it does the same for `grid-48`: `embed` on the fixed
48x48 grid with the Grover coin, then `validate` and a 64-step graph
`simulate` on the document `embed` wrote, and prints one more line for the
library form of that document: the sha256 of
`json.dumps(to_document(*from_document(...)), indent=2)` read from `embed`'s
file, in the output-file column.  Compare two trees by running the script once
on each and diffing the lines:

    python3 tools/output_hashes.py --tree OLD 1 2 > old.txt
    python3 tools/output_hashes.py 1 2 > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GRID = 48


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
            with contextlib.redirect_stdout(out):
                code = cli.main(list(call))
            written = sha256(Path(out_path).read_bytes()) if out_path else "-"
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
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
