"""Hash what the benchmark workloads' CLI calls write, to compare two source trees.

Usage:  python3 tools/output_hashes.py [--tree DIR] SEED [SEED ...]

For each seed and each workload of DIR/sqwbench/inputs.py (DIR defaults to
the checkout that holds this script), writes the workload's inputs into a
temporary directory, runs its CLI calls in this process through
`sqw.cli.main` imported from DIR/src, and prints one line per call: seed,
workload, call index, subcommand, exit code, the sha256 of its standard
output and the sha256 of its output file ("-" if it has none).  Compare two
trees by running the script once on each and diffing the lines:

    python3 tools/output_hashes.py --tree OLD 1 2 > old.txt
    python3 tools/output_hashes.py 1 2 > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree holding src/sqw and sqwbench/inputs.py")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "sqwbench")]
    from sqw import cli
    import inputs

    lines = []
    for seed in args.seeds:
        for workload in inputs.WHY:
            with tempfile.TemporaryDirectory() as tmp:
                generated = inputs.generate(workload, seed, Path(tmp))
                for i, call in enumerate(generated.invocations):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(list(call.argv))
                    written = sha256(Path(call.out).read_bytes()) if call.out else "-"
                    lines.append(f"{seed}\t{workload}\t{i}\t{call.argv[0]}\t{code}\t"
                                 f"{sha256(out.getvalue().encode())}\t{written}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
