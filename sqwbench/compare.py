"""Compare two result sets of run.py: a parent commit and a change.

    python3 sqwbench/compare.py PARENT.jsonl CHANGE.jsonl

Each argument is a JSON-lines file that run.py appended to (--results), or a
directory of them.  Run both sides with the same --seconds, alternating which
side runs first (parent 1, change 1, change 2, parent 2, ...); the i-th run
of a workload on each side forms pair i.  The two sides must hold the same
number of runs of each workload, all with one --seconds value, or the
comparison is refused.

For each (end-to-end metric, workload) it prints both medians and quartiles,
the median per-pair change (change run over its paired parent run, minus 1),
the share of pairs the change won (ties count for neither) and a verdict:
  improved    the change won at least 9/10 of at least ten pairs and the
              medians differ by more than the parent's quartile distance;
  regressed   the median per-pair change is worse than the metric's bound in
              BENCHMARK.json; pairing cancels machine drift slower than a pair;
  unresolved  the run-to-run spread (quartile distance over median) of either
              side is wider than the bound, and not every change run beats
              every parent run;
  unchanged   otherwise.
Per-layer metrics (from --trace 1 runs) follow with their medians and
deltas, for attribution only: they carry no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, median_quartiles

ENV_KEYS = ("python", "numpy", "openblas", "blas_threads", "nproc", "cpu_model", "caches")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _series(records, trace):
    """{(workload, metric): [value per run, in run order]}, {workload: {seconds}}"""
    out, seconds = defaultdict(list), defaultdict(set)
    for r in records:
        if r["trace"] == trace:
            seconds[r["workload"]].add(r["seconds"])
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append(m["value"])
    return out, seconds


def _unpairable(parent, change, p_seconds, c_seconds):
    """Why the two sides' --trace 0 runs cannot be paired, or None."""
    for workload in sorted(set(p_seconds) | set(c_seconds)):
        seconds = p_seconds.get(workload, set()) | c_seconds.get(workload, set())
        if len(seconds) > 1:
            return f"{workload}: runs of different --seconds {sorted(seconds)}"
    for key in sorted(set(parent) | set(change)):
        if len(parent.get(key, ())) != len(change.get(key, ())):
            return (f"{key[0]}: {len(parent.get(key, ()))} parent runs against "
                    f"{len(change.get(key, ()))} change runs")
    return None


def verdict(parent, change, better, bound):
    """(verdict, median per-pair change, pairs won) for one metric on one workload.

    `parent` and `change` are paired run by run and have the same length.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = median_quartiles(parent)
    c_med, c_q1, c_q3 = median_quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    delta = statistics.median(c / p - 1.0 if p else sign * (c - p) for p, c in pairs)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (len(pairs) >= 10 and won >= 0.9 * len(pairs) and sign * (c_med - p_med) < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", delta, won
    if sign * delta > bound:
        return "regressed", delta, won
    if spread > bound and not every_run_better:
        return "unresolved", delta, won
    return "unchanged", delta, won


def _fmt(values):
    med, q1, q3 = median_quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for key in ENV_KEYS:
        seen = {json.dumps(r["env"].get(key)) for r in parent + change}
        if len(seen) > 1:
            print(f"warning: environments differ in {key}: {sorted(seen)}")

    p_runs, p_seconds = _series(parent, 0)
    c_runs, c_seconds = _series(change, 0)
    problem = _unpairable(p_runs, c_runs, p_seconds, c_seconds)
    if problem:
        print(f"error: cannot pair the two sides: {problem}", file=sys.stderr)
        return 2

    print("workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]"
          "\tper-pair change\tpairs won\tverdict")
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in p_runs or key not in c_runs:
                print(f"{key[0]}\t{key[1]}\t{metric['unit']}\tmissing on one side")
                continue
            p, c = p_runs[key], c_runs[key]
            result, delta, won = verdict(p, c, metric["better"], metric["bound"])
            print(f"{key[0]}\t{key[1]}\t{metric['unit']}\t{_fmt(p)}\t{_fmt(c)}"
                  f"\t{delta:+.2%}\t{won}/{len(p)}\t{result}")

    (p_layer, _), (c_layer, _) = _series(parent, 1), _series(change, 1)
    if p_layer and c_layer:
        print("\nper-layer (attribution only)\nworkload\tmetric\tunit"
              "\tparent median\tchange median\tdelta")
        for workload in spec["workloads"]:
            for metric in spec["per_layer"]:
                key = (workload["name"], metric["name"])
                if key not in p_layer or key not in c_layer:
                    continue
                p, c = statistics.median(p_layer[key]), statistics.median(c_layer[key])
                delta = f"{c / p - 1.0:+.2%}" if p else "n/a"
                print(f"{key[0]}\t{key[1]}\t{metric['unit']}\t{p:.5g}\t{c:.5g}\t{delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
