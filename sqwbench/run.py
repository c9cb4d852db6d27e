"""sqw benchmark: four CLI workloads, end-to-end metrics, and a traced per-layer run.

    python3 sqwbench/run.py --workload line-long --seed 1 --seconds 30 --trace 0
    python3 sqwbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The load is closed-loop with one caller: each workload session runs in its
own fresh interpreter (session.py), and the next session starts only after
the previous one returned, until --seconds have passed.  A session calls
`sqw.cli.main` in-process once for each of the workload's CLI calls.  Its
outputs are checked here, outside the timed region.

--trace 0 reports the end-to-end metrics: the medians over the run's
sessions of wall time, peak RSS and set-up time, and the share of CLI calls
that passed.  Wall and set-up time are scaled to a reference machine speed,
because the speed of a shared machine drifts by tens of percent over minutes:
before the first session and after each one the run times a calibration (a
fresh interpreter that imports numpy, which touches no sqw code), and each
session's times are multiplied by REFERENCE_S over the mean of the two
calibrations around it.  The raw medians are printed and recorded beside them.

--trace 1 alternates untraced and traced sessions and reports the per-layer
metrics of layers.py as medians over the traced sessions, plus the tracing
overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Each run also appends
a record with its environment to .sqwbench/results.jsonl (see --results),
which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".sqwbench"
BUDGET_S = 170.0   # a run must end within 180 s, whatever its --seconds

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "pass_frac": "frac"}
SCALED = ("wall_s", "setup_s")
# Median calibration time on the machine the baseline in results/ was
# measured on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.155


def _calibration_s(deadline):
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0


def scaled(session, name):
    """A session's wall_s or setup_s at the reference machine speed."""
    return session[name] * REFERENCE_S / session["calibration_s"]


def _session(workload, seed, trace, spans_file, deadline):
    """Run one session; its JSON result, or {"error": ...}."""
    spawn_ns = time.monotonic_ns()
    argv = [sys.executable, str(HERE / "session.py"), workload, str(seed), str(trace),
            str(spawn_ns), str(STATE / "work" / workload), str(spans_file)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "session timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"session exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"session printed no result: {lines[-1][:200]!r}"}


def median_quartiles(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _measure(workload, seed, seconds, trace, generated, deadline):
    """Run sessions for `seconds`; (sessions, attempted, failed, failure reasons).

    A round (one session, or an untraced and a traced one) starts only while
    the previous round's duration still fits in `seconds`, so a run measures
    at most `seconds` after its first round.
    """
    import checks
    expected = checks.expectations(generated)
    spans_file = STATE / f"spans-{workload}.jsonl"
    if trace:
        spans_file.write_text("")
    sessions, attempted, failed, reasons = [], 0, 0, []
    t0 = time.monotonic()
    calibration = _calibration_s(deadline)
    while True:
        round_start = time.monotonic()
        for mode in (0, 1) if trace else (0,):
            result = _session(workload, seed, mode, spans_file, deadline)
            before, calibration = calibration, _calibration_s(deadline)
            attempted += len(generated.invocations)
            if "error" in result:
                failed += len(generated.invocations)
                reasons.append(result["error"])
                continue
            for call, invocation in zip(result.pop("calls"), generated.invocations):
                reason = checks.check(call, invocation, generated, expected)
                if reason:
                    failed += 1
                    reasons.append(f"{invocation.check}: {reason}")
            result["traced"] = mode
            result["calibration_s"] = (before + calibration) / 2
            sessions.append(result)
        now = time.monotonic()
        next_end = now + (now - round_start)
        if next_end - t0 > seconds or next_end > deadline:
            return sessions, attempted, failed, reasons


def _end_to_end(workload, plain, attempted, failed):
    series = {name: [scaled(s, name) for s in plain] for name in SCALED}
    series["peak_rss_mb"] = [s["peak_rss_mb"] for s in plain]
    series["pass_frac"] = [1.0 - failed / attempted]
    metrics, lines = {}, []
    for name, unit in END_TO_END.items():
        med, q1, q3 = median_quartiles(series[name])
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{workload}\t{name}\t{med:.6g} {unit}"
                     f"\tq1 {q1:.6g}  q3 {q3:.6g}  n={len(series[name])}")
        if name in SCALED:
            raw = statistics.median(s[name] for s in plain)
            lines.append(f"{workload}\t{name} unscaled\t{raw:.6g} {unit}")
    calibration = statistics.median(s["calibration_s"] for s in plain)
    lines.append(f"{workload}\tcalibration\t{calibration:.6g} s\treference {REFERENCE_S} s")
    lines.append(f"{workload}\tfail_frac\t{failed / attempted:.6g}"
                 f"\t({failed} of {attempted} CLI calls)")
    return metrics, lines


def _per_layer(workload, plain, traced):
    from layers import LAYERS, METRICS
    metrics, lines = {}, []
    for name, unit in METRICS.items():
        if name == "trace.overhead_frac":
            base = statistics.median(scaled(s, "wall_s") for s in plain)
            value = statistics.median(scaled(s, "wall_s") for s in traced) / base - 1.0
        else:
            value = statistics.median(s["layer"]["metrics"][name] for s in traced)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{workload}\t{name}\t{value:.6g} {unit}\tn={len(traced)}")
    shares = {layer: statistics.median(s["layer"]["layer_self_s"][layer] / s["wall_s"]
                                       for s in traced) for layer in LAYERS}
    lines.append(f"{workload}\tlayer self-time share\t" + "  ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    absent = sorted({name for s in traced for name in s["layer"]["absent"]})
    if absent:
        lines.append(f"{workload}\tabsent (reported as 0)\t{', '.join(absent)}")
    unreadable = sorted({name for s in traced for name in s["layer"]["hook_errors"]})
    if unreadable:
        lines.append(f"{workload}\tcounters unreadable\t{', '.join(unreadable)}")
    return metrics, lines


def run_workload(workload, seed, seconds, trace, results_path):
    """Measure one workload; (result record, summary lines)."""
    import envinfo
    import inputs
    from layers import METRICS

    deadline = time.monotonic() + BUDGET_S
    generated = inputs.generate(workload, seed, STATE / "work" / workload)
    sessions, attempted, failed, reasons = _measure(workload, seed, seconds, trace,
                                                    generated, deadline)
    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    if plain and not trace:
        metrics, lines = _end_to_end(workload, plain, attempted, failed)
    elif plain and traced:
        metrics, lines = _per_layer(workload, plain, traced)
    else:
        names = METRICS if trace else END_TO_END
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in names.items()}
        lines = []
        reasons.append("no session completed")
    lines.extend(f"{workload}\tFAILED\t{reason}" for reason in reasons[:10])

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "work": generated.work, "env": envinfo.environment(ROOT),
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "sessions": sessions}
    with open(results_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record, lines


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=STATE / "results.jsonl",
                        help="JSON-lines file each run appends its record to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqw" / "__init__.py").is_file():
        print(f"error: no sqw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)

    workloads = list(inputs.WHY) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        record, lines = run_workload(workload, args.seed, args.seconds, args.trace,
                                     args.results)
        print("\n".join(lines), flush=True)
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in record["metrics"].items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
