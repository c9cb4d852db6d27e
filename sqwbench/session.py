"""One workload session: a fresh interpreter that runs the workload's CLI calls once.

Usage (run.py starts it):
    python3 session.py WORKLOAD SEED TRACE SPAWN_NS WORKDIR SPANS_FILE

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so set-up time covers interpreter start, `import sqw` and input
generation, up to the first timed call.  The CLI runs in-process through
`sqw.cli.main`, one call after another.  The last line of standard output is
one JSON object with the session's timings, peak RSS and each call's exit
code and captured output; the output checks run in the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kib() -> int:
    """This process's peak resident set since exec, in KiB, from VmHWM.

    VmHWM belongs to the address space made by exec.  On Linux ru_maxrss
    keeps the parent's peak across fork and exec, so it would charge run.py's
    memory to the session; without VmHWM the session fails instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    workload, seed, trace, spawn_ns, workdir, spans_file = argv
    sys.path.insert(0, str(ROOT / "src"))
    from sqw import cli  # importing sqw is part of set-up

    import inputs
    generated = inputs.generate(workload, int(seed), Path(workdir))
    tracer = None
    if trace == "1":
        from layers import Tracer
        tracer = Tracer(f"{workload}-{seed}-{spawn_ns}")
        tracer.install()

    calls = []
    start_ns = time.monotonic_ns()
    for call in generated.invocations:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.argv))
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        calls.append({"check": call.check, "exit": code, "error": error,
                      "seconds": time.perf_counter() - t0,
                      "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    end_ns = time.monotonic_ns()
    rss_kib = peak_rss_kib()

    result = {
        "setup_s": (start_ns - int(spawn_ns)) * 1e-9,
        "wall_s": (end_ns - start_ns) * 1e-9,
        "peak_rss_mb": rss_kib / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        layer = tracer.metrics()
        output_bytes = sum(len(c["stdout"].encode()) for c in calls)
        output_bytes += sum(Path(c.out).stat().st_size for c in generated.invocations
                            if c.out and Path(c.out).exists())
        layer["metrics"]["cli.output_bytes"] = float(output_bytes)
        layer["absent"] = tracer.absent
        layer["hook_errors"] = dict(tracer.hook_errors)
        result["layer"] = layer
        with open(spans_file, "a", encoding="utf-8") as fh:
            tracer.dump(fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
