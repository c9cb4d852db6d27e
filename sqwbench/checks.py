"""Output checks, run outside the timed region and compared within tolerances.

`expectations` computes once per run what the checks compare against (the
momentum-space wavefunction for the line walks); `check` judges one CLI call
and returns None when its output passes, or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

PROB_TOL = 1e-10        # |total probability - 1| for simulations
DIST_TOL = 1e-9         # per-site probability against the analytic walk
ANALYTIC_DEV_TOL = 1e-9
ANALYTIC_PROB_TOL = 1e-8
SURFACE_TOL = 1e-12
EMBED_TOL = 1e-12


def _params(p):
    from sqw.cli import parse_angle
    from sqw.line_analytic import LineParams
    return LineParams(parse_angle(p["theta"]), parse_angle(p["alpha"]),
                      parse_angle(p["beta"]), float(p["phi0"]), float(p["phi1"]))


def expectations(inputs) -> dict:
    """Reference probabilities for the line walks; empty for other workloads."""
    from sqw.line_analytic import wavefunction
    from sqw.simulation import ring_labels
    p = inputs.params
    if "ring_mode" not in p:
        return {}
    entries = [(pos, complex(re, im)) for pos, re, im in p["init"]]
    t = p["steps"]
    if p["ring_mode"]:
        positions = ring_labels(p["ring_size"])
        amps = wavefunction(_params(p), t, positions=positions, initial=entries,
                            ring_size=p["ring_size"])
    else:
        sources = [s for s, _ in entries]
        positions = np.arange(min(sources) - 2 * t - 1, max(sources) + 2 * t + 2)
        amps = wavefunction(_params(p), t, positions=positions, initial=entries)
    return {"positions": positions, "probabilities": np.abs(amps) ** 2}


def _printed(stdout: str) -> dict:
    """The `name<TAB>value` lines the CLI prints, as floats."""
    values = {}
    for line in stdout.splitlines():
        name, _, value = line.partition("\t")
        if value:
            values[name] = float(value)
    return values


def _tsv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return header, rows


def _total_probability(stdout: str, tol: float):
    total = _printed(stdout).get("total_probability")
    if total is None or not abs(total - 1.0) <= tol:
        return f"total_probability {total!r} not within {tol} of 1"
    return None


def _line_simulate(call, out, inputs, expected):
    reason = _total_probability(call["stdout"], PROB_TOL)
    if reason:
        return reason
    _, rows = _tsv(out)
    got = {int(pos): float(prob) for pos, prob in rows}
    worst = 0.0
    for pos, prob in zip(expected["positions"], expected["probabilities"]):
        worst = max(worst, abs(got.pop(int(pos), 0.0) - prob))
    # Rows left over lie outside the reference's light cone: they must be empty.
    worst = max([worst, *got.values()])
    if not worst <= DIST_TOL:
        return f"distribution deviates from the analytic walk by {worst:.3g}"
    return None


def _analytic(call, out, inputs, expected):
    printed = _printed(call["stdout"])
    dev = printed.get("max_deviation")
    if dev is None or not dev <= ANALYTIC_DEV_TOL:
        return f"max_deviation {dev!r} above {ANALYTIC_DEV_TOL}"
    return _total_probability(call["stdout"], ANALYTIC_PROB_TOL)


def _sigma_surface(call, out, inputs, expected):
    from sqw.line_analytic import closed_form_sigma2
    header, rows = _tsv(out)
    if header != ["theta", "alpha", "sigma2_over_t2"] or len(rows) != 101 * 101:
        return f"surface table has header {header} and {len(rows)} rows"
    for i in inputs.params["spots"]:
        theta, alpha, value = (float(x) for x in rows[i])
        want = closed_form_sigma2(theta, min(alpha, math.pi - alpha), 1)
        if not abs(value - want) <= SURFACE_TOL:
            return f"sigma2 at ({theta}, {alpha}) is {value}, closed form {want}"
    return None


def _embed(call, out, inputs, expected):
    dev = _printed(call["stdout"]).get("max_state_deviation")
    if dev is None or not dev <= EMBED_TOL:
        return f"max_state_deviation {dev!r} above {EMBED_TOL}"
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    if report["steps_checked"] != inputs.params["embed_steps"]:
        return f"embed checked {report['steps_checked']} steps"
    return None


def _validate(call, out, inputs, expected):
    report = json.loads(call["stdout"])
    if not report["tessellations"] or not all(t["valid"] for t in report["tessellations"]):
        return f"invalid tessellations: {report['tessellations']}"
    if report["uncovered_edges"]:
        return f"{len(report['uncovered_edges'])} uncovered edges"
    return None


def _graph_simulate(call, out, inputs, expected):
    return _total_probability(call["stdout"], PROB_TOL)


_CHECKS = {
    "line_simulate": _line_simulate,
    "analytic": _analytic,
    "sigma_surface": _sigma_surface,
    "embed": _embed,
    "validate": _validate,
    "graph_simulate": _graph_simulate,
}


def check(call: dict, invocation, inputs, expected) -> str | None:
    """None if the call exited 0 and its output passes, else the reason."""
    if call["error"]:
        return call["error"].strip().splitlines()[-1]
    if call["exit"] != 0:
        return f"exit code {call['exit']}: {call['stderr'].strip()[-200:]}"
    try:
        return _CHECKS[invocation.check](call, invocation.out, inputs, expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
