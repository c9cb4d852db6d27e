"""Command-line front end: simulations, analytic tables, embeddings, validation.

Subcommands: simulate, analytic, sigma-surface, embed, validate.  Options can
come from a JSON config file (--config) with individual flags overriding it.
Angles are written as rational multiples of pi ("pi/4", "2pi/3", "-pi/2") or
as plain numbers; exact parsing keeps reproduction runs free of decimal drift.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import line_analytic
from .coined import certify_equivalence, coined_walk_from_descriptor
from .errors import OutOfRangeVertex, WalkError
from .graphs import _check_line, _line_polygons, _uncovered_edges, document_texts, \
    from_document, validate_tessellation
from .operators import OrthogonalReflection, compose, reflection_from_tessellation
from .simulation import ProbabilityDistribution, WalkState, WrapGuard, _written_rows, \
    distribution, distribution_to_tsv, evolve_final, moments, superposition_state

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE)


def parse_angle(value) -> float:
    """Parse "pi/3", "2pi/3", "-pi/2", "pi", or a plain number, exactly.

    A bool, a zero denominator and a non-finite angle (nan, inf) raise ValueError."""
    m = isinstance(value, str) and _ANGLE_RE.match(value)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        denom = float(m.group(3)) if m.group(3) else 1.0
        if denom == 0.0:
            raise ValueError(f"angle {value!r} divides by zero")
        angle = sign * coef * math.pi / denom
    else:
        try:
            if isinstance(value, bool):  # float(True) is 1.0: JSON true is no angle
                raise TypeError
            angle = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"cannot parse angle {value!r}") from None
    if not math.isfinite(angle):
        raise ValueError(f"angle {value!r} is not finite")
    return angle


@dataclass
class RunConfig:
    model: str = "line"
    theta0: float | None = None
    theta1: float | None = None
    alpha: float = math.pi / 2
    beta: float = math.pi / 2
    phi0: float = 0.0
    phi1: float = 0.0
    steps: int = 0
    ring_size: int | None = None
    graph: str | None = None
    init: object = "basis:0"
    out: str = "-"


_ANGLE_KEYS = ("theta", "theta0", "theta1", "alpha", "beta", "phi0", "phi1")
_CONFIG_TYPES = {"model": str, "steps": int, "ring_size": int, "graph": str,
                 "init": (str, list), "out": str}


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    merged = dict(file_values)
    for key in (*_CONFIG_TYPES, *_ANGLE_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    theta = merged.pop("theta", None)
    if theta is not None:
        merged.setdefault("theta0", theta)
        merged.setdefault("theta1", theta)
    for key, value in merged.items():
        if key not in vars(cfg):  # its fields, not every attribute (__doc__, __class__)
            raise ValueError(f"unknown config key {key!r}")
        if key in _ANGLE_KEYS:
            value = parse_angle(value)
        elif isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
            raise ValueError(f"config key {key!r} cannot be {value!r}")
        setattr(cfg, key, value)
    return cfg


def _load_coin(spec: str) -> dict:
    if spec.lstrip().startswith("{"):
        return json.loads(spec)
    with open(spec, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_init(spec) -> list[tuple[int, complex]]:
    """The (position, amplitude) entries of an initial state written as "basis:<i>",
    "superpos:i,j,...", or [[pos,re,im],...]."""
    kind, _, rest = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if kind == "basis":
        entries = [(int(rest), 1.0 + 0j)]
    elif kind == "superpos" and rest.strip(", "):
        positions = [int(s) for s in rest.split(",") if s]
        amp = 1.0 / math.sqrt(len(positions))
        entries = [(pos, complex(amp)) for pos in positions]
    elif isinstance(spec, list) and all(map(_is_init_entry, spec)):
        entries = [(pos, complex(re, im)) for pos, re, im in spec]
    else:
        raise ValueError(f"cannot parse initial state {spec!r}")
    return entries


def _is_init_entry(entry) -> bool:
    """Whether entry is [position, re, im]: an integer and two real numbers, no bool."""
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and isinstance(entry[0], numbers.Integral)
            and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entry))


def _write(path: str, *texts: str) -> None:
    """Write the texts one after another to path, or to stdout if path is "-"."""
    if path == "-":
        sys.stdout.writelines(texts)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)


def _require_thetas(cfg: RunConfig) -> None:
    if cfg.theta0 is None or cfg.theta1 is None:
        raise ValueError("set --theta, or both --theta0 and --theta1")


def _line_ring(n: int, sources, steps: int) -> tuple[int, int, int]:
    """(p0, m, seam): the ring a line walk from `sources` runs on, for its n-site ring.

    Site i holds position p0 + i, and p0 is even, so that site parity is position
    parity and `_line_polygons(m, ...)` pairs the line's sites.  When the light cone
    (`line_analytic._light_cone`) misses the n-ring's antipode, m is the smallest even
    ring that holds the cone with one site to spare at the seam between sites m - 1
    and 0: the walk never reaches that site, the seam site, and the ring reproduces
    the line.  Otherwise m = n, and the seam site is the antipode.  Either way a window
    round the sources is one run of sites.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    first, last = line_analytic._light_cone(sources, steps)
    if first <= -(n // 2) or last >= n // 2:  # the cone reaches the antipode
        first, last = 1 - n // 2, n // 2 - 1
    p0 = first - first % 2
    m = (last - first + 3) // 2 * 2
    return p0, m, 0 if p0 < first else m - 1


def _run(cfg: RunConfig):
    """Evolve the configured walk: (position labels, initial (position, amplitude)
    entries, final state).  Reflection i takes theta0 if i is even, else theta1.

    The line model stands for the line with a ring labelled -n/2 .. n/2 - 1,
    n = 4 (steps + 1) + 8 by default, and fails once its front reaches the antipode.
    It runs on the consecutive positions of `_line_ring`, only as many as the walk's
    light cone needs, and `WrapGuard` watches their seam site.  Its two reflections are
    compiled from the pairs of `line_tessellations` with no graph: their range and
    overlap are checked, and the ring's cliques and coverage hold by construction.
    The graph model reads cfg.graph, validates each tessellation against its graph,
    and labels each vertex by its index.
    """
    if cfg.model == "line":
        n = cfg.ring_size if cfg.ring_size is not None else 4 * (cfg.steps + 1) + 8
        _check_line(n, cfg.alpha, cfg.beta)
        entries = _parse_init(cfg.init)
        for pos, _ in entries:  # the n-ring's labels only; any other position would wrap
            if not -(n // 2) <= pos < n // 2:
                raise OutOfRangeVertex(pos, n)
        p0, m, seam = _line_ring(n, [pos for pos, _ in entries], cfg.steps)
        reflections = [OrthogonalReflection.from_arrays(m, *p)
                       for p in _line_polygons(m, cfg.alpha, cfg.beta, cfg.phi0, cfg.phi1)]
        observers, site = [WrapGuard(seam)], lambda pos: (pos - p0) % m

        def labels():  # each site's label on the n-ring
            return (np.arange(p0 + n // 2, p0 + n // 2 + m) % n) - n // 2
    elif cfg.model == "graph":
        if not cfg.graph:
            raise ValueError("graph model needs --graph FILE")
        with open(cfg.graph, encoding="utf-8") as fh:
            reflections = [reflection_from_tessellation(t)
                           for t in from_document(json.load(fh))[1]]
        if len(reflections) < 1:
            raise ValueError("graph file carries no tessellations")
        m = reflections[0].dimension
        entries = _parse_init(cfg.init)
        observers, site, labels = [], lambda pos: pos, lambda: np.arange(m)
    else:
        raise ValueError(f"unknown model {cfg.model!r} for simulate")
    op = compose(zip([cfg.theta0, cfg.theta1] * len(reflections), reflections))
    psi0 = superposition_state(m, [(site(pos), amp) for pos, amp in entries])
    final = evolve_final(op, psi0, cfg.steps, observers)
    del op, psi0, reflections  # freed before the labels are made, as the peak comes later
    return labels(), entries, final


def _written(labels, probabilities, *columns):
    """The distribution and the columns cut to the rows `distribution_to_tsv` writes,
    in its order: so the sums printed add the numbers the TSV holds, in label order,
    whatever the ring's numbering and size."""
    rows = _written_rows(labels, [probabilities, *columns])
    return (ProbabilityDistribution._own(probabilities[rows], labels[rows]),
            *(col[rows] for col in columns))


def cmd_simulate(cfg: RunConfig) -> int:
    _require_thetas(cfg)
    labels, _, final = _run(cfg)
    dist = _written(labels, distribution(final, labels).probabilities)[0]
    _write(cfg.out, distribution_to_tsv(dist))
    summary = moments(dist, step=cfg.steps)
    print(f"total_probability\t{float(dist.probabilities.sum()):.17g}")
    print(f"sigma\t{summary.sigma:.17g}")
    return 0


def cmd_analytic(cfg: RunConfig) -> int:
    _require_thetas(cfg)
    if cfg.model != "line":
        raise ValueError("analytic mode works on the line model only")
    if cfg.theta0 != cfg.theta1:
        raise ValueError("analytic mode needs a common theta (theta0 == theta1)")
    params = line_analytic.LineParams(cfg.theta0, cfg.alpha, cfg.beta, cfg.phi0, cfg.phi1)
    labels, entries, final = _run(cfg)
    analytic = line_analytic.wavefunction(params, cfg.steps, positions=labels, initial=entries)
    simulated = final.amplitudes
    # wavefunction checked the analytic state's norm
    probabilities = distribution(WalkState._own(analytic, None), labels).probabilities
    dist, sim_prob, deviation = _written(labels, probabilities, np.abs(simulated) ** 2,
                                         np.abs(analytic - simulated))
    text = distribution_to_tsv(dist, extra_columns=[("probability_sim", sim_prob),
                                                    ("deviation", deviation)])
    _write(cfg.out, text)
    print(f"max_deviation\t{float(deviation.max()):.17g}")
    print(f"total_probability\t{float(dist.probabilities.sum()):.17g}")
    return 0


def cmd_sigma_surface(args) -> int:
    thetas = np.linspace(parse_angle(args.theta_min), parse_angle(args.theta_max),
                         args.theta_count)
    alphas = np.linspace(parse_angle(args.alpha_min), parse_angle(args.alpha_max),
                         args.alpha_count)
    table = line_analytic.sigma2_surface(thetas, alphas)
    _write(args.out, line_analytic.surface_to_tsv(thetas, alphas, table))
    return 0


def cmd_embed(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        doc = json.load(fh)
    g, _ = from_document(doc)
    coin = _load_coin(args.coin) if args.coin else doc.get("coin")
    if not isinstance(coin, dict):
        raise ValueError("no 'coin' descriptor object: add a 'coin' key or pass --coin")
    if "theta" in coin:
        coin = dict(coin, theta=parse_angle(coin["theta"]))
    cw = coined_walk_from_descriptor(g, coin)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(cw.expansion.arc_count) \
        + 1j * rng.standard_normal(cw.expansion.arc_count)
    psi0 = WalkState(raw / np.linalg.norm(raw))
    report = certify_equivalence(cw, args.steps, psi0)
    _write(args.out, *document_texts(cw.expansion.expanded, cw.tessellations, report={
        "max_state_deviation": report.max_state_deviation,
        "steps_checked": report.steps_checked,
        "arcs": cw.expansion.arcs,
    }))
    print(f"max_state_deviation\t{report.max_state_deviation:.17g}")
    return 0


def cmd_validate(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        g, tessellations = from_document(json.load(fh))
    findings = []
    valid = []
    for i, t in enumerate(tessellations):
        try:
            validate_tessellation(g, t)
        except WalkError as exc:
            findings.append({"index": i, "valid": False, "error": str(exc)})
        else:
            findings.append({"index": i, "valid": True})
            valid.append(t)
    report = {
        "tessellations": findings,
        "uncovered_edges": _uncovered_edges(g, valid).tolist(),
    }
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each handler is looked up when it runs, not when the parser is built: `main`
    # reuses one parser, and a handler patched after that still takes effect.
    parser = argparse.ArgumentParser(
        prog="sqw",
        description="Staggered quantum walks driven by exponentials of "
                    "tessellation-induced reflections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", choices=["line", "graph"])
        for name in _ANGLE_KEYS:
            p.add_argument(f"--{name}", metavar="ANGLE")  # parsed in _merge_config
        p.add_argument("--steps", type=int)
        p.add_argument("--ring-size", type=int, dest="ring_size")
        p.add_argument("--graph", help="graph+tessellations JSON (graph model)")
        p.add_argument("--init", help='"basis:<i>" or "superpos:i,j,..."')
        p.add_argument("--out", help="output path, '-' for stdout")

    p_sim = sub.add_parser("simulate", help="evolve and write the distribution")
    add_run_flags(p_sim)
    p_sim.set_defaults(func=lambda a: cmd_simulate(_merge_config(a)))

    p_ana = sub.add_parser("analytic",
                           help="momentum-space wavefunction vs direct simulation")
    add_run_flags(p_ana)
    p_ana.set_defaults(func=lambda a: cmd_analytic(_merge_config(a)))

    p_surf = sub.add_parser("sigma-surface", help="variance-rate table over (theta, alpha)")
    # angles stay strings here: cmd_sigma_surface parses them, so a bad one is one error line
    p_surf.add_argument("--theta-min", default="0")
    p_surf.add_argument("--theta-max", default="pi")
    p_surf.add_argument("--theta-count", type=int, default=101)
    p_surf.add_argument("--alpha-min", default="0")
    p_surf.add_argument("--alpha-max", default="pi")
    p_surf.add_argument("--alpha-count", type=int, default=101)
    p_surf.add_argument("--out", default="-")
    p_surf.set_defaults(func=lambda a: cmd_sigma_surface(a))

    p_embed = sub.add_parser("embed", help="convert a coined walk and certify it")
    p_embed.add_argument("--graph", required=True)
    p_embed.add_argument("--coin", help="coin descriptor: inline JSON or a path")
    p_embed.add_argument("--steps", type=int, default=16)
    p_embed.add_argument("--out", default="-")
    p_embed.set_defaults(func=lambda a: cmd_embed(a))

    p_val = sub.add_parser("validate", help="check tessellations and edge coverage")
    p_val.add_argument("--graph", required=True)
    p_val.set_defaults(func=lambda a: cmd_validate(a))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; building it takes about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (WalkError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
