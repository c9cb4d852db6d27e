import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sqw import build_graph, cli, clique_expansion, compose, evolve_final, grover_coined_walk, \
    line_tessellations, reflection_from_tessellation, ring_labels, superposition_state, \
    to_document, wrap_check
from sqw.cli import main, parse_angle
from sqw.errors import WavefrontWrapped
from sqw.graphs import document_texts

from conftest import SPECIAL_LABELS, SPECIAL_PARTS, grid_graph, reference_to_document

PI = math.pi


def read_tsv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


class TestParseAngle:
    @pytest.mark.parametrize("text,value", [
        ("pi", PI), ("pi/3", PI / 3), ("2pi/3", 2 * PI / 3), ("-pi/2", -PI / 2),
        ("3*pi/4", 3 * PI / 4), ("0", 0.0), ("0.5", 0.5), ("1.5pi", 1.5 * PI),
        ("+pi/6", PI / 6),
    ])
    def test_examples(self, text, value):
        assert parse_angle(text) == value

    def test_numbers_pass_through(self):
        assert parse_angle(0.25) == 0.25
        assert parse_angle(2) == 2.0

    def test_garbage_rejected(self):
        for value in ("two pies", True, False):  # float(True) is 1.0
            with pytest.raises(ValueError):
                parse_angle(value)


class TestSimulate:
    def test_twin_start_distribution(self, tmp_path, capsys):
        out = tmp_path / "dist.tsv"
        code = main(["simulate", "--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2",
                     "--steps", "60", "--init", "superpos:0,1", "--out", str(out)])
        assert code == 0
        header, rows = read_tsv(out)
        assert header == ["position", "probability"]
        total = sum(float(r[1]) for r in rows)
        assert abs(total - 1.0) <= 1e-10
        stdout = capsys.readouterr().out
        assert "total_probability" in stdout and "sigma" in stdout

    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "dist.tsv"
        assert main(["simulate", "--theta", "pi/4", "--steps", "0",
                     "--init", "basis:0", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert rows == [["0", "1"]]

    def test_sigma_far_from_the_origin(self, tmp_path, capsys):
        # p = 2e-11 at 20001 beside 20000: sigma = sqrt(p (1 - p)) ~ 4.47e-6, which the
        # raw moments <x^2> - <x>^2 (both ~4e8) cancel to 0
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"model": "line", "theta": 0, "steps": 1, "ring_size": 40004,
                                   "init": [[20000, 0.99999999999, 0],
                                            [20001, 4.4721359549e-06, 0]]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.tsv")]) == 0
        sigma = float(capsys.readouterr().out.split("sigma\t")[1])
        assert sigma == pytest.approx(4.4721359549e-06, rel=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--theta", "pi/3", "--steps", "20", "--init", "basis:0"]
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "line", "theta": "pi/4", "steps": 4,
                                   "init": "basis:0"}))
        out = tmp_path / "dist.tsv"
        assert main(["simulate", "--config", str(cfg), "--steps", "2",
                     "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        positions = [int(r[0]) for r in rows]
        assert min(positions) >= -4 and max(positions) <= 5  # two steps only

    def test_wavefront_wrap_is_an_error(self, tmp_path, capsys):
        code = main(["simulate", "--theta", "pi/4", "--steps", "30",
                     "--ring-size", "24", "--init", "basis:0",
                     "--out", str(tmp_path / "x.tsv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_line_simulate_does_not_load_numpy_ma(self, tmp_path):
        # numpy.ma (loaded by np.unique, among others) adds ~0.9 MiB of peak RSS
        src = Path(__file__).resolve().parents[1] / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); from sqw.cli import main; "
                f"main(['simulate', '--theta', 'pi/4', '--steps', '200', '--init', "
                f"'superpos:0,1', '--out', {str(tmp_path / 'd.tsv')!r}]); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip().splitlines()[-1] == "False"

    def test_graph_model(self, tmp_path):
        doc = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
               "tessellations": [
                   {"polygons": [{"vertices": [0, 1]}, {"vertices": [2, 3]}]},
                   {"polygons": [{"vertices": [1, 2]}, {"vertices": [0, 3]}]}]}
        gpath = tmp_path / "ring.json"
        gpath.write_text(json.dumps(doc))
        out = tmp_path / "dist.tsv"
        assert main(["simulate", "--model", "graph", "--graph", str(gpath),
                     "--theta0=-pi/2", "--theta1=pi/2", "--steps", "1",
                     "--init", "basis:0", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        # standard-walk conveyor: one step moves |0> to |2>
        mass = {int(r[0]): float(r[1]) for r in rows}
        assert mass[2] == pytest.approx(1.0, abs=1e-12)
        assert all(p <= 1e-30 for pos, p in mass.items() if pos != 2)

    def test_missing_theta(self, tmp_path, capsys):
        assert main(["simulate", "--steps", "1", "--out", str(tmp_path / "x.tsv")]) == 1
        assert "theta" in capsys.readouterr().err

    def test_identity_walk_far_from_the_origin(self, tmp_path, capsys):
        # its raw moments are ~4e8 and round at ~1e-7: no false "second moment
        # below squared mean"
        amps = [0.99999999999, 4.4721359549e-06]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": "line", "theta": 0, "steps": 1,
                                   "ring_size": 40004,
                                   "init": [[20000, amps[0], 0], [20001, amps[1], 0]]}))
        out = tmp_path / "dist.tsv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        probabilities = np.abs(np.array(amps, dtype=np.complex128)) ** 2
        assert out.read_text() == ("position\tprobability\n20000\t%.17g\n20001\t%.17g\n"
                                   % tuple(probabilities))


class TestAnalytic:
    def test_origin_start_deviation_column(self, tmp_path, capsys):
        for theta, steps in (("pi/3", "60"), ("pi/4", "10")):
            out = tmp_path / "ana.tsv"
            code = main(["analytic", "--theta", theta, "--steps", steps,
                         "--init", "basis:0", "--out", str(out)])
            assert code == 0
            header, rows = read_tsv(out)
            assert header == ["position", "probability", "probability_sim", "deviation"]
            assert max(float(r[3]) for r in rows) <= 1e-8
            stdout = capsys.readouterr().out
            max_dev = float(stdout.splitlines()[0].split("\t")[1])
            assert max_dev <= 1e-8

    def test_zero_steps_point_mass(self, tmp_path):
        out = tmp_path / "ana.tsv"
        assert main(["analytic", "--theta", "pi/4", "--steps", "0",
                     "--init", "basis:0", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        assert [r[0] for r in rows] == ["0"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_ballistic_two_peaks_at_half_pi(self, tmp_path):
        out = tmp_path / "ana.tsv"
        assert main(["analytic", "--theta", "pi/2", "--steps", "12",
                     "--init", "superpos:0,1", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        mass = {int(r[0]): float(r[1]) for r in rows}
        assert mass[24] == pytest.approx(0.5, abs=1e-10)
        assert mass[-23] == pytest.approx(0.5, abs=1e-10)
        assert max(float(r[3]) for r in rows) <= 1e-8


    def test_repeated_positions_sum_as_in_simulate(self, tmp_path, capsys):
        # the amplitudes at 0 cancel, so both subcommands run the state |2>
        config = tmp_path / "cancel.json"
        config.write_text(json.dumps({"model": "line", "theta": "pi/4", "steps": 3,
                                      "init": [[0, 0.6, 0], [0, -0.6, 0], [2, 1, 0]]}))
        assert main(["analytic", "--config", str(config), "--out", str(tmp_path / "a.tsv")]) == 0
        assert float(capsys.readouterr().out.splitlines()[0].split("\t")[1]) <= 1e-12
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.tsv")]) == 0
        _, analytic = read_tsv(tmp_path / "a.tsv")
        _, simulated = read_tsv(tmp_path / "s.tsv")
        assert simulated
        assert [(r[0], r[2]) for r in analytic if float(r[2])] == [tuple(r) for r in simulated]


@st.composite
def line_runs(draw):
    """A line config the CLI runs: an even ring of 4-120 sites (half of it odd or even),
    a common theta, angles, phases, 1-3 start positions anywhere on the ring's labels
    with random amplitudes, and 0-40 steps; a ring too small for its steps wraps."""
    n = 2 * draw(st.integers(2, 60))
    angle, phase = st.floats(0.01, PI - 0.01), st.floats(-PI, PI)
    positions = draw(st.lists(st.integers(-(n // 2), n // 2 - 1), min_size=1, max_size=3,
                              unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.standard_normal(len(positions)) + 1j * rng.standard_normal(len(positions))
    amps /= np.linalg.norm(amps)
    return {"model": "line", "ring_size": n, "steps": draw(st.integers(0, 40)),
            "theta": draw(st.floats(-PI, PI)), "alpha": draw(angle), "beta": draw(angle),
            "phi0": draw(phase), "phi1": draw(phase),
            "init": [[p, a.real, a.imag] for p, a in zip(positions, amps.tolist())]}


def ring_order_run(cfg):
    """`cli._run` for the line as the library runs it: the ring in `line_tessellations`
    numbering, `wrap_check` with guard band 0 on every step."""
    n = cfg.ring_size
    t0, t1 = line_tessellations(n, cfg.alpha, cfg.beta, cfg.phi0, cfg.phi1)
    u = compose([(cfg.theta0, reflection_from_tessellation(t0)),
                 (cfg.theta1, reflection_from_tessellation(t1))])
    entries = [(p, complex(re, im)) for p, re, im in cfg.init]
    psi0 = superposition_state(n, [(p % n, a) for p, a in entries])
    final = evolve_final(u, psi0, cfg.steps,
                         [lambda step, psi: wrap_check((psi,), 0, first_step=step)])
    return ring_labels(n), entries, final


class TestRingLayout:
    """The CLI compiles the line's pairs with no graph and guards the antipode with
    `WrapGuard`; its outputs are those of the library's ring with `wrap_check`."""

    @settings(max_examples=80, deadline=None)
    @given(config=line_runs(), command=st.sampled_from(["simulate", "analytic"]))
    @example(config={"model": "line", "ring_size": 4, "steps": 3, "theta": 0.7, "alpha": 1.1,
                     "beta": 0.6, "phi0": 0.3, "phi1": -0.4, "init": [[-2, 0.6, 0.8]]},
             command="simulate")
    @example(config={"model": "line", "ring_size": 6, "steps": 1, "theta": 0.7, "alpha": 1.1,
                     "beta": 0.6, "phi0": 0.3, "phi1": -0.4, "init": [[0, 0.0, 1.0]]},
             command="analytic")
    def test_same_bytes_as_a_ring_order_run(self, config, command):
        # the same exit code, stdout, stderr and output file; a wrapped run stops at
        # the same step with the same antipode mass
        wrapped = []

        def recording(run):
            def recorded(cfg):
                try:
                    return run(cfg)
                except WavefrontWrapped as exc:
                    wrapped.append((exc.step, exc.mass))
                    raise
            return recorded
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "line.json", Path(tmp) / "out.tsv"
            path.write_text(json.dumps(config))
            for run in (cli._run, ring_order_run):
                out.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with mock.patch.object(cli, "_run", recording(run)), \
                        contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, "--config", str(path), "--out", str(out)])
                outputs.append((code, stdout.getvalue(), stderr.getvalue(),
                                out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]
        assert len(wrapped) in (0, 2) and wrapped[:1] == wrapped[1:]
        assert outputs[0][0] == (1 if wrapped else 0)
        event("wrapped" if wrapped else "completed")


def cli_outputs(argv):
    """(exit code, stdout, stderr, output file bytes or None) of one CLI call whose
    argv ends in --out FILE."""
    out = Path(argv[-1])
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


class TestRingSizeIsABound:
    """A line walk whose light cone misses the ring's antipode writes the same bytes
    at every ring size: the CLI lays its ring out round the cone, and it prints sums
    over the rows its TSV writes."""

    @settings(max_examples=60, deadline=None)
    @given(config=line_runs(), command=st.sampled_from(["simulate", "analytic"]))
    def test_same_bytes_at_every_ring_that_holds_the_cone(self, config, command):
        sources, t = [p for p, _, _ in config["init"]], config["steps"]
        first, last = min(sources) - 2 * t - 1, max(sources) + 2 * t + 1
        smallest = 2 * (max(-first, last) + 1)  # the cone misses its antipode +-smallest/2
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "line.json"
            for n in (smallest, 2 * smallest, 2 ** 20):
                path.write_text(json.dumps(dict(config, ring_size=n)))
                outputs.append(cli_outputs([command, "--config", str(path),
                                            "--out", str(Path(tmp) / "out.tsv")]))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1] == outputs[2]


class TestSigmaSurface:
    def test_default_grid_center_zero(self, tmp_path):
        out = tmp_path / "surface.tsv"
        assert main(["sigma-surface", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["theta", "alpha", "sigma2_over_t2"]
        assert len(rows) == 101 * 101
        # grid nodes sit within an ulp of pi/2 and pi/4; look up by closeness
        values = np.array([[float(x) for x in r] for r in rows])

        def at(theta, alpha):
            i = np.argmin(np.abs(values[:, 0] - theta) + np.abs(values[:, 1] - alpha))
            return values[i, 2]

        assert at(PI / 2, PI / 2) == pytest.approx(0.0, abs=1e-12)
        assert at(PI / 4, PI / 2) == pytest.approx(0.8284271247461903, abs=1e-6)

    def test_single_point_maximum(self, tmp_path):
        out = tmp_path / "one.tsv"
        assert main(["sigma-surface", "--theta-min", "pi/3", "--theta-max", "pi/3",
                     "--theta-count", "1", "--alpha-min", "pi/2", "--alpha-max", "pi/2",
                     "--alpha-count", "1", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-12)

    def test_single_point_zero_theta(self, tmp_path):
        out = tmp_path / "one.tsv"
        assert main(["sigma-surface", "--theta-min", "0", "--theta-max", "0",
                     "--theta-count", "1", "--alpha-min", "pi/2", "--alpha-max", "pi/2",
                     "--alpha-count", "1", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        assert float(rows[0][2]) == 0.0


def complete_graph_doc(n):
    return {"vertices": n, "edges": [[i, j] for i in range(n) for j in range(i + 1, n)]}


class TestEmbed:
    def test_k8_grover(self, tmp_path):
        gpath = tmp_path / "k8.json"
        gpath.write_text(json.dumps(complete_graph_doc(8)))
        out = tmp_path / "embed.json"
        assert main(["embed", "--graph", str(gpath), "--coin", '{"type": "grover"}',
                     "--steps", "32", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["max_state_deviation"] <= 1e-10
        assert doc["report"]["steps_checked"] == 32
        assert doc["vertices"] == 2 * 28
        assert len(doc["tessellations"]) == 2

    def test_single_edge(self, tmp_path):
        gpath = tmp_path / "edge.json"
        gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]],
                                     "coin": {"type": "grover", "theta": "pi/2"}}))
        out = tmp_path / "embed.json"
        assert main(["embed", "--graph", str(gpath), "--steps", "4",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["vertices"] == 2
        assert doc["edges"] == [[0, 1]]
        assert doc["report"]["max_state_deviation"] <= 1e-12

    def test_hub_fragment_counts(self, tmp_path):
        edges = [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 6], [1, 7]]
        gpath = tmp_path / "frag.json"
        gpath.write_text(json.dumps({"vertices": 8, "edges": edges}))
        out = tmp_path / "embed.json"
        assert main(["embed", "--graph", str(gpath), "--coin", '{"type": "grover"}',
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["vertices"] == 14  # 5-clique + 3-clique + six pendant arcs
        assert len(doc["edges"]) == 7 + 10 + 3

    def test_unsupported_coin(self, tmp_path, capsys):
        gpath = tmp_path / "k4.json"
        gpath.write_text(json.dumps(complete_graph_doc(4)))
        assert main(["embed", "--graph", str(gpath),
                     "--coin", '{"type": "fourier"}']) == 1
        assert "error" in capsys.readouterr().err


class TestEmbedCoins:
    K4_COIN = {"type": "reflection", "theta": 0.4, "polygons": [
        {"vertices": [0]}, {"vertices": [1, 2], "amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
        {"vertices": [3, 4, 5]}, {"vertices": [6, 7, 8]}, {"vertices": [9, 10, 11]}]}

    def test_reflection_coin_is_written(self, tmp_path):
        gpath = tmp_path / "k4.json"
        gpath.write_text(json.dumps(complete_graph_doc(4)))
        out = tmp_path / "embed.json"
        assert main(["embed", "--graph", str(gpath), "--coin", json.dumps(self.K4_COIN),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        coin = doc["tessellations"][1]["polygons"]
        assert [p["vertices"] for p in coin] == [[0], [1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        assert coin[0]["amplitudes"] == [[1.0, 0.0]]
        assert coin[1]["amplitudes"] == [[0.6, 0.0], [0.0, 0.8]]
        assert doc["report"]["max_state_deviation"] <= 1e-12

    def test_out_of_range_coin_arc(self, tmp_path, capsys):
        gpath = tmp_path / "k4.json"
        gpath.write_text(json.dumps(complete_graph_doc(4)))
        coin = '{"type": "reflection", "theta": 0.4, "polygons": [{"vertices": [99]}]}'
        assert main(["embed", "--graph", str(gpath), "--coin", coin]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vertex 99 out of range")
        assert err.count("\n") == 1 and "Traceback" not in err


@st.composite
def embed_inputs(draw):
    """A graph document on 2-6 vertices with no isolated vertex, a coin descriptor and
    0-3 steps.  The coin is the Grover coin, or a reflection coin whose polygons split
    each vertex's arcs at random; a polygon carries no amplitudes (uniform) or parts
    drawn from SPECIAL_PARTS and random parts scaled to a unit norm."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 6))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}  # every vertex touches one
    for _ in range(draw(st.integers(0, n * (n - 1) // 2))):
        edges.add(tuple(sorted(rng.choice(n, 2, replace=False).tolist())))
    graph = {"vertices": n, "edges": [list(e) for e in sorted(edges)]}
    theta, steps = draw(st.floats(-PI, PI)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        return graph, {"type": "grover", "theta": theta}, steps
    offsets = clique_expansion(build_graph(n, edges)).offsets
    polygons = []
    for v in range(n):
        arcs = rng.permutation(np.arange(offsets[v], offsets[v + 1]))
        cuts = rng.choice(np.arange(1, len(arcs)), int(rng.integers(len(arcs))), replace=False)
        for part in np.split(arcs, np.sort(cuts)):
            polygons.append({"vertices": part.tolist()})
            if draw(st.booleans()):
                continue
            parts = rng.standard_normal((len(part), 2)) + 0.5
            special = np.zeros(parts.shape, dtype=bool)
            for row, value in enumerate(draw(st.lists(st.sampled_from([None, *SPECIAL_PARTS]),
                                                      min_size=len(part), max_size=len(part)))):
                if value is not None:  # one part of the entry; the other stays nonzero
                    column = int(rng.integers(2))
                    parts[row, column], special[row, column] = value, True
            parts[~special] *= math.sqrt(1 - np.sum(parts[special] ** 2)) \
                / np.linalg.norm(parts[~special])
            polygons[-1]["amplitudes"] = parts.tolist()
    return graph, {"type": "reflection", "theta": theta, "polygons": polygons}, steps


class TestEmbedWriter:
    """`embed` writes its document as `json.dumps(doc, indent=2)` of the reference would."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=embed_inputs())
    def test_file_is_json_dumps_of_the_document(self, inputs):
        graph, coin, steps = inputs
        certified, certify = [], cli.certify_equivalence

        def spy(cw, *args):
            certified.append((cw, certify(cw, *args)))
            return certified[-1][1]

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "certify_equivalence", spy):
            gpath, out = Path(tmp) / "g.json", Path(tmp) / "embed.json"
            gpath.write_text(json.dumps(graph))
            with mock.patch("sys.stdout"):
                assert main(["embed", "--graph", str(gpath), "--coin", json.dumps(coin),
                             "--steps", str(steps), "--out", str(out)]) == 0
            [(cw, report)] = certified
            doc = reference_to_document(cw.expansion.expanded, cw.tessellations)
            doc["report"] = {"max_state_deviation": report.max_state_deviation,
                             "steps_checked": report.steps_checked,
                             "arcs": cw.expansion.arcs.tolist()}
            assert out.read_text() == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(deviation=st.floats(), labels=st.lists(st.text(), min_size=8, max_size=8))
    @example(deviation=math.nan, labels=SPECIAL_LABELS)
    @example(deviation=math.inf, labels=["0,0"] * 8)
    @example(deviation=-math.inf, labels=["%r"] * 8)
    def test_writer_is_json_dumps(self, deviation, labels):
        # any float as the report's deviation (NaN and Infinity are written by
        # json.dumps), and any label text, % included
        cw = grover_coined_walk(build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        expanded = cw.expansion.expanded
        g = build_graph(expanded.vertex_count, expanded.edge_array, labels)
        arcs = cw.expansion.arcs.tolist()
        report = {"max_state_deviation": deviation, "steps_checked": 3, "arcs": arcs}
        doc = reference_to_document(g, cw.tessellations) | {"report": report}
        texts = document_texts(g, cw.tessellations, report=dict(report, arcs=np.array(arcs)))
        assert "".join(texts) == json.dumps(doc, indent=2) + "\n"


class TestOneParser:
    """`main` builds its parser once per process and looks each handler up per call."""

    @staticmethod
    def surface(tmp_path):
        return ["sigma-surface", "--theta-count", "2", "--alpha-count", "2",
                "--out", str(tmp_path / "surface.tsv")]

    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert main(self.surface(tmp_path)) == 0
        assert main(self.surface(tmp_path)) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [["simulate", "--steps", "two"], ["--help"], ["fly"], [],
                                      ["embed", "--steps", "3"]])
    def test_an_exit_leaves_the_next_call_working(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert main(self.surface(tmp_path)) == 0
        assert main(["embed", "--graph", str(tmp_path / "missing.json")]) == 1
        assert "missing.json" in capsys.readouterr().err

    def test_a_handler_patched_later_runs(self, tmp_path, monkeypatch):
        assert main(self.surface(tmp_path)) == 0
        monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
        assert main(["validate", "--graph", "unused.json"]) == 7


def one_error_line(capsys, field):
    """Assert stderr is one `error:` line naming `field`, with no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestMalformedDocuments:
    """A malformed document exits 1 with one error line naming the offending key.

    Past the first three cases (missing keys), each document was once
    accepted with its ids truncated to integers, or crashed with a traceback.
    `coin` None runs `validate`; otherwise `embed`, with `--coin` when it is
    non-empty.
    """

    @pytest.mark.parametrize("doc,coin,key", [
        ({"edges": [[0, 1]]}, None, "vertices"),
        (complete_graph_doc(3), '{"type":"reflection","theta":0.4,"polygons":[{}]}',
         "vertices"),
        ({"vertices": 2, "edges": [[0, 1]], "tessellations": [{}]}, None, "polygons"),
        ({"vertices": 2.9, "edges": [[0, 1]]}, None, "vertices"),
        ({"vertices": "3", "edges": [[0, 1]]}, None, "vertices"),
        ({"vertices": 3, "edges": [[0, 1.7]]}, None, "edges"),
        ({"vertices": 3, "edges": {"0": 1}}, None, "edges"),
        ({"vertices": 2, "edges": [[0, 1]], "labels": 7}, None, "labels"),
        ({"vertices": 2, "edges": [[0, 1]], "tessellations": {}}, None, "tessellations"),
        ({"vertices": 2, "edges": [[0, 1]], "tessellations": [{"polygons": 3}]}, None,
         "polygons"),
        ({"vertices": 3, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": [0.6, 1.2]}]}]}, None, "vertices"),
        ({"vertices": 2, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": 1}]}]}, None, "vertices"),
        ({"vertices": 2, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": [0, 1], "amplitudes": 0.7}]}]}, None,
         "amplitudes"),
        ({"vertices": 2, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": [0, 1], "amplitudes": [0.6, 0.8]}]}]},
         None, "amplitudes"),
        ({"vertices": 2, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": [0, 1],
                                           "amplitudes": [["0.6", 0], [0.8, 0]]}]}]},
         None, "amplitudes"),
        ({"vertices": 2, "edges": [[0, 1]],
          "tessellations": [{"polygons": [{"vertices": [0, 1], "amplitudes": [[1, 0], [0]]}]}]},
         None, "amplitudes"),
        (complete_graph_doc(3), '{"type": "reflection", "theta": 0.4, '
                                '"polygons": [{"vertices": [0.5]}]}', "vertices"),
        (complete_graph_doc(3), '{"type": "reflection", "theta": 0.4, "polygons": {}}',
         "polygons"),
        (dict(complete_graph_doc(3), coin=[{"type": "grover"}]), "", "coin"),
        ({"vertices": 3, "edges": [[True, 2], [0, 1]]}, None, "edges"),
        ({"vertices": 3, "edges": [[0, 1], [1, 2]],
          "tessellations": [{"polygons": [{"vertices": [0]}, {"vertices": [True, 2]}]}]},
         None, "vertices"),
    ], ids=["graph", "coin-polygon", "tessellation", "count-float", "count-string",
            "edge-float", "edges-not-list", "labels-not-list", "tessellations-not-list",
            "polygons-not-list", "polygon-float", "vertices-not-list", "amplitudes-not-list",
            "amplitudes-not-pairs", "amplitude-string", "amplitudes-ragged", "coin-polygon-float",
            "coin-polygons-not-list", "coin-not-object", "edge-bool", "polygon-bool"])
    def test_missing_key_is_one_error_line(self, tmp_path, capsys, doc, coin, key):
        gpath = tmp_path / "doc.json"
        gpath.write_text(json.dumps(doc))
        argv = ["validate", "--graph", str(gpath)] if coin is None else \
            ["embed", "--graph", str(gpath), *(["--coin", coin] if coin else []),
             "--out", str(tmp_path / "e.json")]
        assert main(argv) == 1
        one_error_line(capsys, repr(key))


class TestMalformedConfigs:
    """A malformed run configuration exits 1 with one error line, never a traceback."""

    @pytest.mark.parametrize("config,flags", [
        (None, ["--init", "superpos:"]),
        (None, ["--init", "superpos:,"]),
        ({"theta": "pi/4", "init": 5}, []),
        ({"theta": "pi/4", "init": [[0, "a", 0]]}, []),
        ({"theta": "pi/4", "init": [[0.5, 1, 0]]}, []),
        ({"theta": "pi/4", "init": [[0, 1]]}, []),
        ([1, 2], []),
        ({"theta": "pi/4", "steps": None}, []),
        ({"theta": "pi/4", "steps": 2.5}, []),
        ({"theta": "pi/4", "out": 5}, []),
        ({"theta0": None, "theta1": "pi/4"}, []),
    ], ids=["superpos-empty", "superpos-commas", "init-number", "init-string-amplitude",
            "init-float-position", "init-pair", "config-list", "steps-null", "steps-float",
            "out-number", "theta-null"])
    def test_one_error_line(self, tmp_path, capsys, config, flags):
        argv = ["simulate", "--theta", "pi/4", "--steps", "2", *flags]
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = ["simulate", "--config", str(cfg), *flags]
        assert main(argv) == 1
        one_error_line(capsys, "")

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_degenerate_angle_is_one_error_line(self, capsys, command):
        # one angle rule for both commands, so one error line naming the angle
        assert main([command, "--theta", "pi/4", "--alpha", "0", "--steps", "2"]) == 1
        one_error_line(capsys, "alpha")

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_coin_key_is_unknown(self, tmp_path, capsys, command):
        # a run config never selected a coin: the key was read and then ignored
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": "pi/4", "steps": 2, "coin": {"type": "grover"}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.tsv")]) == 1
        one_error_line(capsys, "unknown config key 'coin'")

    @pytest.mark.parametrize("key", ["__doc__", "__init__", "__class__"])
    def test_attribute_that_is_not_a_field_is_unknown(self, tmp_path, capsys, key):
        # a RunConfig attribute outside its fields once passed the key check and then
        # raised a KeyError traceback from the type table
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": "pi/4", "steps": 2, key: "x"}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tsv")]) == 1
        one_error_line(capsys, f"unknown config key {key!r}")

    @pytest.mark.parametrize("argv,config", [
        (["simulate", "--theta", "pi/0"], None),
        (["simulate", "--theta", "nan"], None),
        (["simulate"], '{"theta": "pi/0"}'),
        (["simulate"], '{"theta": NaN}'),
        (["analytic"], '{"theta": Infinity}'),
        (["sigma-surface", "--theta-max", "pi/0"], None),
        (["simulate"], '{"theta": true}'),
        (["analytic"], '{"theta": "pi/4", "phi1": false}'),
    ], ids=["flag-zero-denominator", "flag-nan", "config-zero-denominator", "config-nan",
            "config-infinity", "surface-bound-zero-denominator", "config-true", "config-false"])
    def test_bad_angle_is_one_error_line(self, tmp_path, capsys, argv, config):
        # a zero denominator once ended in a ZeroDivisionError traceback, nan ran every
        # step before the final norm check failed, and true ran at 1 rad
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(config)
            argv = [*argv, "--config", str(cfg), "--steps", "2"]
        # flags and config keys share one parser: exit 1, no argparse usage block
        assert main([*argv, "--out", str(tmp_path / "x.tsv")]) == 1
        one_error_line(capsys, "angle")

    @pytest.mark.parametrize("coin", ['{"type": "grover", "theta": true}',
                                      '{"type": "reflection", "theta": false, "polygons": []}'])
    def test_bool_coin_angle_is_one_error_line(self, tmp_path, capsys, coin):
        # a coin descriptor's theta is read as config angles are: true once ran at 1 rad
        gpath = tmp_path / "doc.json"
        gpath.write_text(json.dumps(complete_graph_doc(3)))
        assert main(["embed", "--graph", str(gpath), "--coin", coin,
                     "--out", str(tmp_path / "e.json")]) == 1
        one_error_line(capsys, "angle")

    @pytest.mark.parametrize("command,steps", [("simulate", "0"), ("analytic", "5")])
    def test_line_init_outside_ring_labels(self, tmp_path, capsys, command, steps):
        # the default ring's labels are -n/2 .. n/2 - 1; position 100 once wrapped silently
        assert main([command, "--theta", "pi/4", "--steps", steps,
                     "--init", "superpos:0,100", "--out", str(tmp_path / "x.tsv")]) == 1
        one_error_line(capsys, "vertex 100 out of range")

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("flags,field", [
        (["--steps", "-1"], "steps must be >= 0, got -1"),
        (["--steps", "3", "--init", "basis:524288"], "vertex 524288 out of range for 1048576"),
    ], ids=["negative-steps", "init-past-the-labels"])
    def test_line_checks_come_before_the_light_cone(self, tmp_path, capsys, command, flags,
                                                    field):
        # the ring laid out round the cone is smaller than --ring-size: an error names
        # the steps and the ring the user gave
        assert main([command, "--theta", "pi/4", "--ring-size", str(2 ** 20), *flags,
                     "--out", str(tmp_path / "x.tsv")]) == 1
        one_error_line(capsys, field)


class TestValidate:
    def test_line_file_valid(self, tmp_path, capsys):
        doc = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]],
               "tessellations": [
                   {"polygons": [{"vertices": [0, 1]}, {"vertices": [2, 3]}]},
                   {"polygons": [{"vertices": [1, 2]}, {"vertices": [0]},
                                 {"vertices": [3]}]}]}
        gpath = tmp_path / "line.json"
        gpath.write_text(json.dumps(doc))
        assert main(["validate", "--graph", str(gpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(t["valid"] for t in report["tessellations"])
        assert report["uncovered_edges"] == []

    def test_overlap_reported_not_fatal(self, tmp_path, capsys):
        doc = {"vertices": 3, "edges": [[0, 1], [1, 2]],
               "tessellations": [
                   {"polygons": [{"vertices": [0, 1]}, {"vertices": [1, 2]}]}]}
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(doc))
        assert main(["validate", "--graph", str(gpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tessellations"][0]["valid"] is False
        assert "vertex 1" in report["tessellations"][0]["error"]

    def test_uncovered_edge_listed(self, tmp_path, capsys):
        doc = {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]],
               "tessellations": [
                   {"polygons": [{"vertices": [0, 1]}, {"vertices": [2]}]},
                   {"polygons": [{"vertices": [0]}, {"vertices": [1, 2]}]}]}
        gpath = tmp_path / "tri.json"
        gpath.write_text(json.dumps(doc))
        assert main(["validate", "--graph", str(gpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["uncovered_edges"] == [[0, 2]]


class TestGoldenOutput:
    """Byte-exact TSV and stdout of simulate and analytic.

    Inputs are chosen so every number is exact in IEEE arithmetic on any
    machine: theta = 0 makes the walk the identity, and the analytic
    wavefunction is replaced by a fixed vector.
    """

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "dist.tsv"
        assert main(["simulate", "--theta", "0", "--steps", "5",
                     "--init", "superpos:-3,0,2", "--out", str(out)]) == 0
        assert out.read_text() == ("position\tprobability\n"
                                   "-3\t0.33333333333333343\n"
                                   "0\t0.33333333333333343\n"
                                   "2\t0.33333333333333343\n")
        assert capsys.readouterr().out == ("total_probability\t1.0000000000000002\n"
                                           "sigma\t2.0548046676563256\n")

    def test_analytic(self, tmp_path, capsys, monkeypatch):
        from sqw import line_analytic

        def fixed(params, t, positions, **kwargs):
            amps = np.zeros(len(positions), dtype=complex)
            amps[list(positions).index(-3)] = 0.6
            amps[list(positions).index(1)] = 0.8j
            return amps

        monkeypatch.setattr(line_analytic, "wavefunction", fixed)
        out = tmp_path / "ana.tsv"
        assert main(["analytic", "--theta", "0", "--steps", "3",
                     "--init", "superpos:-3,0,2", "--out", str(out)]) == 0
        assert out.read_text() == (
            "position\tprobability\tprobability_sim\tdeviation\n"
            "-3\t0.35999999999999999\t0.33333333333333343\t0.022649730810374136\n"
            "0\t0\t0.33333333333333343\t0.57735026918962584\n"
            "1\t0.64000000000000012\t0\t0.80000000000000004\n"
            "2\t0\t0.33333333333333343\t0.57735026918962584\n")
        assert capsys.readouterr().out == ("max_deviation\t0.80000000000000004\n"
                                           "total_probability\t1\n")


class TestGoldenTables:
    """Byte-exact sigma-surface TSV and embed document, with portable expectations."""

    def test_sigma_surface(self, tmp_path):
        from sqw.line_analytic import closed_form_sigma2

        out = tmp_path / "surface.tsv"
        assert main(["sigma-surface", "--theta-min", "0", "--theta-max", "pi",
                     "--theta-count", "5", "--alpha-min", "pi/7", "--alpha-max", "pi",
                     "--alpha-count", "6", "--out", str(out)]) == 0
        # alpha runs past pi/2 up to pi, so half the cells are mirrored
        rows = [f"{th:.17g}\t{al:.17g}\t{closed_form_sigma2(th, min(al, PI - al), 1):.17g}\n"
                for th in np.linspace(0, PI, 5).tolist()
                for al in np.linspace(PI / 7, PI, 6).tolist()]
        assert out.read_text() == "theta\talpha\tsigma2_over_t2\n" + "".join(rows)

    def test_embed_zero_steps(self, tmp_path, capsys):
        # a triangle {0, 1, 2} with a pendant vertex 3; arcs by vertex, then edge label:
        # 0,0 0,1 | 1,0 1,2 | 2,1 2,2 2,3 | 3,3
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
                                     "labels": ["a", "b", "c", "d"]}))
        # polygons out of canonical order, vertices unsorted within each polygon
        coin = {"type": "reflection", "theta": "pi/3", "polygons": [
            {"vertices": [7]},
            {"vertices": [6, 4], "amplitudes": [[0, 0.6], [0.8, 0]]},
            {"vertices": [3, 2]},
            {"vertices": [5]},
            {"vertices": [1, 0], "amplitudes": [[-0.0, 0.6], [0.8, 0]]}]}
        out = tmp_path / "embed.json"
        assert main(["embed", "--graph", str(gpath), "--coin", json.dumps(coin),
                     "--steps", "0", "--out", str(out)]) == 0
        s = [1 / math.sqrt(2), 0.0]
        expected = {
            "vertices": 8,
            "edges": [[0, 1], [0, 2], [1, 4], [2, 3], [3, 5], [4, 5], [4, 6], [5, 6], [6, 7]],
            "labels": ["0,0", "0,1", "1,0", "1,2", "2,1", "2,2", "2,3", "3,3"],
            "tessellations": [
                {"polygons": [{"vertices": pair, "amplitudes": [s, s]}
                              for pair in ([0, 2], [1, 4], [3, 5], [6, 7])]},
                {"polygons": [
                    {"vertices": [0, 1], "amplitudes": [[0.8, 0.0], [-0.0, 0.6]]},
                    {"vertices": [2, 3], "amplitudes": [s, s]},
                    {"vertices": [4, 6], "amplitudes": [[0.8, 0.0], [0.0, 0.6]]},
                    {"vertices": [5], "amplitudes": [[1.0, 0.0]]},
                    {"vertices": [7], "amplitudes": [[1.0, 0.0]]}]}],
            "report": {"max_state_deviation": 0.0, "steps_checked": 0,
                       "arcs": [[0, 0], [0, 1], [1, 0], [1, 2], [2, 1], [2, 2], [2, 3], [3, 3]]},
        }
        assert out.read_text() == json.dumps(expected, indent=2) + "\n"
        assert capsys.readouterr().out == "max_state_deviation\t0\n"


class TestNoPolygonOnIoPaths:
    """embed, validate and graph simulate on small documents, read as flat arrays."""

    def test_embed(self, tmp_path, capsys):
        gpath = tmp_path / "k4.json"
        gpath.write_text(json.dumps(complete_graph_doc(4)))
        coin = {"type": "reflection", "theta": 0.4, "polygons": [
            {"vertices": [11, 9, 10]}, {"vertices": [2, 1], "amplitudes": [[0, 0.8], [0.6, 0]]},
            {"vertices": [0]}, {"vertices": [5, 3, 4]}, {"vertices": [6, 7, 8]}]}
        for spec in ('{"type": "grover"}', json.dumps(coin)):
            out = tmp_path / "embed.json"
            assert main(["embed", "--graph", str(gpath), "--coin", spec, "--steps", "3",
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert [p["vertices"][0] for p in doc["tessellations"][1]["polygons"]] == \
                sorted(p["vertices"][0] for p in doc["tessellations"][1]["polygons"])

    def test_validate(self, tmp_path, capsys):
        doc = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]], "tessellations": [
            {"polygons": [{"vertices": [3]}, {"vertices": [2, 0]}, {"vertices": [1]}]},
            {"polygons": [{"vertices": [1, 0]}, {"vertices": [2, 1]}, {"vertices": [3]}]},
            {"polygons": [{"vertices": [3, 2]}, {"vertices": [1, 0]}]}]}
        gpath = tmp_path / "doc.json"
        gpath.write_text(json.dumps(doc))
        assert main(["validate", "--graph", str(gpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [t["valid"] for t in report["tessellations"]] == [False, False, True]
        assert report["tessellations"][0]["error"].startswith("polygon 0 is not a clique")
        assert "vertex 1" in report["tessellations"][1]["error"]
        assert report["uncovered_edges"] == [[1, 2]]

    def test_simulate_never_orders_polygons(self, tmp_path, monkeypatch):
        # the step path reads the stored arrays; the canonical order would cost a sort
        from sqw import graphs

        def refuse(*args):
            raise AssertionError("canonical order computed on the simulate path")

        monkeypatch.setattr(graphs, "canonical_order", refuse)
        self.test_graph_simulate(tmp_path)
        assert main(["simulate", "--theta", "pi/3", "--steps", "20", "--init", "superpos:0,1",
                     "--out", str(tmp_path / "line.tsv")]) == 0

    def test_graph_simulate(self, tmp_path):
        doc = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "tessellations": [
            {"polygons": [{"vertices": [3, 2]}, {"vertices": [1, 0]}]},
            {"polygons": [{"vertices": [2, 1]}, {"vertices": [3, 0]}]}]}
        gpath = tmp_path / "ring.json"
        gpath.write_text(json.dumps(doc))
        assert main(["simulate", "--model", "graph", "--graph", str(gpath), "--theta", "pi/3",
                     "--steps", "5", "--init", "basis:0", "--out", str(tmp_path / "d.tsv")]) == 0


def count_calls(monkeypatch, name):
    """Count the calls of sqw.graphs.<name> wherever a sqw module holds it; the
    returned list gets the arguments of each call."""
    from sqw import graphs
    original, calls = getattr(graphs, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sqw" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestEachInputCheckedOnce:
    """The CLI groups each tessellation by polygon size once and validates it once."""

    def test_line_simulate(self, tmp_path, monkeypatch):
        groupings = count_calls(monkeypatch, "size_blocks")
        assert main(["simulate", "--theta", "pi/4", "--steps", "20", "--init", "basis:0",
                     "--out", str(tmp_path / "line.tsv")]) == 0
        assert len(groupings) == 2

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_line_builds_no_graph(self, command, tmp_path, monkeypatch):
        # the ring's pairs compile straight into reflections: its cliques and
        # coverage hold by construction
        graphs = count_calls(monkeypatch, "build_graph")
        validations = count_calls(monkeypatch, "validate_tessellation")
        assert main([command, "--theta", "pi/4", "--steps", "20", "--init", "basis:0",
                     "--out", str(tmp_path / "line.tsv")]) == 0
        assert graphs == [] and validations == []

    def test_graph_simulate(self, tmp_path, monkeypatch):
        groupings = count_calls(monkeypatch, "size_blocks")
        TestNoPolygonOnIoPaths().test_graph_simulate(tmp_path)  # two tessellations
        assert len(groupings) == 2

    def test_validate(self, tmp_path, capsys, monkeypatch):
        groupings = count_calls(monkeypatch, "size_blocks")
        validations = count_calls(monkeypatch, "validate_tessellation")
        TestNoPolygonOnIoPaths().test_validate(tmp_path, capsys)  # two invalid, one valid
        assert len({id(t) for _, t in validations}) == len(validations) == 3
        assert len(groupings) == 3


class TestMemoryBudget:
    """A CLI run holds memory linear in its input, bounded by a stated multiple."""

    @staticmethod
    def peak(argv) -> int:
        """The tracemalloc peak of one CLI call, which must exit 0."""
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def expanded_grid(m, path) -> int:
        """Write the clique-expanded m x m grid with its Grover walk's two tessellations,
        as `embed` makes it, to path; return its vertex count, the arcs of the grid."""
        cw = grover_coined_walk(grid_graph(m))
        path.write_text(json.dumps(to_document(cw.expansion.expanded, cw.tessellations)))
        return cw.expansion.arc_count

    @pytest.mark.parametrize("n", [2 ** 16, 2 ** 18])
    def test_line_simulate_peak_in_state_sizes(self, n, tmp_path, capsys):
        # 32 steps from two sites: a light cone of 134 sites, which misses the antipode,
        # so the CLI builds a 136-site ring round it and nothing of n sites (see
        # test_line_peak_in_cone_sites); the line builds no graph and no tessellation.
        # 0.26 state sizes measured at n = 2^16 as a process's first call, which also
        # builds the parser, and 0.012 at n = 2^18 after it
        tracemalloc.start()
        try:
            assert main(["simulate", "--theta", "pi/4", "--alpha", "pi/3", "--beta", "pi/3",
                         "--steps", "32", "--ring-size", str(n), "--init", "superpos:-1,2",
                         "--out", str(tmp_path / "line.tsv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "total_probability" in capsys.readouterr().out
        assert peak < 12 * (16 * n)

    @pytest.mark.parametrize("n", [2 ** 16, 2 ** 18])
    def test_line_analytic_peak_in_state_sizes(self, n, tmp_path):
        # the walk of test_line_simulate_peak_in_state_sizes on its 136-site ring, then
        # the momentum sum (32 steps: 256 momenta) and output columns of 136 entries:
        # 0.18 state sizes measured at n = 2^16 as a process's first analytic call, which
        # also fills numpy's FFT caches, and 0.012 at n = 2^18 after it
        peak = self.peak(["analytic", "--theta", "pi/4", "--alpha", "pi/3", "--beta", "pi/3",
                          "--steps", "32", "--ring-size", str(n), "--init", "superpos:-1,2",
                          "--out", str(tmp_path / "line.tsv")])
        assert peak < 12 * (16 * n)

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("n", [2 ** 16, 2 ** 20])
    def test_line_peak_in_cone_sites(self, command, n, tmp_path):
        # --ring-size bounds the walk and no longer sets its work: 32 steps from sites -1
        # and 2 reach a cone of 134 sites, [-66, 67], and the ring holds those and two
        # more.  The peak, the call's own objects (argv, config, TSV text) and arrays of
        # a few ring sizes, is the same at both n: ~23 cone sizes of 16 bytes measured.
        # The first call builds the parser and numpy's FFT caches, which stay; so it runs
        # once before the one measured
        cone = 4 * 32 + 3 + 3
        argv = [command, "--theta", "pi/4", "--alpha", "pi/3", "--beta", "pi/3", "--steps",
                "32", "--ring-size", str(n), "--init", "superpos:-1,2",
                "--out", str(tmp_path / "line.tsv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            peak = self.peak(argv)
        assert peak < 32 * (16 * cone)

    @pytest.mark.parametrize("count", [201, 402])
    def test_sigma_surface_peak_in_table_sizes(self, count, tmp_path):
        # a table of count^2 float64 cells; its TSV text, ~60 bytes a row built as one
        # string from a list of row strings, sets the peak: 24.85 and 24.81 table sizes
        # measured
        peak = self.peak(["sigma-surface", "--theta-count", str(count), "--alpha-count",
                          str(count), "--out", str(tmp_path / "surface.tsv")])
        assert peak < 27 * (8 * count ** 2)

    @pytest.mark.parametrize("m", [24, 48])
    def test_embed_peak_in_arc_sizes(self, m, tmp_path):
        # the m x m grid's 4m(m - 1) arcs.  Writing the expanded document sets the peak:
        # the walk and the expanded graph hold ~52 and ~33 arc-array sizes (16 bytes an
        # arc), and the writer adds the text (~24) and, while it fills a tessellation's
        # template, that template and one Python object per vertex and amplitude part.
        # The arc map is an (A, 2) array, with no Python tuple per arc: 105.3 and 85.4
        # measured, each in a fresh process
        g = grid_graph(m)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(to_document(g), coin={"type": "grover"})))
        arcs = 2 * len(g.edge_array)
        peak = self.peak(["embed", "--graph", str(path), "--out", str(tmp_path / "embed.json")])
        assert peak < 116 * (16 * arcs)

    @pytest.mark.parametrize("m", [32, 64])
    def test_validate_peak_in_arc_sizes(self, m, tmp_path):
        # the parsed document, Python lists of ints (~60 arc-array sizes of 16 bytes an
        # arc), and its text (~7) set the peak: 67.2 and 68.0 measured
        arcs = self.expanded_grid(m, tmp_path / "expanded.json")
        peak = self.peak(["validate", "--graph", str(tmp_path / "expanded.json")])
        assert peak < 75 * (16 * arcs)

    @pytest.mark.parametrize("m", [32, 64])
    def test_graph_simulate_peak_in_state_sizes(self, m, tmp_path):
        # a state holds one amplitude per arc; as in validate, the parsed document sets
        # the peak: 67.5 and 68.1 state sizes measured
        arcs = self.expanded_grid(m, tmp_path / "expanded.json")
        peak = self.peak(["simulate", "--model", "graph", "--graph",
                          str(tmp_path / "expanded.json"), "--theta", "pi/3", "--steps", "64",
                          "--init", "basis:0", "--out", str(tmp_path / "graph.tsv")])
        assert peak < 75 * (16 * arcs)
