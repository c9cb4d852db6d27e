"""The benchmark's span table names only functions the package has."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "sqwbench" / "layers.py"


def test_every_traced_name_resolves():
    # a renamed function would otherwise read as absent and its layer metrics as 0
    spec = importlib.util.spec_from_file_location("sqwbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert [name for name in layers.TABLE if layers._resolve(name) is None] == []


HOOKED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from sqw import cli
from layers import Tracer

tmp = Path(sys.argv[3])
doc = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "tessellations": [
    {"polygons": [{"vertices": [0, 1]}, {"vertices": [2, 3]}]},
    {"polygons": [{"vertices": [1, 2]}, {"vertices": [0, 3]}]}]}
(tmp / "ring.json").write_text(json.dumps(doc))
graph = ["--graph", str(tmp / "ring.json")]
tracer = Tracer("hooks")
tracer.install()
codes = [cli.main(argv) for argv in (
    ["simulate", "--theta", "pi/4", "--steps", "10", "--init", "basis:0",
     "--out", str(tmp / "line.tsv")],
    ["simulate", "--model", "graph", *graph, "--theta", "pi/3", "--steps", "5",
     "--init", "basis:0", "--out", str(tmp / "graph.tsv")],
    ["validate", *graph],
    ["embed", *graph, "--coin", '{"type":"grover"}', "--steps", "3",
     "--out", str(tmp / "embed.json")])]
print(json.dumps({"codes": codes, "hook_errors": dict(tracer.hook_errors),
                  "absent": tracer.absent, "counts": sorted(tracer.counts)}))
"""


def test_counter_hooks_read_the_package(tmp_path):
    # a hook that reads a renamed attribute fails only inside the tracer, which counts
    # the failure and carries on: the benchmark would show the layer's counts as 0
    root = LAYERS.parent.parent
    run = subprocess.run([sys.executable, "-c", HOOKED_RUN, str(root / "src"), str(LAYERS.parent),
                          str(tmp_path)], capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["hook_errors"] == {} and report["absent"] == []
    assert {"graphs.edges", "graphs.polygons", "coined.arcs"} <= set(report["counts"])
