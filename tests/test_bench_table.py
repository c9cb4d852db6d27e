"""The benchmark's span table names only functions the package has."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "sqwbench" / "layers.py"


def test_every_traced_name_resolves():
    # a renamed function would otherwise read as absent and its layer metrics as 0
    spec = importlib.util.spec_from_file_location("sqwbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert [name for name in layers.TABLE if layers._resolve(name) is None] == []
