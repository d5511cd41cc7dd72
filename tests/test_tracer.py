"""The bench tracer, perfbench/spans.py, still finds and wraps every layer it names."""

import importlib
import importlib.util
import sys
from pathlib import Path

from circlecorr import cli

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, read only: no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_tracer_wraps_every_layer_and_the_point_io(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    layers = [(importlib.import_module(f"circlecorr.{module}"), attr)
              for module, attr, *_ in spans.LAYERS]
    originals = [getattr(module, attr) for module, attr in layers]
    points = str(tmp_path / "points.csv")
    with spans.Tracer("check").installed() as tracer:
        for (module, attr), fn in zip(layers, originals):
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr} is not wrapped"
        assert cli.main(["gen", "--seq", "iid", "--n", "200", "--out", points]) == 0
        assert cli.main(["fstat", "--points", points, "--n", "200",
                         "--out", str(tmp_path / "f.csv")]) == 0
    assert {"cli.write_points_csv", "cli.read_points_csv"} <= {s["name"] for s in tracer.spans}
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(layers, originals))
