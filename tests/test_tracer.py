"""The bench code, perfbench/spans.py and workloads.py, still finds and reads what it
names in circlecorr: the tracer wraps every layer, the replay recounts every kind of
batch, and the identities compute."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from circlecorr import cli, paircorr
from circlecorr.sequences import SequenceSpec, generate

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_bench(name, monkeypatch):
    """perfbench/<name>.py as a module, read only: no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_layer_and_the_point_io(tmp_path, monkeypatch):
    spans = load_bench("spans", monkeypatch)
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


def test_the_replay_recounts_every_kind_of_batch(monkeypatch):
    spans = load_bench("spans", monkeypatch)
    batches = [generate(SequenceSpec("vdc", base=3), 500),
               generate(SequenceSpec("iid", seed=1), 500),
               generate(SequenceSpec("iid", seed=1, precision=128), 500),
               generate(SequenceSpec("sqrt_frac"), 500)]
    with spans.Tracer("check").installed() as tracer:
        for batch in batches:
            paircorr.f_stat(batch, 1, Fraction(1, 2))
    assert len(tracer.calls["paircorr.f_stat"]) == len(batches)
    assert spans.replay(tracer, per_point=True) == []


def test_the_rotation_sweep_identities_hold(tmp_path, monkeypatch):
    spans, workloads = load_bench("spans", monkeypatch), load_bench("workloads", monkeypatch)
    steps = workloads.rotation_sweep("smoke", 0, tmp_path)
    truths = workloads.identity_truths(steps)
    assert [len(truths[step.key]) for step in steps] == [len(step.cells) for step in steps]
    for step, code, text in spans.traced_pass(spans.Tracer("check"), steps, tmp_path):
        outcome = workloads.check_step(step, code, text, None, truths)
        assert (outcome.ops, outcome.problems) == (len(step.cells), ())
