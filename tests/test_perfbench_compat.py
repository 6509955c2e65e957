"""perfbench/layers.py still finds every amr name it wraps, and the entry points it calls keep `workers`.

perfbench instruments amr from the outside: it rebinds module attributes
(`learner.mape` and `reducer.mape` among them) and passes `workers=` to
the public entry points.  These tests load it by file path and never
touch its files.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from amr import learner, market, reducer

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


class LookupTracer:
    """Stands in for perfbench's tracer: `patch` only looks the name up."""

    def __init__(self):
        self.names = []

    def patch(self, module, attr, span, hook=None):
        getattr(module, attr)
        self.names.append(f"{module.__name__}.{attr}")


def test_layers_instrument_finds_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = LookupTracer()
    layers.instrument(tracer)
    for name in ("amr.learner.mape", "amr.reducer.mape", "amr.reducer.simulate_pk",
                 "amr.learner.energy", "amr.reducer.evaluate_subset"):
        assert name in tracer.names


@pytest.mark.parametrize(
    "entry_point",
    [learner.anneal, reducer.greedy_reduce, reducer.exhaustive_reduce, market.simulate_pk],
    ids=lambda f: f.__name__,
)
def test_entry_points_take_workers(entry_point):
    assert "workers" in inspect.signature(entry_point).parameters
