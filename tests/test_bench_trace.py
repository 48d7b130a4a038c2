"""Every function the benchmark's per-layer tracer wraps still exists.

``bench/layers.py`` names each traced callable as (module, owner, attr);
a rename in the package would break ``bench/run.py --trace 1`` only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


@pytest.mark.parametrize("entry", traced_entries(), ids=lambda e: e[0])
def test_traced_callable_resolves(entry):
    _, module, owner, attr, _ = entry
    target = importlib.import_module(f"twistedops.{module}")
    if owner:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))
