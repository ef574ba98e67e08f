"""The benchmark's tracer wraps functions by (module, name); a rename in the
package would crash `perfbench/run.py --trace 1`.  Fail here instead."""

import importlib
import importlib.util
from pathlib import Path

from chiralva.chiral import ChiralData
from chiralva.vertex import VAData

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    tracing = _load_tracing()
    assert tracing.BOUNDARIES
    for module_name, attr, _span in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_chiral_data_keeps_its_cache():
    # tracing reads `len(A._cache)` for the chiral cache-size metric
    assert isinstance(ChiralData(VAData(0, "Q[z]", (), {}, ()))._cache, dict)
