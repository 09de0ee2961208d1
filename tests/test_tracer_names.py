"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/tracer.py names its layers' functions as strings and looks each
up when it installs, so a renamed or deleted function would otherwise show
only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = _tracer().LAYERS
    assert layers
    missing = [
        f"{module}.{name}"
        for module, names in layers.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"coset_radon.{module}"), name, None))
    ]
    assert missing == []
