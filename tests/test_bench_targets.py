"""The benchmark's layer trace must find every entry point it wraps.

perfbench/spans.py wraps program functions by name; a renamed or removed
function would be listed as absent and its per-layer metrics would read 0
without failing the benchmark.  This test reads perfbench/ only.
"""

import importlib.util
from pathlib import Path

import synfuzz  # noqa: F401  (the tracer wraps the loaded synfuzz modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
