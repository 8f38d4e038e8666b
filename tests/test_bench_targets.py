"""The benchmark's layer trace must find every entry point it wraps.

perfbench/spans.py wraps program functions by name; a renamed or removed
function would be listed as absent and its per-layer metrics would read 0
without failing the benchmark.  This test reads perfbench/ only.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import synfuzz.fuzzy  # noqa: F401  (the tracer wraps the modules run.py loads)

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


def test_quick_benchmark_run_passes_its_own_checks():
    """`perfbench/run.py --quick` runs one checked pass of each workload:
    recovered words, digest serialization and XOR-linearity.  It writes no
    files."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=SPANS.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for workload in ("enroll", "verify", "verify-stateless"):
        assert any(
            line.startswith(f"{workload}: ok (") and "absent []" in line for line in lines
        ), proc.stdout
