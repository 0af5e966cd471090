"""Every function the benchmark tracer wraps by name still exists.

perfbench/tracing.py replaces module-level references to the functions it
names; a rename in src/ would silently drop that span from the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [*tracing.TARGETS, ("pipeline", "_stage"), ("networks", "adam_step")]
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(f"riskdomains.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"riskdomains.{module_name}.{attr}")
    assert not missing
