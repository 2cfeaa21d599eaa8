"""The benchmark's tracer wraps library functions by name; each must still exist.

``bench/tracing.py`` looks its ``TRACED`` names up only when a traced run
starts, so a renamed or deleted function would break ``--trace 1`` runs
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr in tracing.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert tracing.TRACED and not missing
