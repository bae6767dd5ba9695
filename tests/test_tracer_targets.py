"""The benchmark's tracer wraps program callables by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, cls_name, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
            assert owner is not None, f"{module_name}.{cls_name} is gone"
        assert callable(getattr(owner, attr, None)), f"{module_name}.{cls_name or ''}.{attr} is gone"
