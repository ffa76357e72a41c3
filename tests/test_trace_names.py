from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_trace_labels_resolve_to_library_functions():
    # bench/run.py --trace 1 wraps each label with getattr at install time,
    # so a renamed or deleted function would break the traced benchmark
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for label in spans.TRACED:
        mod, fn_name = label.split(".")
        fn = getattr(importlib.import_module("vsi." + mod), fn_name, None)
        if not callable(fn):
            missing.append(label)
    assert not missing, f"trace labels without a vsi function: {missing}"
    assert set(spans.CELLS) <= set(spans.TRACED)
