"""The benchmark's tracer (perfbench/tracer.py) wraps soclabel functions by
name and reads an absent one as 0. A rename must fail here instead of
silently zeroing a per-layer metric."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    absent = {
        name for name, module, attr in tracer.TARGETS
        if tracer._resolve(module, attr) is None
    }
    # pick_candidates and select_label were deleted with the per-sample
    # selection path; kmedoids with the single-k wrapper, whose metrics
    # already read 0 because training and select call cluster_labels;
    # ProbVector, whose call count read 0, with the one-row wrapper.
    assert absent == {
        "clustering.kmedoids", "clustering.pick_candidates", "labels.ProbVector",
        "labels.select_label",
    }
