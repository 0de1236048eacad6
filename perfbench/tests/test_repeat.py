"""Per-layer counts repeat exactly across two traced runs of one seed."""

import pytest

import layers
import run
from conftest import ROOT

#: Metrics that are times, or that depend on them.
_TIMED_UNITS = ("s",)
#: Byte counts that include wall-clock provenance the program writes: each
#: checkpoint's day manifest carries its creation time, so the bytes
#: written differ by a few bytes between identical runs.
_VOLATILE = {"faults.checkpoint.bytes_written"}


@pytest.mark.parametrize("workload", ["study", "checkpointed"])
def test_traced_counts_repeat(workload):
    first, second = (run.run_round(ROOT, workload, 5, trace=True, verify=False)
                     for _ in range(2))
    assert first["digest"] == second["digest"]
    a, b = run._layer_metrics(first), run._layer_metrics(second)
    counted = [m.name for m in layers.LAYER_METRICS
               if m.unit not in _TIMED_UNITS and m.name in a and m.name not in _VOLATILE]
    assert counted
    assert {m: a[m] for m in counted} == {m: b[m] for m in counted}
    for name in _VOLATILE:
        assert a[name] == pytest.approx(b[name], rel=1e-4)
    assert any(a[m] for m in counted)
