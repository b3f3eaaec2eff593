"""The benchmark's timing hooks still find every program function they wrap.

perfbench/probes.py replaces program attributes by name and skips any the
program lacks, so a renamed function would read as a zero metric with no
error. Here every installer runs against a `Patches` that records what it
could not find. The only misses allowed are tensor ops that the benchmark's
op list still names after they were fused away.
"""

import importlib.util
from pathlib import Path

import modse.tensor

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    """perfbench/probes.py as a private module, leaving sys.path and sys.modules as they are."""
    spec = importlib.util.spec_from_file_location("_modse_bench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_target():
    probes = _load_probes()

    class RecordingPatches(probes.Patches):
        def __init__(self):
            super().__init__()
            self.misses: list[tuple[object, str]] = []

        def wrap(self, owner, name, make):
            if getattr(owner, name, None) is None:
                self.misses.append((owner, name))
            super().wrap(owner, name, make)

    tracer = probes.LayerTracer()
    installers = [
        tracer.install_train,
        tracer.install_analyze,
        tracer.install_trace_io,
        tracer.install_placement,
        tracer.install_gradcheck,
        probes.StepClock().install,
        probes.LastTrace().install,
    ]
    patches = RecordingPatches()
    try:
        for install in installers:
            install(patches)
    finally:
        patches.restore()

    stale_ops = {op for op in probes.TENSOR_OPS if not hasattr(modse.tensor, op)}
    unexpected = [(getattr(owner, "__name__", owner), name) for owner, name in patches.misses
                  if owner is not modse.tensor or name not in stale_ops]
    assert unexpected == []
