"""The benchmark's timing hooks still find every program function they wrap.

perfbench/probes.py replaces program attributes by name and skips any the
program lacks, so a renamed function would read as a zero metric with no
error. Here every installer runs against a `Patches` that records what it
could not find. The only misses allowed are tensor ops that the benchmark's
op list still names after they were fused away. A short training run under
the training hooks then checks that each of them is also called.
"""

import importlib.util
import json
from pathlib import Path

import modse.cli
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


# perfbench's micro model (perfbench/workloads.py, MICRO_MODEL)
MICRO_MODEL = {
    "dim": 16, "n_layers": 1, "n_heads": 2, "n_experts": 4, "top_k": 2, "vocab_size": 258,
    "h_base": 8, "expert_ratios": [[0.75, 0.25], [0.5, 0.5]], "seq_len": 16, "batch_size": 8, "seed": 3,
}


def test_a_training_run_reaches_every_hook(tmp_path):
    # a hook on an attribute the training loop no longer calls through (a function
    # reached by another path after a refactor, say) exists but never fires
    probes = _load_probes()
    config = tmp_path / "micro.json"
    config.write_text(json.dumps({"model": MICRO_MODEL}), encoding="utf-8")
    tracer, clock = probes.LayerTracer(), probes.StepClock()
    argv = ["train", "--config", str(config), "--steps", "2", "--trace", "t.bin", "--out", str(tmp_path / "run")]
    with probes.installed(tracer.install_train, clock.install):
        assert modse.cli.main(argv) == 0
    keys = (
        "model.forward", "moe.layer", "moe.gate", "moe.expert", "balance.loss", "optim.clip", "optim.adam",
        "data.next_batch", "checkpoint.save", "manifest.commit", "trace.write.bin", "tensor.backward",
    )
    assert {key: tracer.calls[key] for key in keys if tracer.calls[key] == 0} == {}
    assert len(clock.step_seconds()) == 2
