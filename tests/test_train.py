import gc
import json
import math
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import modse.tensor as tt
import modse.train
from modse.checkpoint import load_checkpoint
from modse.data import synthetic_corpus
from modse.model import ModelConfig, init_weights
from modse.optim import OptimizerConfig
from modse.trace import read_trace
from modse.train import NonFiniteLossError, eval_loss, train


def tiny_cfg(**kw):
    defaults = dict(
        dim=16,
        n_layers=2,
        n_heads=2,
        n_experts=4,
        top_k=2,
        vocab_size=258,
        h_base=8,
        expert_ratios=((0.75, 0.25), (0.5, 0.5)),
        seq_len=16,
        batch_size=4,
        seed=1,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_opt(**kw):
    defaults = dict(warmup_steps=2, total_steps=20, lr_peak=1e-3)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(0, n_docs=200)


class TestTrain:
    def test_zero_steps_leaves_weights_at_init(self, corpus):
        cfg = tiny_cfg()
        records, weights = train(cfg, tiny_opt(), corpus, steps=0)
        assert records == []
        fresh = init_weights(cfg)
        for name in fresh:
            np.testing.assert_array_equal(weights[name].values, fresh[name].values)

    def test_micro_step_records_11_nodes(self, corpus, monkeypatch):
        # one tape node per op call, each attention sublayer, gate logit chain, layer's routed
        # experts with their top-k softmax, and balance penalty with its full softmax fused
        # into one: an op chain coming back raises the count
        real = tt._record
        nodes = []
        monkeypatch.setattr(tt, "_record", lambda *a: nodes.append(a) or real(*a))
        train(tiny_cfg(n_layers=1, batch_size=8, seed=3), tiny_opt(), corpus, steps=1)
        assert len(nodes) == 11

    class CountingPool:
        """Stands in for the ops' worker pool: counts each map and runs it on the calling thread."""

        def __init__(self):
            self.maps = 0

        def map(self, fn, items):
            self.maps += 1
            return map(fn, items)

    @pytest.mark.parametrize("shape,maps", [("micro", 0), ("toy", 8)])
    def test_only_steps_above_the_work_gate_use_the_pool(self, corpus, monkeypatch, shape, maps):
        # the micro model's ops stay below PARALLEL_WORK, where the pool's hand-offs would cost
        # more than they save; each toy layer maps attention and its experts, forward and backward
        if shape == "micro":
            cfg = tiny_cfg(n_layers=1, batch_size=8, seed=3)
        else:
            with open(Path(__file__).parents[1] / "configs" / "toy.json") as fh:
                cfg = ModelConfig.from_dict(json.load(fh)["model"])
        pool = self.CountingPool()
        monkeypatch.setattr(tt, "_workers", 2)
        monkeypatch.setattr(tt, "_pool", (2, pool))
        train(cfg, tiny_opt(), corpus, steps=1)
        assert pool.maps == maps

    def test_toy_step_records_18_nodes(self, corpus, monkeypatch):
        # the toy config: two layers of eight experts, each layer's experts one node
        with open(Path(__file__).parents[1] / "configs" / "toy.json") as fh:
            cfg = ModelConfig.from_dict(json.load(fh)["model"])
        real = tt._record
        nodes = []
        monkeypatch.setattr(tt, "_record", lambda *a: nodes.append(a) or real(*a))
        train(cfg, tiny_opt(), corpus, steps=1)
        assert len(nodes) == 18

    def test_alpha_zero_same_step0_ce_then_diverges(self, corpus):
        cfg = tiny_cfg()
        rec_a, w_a = train(cfg, tiny_opt(alpha=0.0), corpus, steps=1)
        rec_b, w_b = train(cfg, tiny_opt(alpha=0.01), corpus, steps=1)
        assert rec_a[0].ce_loss == rec_b[0].ce_loss
        assert rec_a[0].balance_loss_sum == 0.0
        assert rec_b[0].balance_loss_sum > 0.0
        assert any(
            not np.array_equal(w_a[n].values, w_b[n].values) for n in w_a
        ), "balance gradient should change at least one weight"

    def test_deterministic_runs_bitwise_identical(self, corpus, tmp_path):
        cfg = tiny_cfg()
        outs = []
        for tag in ("a", "b"):
            ck = tmp_path / f"ck_{tag}.bin"
            mt = tmp_path / f"m_{tag}.jsonl"
            train(cfg, tiny_opt(), corpus, steps=3, checkpoint_out=ck, metrics_out=mt)
            outs.append((ck.read_bytes(), mt.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_metrics_jsonl_one_line_per_step(self, corpus, tmp_path):
        mt = tmp_path / "metrics.jsonl"
        records, _ = train(tiny_cfg(), tiny_opt(), corpus, steps=4, metrics_out=mt)
        lines = mt.read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["step"] == 0
        assert first["ce_loss"] == records[0].ce_loss
        assert len(first["per_layer_f"]) == 2
        assert math.isclose(sum(first["per_layer_f"][0]), 1.0, abs_tol=1e-9)

    def test_grad_norm_clipped_every_step(self, corpus):
        records, _ = train(tiny_cfg(), tiny_opt(), corpus, steps=5)
        for r in records:
            assert r.grad_norm_pre_clip >= 0.0
        # pre-clip norms are recorded; post-clip bound is enforced inside the
        # step, checked here via the recorded lr/ce staying finite
        assert all(np.isfinite(r.ce_loss) for r in records)

    def test_trace_written_and_consistent(self, corpus, tmp_path):
        cfg = tiny_cfg()
        steps = 3
        tp = tmp_path / "trace.jsonl"
        records, _ = train(cfg, tiny_opt(), corpus, steps=steps, trace_out=tp)
        trace = read_trace(tp)
        tokens_per_step = cfg.batch_size * cfg.seq_len
        assert len(trace) == steps * cfg.n_layers * cfg.top_k * tokens_per_step
        assert trace.header.n_experts == cfg.n_experts
        assert trace.header.expert_sizes == tuple(cfg.expert_spec().expert_sizes)
        # every (layer, rank) slice covers the same token multiset
        rec = trace.records
        for layer in range(cfg.n_layers):
            for rank in range(cfg.top_k):
                sel = (rec["layer"] == layer) & (rec["rank"] == rank)
                assert sel.sum() == steps * tokens_per_step
        # distinct experts across ranks for each (token, layer)
        sel0 = rec[(rec["rank"] == 0)]
        sel1 = rec[(rec["rank"] == 1)]
        order0 = np.lexsort((sel0["token"], sel0["layer"]))
        order1 = np.lexsort((sel1["token"], sel1["layer"]))
        assert (sel0["expert"][order0] != sel1["expert"][order1]).all()

    def test_binary_trace_equivalent(self, corpus, tmp_path):
        cfg = tiny_cfg()
        a = tmp_path / "t.jsonl"
        b = tmp_path / "t.bin"
        train(cfg, tiny_opt(), corpus, steps=2, trace_out=a)
        train(cfg, tiny_opt(), corpus, steps=2, trace_out=b, trace_binary=True)
        ta, tb = read_trace(a), read_trace(b)
        assert ta.header == tb.header
        assert np.array_equal(ta.records, tb.records)

    def test_checkpoint_roundtrip_restores_weights(self, corpus, tmp_path):
        ck = tmp_path / "ck.bin"
        cfg = tiny_cfg()
        _, weights = train(cfg, tiny_opt(), corpus, steps=2, checkpoint_out=ck)
        loaded_cfg, loaded, steps = load_checkpoint(ck)
        assert loaded_cfg == cfg
        assert steps == 2
        assert list(loaded) == list(weights)
        for name, t in weights.items():
            np.testing.assert_array_equal(loaded[name].values, t.values.astype(np.float32))

    def test_outputs_opened_before_a_failing_open_are_closed(self, corpus, tmp_path, monkeypatch):
        # the trace writer opens first; the metrics file then cannot open in a missing directory
        writers = []

        class RecordedWriter(modse.train.TraceWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                writers.append(self)

        monkeypatch.setattr(modse.train, "TraceWriter", RecordedWriter)
        with pytest.raises(FileNotFoundError):
            train(
                tiny_cfg(), tiny_opt(), corpus, steps=1,
                trace_out=tmp_path / "t.bin", trace_binary=True, metrics_out=tmp_path / "missing" / "m.jsonl",
            )
        assert len(writers) == 1
        assert writers[0]._fh.closed


    def test_non_finite_loss_stops_naming_the_step(self, corpus, tmp_path, monkeypatch):
        # a cross entropy that turns NaN at step 2 reaches the loss check before any backward
        real = tt.cross_entropy
        calls = []

        def nan_at_step_2(logits, targets):
            out = real(logits, targets)
            calls.append(1)
            if len(calls) == 3:
                out.values = np.asarray(np.nan, dtype=out.dtype)
            return out

        monkeypatch.setattr(tt, "cross_entropy", nan_at_step_2)
        with pytest.raises(NonFiniteLossError, match=r"step 2: loss is nan"):
            train(tiny_cfg(), tiny_opt(), corpus, 6, metrics_out=tmp_path / "m.jsonl")
        steps = [json.loads(line)["step"] for line in (tmp_path / "m.jsonl").read_text().splitlines()]
        assert steps == [0, 1]

    @staticmethod
    def count_optimizer_calls(monkeypatch) -> list:
        # perfbench times clipping and Adam by wrapping these two names in
        # modse.train: a rename would silently zero its optim.* metrics
        real_clip, real_adam = modse.train.clip_global_norm, modse.train.adam_step
        calls = []

        def counting_clip(state, max_norm):
            calls.append("clip")
            return real_clip(state, max_norm)

        def counting_adam_step(state, opt, step):
            calls.append(f"adam {step}")
            real_adam(state, opt, step)

        monkeypatch.setattr(modse.train, "clip_global_norm", counting_clip)
        monkeypatch.setattr(modse.train, "adam_step", counting_adam_step)
        return calls

    def test_clip_and_adam_run_once_per_step(self, corpus, monkeypatch):
        calls = self.count_optimizer_calls(monkeypatch)
        train(tiny_cfg(), tiny_opt(), corpus, steps=3)
        assert calls == ["clip", "adam 1", "clip", "adam 2", "clip", "adam 3"]

    def test_non_finite_gradient_stops_before_the_update(self, corpus, tmp_path, monkeypatch):
        # an absurd learning rate: after step 0's update the loss stays finite
        # but step 1's gradients are NaN, and Adam must not apply them
        calls = self.count_optimizer_calls(monkeypatch)
        opt = tiny_opt(warmup_steps=0, lr_peak=1e30)
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteLossError, match=r"step 1: gradient norm is nan \(first non-finite gradient: \w+"
        ):
            train(tiny_cfg(), opt, corpus, 6, metrics_out=tmp_path / "m.jsonl")
        assert calls == ["clip", "adam 1", "clip"]
        rows = [json.loads(line) for line in (tmp_path / "m.jsonl").read_text().splitlines()]
        assert [r["step"] for r in rows] == [0]
        assert math.isfinite(rows[0]["grad_norm_pre_clip"])

    def test_previous_step_graph_freed_before_next_forward(self, corpus, monkeypatch):
        # a step's tape holds every activation; keeping it through the next
        # step's forward and backward doubles the peak memory
        real = modse.train.objective
        refs, live = [], []

        def tracking_objective(*args):
            gc.collect()
            live.append(sum(r() is not None for r in refs))
            out = real(*args)
            refs.append(weakref.ref(out[3][0].logits.values))
            return out

        monkeypatch.setattr(modse.train, "objective", tracking_objective)
        train(tiny_cfg(), tiny_opt(), corpus, steps=3)
        assert live == [0, 0, 0]

    def test_weights_are_views_of_one_flat_buffer(self, corpus):
        _, weights = train(tiny_cfg(), tiny_opt(), corpus, steps=1)
        bases = {id(t.values.base) for t in weights.values()}
        assert len(bases) == 1
        flat = next(iter(weights.values())).values.base
        assert flat.size == sum(t.size for t in weights.values())


# Minor page faults of each steady-state step of a B32/S64 toy run, measured
# by the training process itself at the start of every step's forward.
FAULTS_PER_STEP = """
import json, resource
import numpy as np
import modse.train as mt
from modse.data import synthetic_corpus
from modse.model import ModelConfig
from modse.optim import OptimizerConfig

cfg = ModelConfig(dim=64, n_layers=2, n_heads=4, n_experts=8, top_k=2, vocab_size=258, h_base=160,
                  expert_ratios=((4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5)),
                  seq_len=64, batch_size=32, seed=0)
marks = []
objective = mt.objective
def counting_objective(*args):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return objective(*args)
mt.objective = counting_objective
mt.train(cfg, OptimizerConfig(), synthetic_corpus(0, n_docs=400), steps=8)
print(json.dumps(np.diff(marks)[2:].tolist()))
"""


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the trim and mmap thresholds are glibc's")
    def test_toy_steps_reuse_the_heap(self):
        # glibc's defaults mmap each large activation and trim the heap top once a
        # step's graph is freed, so every step faulted 8-12k pages back in
        r = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], capture_output=True, text=True, check=True)
        faults = json.loads(r.stdout)
        assert np.median(faults) < 500, faults

    class FakeLibc:
        """A libc whose `mallopt` records its calls and answers `ok`."""

        def __init__(self, ok=1):
            self.calls = []
            self.mallopt = lambda param, value: self.calls.append((param, value)) or ok

    @pytest.fixture
    def libc(self, monkeypatch):
        fake = self.FakeLibc()
        monkeypatch.setattr(modse.train, "_heap_kept", False)
        monkeypatch.setattr(modse.train.ctypes, "CDLL", lambda _: fake)
        return fake

    def test_allocator_left_alone_below_the_gate(self, corpus, libc):
        # this config's [B*S, dim] activation is 4 KiB: its steps reuse heap memory without help
        train(tiny_cfg(), tiny_opt(), corpus, steps=1)
        modse.train._keep_heap((128 << 10) - 1)
        assert libc.calls == []
        assert modse.train.heap_policy() is None

    def test_set_once_at_the_gate(self, libc):
        modse.train._keep_heap(128 << 10)
        modse.train._keep_heap(1 << 30)
        assert libc.calls == [(-1, 1 << 30), (-3, 32 << 20), (-8, 1)]
        assert modse.train.heap_policy() == {"trim_threshold": 1 << 30, "mmap_threshold": 32 << 20, "arena_max": 1}

    @pytest.mark.parametrize("cdll", [lambda _: object(), lambda _: TestHeapPolicy.FakeLibc(ok=0)],
                             ids=["no-mallopt", "mallopt-refuses"])
    def test_nothing_recorded_without_a_working_mallopt(self, monkeypatch, cdll):
        monkeypatch.setattr(modse.train, "_heap_kept", False)
        monkeypatch.setattr(modse.train.ctypes, "CDLL", cdll)
        modse.train._keep_heap(1 << 20)
        assert modse.train.heap_policy() is None


class TestEvalLoss:
    def test_fresh_model_close_to_uniform_ce(self, corpus):
        cfg = tiny_cfg()
        weights = init_weights(cfg)
        mean, _ = eval_loss(cfg, weights, corpus[:2000])
        assert abs(mean - math.log(cfg.vocab_size)) / math.log(cfg.vocab_size) < 0.05

    def test_per_token_mean_matches(self, corpus):
        cfg = tiny_cfg()
        weights = init_weights(cfg)
        mean, per = eval_loss(cfg, weights, corpus[:1000], with_per_token=True)
        assert per is not None
        assert per.mean() == pytest.approx(mean, abs=1e-6)

    def test_two_token_window_hand_computed(self):
        cfg = tiny_cfg(seq_len=2, batch_size=1)
        weights = init_weights(cfg)
        corpus = np.array([5, 6, 7], dtype=np.int32)
        mean, per = eval_loss(cfg, weights, corpus, with_per_token=True)
        from modse.model import transformer_forward

        logits, _ = transformer_forward(cfg, weights, np.array([[5, 6]]))
        lv = logits.values.astype(np.float64)
        expect = []
        for row, target in zip(lv, [6, 7]):
            e = np.exp(row - row.max())
            expect.append(-math.log(e[target] / e.sum()))
        assert per.tolist() == pytest.approx(expect, rel=1e-6)
        assert mean == pytest.approx(sum(expect) / 2, rel=1e-6)

    def test_records_no_tape_and_matches_a_grad_forward(self, corpus, monkeypatch):
        from modse.model import transformer_forward

        cfg = tiny_cfg()
        weights = init_weights(cfg)  # every weight requires grad
        s, b = cfg.seq_len, cfg.batch_size
        text = np.asarray(corpus[: s * b + 1], dtype=np.int32)  # exactly one batch of windows
        batch = np.stack([text[j : j + s + 1] for j in range(0, s * b, s)])
        logits, _ = transformer_forward(cfg, weights, batch[:, :-1])
        assert logits._parents  # the reference forward records a tape
        expect = tt.per_token_cross_entropy(logits.values, batch[:, 1:].reshape(-1))

        real = tt._record
        nodes = []
        monkeypatch.setattr(tt, "_record", lambda *a: nodes.append(real(*a)) or nodes[-1])
        mean, per = eval_loss(cfg, weights, text, with_per_token=True)
        assert nodes and not any(n._parents for n in nodes)
        assert per.tobytes() == expect.tobytes()
        assert all(w.requires_grad for w in weights.values())

    def test_too_short_corpus_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="shorter"):
            eval_loss(cfg, init_weights(cfg), np.zeros(3, dtype=np.int32))
