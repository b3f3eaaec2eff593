import hashlib
import json
import math
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modse import cli
from modse.analytics import AlignmentError
from modse.trace import RECORD_DTYPE, RoutingTrace, TraceHeader, make_records, write_trace

TINY_MODEL = {
    "dim": 16,
    "n_layers": 1,
    "n_heads": 2,
    "n_experts": 4,
    "top_k": 2,
    "vocab_size": 258,
    "h_base": 8,
    "expert_ratios": [[0.75, 0.25], [0.5, 0.5]],
    "seq_len": 16,
    "batch_size": 2,
    "seed": 5,
}
TINY_OPT = {"warmup_steps": 2, "total_steps": 10, "lr_peak": 1e-3}

REF_300M_MODEL = {
    "dim": 1536,
    "n_layers": 1,
    "n_heads": 12,
    "n_experts": 8,
    "top_k": 2,
    "vocab_size": 30064,
    "h_base": 3840,
    "expert_ratios": [[4.5, 0.5], [4.0, 1.0], [3.0, 2.0], [2.5, 2.5]],
    "seq_len": 64,
    "batch_size": 2,
    "seed": 0,
}


def run_cli(*args, cwd=None, env_log=None):
    import os

    env = dict(os.environ)
    if env_log:
        env["MODSE_LOG"] = env_log
    return subprocess.run(
        [sys.executable, "-m", "modse", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_config(tmp_path, model=None, optimizer=None, name="config.json"):
    cfg = {}
    if model is not None:
        cfg["model"] = model
    if optimizer is not None:
        cfg["optimizer"] = optimizer
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTrainCommand:
    def test_metric_line_count_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 10, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert (out / "checkpoint.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == TINY_MODEL["seed"]
        assert manifest["runtime"]["numpy"] == np.__version__
        for name, digest in manifest["outputs"].items():
            assert sha(out / name) == digest
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["steps"] == 10

    @pytest.mark.parametrize("shape", ["toy-B16-S32", "micro"])
    def test_manifest_records_the_heap_policy(self, tmp_path, shape):
        # training sets glibc's thresholds when one [B*S, dim] float32 activation reaches
        # 128 KiB (16*32*64*4 bytes exactly); the micro model's 2 KiB leaves them alone
        toy = json.loads((Path(__file__).parents[1] / "configs" / "toy.json").read_text())["model"]
        toy = {**toy, "batch_size": 16, "seq_len": 32}
        cfg = write_config(tmp_path, toy if shape != "micro" else TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 1, "--out", out)
        assert r.returncode == 0, r.stderr
        applied = shape != "micro" and platform.libc_ver()[0] == "glibc"
        expect = {"trim_threshold": 1 << 30, "mmap_threshold": 32 << 20, "arena_max": 1} if applied else None
        assert json.loads((out / "manifest.json").read_text())["runtime"]["heap"] == expect

    def test_blas_threads_default_to_one(self, tmp_path):
        # on a machine with more than one core the thread count changes the toy config's
        # bits, so leaving the variables unset must give the bits of one thread, and the
        # manifest must say so
        import os

        cfg = Path(__file__).parents[1] / "configs" / "toy.json"
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        runs = []
        for tag, value in (("unset", None), ("one", "1")):
            env = {k: v for k, v in os.environ.items() if k not in threads}
            env.update(dict.fromkeys(threads, value) if value else {})
            out = tmp_path / tag
            argv = [sys.executable, "-m", "modse", "train", "--config", str(cfg), "--steps", "2", "--out", str(out)]
            r = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["runtime"]["blas_threads"] == dict.fromkeys(threads, "1")
            runs.append((sha(out / "checkpoint.bin"), sha(out / "metrics.jsonl")))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("first", ["numpy", "modse", "modse-one-core"])
    def test_manifest_records_numpy_first_and_the_worker_count(self, tmp_path, first):
        # BLAS reads its thread variables when numpy loads, so a process that loaded numpy
        # before the package runs BLAS at the count it read then, whatever the variables say
        # afterwards; the worker count follows the process's CPU affinity
        import os

        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity calls on this platform")
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        pin = "os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); " if first == "modse-one-core" else ""
        code = (
            f"import os; {pin}import {first.split('-')[0]}; from modse import cli; "
            f"raise SystemExit(cli.main(['train', '--config', {str(cfg)!r}, '--steps', '1', '--out', {str(out)!r}]))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        runtime = json.loads((out / "manifest.json").read_text())["runtime"]
        assert runtime["numpy_loaded_first"] is (first == "numpy")
        assert runtime["workers"] == (1 if pin else len(os.sched_getaffinity(0)))

    def test_bits_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # the toy shapes are above the ops' work gate, so 2 workers run experts and attention
        # chunks side by side; each piece makes the same numpy calls wherever it runs
        import modse.tensor

        cfg = Path(__file__).parents[1] / "configs" / "toy.json"
        digests = []
        for workers in (1, 2):
            monkeypatch.setattr(modse.tensor, "_workers", workers)
            out = tmp_path / f"workers-{workers}"
            assert cli.main(["train", "--config", str(cfg), "--steps", "2", "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["runtime"]["workers"] == workers
            digests.append((sha(out / "checkpoint.bin"), sha(out / "metrics.jsonl")))
        assert digests[0] == digests[1]

    def test_non_finite_loss_exits_two_no_output_dir(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, {**TINY_OPT, "warmup_steps": 0, "lr_peak": 1e30})
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 6, "--trace", "trace.bin", "--out", out)
        assert r.returncode == 2
        assert "NonFiniteLossError: step" in r.stderr
        assert not out.exists()

    def test_homogeneous_override_same_layout(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 3, "--ratios", "homogeneous", "--out", out)
        assert r.returncode == 0, r.stderr
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["expert_ratios"] == "homogeneous"

    def test_paired_seed_runs_identical_digests(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            r = run_cli("train", "--config", cfg, "--steps", 4, "--seed", 7, "--out", out)
            assert r.returncode == 0, r.stderr
            digests.append((sha(out / "checkpoint.bin"), sha(out / "metrics.jsonl")))
        assert digests[0] == digests[1]

    def test_trace_flag_writes_trace(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 2, "--trace", "trace.jsonl", "--out", out)
        assert r.returncode == 0, r.stderr
        from modse.trace import read_trace

        trace = read_trace(out / "trace.jsonl")
        assert len(trace) == 2 * 1 * 2 * (16 * 2)  # steps * layers * ranks * tokens-per-step

    @pytest.mark.parametrize(
        "name", ["metrics.jsonl", "checkpoint.bin", "manifest.json", "sub/t.bin", "ABSOLUTE", "..", "."]
    )
    def test_trace_name_that_is_not_a_new_bare_file_exits_one(self, tmp_path, name, monkeypatch, capsys):
        # another output's name would be overwritten, and a path would write outside --out
        if name == "ABSOLUTE":
            name = str(tmp_path / "x.bin")
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        (out / tmp_path.relative_to(tmp_path.anchor)).mkdir(parents=True)
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **kw: calls.append(a))
        argv = ["train", "--config", str(cfg), "--steps", "1", "--trace", name, "--out", str(out)]
        assert cli.main(argv) == 1
        assert f"error: output name {name!r}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "x.bin").exists()
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_trace_name_refused_without_leaving_an_output_dir(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 1, "--trace", "metrics.jsonl", "--out", out)
        assert r.returncode == 1
        assert "error: output name 'metrics.jsonl': already an output of this command" in r.stderr
        assert not out.exists()

    def test_bad_config_exits_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"model": {"dim": 30, "n_heads": 4}}')
        r = run_cli("train", "--config", p, "--steps", 1, "--out", tmp_path / "run")
        assert r.returncode == 1
        assert "error" in r.stderr.lower()

    @pytest.mark.parametrize(
        "text",
        [
            '{"model": {"n_heads": 0}}',
            '{"model": {"n_layers": 1.5}}',
            '{"model": {"n_layers": true}}',
            '{"model": {"seed": "x"}}',
            '{"model": {"expert_ratios": [["a", "b"], [1, 1], [1, 1], [1, 1]]}}',
            '{"optimizer": {"lr_peak": null}}',
            '{"optimizer": {"warmup_steps": 1, "total_steps": 2.5}}',
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["zero-heads", "float-layers", "bool-layers", "string-seed", "string-ratios",
             "null-lr", "float-steps", "deep-nesting"],
    )
    def test_invalid_config_exits_one_naming_path(self, tmp_path, text, capsys):
        from modse import cli

        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["train", "--config", str(p), "--steps", "1", "--out", str(tmp_path / "run")]) == 1
        assert str(p) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_invalid_utf8_config_exits_one_naming_path(self, tmp_path, capsys):
        from modse import cli

        p = tmp_path / "bad.json"
        p.write_bytes(b'{"model": {"dim": 6\xff4}}')
        assert cli.main(["train", "--config", str(p), "--steps", "1", "--out", str(tmp_path / "run")]) == 1
        assert f"{p}: not a UTF-8 JSON config" in capsys.readouterr().err

    def test_unknown_section_exits_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"models": {}}')
        r = run_cli("train", "--config", p, "--steps", 1, "--out", tmp_path / "run")
        assert r.returncode == 1

    def test_missing_config_file_exits_two(self, tmp_path):
        r = run_cli("train", "--config", tmp_path / "nope.json", "--steps", 1, "--out", tmp_path / "run")
        assert r.returncode == 2

    def test_negative_steps_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        assert cli.main(["train", "--config", str(cfg), "--steps", "-1", "--out", str(tmp_path / "run")]) == 1
        assert "--steps must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_alpha_flag_exits_one_naming_flag(self, tmp_path, value, capsys):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        argv = ["train", "--config", str(cfg), "--alpha", value, "--steps", "2", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        assert "error: --alpha: alpha must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_data_flag_without_files_exits_one_naming_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        assert cli.main(["train", "--config", str(cfg), "--steps", "1", "--out", str(tmp_path / "run"), "--data"]) == 1
        assert "--data" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,value", [("alpha", -1), ("weight_decay", -0.5), ("lr_min", 0), ("eps", 0), ("lr_min", 2e-3)])
    def test_bad_optimizer_value_exits_one_naming_file(self, tmp_path, field, value, capsys):
        cfg = write_config(tmp_path, TINY_MODEL, {**TINY_OPT, field: value})
        assert cli.main(["train", "--config", str(cfg), "--steps", "2", "--out", str(tmp_path / "run")]) == 1
        assert f"error: {cfg}: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_width_beyond_float_range_exits_one_no_output_dir(self, tmp_path):
        # the ratios scale h_base as floats, which a 401-digit integer overflows
        cfg = write_config(tmp_path, {**TINY_MODEL, "h_base": 10**400}, TINY_OPT)
        out = tmp_path / "run"
        r = run_cli("train", "--config", cfg, "--steps", 1, "--out", out)
        assert r.returncode == 1, r.stderr
        assert re.search(r"^error: .*expert widths out of range", r.stderr, re.M)
        assert not out.exists()

    def test_paired_ratios_choice_is_gone(self, tmp_path):
        # the config's ratios are the paired widths; only the homogeneous override exists
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        assert cli.main(["train", "--config", str(cfg), "--ratios", "paired", "--out", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()


class TestPlanCommand:
    def test_published_spec_four_devices_equal_totals(self, tmp_path):
        cfg = write_config(tmp_path, REF_300M_MODEL)
        out = tmp_path / "plan"
        r = run_cli("plan", "--config", cfg, "--devices", 4, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 4
        totals = {int(line.split()[2]) for line in lines}
        assert totals == {3 * 1536 * 7680}
        plan = json.loads((out / "plan.json").read_text())
        assert plan["strategy"] == "pairwise"
        assert len(set(plan["per_device_params"])) == 1

    def test_indivisible_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, REF_300M_MODEL)
        r = run_cli("plan", "--config", cfg, "--devices", 3, "--out", tmp_path / "plan")
        assert r.returncode == 1
        assert "divisible" in r.stderr
        assert not (tmp_path / "plan" / "plan.json").exists()

    def test_single_device(self, tmp_path):
        cfg = write_config(tmp_path, REF_300M_MODEL)
        r = run_cli("plan", "--config", cfg, "--devices", 1, "--out", tmp_path / "plan")
        assert r.returncode == 0
        assert r.stdout.strip().splitlines() == [f"device 0: {8 * 3 * 1536 * 3840} parameters"]

    def test_descending_contiguous_unbalanced(self, tmp_path):
        cfg = write_config(tmp_path, REF_300M_MODEL)
        out = tmp_path / "plan"
        r = run_cli(
            "plan", "--config", cfg, "--devices", 4, "--strategy", "naive_contiguous",
            "--order", "descending", "--out", out,
        )
        assert r.returncode == 0
        plan = json.loads((out / "plan.json").read_text())
        assert len(set(plan["per_device_params"])) == 4

    @pytest.mark.parametrize("pair", [[math.nan, math.nan], [math.inf, -math.inf]], ids=["nan", "infinity"])
    def test_non_finite_ratio_pair_exits_one_naming_the_pair(self, tmp_path, pair, capsys):
        # a NaN pair sum compares False against the tolerance, so it must fail the check, not pass it
        cfg = write_config(tmp_path, {"expert_ratios": [pair, [2.5, 2.5], [2.5, 2.5], [2.5, 2.5]]})
        assert cli.main(["plan", "--config", str(cfg), "--devices", "2", "--out", str(tmp_path / "plan")]) == 1
        err = capsys.readouterr().err
        assert "pair 0: ratios" in err and "sum to nan" in err
        assert not (tmp_path / "plan").exists()


def uniform_trace_file(path, n=4, layers=2, per_expert=6):
    header = TraceHeader("t", n, layers, 2, tuple([8] * n))
    recs = []
    tok = 0
    for layer in range(layers):
        for e in range(n):
            for _ in range(per_expert):
                recs.append((0, layer, tok, 0, e))
                tok += 1
    arr = np.array(recs, dtype=RECORD_DTYPE)
    write_trace(path, RoutingTrace(header, arr))
    return tok


class TestAnalyzeCommand:
    def test_uniform_trace_ratios_one(self, tmp_path):
        tp = tmp_path / "t.jsonl"
        uniform_trace_file(tp)
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, "--out", out)
        assert r.returncode == 0, r.stderr
        for line in r.stdout.strip().splitlines():
            assert line.endswith("max/min: 1.00")
        assert (out / "counts.csv").exists()
        assert (out / "heatmap.svg").exists()

    def test_empty_trace_exits_one(self, tmp_path):
        tp = tmp_path / "t.jsonl"
        header = TraceHeader("t", 4, 1, 2, (8, 8, 8, 8))
        write_trace(tp, RoutingTrace(header, np.zeros(0, dtype=RECORD_DTYPE)))
        r = run_cli("analyze", tp, "--out", tmp_path / "analysis")
        assert r.returncode == 1
        assert "empty trace" in r.stderr

    def test_losses_produce_tables(self, tmp_path):
        tp = tmp_path / "t.jsonl"
        n_tokens = uniform_trace_file(tp)
        rng = np.random.default_rng(0)
        base = rng.uniform(0.5, 3.0, n_tokens)
        modse = base - 0.2
        for name, losses in (("base.csv", base), ("modse.csv", modse)):
            lines = ["token_index,loss"] + [f"{i},{v}" for i, v in enumerate(losses)]
            (tmp_path / name).write_text("\n".join(lines))
        out = tmp_path / "analysis"
        r = run_cli(
            "analyze", tp, "--losses-baseline", tmp_path / "base.csv",
            "--losses-modse", tmp_path / "modse.csv", "--out", out,
        )
        assert r.returncode == 0, r.stderr
        assert (out / "thresholds.csv").exists()
        assert (out / "distribution.csv").exists()
        table = (out / "thresholds.csv").read_text()
        assert table.startswith("loss_threshold,avg_loss_red,n_tokens")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "counts.csv", "thresholds.csv", "distribution.csv", "heatmap.csv", "heatmap.svg",
        }

    def test_unpairable_header_with_losses_splits_by_mean_width(self, tmp_path):
        # widths (12, 4, 8, 7) average 7.75, so 12 and 8 are large, 4 and 7 small
        header = TraceHeader("t", 4, 1, 2, (12, 4, 8, 7))
        experts = np.arange(8) % 4
        recs = np.concatenate([make_records(0, 0, np.arange(8), 0, experts),
                               make_records(0, 0, np.arange(8), 1, (experts + 1) % 4)])
        tp = tmp_path / "t.jsonl"
        write_trace(tp, RoutingTrace(header, recs))
        base = [3.0, 0.1, 0.1, 3.0, 0.1, 0.1, 0.1, 0.1]  # tokens 0 and 3 are difficult
        for name in ("base.csv", "modse.csv"):
            lines = ["token_index,loss"] + [f"{i},{v}" for i, v in enumerate(base)]
            (tmp_path / name).write_text("\n".join(lines))
        out = tmp_path / "analysis"
        r = run_cli(
            "analyze", tp, "--losses-baseline", tmp_path / "base.csv",
            "--losses-modse", tmp_path / "modse.csv", "--out", out,
        )
        assert r.returncode == 0, r.stderr
        # top-1: token 0 -> expert 0 (12), token 3 -> expert 3 (7);
        # top-2 adds expert 1 (4) and expert 0 (12)
        assert (out / "distribution.csv").read_text().splitlines()[-2:] == [
            "sum_large,2,1",
            "sum_small,2,1",
        ]

    @pytest.mark.parametrize(
        "sizes", [(2**70, 1, 3, 5), (2**61, 1, 1, 1)], ids=["beyond-int64", "product-beyond-int64"]
    )
    def test_width_classes_exact_for_any_header_width(self, tmp_path, sizes):
        # only expert 0 is wider than the mean, even where w*N or the width itself passes int64
        header = TraceHeader("t", 4, 1, 2, sizes)
        experts = np.arange(8) % 4
        recs = np.concatenate([make_records(0, 0, np.arange(8), 0, experts),
                               make_records(0, 0, np.arange(8), 1, (experts + 1) % 4)])
        tp = tmp_path / "t.bin"
        write_trace(tp, RoutingTrace(header, recs), binary=True)
        lines = ["token_index,loss"] + [f"{i},{v}" for i, v in enumerate([3.0, 0.1, 0.1, 3.0, 0.1, 0.1, 0.1, 0.1])]
        (tmp_path / "l.csv").write_text("\n".join(lines))
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, "--losses-baseline", tmp_path / "l.csv", "--losses-modse", tmp_path / "l.csv",
                    "--out", out)
        assert r.returncode == 0, r.stderr
        # difficult tokens 0 and 3: top-1 experts 0 and 3, top-2 experts 1 and 0
        assert (out / "distribution.csv").read_text().splitlines()[-2:] == [
            "sum_large,2,1",
            "sum_small,2,1",
        ]

    @pytest.mark.parametrize("flag", ["--losses-baseline", "--losses-modse"])
    def test_one_losses_flag_exits_one_before_any_output(self, tmp_path, flag, capsys):
        tp = tmp_path / "t.jsonl"
        uniform_trace_file(tp)
        (tmp_path / "l.csv").write_text("token_index,loss\n0,1.0\n")
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(tp), flag, str(tmp_path / "l.csv"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be given together" in captured.err
        assert not out.exists()

    def test_heatmap_failure_exits_two_no_output_dir(self, tmp_path, monkeypatch):
        from modse import analytics, cli

        def broken(*_):
            raise OSError("disk full")

        monkeypatch.setattr(analytics, "_heatmap_svg", broken)
        tp = tmp_path / "t.jsonl"
        uniform_trace_file(tp)
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(tp), "--out", str(out)]) == 2
        assert not out.exists()

    def test_misaligned_losses_exit_one_no_partial_outputs(self, tmp_path):
        tp = tmp_path / "t.jsonl"
        uniform_trace_file(tp)
        (tmp_path / "base.csv").write_text("token_index,loss\n0,1.0\n1,2.0\n")
        (tmp_path / "modse.csv").write_text("token_index,loss\n0,1.0\n")
        out = tmp_path / "analysis"
        r = run_cli(
            "analyze", tp, "--losses-baseline", tmp_path / "base.csv",
            "--losses-modse", tmp_path / "modse.csv", "--out", out,
        )
        assert r.returncode == 1
        assert not (out / "counts.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("epoch", ['"x"', "-1"], ids=["not-a-number", "negative"])
    def test_bad_record_field_exits_one(self, tmp_path, epoch):
        tp = tmp_path / "t.jsonl"
        tp.write_text(
            json.dumps(TraceHeader("t", 4, 1, 2, (8, 8, 8, 8)).to_dict())
            + f'\n{{"epoch":{epoch},"layer":0,"token":0,"rank":0,"expert":1,"weight":0.5}}\n'
        )
        r = run_cli("analyze", tp, "--out", tmp_path / "analysis")
        assert r.returncode == 1, r.stderr
        assert "bad record at offset 0" in r.stderr

    @pytest.mark.parametrize(
        "fields",
        [{"expert_sizes": [0, -3]}, {"top_k": 0}, {"n_experts": 2.9}, {"n_layers": True}],
        ids=["widths-below-one", "top-k-zero", "fractional-count", "boolean-count"],
    )
    def test_bad_header_exits_one_no_output_dir(self, tmp_path, fields):
        tp = tmp_path / "t.jsonl"
        tp.write_text(
            json.dumps({**TraceHeader("t", 2, 1, 1, (8, 8)).to_dict(), **fields})
            + '\n{"epoch":0,"layer":0,"token":0,"rank":0,"expert":1}\n'
        )
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, "--out", out)
        assert r.returncode == 1, r.stderr
        assert "trace header" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("binary", [False, True], ids=["jsonl", "binary"])
    def test_version_1_trace_exits_one_no_output_dir(self, tmp_path, binary):
        head = json.dumps({**TraceHeader("t", 4, 1, 2, (8, 8, 8, 8)).to_dict(), "version": 1})
        tp = tmp_path / "t.trace"
        if binary:  # one 28-byte record: the five fields, then a float32 gate weight and loss
            tp.write_bytes(b"MDSTRC01" + len(head).to_bytes(4, "little") + head.encode() + bytes(28))
        else:
            tp.write_text(head + '\n{"epoch": 0, "layer": 0, "token": 0, "rank": 0, "expert": 1, "weight": 0.5}\n')
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, "--out", out)
        assert r.returncode == 1, r.stderr
        assert re.search(r"unsupported (binary )?trace version 0?1\b", r.stderr), r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("with_losses", [False, True], ids=["counts", "losses"])
    def test_out_of_range_layer_exits_one(self, tmp_path, with_losses):
        tp = tmp_path / "t.jsonl"
        tp.write_text(
            json.dumps(TraceHeader("t", 4, 1, 2, (8, 8, 8, 8)).to_dict())
            + '\n{"epoch": 0, "layer": 0, "token": 0, "rank": 0, "expert": 1}'
            + '\n{"epoch": 0, "layer": 5, "token": 1, "rank": 0, "expert": 1}\n'
        )
        losses = []
        if with_losses:
            (tmp_path / "l.csv").write_text("token_index,loss\n0,1.0\n1,2.0\n")
            losses = ["--losses-baseline", tmp_path / "l.csv", "--losses-modse", tmp_path / "l.csv"]
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, *losses, "--out", out)
        assert r.returncode == 1, r.stderr
        assert "record 1: layer 5 >= n_layers 1" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"token_index,loss\n0,1.0\n1,nan\n", "base.csv:3: non-finite loss nan"),
            (b"token_index,loss\n0,inf\n1,1.0\n", "base.csv:2: non-finite loss inf"),
            (b"token_index,loss\n0,1.0\n-1,3.0\n", "base.csv:3: token index -1 out of range"),
            (b"token_index,loss\n0,1.0\n1,\xff\n", "base.csv: not UTF-8 text"),
            (b"token_index,loss\n", "base.csv: no loss rows"),
            (b"", "base.csv: no loss rows"),
            (b"\n\n", "base.csv:1: header '' is not 'token_index,loss'"),
        ],
        ids=["nan", "inf", "negative-token", "bad-utf8", "header-only", "empty", "blank-lines"],
    )
    def test_bad_loss_csv_exits_one_naming_path(self, tmp_path, body, message):
        tp = tmp_path / "t.jsonl"
        uniform_trace_file(tp)
        (tmp_path / "base.csv").write_bytes(body)
        out = tmp_path / "analysis"
        r = run_cli(
            "analyze", tp, "--losses-baseline", tmp_path / "base.csv",
            "--losses-modse", tmp_path / "base.csv", "--out", out,
        )
        assert r.returncode == 1, r.stderr
        assert message in r.stderr
        assert not out.exists()

    def test_loss_ids_the_trace_never_routes_exit_one(self, tmp_path):
        # ids offset by 10**6 select no trace record: without the check every count would read 0
        tp = tmp_path / "t.jsonl"
        n_tokens = uniform_trace_file(tp)
        ids = np.arange(n_tokens) + 10**6
        losses = np.where(ids % 3 == 0, 3.0, 0.5)  # ids 1000002, 1000005, ... are difficult
        np.savetxt(tmp_path / "base.csv", np.column_stack([ids, losses]), fmt=["%d", "%.6f"], delimiter=",",
                   header="token_index,loss", comments="")
        out = tmp_path / "analysis"
        r = run_cli(
            "analyze", tp, "--losses-baseline", tmp_path / "base.csv",
            "--losses-modse", tmp_path / "base.csv", "--out", out,
        )
        assert r.returncode == 1, r.stderr
        assert "the trace never routes difficult token 1000002" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--losses-baseline", "--losses-modse"])
    def test_repeated_loss_id_exits_one_naming_line(self, tmp_path, flag):
        # a repeat would count once in distribution.csv but weigh twice in every thresholds.csv row
        tp = tmp_path / "t.jsonl"
        n_tokens = uniform_trace_file(tp)
        rows = [f"{i},{1.0 + i % 3}" for i in range(n_tokens)]
        (tmp_path / "good.csv").write_text("\n".join(["token_index,loss", *rows]) + "\n")
        (tmp_path / "bad.csv").write_text("\n".join(["token_index,loss", *rows[:5], "3,2.5", *rows[5:]]) + "\n")
        losses = {"--losses-baseline": "good.csv", "--losses-modse": "good.csv", flag: "bad.csv"}
        out = tmp_path / "analysis"
        r = run_cli("analyze", tp, *[a for f, name in losses.items() for a in (f, tmp_path / name)], "--out", out)
        assert r.returncode == 1, r.stderr
        assert "bad.csv:7: token index 3 repeats line 5" in r.stderr
        assert not out.exists()

    def test_missing_trace_exits_two(self, tmp_path):
        r = run_cli("analyze", tmp_path / "nope.jsonl", "--out", tmp_path / "x")
        assert r.returncode == 2


class TestReadLossCsv:
    def test_written_form_never_reaches_the_per_line_parser(self, tmp_path, monkeypatch):
        # a file the one loadtxt refuses is examined row by row and always raises, so a
        # file that loads went through that loadtxt alone
        ids = np.arange(3000, dtype=np.int64)
        losses = np.random.default_rng(4).lognormal(0.5, 0.6, len(ids))
        p = tmp_path / "losses.csv"
        np.savetxt(p, np.column_stack([ids, losses]), fmt=["%d", "%.6f"], delimiter=",",
                   header="token_index,loss", comments="")

        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(cli.np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        got_ids, got_losses = cli._read_loss_csv(str(p))
        assert calls == [1]
        assert got_ids.dtype == np.int64 and got_ids.tobytes() == ids.tobytes()
        expected = np.array([float(f"{v:.6f}") for v in losses])
        assert got_losses.dtype == np.float64 and got_losses.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1.0\n1,1e400\n", "losses.csv:3: non-finite loss inf"),
            ("0,1.0\n9223372036854775808,2.0\n", "losses.csv:3: token index 9223372036854775808 out of range"),
            ("0,1.0\n1,2.0,3\n", "losses.csv:3: bad loss row '1,2.0,3'"),
        ],
        ids=["overflowing-loss", "overflowing-id", "three-fields"],
    )
    def test_rows_loadtxt_declines_are_named_by_line(self, tmp_path, body, message):
        p = tmp_path / "losses.csv"
        p.write_text("token_index,loss\n" + body)
        with pytest.raises(AlignmentError, match=re.escape(message)):
            cli._read_loss_csv(str(p))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("token_index,loss\n0,1.0\n\n1,2.0\n", "losses.csv:3: bad loss row ''"),
            ("token_index,loss\n0,1.0\n1,2.0\n\n", "losses.csv:4: bad loss row ''"),
            ("token_index,loss\r\n0,1.0\r\n", "losses.csv:1: header 'token_index,loss\\r' is not"),
            ("token_index,loss\n0,1.0\r\n1,2.0\r\n", "losses.csv:2: bad loss row '0,1.0\\r'"),
            ("token_index,loss\n0,1.0\n 1, 2.0\n", "losses.csv:3: bad loss row ' 1, 2.0'"),
            ("token_index,loss\n1_0,1.0\n", "losses.csv:2: bad loss row '1_0,1.0'"),
            ("0,1.0\n1,2.0\n", "losses.csv:1: header '0,1.0' is not"),
            ("Token_Index,Loss\n0,1.0\n", "losses.csv:1: header 'Token_Index,Loss' is not"),
        ],
        ids=["blank-row", "trailing-blank-row", "crlf-header", "crlf-rows", "spaces", "underscore",
             "no-header", "header-case"],
    )
    def test_rows_outside_the_one_form_are_named_by_line(self, tmp_path, text, message):
        # each loaded before through a per-line fallback; the one form refuses them at their line
        p = tmp_path / "losses.csv"
        p.write_bytes(text.encode())
        with pytest.raises(AlignmentError, match=re.escape(message)):
            cli._read_loss_csv(str(p))


class TestGradcheckCommand:
    def test_micro_passes_and_prints_suites(self, tmp_path):
        r = run_cli("gradcheck", "--scale", "micro", "--out", tmp_path / "gc")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 5
        assert all("worst rel err" in line and line.endswith("PASS") for line in lines)
        report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
        assert all(item["passed"] for item in report)
        assert all(max(item["per_item"].values()) == item["worst_err"] for item in report)

    def test_repeated_invocations_identical_output(self, tmp_path):
        a = run_cli("gradcheck", "--scale", "micro")
        b = run_cli("gradcheck", "--scale", "micro")
        assert a.stdout == b.stdout

    def test_tolerance_violation_exits_three(self, monkeypatch, capsys):
        # in-process: fake a failing suite and check the exit-code mapping
        from modse import cli
        from modse.gradcheck import SuiteResult

        monkeypatch.setattr(
            cli.gradcheck, "run_all", lambda scale: [SuiteResult("tensor_ops", 0.5, 1e-4, {})]
        )
        assert cli.main(["gradcheck"]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestGenDataCommand:
    def test_deterministic_corpus(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            r = run_cli("gen-data", "--seed", 3, "--docs", 50, "--out", out)
            assert r.returncode == 0, r.stderr
            outs.append((out / "corpus.txt").read_text())
        assert outs[0] == outs[1]
        assert outs[0].count("\n") == 50

    def test_different_seeds_differ(self, tmp_path):
        r1 = run_cli("gen-data", "--seed", 1, "--docs", 20, "--out", tmp_path / "a")
        r2 = run_cli("gen-data", "--seed", 2, "--docs", 20, "--out", tmp_path / "b")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a/corpus.txt").read_text() != (tmp_path / "b/corpus.txt").read_text()

    def test_no_docs_exit_one(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--docs", "-3", "--out", str(tmp_path / "d")]) == 1
        assert "--docs must be >= 1, got -3" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_max_depth_below_one_exits_one(self, tmp_path, depth, capsys):
        assert cli.main(["gen-data", "--docs", "3", "--max-depth", depth, "--out", str(tmp_path / "d")]) == 1
        assert f"--max-depth must be >= 1, got {depth}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestUsage:
    def test_no_subcommand_exits_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_unknown_flag_exits_one(self):
        r = run_cli("train", "--bogus")
        assert r.returncode == 1

    def test_log_env_controls_stderr(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL, TINY_OPT)
        quiet = run_cli("train", "--config", cfg, "--steps", 1, "--out", tmp_path / "q", env_log="warn")
        chatty = run_cli("train", "--config", cfg, "--steps", 1, "--out", tmp_path / "c", env_log="info")
        assert quiet.returncode == chatty.returncode == 0
        assert "training" in chatty.stderr
        assert "training" not in quiet.stderr


class TestRunOutputs:
    def test_block_commits_through_the_commit_attribute(self, tmp_path, monkeypatch):
        from modse.manifest import RunOutputs

        calls = []
        commit = RunOutputs.commit
        monkeypatch.setattr(RunOutputs, "commit", lambda self: calls.append(1) or commit(self))
        with RunOutputs(tmp_path / "out", ["modse"], {}, None) as run:
            run.stage("a.txt").write_text("a")
        assert calls == [1]
        assert (tmp_path / "out/a.txt").read_text() == "a"
        assert json.loads((tmp_path / "out/manifest.json").read_text())["outputs"].keys() == {"a.txt"}

    @pytest.mark.parametrize("where", ["block", "commit"])
    def test_failure_aborts_and_reraises(self, tmp_path, monkeypatch, where):
        from modse.manifest import RunOutputs

        def broken(self):
            raise OSError("disk full")

        if where == "commit":
            monkeypatch.setattr(RunOutputs, "commit", broken)
        with pytest.raises(OSError, match="disk full"):
            with RunOutputs(tmp_path / "out", ["modse"], {}, None) as run:
                run.stage("a.txt").write_text("a")
                if where == "block":
                    broken(run)
        assert not (tmp_path / "out").exists()

    def test_version_is_described_once_per_process(self, tmp_path, monkeypatch):
        from modse import manifest

        calls = []

        def fake_run(cmd, **kw):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, stdout="v-described\n", stderr="")

        manifest.version_string.cache_clear()
        monkeypatch.setattr(subprocess, "run", fake_run)
        try:
            for tag in ("a", "b"):
                with manifest.RunOutputs(tmp_path / tag, ["modse"], {}, None) as run:
                    run.stage("x.txt").write_text(tag)
        finally:
            manifest.version_string.cache_clear()
        assert len(calls) == 1
        for tag in ("a", "b"):
            assert json.loads((tmp_path / tag / "manifest.json").read_text())["version"] == "v-described"

    def test_runtime_is_recorded_once_per_process(self, tmp_path, monkeypatch):
        # bits depend on the numpy/BLAS build and the BLAS thread count, so the manifest names them
        import os

        import modse
        from modse import manifest
        from modse.train import heap_policy

        threads = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "1"}
        for var, value in threads.items():
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        manifest.runtime_info.cache_clear()
        try:
            for tag in ("a", "b"):
                with manifest.RunOutputs(tmp_path / tag, ["modse"], {}, None) as run:
                    run.stage("x.txt").write_text(tag)
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", "5")  # read once: "b" still records 3
        finally:
            manifest.runtime_info.cache_clear()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expect = {
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads,
            "numpy_loaded_first": modse.NUMPY_LOADED_FIRST,
            "cpu_count": os.cpu_count(),
            "workers": modse.tensor.worker_count(),
            "heap": heap_policy(),
        }
        for tag in ("a", "b"):
            assert json.loads((tmp_path / tag / "manifest.json").read_text())["runtime"] == expect
