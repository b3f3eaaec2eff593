import ast
import re
from pathlib import Path

import numpy as np
import pytest

import modse.tensor
import modse.tensor as tt
from modse import gradcheck as gc
from modse.tensor import Tensor


def test_tensor_ops_ten_seeds():
    r = gc.check_tensor_ops(n_seeds=10)
    assert r.passed, {k: v for k, v in r.per_item.items() if v > r.tol}
    assert r.worst_err <= 1e-4


# names in tensor.__all__ that are not differentiable ops
NON_OPS = {"ShapeError", "Tensor", "backward", "per_token_cross_entropy", "finite_diff_grad"}


def test_every_op_has_a_gradcheck_entry():
    # a fused op must take over the gradcheck coverage of the ops it replaces
    covered = {re.split(r"[/+]", item)[0] for item in gc.check_tensor_ops(n_seeds=1).per_item}
    ops = set(modse.tensor.__all__) - NON_OPS
    assert ops <= covered, sorted(ops - covered)


def _attention_call(t):
    h = t(6, 8)
    angles = np.ones((3, 2), dtype=h.dtype)
    tables = tt.build_attention_tables(np.cos(angles), np.sin(angles), 2)
    return tt.causal_attention(h, t(8), t(8, 8), t(8, 8), t(8, 8), t(8, 8), tables)


# one small call per op, given a maker of leaf tensors of a shape
OP_CALLS = {
    "matmul": lambda t: tt.matmul(t(3, 4), t(4, 5)),
    "add": lambda t: tt.add(t(3, 4), t(3, 4)),
    "rmsnorm": lambda t: tt.rmsnorm(t(3, 4), t(4)),
    "gate_logits": lambda t: tt.gate_logits(t(3, 4), t(4, 5), t(4, 5), t(5)),
    "embedding_lookup": lambda t: tt.embedding_lookup(t(5, 4), np.array([4, 1, 1])),
    "routed_experts": lambda t: tt.routed_experts(
        t(3, 4), t(3, 4), np.array([[0, 2], [1, 0], [2, 0]]), [(t(4, h), t(4, h), t(h, 4)) for h in (5, 3, 2, 4)]
    ),
    "causal_attention": _attention_call,
    "cross_entropy": lambda t: tt.cross_entropy(t(3, 4), np.array([0, 3, 1])),
    "balance_penalty": lambda t: tt.balance_penalty(t(3, 4), 0.5)[0],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(set(modse.tensor.__all__) - NON_OPS))
def test_backward_writes_into_no_input(op, dtype):
    # add hands one g to both parents, so a backward that wrote into its incoming
    # gradient, or into an input's values, would corrupt another node's gradient
    rng = np.random.default_rng(14)

    def readonly(a):
        a = np.ascontiguousarray(a, dtype=dtype)
        a.flags.writeable = False
        return a

    def leaf(*shape):
        return Tensor(readonly(rng.normal(size=shape)), requires_grad=True)

    out = OP_CALLS[op](leaf)
    assert not any(p.values.flags.writeable for p in out._parents)
    out._backward_fn(readonly(rng.normal(size=out.shape)))


def _tensor_calls(path: Path) -> set[str]:
    """Names called as `<tensor module alias>.name(...)` or imported from it and called bare."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names if a.name == "tensor"}
            elif node.module == "tensor":
                direct |= {a.asname or a.name for a in node.names}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in direct:
                called.add(f.id)
    return called


def test_every_op_has_a_model_caller():
    # the op set is closed: an op that only its own tests and gradcheck call is dead code
    src = Path(modse.tensor.__file__).parent
    called = set()
    for path in src.glob("*.py"):
        if path.name not in ("tensor.py", "gradcheck.py"):
            called |= _tensor_calls(path)
    ops = set(modse.tensor.__all__) - NON_OPS
    assert ops <= called, sorted(ops - called)


def test_gate_suite():
    r = gc.check_gate()
    assert r.passed, r.per_item


def test_moe_layer_suite():
    r = gc.check_moe_layer()
    assert r.passed, r.per_item


def test_moe_layer_suite_checks_every_expert(monkeypatch):
    # an expert no token chooses gets no gradient, and its entries would read 0.0 against a zero difference
    seen = {}

    def capture(loss, arrays):
        seen.update(loss=loss, arrays=arrays)
        return dict.fromkeys(arrays, 0.0)

    monkeypatch.setattr(gc, "_fd_each", capture)
    gc.check_moe_layer()
    leaves = {name: Tensor(a, requires_grad=True, dtype=np.float64) for name, a in seen["arrays"].items()}
    tt.backward(seen["loss"](leaves))
    experts = [name for name in leaves if name.startswith("expert")]
    assert len(experts) == 12
    assert [name for name in experts if leaves[name].grad is None] == []


def test_balance_loss_suite():
    r = gc.check_balance_loss()
    assert r.passed, r.per_item


def test_end_to_end_micro():
    r = gc.check_end_to_end("micro")
    assert r.worst_err <= 1e-3, sorted(r.per_item.items(), key=lambda kv: -kv[1])[:5]


def test_end_to_end_small_reaches_the_second_layer():
    # the 2-layer model: layer 0's gradient arrives through layer 1's attention, gate and experts
    r = gc.check_end_to_end("small")
    assert r.passed, sorted(r.per_item.items(), key=lambda kv: -kv[1])[:5]
    assert {"layers.0.gate.w_gate", "layers.1.gate.w_gate", "layers.1.experts.3.w_out"} <= set(r.per_item)


def _corrupted(out):
    """`out`, or the loss of a `(loss, P, f)` triple, with every gradient its backward hands on scaled by 1.01."""
    t = out[0] if isinstance(out, tuple) else out
    if t._backward_fn is not None:
        orig = t._backward_fn
        t._backward_fn = lambda g: tuple(None if p is None else p * 1.01 for p in orig(g))
    return out


@pytest.mark.parametrize(
    "suite, op",
    [
        ("tensor_ops", "routed_experts"),
        ("gate", "gate_logits"),
        ("moe_layer", "routed_experts"),
        ("balance_loss", "balance_penalty"),
        ("end_to_end", "routed_experts"),
    ],
)
def test_corrupted_gradient_is_detected(monkeypatch, suite, op):
    # negative control: break one backward rule the suite reaches and the suite must fail
    real = getattr(modse.tensor, op)
    monkeypatch.setattr(modse.tensor, op, lambda *a: _corrupted(real(*a)))
    r = getattr(gc, f"check_{suite}")()
    assert r.name == suite
    assert not r.passed, r.per_item


def test_repeated_runs_identical():
    a = gc.check_gate()
    b = gc.check_gate()
    assert a.per_item == b.per_item
