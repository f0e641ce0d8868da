import io
import math

import numpy as np
import pytest

from conftest import autodiff_grad, check_grad, finite_diff_grad, rel_err
from lumina_mini.errors import (
    CheckpointError,
    DataError,
    NumericError,
    ShapeError,
    UsageError,
)
from lumina_mini import numerics as nm
from lumina_mini.numerics import (
    Tensor,
    apply_rotary,
    avg_pool2d,
    concat,
    embedding,
    matmul,
    no_grad,
    rms_norm,
    sinusoid,
    softmax_lastdim,
    split,
)


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 3))
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(out.data, a, rtol=1e-6)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_grad_vs_finite_differences(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        for which in (0, 1):
            check_grad(
                lambda x, y: matmul(x, y).sum(),
                lambda x, y: (x @ y).sum(),
                [a, b],
                which=which,
                tol=1e-6,
            )

    def test_batched_broadcast_grad(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((3, 5, 6))  # broadcast over the leading batch dim
        check_grad(
            lambda x, y: matmul(x, y).sum(),
            lambda x, y: np.matmul(x, y).sum(),
            [a, b],
            which=1,
        )

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("width", [512, 192])
    def test_flat_weight_product_bit_equal_to_batched(self, rng, batch, width):
        # the model's weight GEMMs at 32 px: L = 268, 192 -> 512 and 192 -> 192
        a = rng.standard_normal((batch, 268, 192)).astype(np.float32)
        w = rng.standard_normal((192, width)).astype(np.float32)
        g = rng.standard_normal((batch, 268, width)).astype(np.float32)
        ta, tw = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        out = matmul(ta, tw)
        np.testing.assert_array_equal(out.data, np.matmul(a, w))
        (out * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(ta.grad.data, np.matmul(g, w.T))
        np.testing.assert_array_equal(tw.grad.data, np.matmul(a.transpose(0, 2, 1), g).sum(0))


@pytest.mark.parametrize("op", ["softmax", "rms_norm", "silu", "matmul"])
def test_kernels_leave_inputs_untouched(op, rng):
    # the kernels write into buffers of their own; inputs that share memory
    # with the caller's arrays must come back unchanged, forward and backward
    x = rng.standard_normal((2, 5, 8)).astype(np.float32)
    other = rng.standard_normal((8, 8) if op == "matmul" else (8,)).astype(np.float32)
    before = (x.copy(), other.copy())
    tx, to = Tensor(x, requires_grad=True), Tensor(other, requires_grad=True)
    assert np.shares_memory(tx.data, x) and np.shares_memory(to.data, other)
    out = {
        "softmax": lambda: softmax_lastdim(tx),
        "rms_norm": lambda: rms_norm(tx, to, 1e-5),
        "silu": lambda: tx.silu(),
        "matmul": lambda: matmul(tx, to),
    }[op]()
    (out * out).sum().backward()
    np.testing.assert_array_equal(x, before[0])
    np.testing.assert_array_equal(other, before[1])


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = softmax_lastdim(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(out.data, 0.2, atol=1e-7)

    def test_analytic(self):
        out = softmax_lastdim(Tensor([0.0, math.log(3.0)], dtype="f64"))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 6))
        a = softmax_lastdim(Tensor(x, "f64"))
        b = softmax_lastdim(Tensor(x + 3.7, "f64"))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = softmax_lastdim(Tensor(rng.standard_normal((3, 4, 9))))
        np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            softmax_lastdim(Tensor([1.0, np.nan]))

    def test_grad(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))  # fixed projection to get a scalar
        check_grad(
            lambda t: (softmax_lastdim(t) * Tensor(w, "f64")).sum(),
            lambda a: ((np.exp(a - a.max(-1, keepdims=True))
                        / np.exp(a - a.max(-1, keepdims=True)).sum(-1, keepdims=True)) * w).sum(),
            [x],
        )


class TestRmsNorm:
    def test_constant_vector(self):
        out = rms_norm(Tensor([2.0, 2.0, 2.0], "f64"), Tensor(np.ones(3), "f64"), 1e-12)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    def test_zero_input(self):
        out = rms_norm(Tensor(np.zeros(4)), Tensor(np.ones(4)), 1e-5)
        np.testing.assert_allclose(out.data, 0.0)

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(8)
        a = rms_norm(Tensor(x, "f64"), Tensor(np.ones(8), "f64"), 1e-5)
        b = rms_norm(Tensor(10.0 * x, "f64"), Tensor(np.ones(8), "f64"), 1e-5)
        assert np.abs(a.data - b.data).max() < 1e-4

    def test_unit_rms(self, rng):
        x = rng.standard_normal((6, 16)) * 2.0
        out = rms_norm(Tensor(x, "f64"), Tensor(np.ones(16), "f64"), 1e-5)
        rms = np.sqrt((out.data**2).mean(-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_gain_length_checked(self):
        with pytest.raises(ShapeError):
            rms_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), 1e-5)

    def test_grad_x_and_gain(self, rng):
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal(6)

        def np_f(a, b):
            r = 1.0 / np.sqrt((a * a).mean(-1, keepdims=True) + 1e-5)
            return (a * r * b).sum()

        for which in (0, 1):
            check_grad(
                lambda a, b: rms_norm(a, b, 1e-5).sum(),
                np_f,
                [x, g],
                which=which,
            )


class TestAvgPool:
    def test_constant(self):
        out = avg_pool2d(Tensor(np.full((3, 8, 8), 2.5)), 4)
        np.testing.assert_allclose(out.data, 2.5)

    def test_block_mean(self):
        x = np.arange(1.0, 17.0).reshape(1, 4, 4)
        out = avg_pool2d(Tensor(x), 4)
        np.testing.assert_allclose(out.data, [[[8.5]]])

    def test_factor_one_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 4)))
        assert avg_pool2d(x, 1) is x

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.zeros((3, 6, 6))), 4)

    def test_grad(self, rng):
        x = rng.standard_normal((2, 4, 4))

        def tf(t):
            y = avg_pool2d(t, 2)
            return (y * y).sum()

        check_grad(
            tf,
            lambda a: (a.reshape(2, 2, 2, 2, 2).mean((-3, -1)) ** 2).sum(),
            [x],
        )


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, "f64", requires_grad=True)
        (x * x).backward()
        assert x.grad.data == pytest.approx(6.0)

    def test_rms_norm_chain_vs_fd(self, rng):
        x = rng.standard_normal((4, 8))
        check_grad(
            lambda t: rms_norm(t, nm.ones(8, "f64"), 1e-5).sum(),
            lambda a: (a / np.sqrt((a * a).mean(-1, keepdims=True) + 1e-5)).sum(),
            [x],
        )

    def test_unused_leaf_zero_grad(self):
        x = Tensor(2.0, "f64", requires_grad=True)
        y = Tensor(5.0, "f64", requires_grad=True)
        (x * x).backward()
        assert y.grad.data == 0.0

    def test_non_scalar_rejected(self):
        with pytest.raises(UsageError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_reused_operand_accumulates(self):
        x = Tensor(2.0, "f64", requires_grad=True)
        (x * x * x).backward()
        assert x.grad.data == pytest.approx(12.0)

    def test_deterministic_bit_identical(self, rng):
        data = rng.standard_normal((6, 6))
        grads = []
        for _ in range(2):
            x = Tensor(data, "f64", requires_grad=True)
            y = softmax_lastdim(matmul(x, x)).sum()
            y.backward()
            grads.append(x.grad.data.copy())
        assert (grads[0] == grads[1]).all()


ELEMENTWISE_CASES = [
    ("add", lambda t, c: (t + c).sum(), lambda a, c: (a + c).sum()),
    ("mul", lambda t, c: (t * c).sum(), lambda a, c: (a * c).sum()),
    ("silu", lambda t, c: t.silu().sum(), lambda a, c: (a / (1 + np.exp(-a))).sum()),
    ("mean", lambda t, c: t.mean(), lambda a, c: a.mean()),
]


@pytest.mark.parametrize("name,tf,nf", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_elementwise_grads(name, tf, nf, rng):
    x = rng.standard_normal((4, 5)) + 2.5
    c = rng.standard_normal((4, 5)) + 2.0
    fd = finite_diff_grad(lambda a: nf(a, c), [x], 0)
    ad = autodiff_grad(lambda t: tf(t, Tensor(c, "f64")), [x], 0)
    assert rel_err(ad, fd) < 1e-5


def test_concat_split_transpose_grads(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4))

    def tf(x, y):
        joined = concat([x, y], axis=0)
        parts = split(joined, [2, 3], axis=0)
        top = parts[0].transpose(1, 0)
        return (top * top).sum() + parts[1].sum()

    def nf(x, y):
        j = np.concatenate([x, y], 0)
        return (j[:2].T ** 2).sum() + j[2:].sum()

    for which in (0, 1):
        check_grad(tf, nf, [a, b], which=which)


def test_embedding_gather_and_scatter(rng):
    table = rng.standard_normal((7, 4))
    ids = [1, 3, 3, 0]
    out = embedding(Tensor(table, "f64", requires_grad=True), ids)
    np.testing.assert_allclose(out.data, table[ids])

    t = Tensor(table, "f64", requires_grad=True)
    embedding(t, ids).sum().backward()
    expect = np.zeros_like(table)
    np.add.at(expect, ids, 1.0)
    np.testing.assert_allclose(t.grad.data, expect)

    with pytest.raises(DataError):
        embedding(Tensor(table), [7])


def test_rotary_isometry_and_grad(rng):
    x = rng.standard_normal((5, 8))
    theta = rng.standard_normal((5, 4))
    cos = np.repeat(np.cos(theta), 2, axis=-1)
    sin = np.repeat(np.sin(theta), 2, axis=-1)
    out = apply_rotary(Tensor(x, "f64"), cos, sin)
    np.testing.assert_allclose(
        np.linalg.norm(out.data, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
    )

    def nf(a):
        ar = a.reshape(5, 4, 2)
        rot = np.stack([-ar[..., 1], ar[..., 0]], axis=-1).reshape(5, 8)
        return ((a * cos + rot * sin) ** 2).sum()

    def tf(t):
        y = apply_rotary(t, cos, sin)
        return (y * y).sum()

    check_grad(tf, nf, [x])


def test_sinusoid_shape_and_range():
    tab = sinusoid([0.0, 1.0, 2.0], 8)
    assert tab.shape == (3, 8)
    assert np.abs(tab.data).max() <= 1.0
    np.testing.assert_allclose(tab.data[0, 4:], 1.0)  # cos(0)


def test_no_grad_blocks_graph():
    x = Tensor(2.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad and y._op is None


def test_dtype_mix_rejected():
    with pytest.raises(UsageError):
        Tensor(np.zeros(3), "f32") + Tensor(np.zeros(3), "f64")


def test_serialize_roundtrip(rng, tmp_path):
    for dtype in ("f32", "f64"):
        t = Tensor(rng.standard_normal((2, 3, 4)), dtype)
        path = tmp_path / f"t_{dtype}.lmt"
        nm.save_tensor(path, t)
        back = nm.load_tensor(path)
        assert back.dtype == dtype and back.shape == t.shape
        assert (back.data == t.data).all()


def test_serialize_bad_magic():
    with pytest.raises(CheckpointError):
        nm.read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 16))


def test_operator_set_is_closed(monkeypatch):
    # the ops training and CFG sampling emit are the ops criterion 1 checks,
    # plus only the ``sum`` reduction its gradient cases are built on
    from lumina_mini.model import ModelConfig
    from lumina_mini.sampler import GuidanceConfig, SamplerConfig, sample
    from lumina_mini.selfcheck import criterion_01_autodiff_soundness
    from lumina_mini.synthdata import build_vocabulary, encode_prompt, generate_scene
    from lumina_mini.trainer import StagePlan, fresh_state, run_stage

    seen = set()
    from_op = Tensor._from_op

    def spy(data, parents, op, backward):
        seen.add(op)
        return from_op(data, parents, op, backward)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
    cfg = ModelConfig(dim=32, heads=4, kv_heads=2, layers=1, text_processor_layers=1,
                      image_processor_layers=1, axes_split=(4, 2, 2))
    state = fresh_state(cfg, seed=0)
    vocab = build_vocabulary()
    plan = StagePlan(resolution=16, steps=1, batch_size=2, lambda_aux=1.0)
    run_stage(state, plan, [generate_scene(i) for i in range(4)], vocab)
    sample(state.params, encode_prompt(vocab.encode(["red", "circle"]), "A", vocab),
           GuidanceConfig(w=4.0, renorm=True), SamplerConfig(steps=2), 0, resolution=16,
           uncond_tokens=encode_prompt([], "A", vocab))
    program = set(seen)
    seen.clear()
    assert criterion_01_autodiff_soundness()[0]
    checked = set(seen)
    assert program <= checked, program - checked
    assert checked - program == {"sum"}
