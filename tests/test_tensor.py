"""Tensor core: loop oracles, gradient checks, tape behaviour."""

import numpy as np
import pytest

from ssmocr import tensor as T
from gradcheck import check_grads


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def conv2d_oracle(x, w, bias, stride, padding):
    c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((o, ho, wo), dtype=x.dtype)
    for oc in range(o):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ic in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += w[oc, ic, u, v] * xp[ic, i * sh + u, j * sw + v]
                out[oc, i, j] = acc + (bias[oc] if bias is not None else 0.0)
    return out


class TestMatmul:
    def test_identity(self):
        m = np.arange(9, dtype=np.float64).reshape(3, 3)
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(m))
        assert np.array_equal(out.data, m)

    def test_one_by_one(self):
        out = T.matmul(T.Tensor([[2.0]], dtype="f64"), T.Tensor([[3.0]], dtype="f64"))
        assert out.data[0, 0] == 6.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 4))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        ref = matmul_oracle(a, b)
        assert np.abs(out.data - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))

    def test_dtype_mismatch(self):
        with pytest.raises(T.ShapeError, match="dtype"):
            T.matmul(T.Tensor(np.zeros((2, 2)), dtype="f32"),
                     T.Tensor(np.zeros((2, 2)), dtype="f64"))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 6))
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(T.Tensor(x), T.Tensor(w))
        assert np.allclose(out.data, x)

    def test_ones_kernel_constant_image(self):
        c = 0.7
        x = np.full((1, 6, 6), c)
        w = np.ones((1, 1, 3, 3))
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        assert np.allclose(out.data[0, 1:-1, 1:-1], 9 * c)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((2, 1), (0, 1))])
    def test_matches_nested_loops(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 8, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride, padding)
        ref = conv2d_oracle(x, w, b, stride, padding)
        assert np.abs(out.data - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError, match="larger"):
            T.conv2d(T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros((1, 1, 5, 5))))


class TestMaxpool:
    def test_constant_invariance(self):
        x = np.full((2, 4, 6), 3.5)
        out = T.maxpool2d(T.Tensor(x), (2, 2))
        assert np.all(out.data == 3.5)
        assert out.shape == (2, 2, 3)

    def test_two_by_two(self):
        x = T.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        out = T.maxpool2d(x, (2, 2))
        assert out.data[0, 0, 0] == 4.0
        T.backward(T.sum_all(out))
        expect = np.zeros((1, 2, 2))
        expect[0, 1, 1] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_ragged_edges(self):
        x = np.arange(15, dtype=np.float64).reshape(1, 3, 5)
        out = T.maxpool2d(T.Tensor(x), (2, 2))
        assert out.shape == (1, 2, 3)
        assert out.data[0, 1, 2] == 14.0

    def test_tie_routes_to_lowest_flat_index(self):
        x = T.Tensor(np.zeros((1, 2, 2)), requires_grad=True)
        T.backward(T.sum_all(T.maxpool2d(x, (2, 2))))
        expect = np.zeros((1, 2, 2))
        expect[0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_zero_window_rejected(self):
        with pytest.raises(T.ShapeError):
            T.maxpool2d(T.Tensor(np.zeros((1, 2, 2))), (0, 2))


class TestActivations:
    def test_origin_values(self):
        z = T.Tensor([0.0], dtype="f64")
        assert T.gelu(z).data[0] == 0.0
        assert T.silu(z).data[0] == 0.0
        assert abs(T.softplus(z).data[0] - np.log(2.0)) < 1e-12

    def test_softmax_symmetry(self):
        out = T.softmax_lastdim(T.Tensor([[0.0, 0.0, 0.0]], dtype="f64"))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 7)) * 30
        out = T.softmax_lastdim(T.Tensor(x, dtype="f32"))
        assert np.all(out.data >= 0)
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-6

    def test_layernorm_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 8))
        g = T.Tensor(np.ones(8))
        b = T.Tensor(np.zeros(8))
        out = T.layernorm_lastdim(T.Tensor(x), g, b)
        assert np.abs(out.data.mean(axis=1)).max() < 1e-6
        assert np.abs(out.data.std(axis=1) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("shape", [(8,), (5, 8)])
    def test_layernorm_kernel_equals_tape_op(self, dtype, shape):
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.standard_normal(shape) * 3.0 + 1.0, dtype=dtype)
        g = T.Tensor(rng.standard_normal(8), dtype=dtype)
        b = T.Tensor(rng.standard_normal(8), dtype=dtype)
        raw = T.layernorm_np(x.data, g, b)
        assert raw.dtype == x.data.dtype
        assert np.array_equal(raw, T.layernorm_lastdim(x, g, b).data)

    def test_activation_dispatch(self):
        x = T.Tensor([1.0, -1.0])
        assert np.allclose(T.activation("silu", x).data, T.silu(x).data)
        with pytest.raises(T.ShapeError, match="unknown activation"):
            T.activation("tanh", x)
        with pytest.raises(T.ShapeError, match="scale"):
            T.activation("layernorm_lastdim", x)

    def test_exp_overflow_is_an_error(self):
        with pytest.raises(T.NonFiniteError):
            T.exp(T.Tensor([800.0], dtype="f64"))


class TestBackward:
    def test_product_rule(self):
        x = T.Tensor([2.0], dtype="f64", requires_grad=True)
        y = T.Tensor([3.0], dtype="f64", requires_grad=True)
        T.backward(T.sum_all(T.mul(x, y)))
        assert x.grad[0] == 3.0
        assert y.grad[0] == 2.0

    def test_fanout_accumulates(self):
        x = T.Tensor([1.5], dtype="f64", requires_grad=True)
        loss = T.sum_all(T.add(T.mul(x, 2.0), T.mul(x, x)))
        T.backward(loss)
        assert np.isclose(x.grad[0], 2.0 + 2.0 * 1.5)

    def test_detached_tensor_errors(self):
        with pytest.raises(T.TapeError):
            T.backward(T.Tensor([1.0]))

    def test_nonscalar_loss_errors(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.backward(T.mul(x, 2.0))

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.standard_normal((3, 4)), dtype="f64", requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 4)) * 0.5, dtype="f64", requires_grad=True)
        g = T.Tensor(rng.standard_normal(4), dtype="f64", requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), dtype="f64", requires_grad=True)

        def loss():
            return T.sum_all(T.layernorm_lastdim(T.gelu(T.matmul(x, w)), g, b))

        check_grads(loss, [x, w, g, b])

    def test_tape_replay_determinism(self):
        def run():
            rng = np.random.default_rng(77)
            x = T.Tensor(rng.standard_normal((4, 4)), dtype="f32")
            return T.softmax_lastdim(T.gelu(T.matmul(x, x))).data.tobytes()

        assert run() == run()


FD_OPS = [
    ("matmul", lambda rng: _mm_case(rng)),
    ("conv2d", lambda rng: _conv_case(rng)),
    ("maxpool", lambda rng: _pool_case(rng)),
    ("gelu", lambda rng: _unary_case(rng, T.gelu)),
    ("silu", lambda rng: _unary_case(rng, T.silu)),
    ("softplus", lambda rng: _unary_case(rng, T.softplus)),
    ("exp", lambda rng: _unary_case(rng, T.exp)),
    ("softmax", lambda rng: _unary_case(rng, T.softmax_lastdim)),
    ("layernorm", lambda rng: _ln_case(rng)),
    ("batchnorm", lambda rng: _bn_case(rng)),
    ("embedding", lambda rng: _emb_case(rng)),
]


def _mm_case(rng):
    a = T.Tensor(rng.standard_normal((3, 5)), dtype="f64", requires_grad=True)
    b = T.Tensor(rng.standard_normal((5, 2)), dtype="f64", requires_grad=True)
    return [a, b], lambda: T.sum_all(T.gelu(T.matmul(a, b)))


def _conv_case(rng):
    x = T.Tensor(rng.standard_normal((2, 5, 6)), dtype="f64", requires_grad=True)
    w = T.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, dtype="f64", requires_grad=True)
    b = T.Tensor(rng.standard_normal(3), dtype="f64", requires_grad=True)
    return [x, w, b], lambda: T.sum_all(T.silu(T.conv2d(x, w, b, stride=2, padding=1)))


def _pool_case(rng):
    # keep entries well separated so the argmax never flips under the probe
    x = T.Tensor(rng.permutation(24).reshape(2, 3, 4) * 1.0, dtype="f64",
                 requires_grad=True)
    return [x], lambda: T.sum_all(T.gelu(T.maxpool2d(x, (2, 2))))


def _unary_case(rng, fn):
    x = T.Tensor(rng.standard_normal((4, 3)), dtype="f64", requires_grad=True)
    return [x], lambda: T.sum_all(T.mul(fn(x), T.exp(T.mul(x, 0.1))))


def _ln_case(rng):
    x = T.Tensor(rng.standard_normal((3, 6)), dtype="f64", requires_grad=True)
    g = T.Tensor(rng.standard_normal(6), dtype="f64", requires_grad=True)
    b = T.Tensor(rng.standard_normal(6), dtype="f64", requires_grad=True)
    return [x, g, b], lambda: T.sum_all(T.silu(T.layernorm_lastdim(x, g, b)))


def _bn_case(rng):
    x = T.Tensor(rng.standard_normal((2, 4, 3)), dtype="f64", requires_grad=True)
    g = T.Tensor(rng.standard_normal(2), dtype="f64", requires_grad=True)
    b = T.Tensor(rng.standard_normal(2), dtype="f64", requires_grad=True)

    def loss():
        rm = np.zeros(2)
        rv = np.ones(2)
        return T.sum_all(T.gelu(T.batchnorm2d(x, g, b, rm, rv, training=True)))

    return [x, g, b], loss


def _emb_case(rng):
    tab = T.Tensor(rng.standard_normal((5, 4)), dtype="f64", requires_grad=True)
    ids = rng.integers(0, 5, size=6)
    return [tab], lambda: T.sum_all(T.gelu(T.embedding(tab, ids)))


@pytest.mark.parametrize("name,case", FD_OPS, ids=[n for n, _ in FD_OPS])
def test_op_gradients_match_finite_differences(name, case):
    # randomized small shapes, many seeds: the per-op half of the gradient suite
    for seed in range(25):
        params, loss = case(np.random.default_rng(seed))
        check_grads(loss, params)


class TestShapeOps:
    def test_narrow_concat_roundtrip(self):
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.standard_normal((6, 3)), dtype="f64", requires_grad=True)
        top = T.narrow(x, 0, 0, 2)
        rest = T.narrow(x, 0, 2, 4)
        back = T.concat([top, rest], axis=0)
        assert np.array_equal(back.data, x.data)
        T.backward(T.sum_all(T.mul(back, back)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_flip_grad(self):
        x = T.Tensor(np.arange(4.0), dtype="f64", requires_grad=True)
        w = T.Tensor(np.array([1.0, 0.0, 0.0, 0.0]), dtype="f64")
        T.backward(T.sum_all(T.mul(T.flip(x, 0), w)))
        assert np.array_equal(x.grad, [0, 0, 0, 1.0])

    def test_permute_reshape(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((2, 3, 4)), dtype="f64", requires_grad=True)
        y = T.reshape(T.permute(x, (1, 2, 0)), (12, 2))
        T.backward(T.sum_all(T.mul(y, y)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_add_bias_grad(self):
        x = T.Tensor(np.zeros((3, 2)), dtype="f64", requires_grad=True)
        b = T.Tensor(np.array([1.0, -1.0]), dtype="f64", requires_grad=True)
        T.backward(T.sum_all(T.add_bias(x, b)))
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_repeat_cols(self):
        x = T.Tensor(np.array([[2.0], [3.0]]), dtype="f64", requires_grad=True)
        out = T.repeat_cols(x, 3)
        assert out.shape == (2, 3)
        T.backward(T.sum_all(out))
        assert np.allclose(x.grad, [[3.0], [3.0]])


class TestTensorBasics:
    def test_invariant_grad_shape(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        assert x.grad.shape == x.data.shape

    def test_nan_input_rejected(self):
        with pytest.raises(T.NonFiniteError):
            T.Tensor([np.nan])

    def test_no_grad_suppresses_recording(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert y.node is None
