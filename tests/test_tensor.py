import inspect

import numpy as np
import pytest

from partssl import tensor as T


def rng(seed=0):
    return np.random.default_rng(seed)


class TestForwardOps:
    def test_matmul_identity(self):
        out = T.matmul(T.Tensor([[1.0, 0.0], [0.0, 1.0]]), T.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_softmax_uniform_logits(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_l2_normalize_345(self):
        out = T.l2_normalize(T.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_l2_normalize_zero_row_stays_zero(self):
        out = T.l2_normalize(T.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_matmul_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(T.ShapeError) as e:
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
        msg = str(e.value)
        assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg

    def test_add_shape_mismatch(self):
        with pytest.raises(T.ShapeError, match="add"):
            T.Tensor(np.zeros(3)) + T.Tensor(np.zeros(4))

    def test_softmax_rows_sum_to_one_and_positive(self):
        g = rng(1)
        for _ in range(200):
            x = T.Tensor(g.normal(0, 5, size=(4, 7)))
            y = T.softmax(x).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)
            assert (y > 0).all()

    def test_broadcast_add_matches_numpy(self):
        g = rng(2)
        a = g.normal(size=(3, 1, 5))
        b = g.normal(size=(4, 5))
        np.testing.assert_array_equal((T.Tensor(a) + T.Tensor(b)).data, a + b)

    def test_concatenate_and_slice(self):
        a, b = T.Tensor(np.arange(6).reshape(2, 3)), T.Tensor(np.arange(3).reshape(1, 3))
        c = T.concatenate([a, b], axis=0)
        assert c.shape == (3, 3)
        np.testing.assert_array_equal(c[1:3].data, np.vstack([a.data[1:], b.data]))


class TestBackward:
    def test_square_sum_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.scoped_tape():
            loss = T.sum_(x * x)
            loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.scoped_tape():
            _ = T.sum_(x * x)  # tape non-empty, x on it
            loss = T.Tensor(5.0)
            loss.backward(params=[x])
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_non_scalar_loss_raises(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.scoped_tape():
            y = x * x
            with pytest.raises(T.AutogradError):
                y.backward()

    def test_unreachable_leaf_gets_zero_grad(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.Tensor([2.0], requires_grad=True)
        with T.scoped_tape():
            _ = x * 3.0
            loss = T.sum_(y * y)
            loss.backward()
        np.testing.assert_array_equal(x.grad, [0.0])
        np.testing.assert_allclose(y.grad, [4.0])

    def test_reused_tensor_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.scoped_tape():
            loss = T.sum_(x * x + x * x)
            loss.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_mlp_grads_match_finite_differences(self):
        g = rng(3)
        w1 = T.Tensor(g.normal(0, 0.5, (4, 8)), requires_grad=True)
        b1 = T.Tensor(g.normal(0, 0.1, (8,)), requires_grad=True)
        w2 = T.Tensor(g.normal(0, 0.5, (8, 8)), requires_grad=True)
        w3 = T.Tensor(g.normal(0, 0.5, (8, 1)), requires_grad=True)
        x = T.Tensor(g.normal(size=(5, 4)))

        def f(params):
            p1, p2, p3, p4 = params
            h = T.gelu(x @ p1 + p2)
            h = T.softmax(h @ p3)
            return T.mean(h @ p4)

        assert T.finite_diff_check(f, [w1, b1, w2, w3], eps=1e-5) < 1e-4

    def test_stop_gradient_branch_exactly_zero(self):
        x = T.Tensor([1.0, -2.0], requires_grad=True)

        def f(params):
            (p,) = params
            with T.no_grad():  # how the teacher pass stops gradients
                q = p * 1.0
            return T.sum_(q * q) + T.sum_(p * 0.0)

        with T.scoped_tape():
            loss = f([x])
            loss.backward(params=[x])
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_linear_finite_diff_nearly_exact(self):
        g = rng(4)
        w = T.Tensor(g.normal(size=(6,)), requires_grad=True)
        x = np.asarray(g.normal(size=(6,)))

        def f(params):
            return T.sum_(params[0] * T.Tensor(x))

        assert T.finite_diff_check(f, [w], eps=1e-5) < 1e-8

    def test_finite_diff_rejects_nonfinite(self):
        w = T.Tensor([1.0], requires_grad=True)

        def f(params):
            return T.sum_(1.0 / (params[0] - 1.0))  # 1/0 = inf

        with pytest.raises(T.AutogradError):
            T.finite_diff_check(f, [w])

    def test_finite_diff_refuses_float32(self):
        # at eps 1e-5 a float32 difference quotient is rounding, not a gradient
        w = T.Tensor([1.0], requires_grad=True)
        x = T.Tensor(np.array([0.5, 2.0], dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="parameter 1 is float32"):
            T.finite_diff_check(lambda p: T.sum_(p[0] * p[1]), [w, x])
        assert x.grad is None

    def test_getitem_repeated_rows_accumulate(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with T.scoped_tape():
            T.sum_(x[np.array([[0, 2, 2], [2, 1, 2]])]).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [1.0, 1.0], [4.0, 4.0]])

    def test_getitem_basic_key_backward_equals_add_at(self):
        # ints, slices, None and Ellipsis add into the selected region; the
        # bits match the np.add.at accumulation they replace
        a = rng(5).normal(size=(4, 6, 3))
        for key in [(slice(None), slice(None, 4)), 2, (Ellipsis, 1), (None, slice(1, 3), 0),
                    (np.int64(1), slice(None, None, 2))]:
            x = T.Tensor(a, requires_grad=True)
            g = rng(6).normal(size=np.shape(a[key]))
            with T.scoped_tape():
                T.sum_(x[key] * T.Tensor(g)).backward()
            want = np.zeros_like(a)
            np.add.at(want, key, g)
            assert np.array_equal(x.grad, want), key

    def test_teacher_like_constant_requires_no_tape(self):
        x = T.Tensor([1.0, 2.0])  # requires_grad False
        with T.scoped_tape() as tp:
            _ = T.softmax(x * 3.0)
            assert len(tp) == 0


W55 = T.Tensor(np.arange(25.0).reshape(5, 5) / 10.0)


def recording_ops():
    """Names of the tensor functions that record a tape node."""
    return {name for name, fn in inspect.getmembers(T, inspect.isfunction)
            if fn.__module__ == T.__name__ and name != "_record"
            and "_record(" in inspect.getsource(fn)}


class TestOpGradients:
    """Spot-check each op's backward against central differences."""

    # keyed by the op under test; every op has a case or a DEDICATED test
    CASES = {
        "softmax": lambda p: T.sum_(T.softmax(p[0]) * T.Tensor(np.arange(5.0))),
        "log_softmax": lambda p: T.mean(T.log_softmax(p[0] * 2.0)),
        "layer_norm": lambda p: T.sum_(T.layer_norm(p[0], p[1], p[2]) * T.Tensor(np.arange(5.0))),
        "l2_normalize": lambda p: T.sum_(T.l2_normalize(p[0]) * T.Tensor(np.arange(5.0))),
        "gelu": lambda p: T.sum_(T.gelu(p[0])),
        "sqrt": lambda p: T.sum_(T.sqrt(p[0] * p[0] + 1.0)),
        "transpose": lambda p: T.sum_(T.transpose(T.reshape(p[0], (5, 1))) * T.Tensor(np.arange(5.0))),
        # a slice, then an integer-array key that repeats a row
        "getitem": lambda p: T.sum_(p[0][1:4] * 3.0) + T.sum_(p[0][[3, 1, 3]] * p[0][[0, 3, 2]]),
        "concatenate": lambda p: T.sum_(T.concatenate([p[0], p[0] * 2.0]) * T.Tensor(np.arange(10.0))),
        "broadcast_to": lambda p: T.sum_(T.broadcast_to(T.reshape(p[0], (1, 5)), (3, 5)) * T.Tensor(np.arange(15.0).reshape(3, 5))),
        "div": lambda p: T.sum_(p[0] / (p[0] * p[0] + 2.0)),
        "mean_axis": lambda p: T.sum_(T.mean(T.reshape(p[0], (5, 1)) * T.Tensor(np.ones((5, 3))), axis=0)),
        "relu": lambda p: T.sum_(T.relu(p[0]) * T.Tensor(np.arange(5.0))),
        "add": lambda p: T.sum_((p[0] + T.reshape(p[0] * p[0], (5, 1))) * W55),
        "sub": lambda p: T.sum_((T.reshape(p[0], (5, 1)) - p[0] * p[0]) * W55),
        "mul": lambda p: T.sum_(p[0] * T.reshape(p[0], (5, 1)) * W55),
        "neg": lambda p: T.sum_(-(p[0] * p[0]) * T.Tensor(np.arange(5.0))),
        "sum_": lambda p: T.sum_(T.sum_(T.reshape(p[0], (5, 1)) * W55, axis=0, keepdims=True)
                                 * T.sum_(p[0] * p[0])),
        "reshape": lambda p: T.sum_(T.reshape(p[0] * p[0], (5, 1)) * T.Tensor(np.arange(5.0).reshape(5, 1))),
    }
    DEDICATED = {"matmul": "test_matmul_batched_grad", "linear": "test_linear_grad",
                 "attention": "test_attention_grad"}

    def test_every_recording_op_is_checked(self):
        ops = recording_ops()
        assert "add" in ops and "getitem" in ops
        assert ops - set(self.CASES) - set(self.DEDICATED) == set()
        assert all(hasattr(self, test) for test in self.DEDICATED.values())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_grad(self, name):
        g = rng(sorted(self.CASES).index(name))  # str hashes vary per process
        x = T.Tensor(g.normal(0, 1.0, size=(5,)), requires_grad=True)
        extra = [T.Tensor(g.normal(1.0, 0.2, (5,)), requires_grad=True),
                 T.Tensor(g.normal(0, 0.2, (5,)), requires_grad=True)]
        fn = self.CASES[name]
        params = [x] + (extra if name == "layer_norm" else [])
        assert T.finite_diff_check(lambda p: fn(p), params, eps=1e-6) < 1e-6

    def test_matmul_batched_grad(self):
        g = rng(77)
        a = T.Tensor(g.normal(size=(2, 3, 4)), requires_grad=True)
        b = T.Tensor(g.normal(size=(4, 5)), requires_grad=True)

        def f(p):
            return T.sum_(T.matmul(p[0], p[1]) * T.Tensor(g2))

        g2 = rng(78).normal(size=(2, 3, 5))
        assert T.finite_diff_check(f, [a, b], eps=1e-6) < 1e-6

    def test_linear_grad(self):
        g = rng(79)
        x = T.Tensor(g.normal(size=(2, 3, 4)), requires_grad=True)
        w = T.Tensor(g.normal(size=(4, 5)), requires_grad=True)
        b = T.Tensor(g.normal(size=(5,)), requires_grad=True)
        weight = T.Tensor(rng(80).normal(size=(2, 3, 5)))
        assert T.finite_diff_check(lambda p: T.sum_(T.linear(*p) * weight), [x, w, b],
                                   eps=1e-6) < 1e-6

    def test_attention_grad(self):
        g = rng(81)
        qkv = [T.Tensor(g.normal(size=(2, 5, 4)), requires_grad=True) for _ in range(3)]
        weight = T.Tensor(rng(82).normal(size=(2, 5, 4)))
        assert T.finite_diff_check(lambda p: T.sum_(T.attention(*p, heads=2) * weight), qkv,
                                   eps=1e-6) < 1e-6

    def test_attention_rows_grad(self):
        # queries of the first 2 of 5 tokens; every token is a key and a value
        g = rng(83)
        qkv = [T.Tensor(g.normal(size=(2, 5, 4)), requires_grad=True) for _ in range(3)]
        weight = T.Tensor(rng(84).normal(size=(2, 2, 4)))
        assert T.finite_diff_check(
            lambda p: T.sum_(T.attention(*p, heads=2, rows=2) * weight), qkv, eps=1e-6) < 1e-6
        np.testing.assert_array_equal(qkv[0].grad[:, 2:], 0.0)
        assert np.abs(qkv[1].grad[:, 2:]).min() > 0 and np.abs(qkv[2].grad[:, 2:]).min() > 0


def unfused_attention(q, k, v, heads):
    """Multi-head attention composed of elementary ops: the reference."""
    B, S, C = q.shape
    dh = C // heads

    def split(t):
        return T.transpose(T.reshape(t, (B, S, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    attn = T.softmax(T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh)), axis=-1)
    return T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (B, S, C))


def unblocked_attention(q, k, v, heads, g):
    """The whole-array attention kernel: output, probabilities, dq, dk, dv
    for the output gradient ``g``. The reference of the blocked op."""
    B, S, C = q.shape
    scale = 1.0 / np.sqrt(C // heads)
    qh, kh, vh, gh = (t.reshape(B, S, heads, -1).transpose(0, 2, 1, 3) for t in (q, k, v, g))
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    return [(p @ vh).transpose(0, 2, 1, 3).reshape(B, S, C), p] + [
        d.transpose(0, 2, 1, 3).reshape(B, S, C) for d in
        (ds @ kh, ds.transpose(0, 1, 3, 2) @ qh, p.transpose(0, 1, 3, 2) @ gh)]


def unblocked_gelu(x, g):
    """The whole-array gelu kernel: output and input gradient."""
    x2 = x * x
    inner = x2 * x
    inner *= 0.044715
    inner += x
    inner *= T._GELU_C
    t = np.tanh(inner)
    dy = 1.0 - t * t
    dy *= T._GELU_C * (1.0 + 0.134145 * x2)
    dy *= 0.5 * x
    dy += 0.5 * (1.0 + t)
    return [0.5 * x * (1.0 + t), g * dy]


def unblocked_layer_norm(x, gamma, beta, g, eps=1e-6):
    """The whole-array layer_norm kernel: output and the three gradients."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gg = g * gamma
    m1 = gg.mean(axis=-1, keepdims=True)
    m2 = (gg * xhat).mean(axis=-1, keepdims=True)
    axes = tuple(range(g.ndim - 1))
    return [xhat * gamma + beta, (gg - m1 - xhat * m2) * inv, (g * xhat).sum(axis=axes),
            g.sum(axis=axes)]


def regime_rows(row_bytes, regime):
    """Rows of ``row_bytes`` that make one block, four whole blocks, or four
    and a ragged fifth, at the current ``T.BLOCK_BYTES``."""
    step = T.BLOCK_BYTES // row_bytes
    assert step >= 4
    return {"one": step // 4, "several": 4 * step, "ragged": 4 * step + 3}[regime]


class TestFusedOps:
    """Each fused op against the composition of elementary ops it replaces."""

    @staticmethod
    def value_and_grads(fn, inputs, weight):
        for t in inputs:
            t.zero_grad()
        with T.scoped_tape():
            out = fn(*inputs)
            T.sum_(out * T.Tensor(weight)).backward(params=inputs)
        return [out.data] + [t.grad for t in inputs]

    def assert_same(self, fused, composed, inputs, weight):
        want = self.value_and_grads(composed, inputs, weight)
        got = self.value_and_grads(fused, inputs, weight)
        for w, g in zip(want, got):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_linear_matches_matmul_add(self):
        g = rng(90)
        inputs = [T.Tensor(g.normal(size=s), requires_grad=True)
                  for s in ((6, 7, 8), (8, 5), (5,))]
        self.assert_same(T.linear, lambda x, w, b: T.matmul(x, w) + b, inputs,
                         rng(91).normal(size=(6, 7, 5)))

    def test_attention_matches_composition(self):
        g = rng(92)
        inputs = [T.Tensor(g.normal(size=(3, 6, 8)), requires_grad=True) for _ in range(3)]
        self.assert_same(lambda q, k, v: T.attention(q, k, v, 4),
                         lambda q, k, v: unfused_attention(q, k, v, 4), inputs,
                         rng(93).normal(size=(3, 6, 8)))

    def test_attention_probabilities_rows_sum_to_one(self):
        g = rng(94)
        q, k, v = (T.Tensor(g.normal(0, 3, size=(2, 5, 6))) for _ in range(3))
        probs = []
        T.attention(q, k, v, 3, probs_out=probs)
        (p,) = probs
        assert p.shape == (2, 3, 5, 5)
        assert (p > 0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_attention_rows_are_the_first_rows_of_the_full_attention(self):
        g = rng(95)
        q, k, v = (T.Tensor(g.normal(0, 3, size=(2, 7, 6))) for _ in range(3))
        full, probs = [], []
        want = T.attention(q, k, v, 3, probs_out=full).data
        got = T.attention(q, k, v, 3, probs_out=probs, rows=3).data
        (p,) = probs
        assert got.shape == (2, 3, 6) and p.shape == (2, 3, 3, 7)
        np.testing.assert_allclose(got, want[:, :3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, full[0][:, :, :3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("regime", ["one", "several", "ragged"])
    @pytest.mark.parametrize("kernel", ["attention", "gelu", "layer_norm"])
    def test_blocked_kernel_bit_identical_to_unblocked(self, kernel, regime):
        # output, every gradient and attention's probabilities, in grad mode
        # and under no_grad, on one block, four whole blocks, or four and a
        # ragged fifth
        g = rng(97)
        if kernel == "attention":
            heads, S, C = 2, 16, 8
            n = regime_rows(8 * heads * S * S, regime)
            arrays = [g.normal(0, 2, (n, S, C)) for _ in range(3)]

            def op(q, k, v, probs_out):
                return T.attention(q, k, v, heads, probs_out)

            def unblocked(q, k, v, dy):
                return unblocked_attention(q, k, v, heads, dy)
        elif kernel == "gelu":
            arrays = [g.normal(0, 2, (regime_rows(8 * 16, regime), 16))]
            op, unblocked = (lambda a, probs_out: T.gelu(a)), unblocked_gelu
        else:
            C = 16
            arrays = [g.normal(0, 2, (2, regime_rows(2 * 8 * C, regime), C)),
                      g.normal(1, 0.2, C), g.normal(0, 0.2, C)]
            op, unblocked = (lambda a, gm, bt, probs_out: T.layer_norm(a, gm, bt)), \
                unblocked_layer_norm
        dy = rng(98).normal(size=arrays[0].shape)
        want = unblocked(*arrays, dy)
        ts = [T.Tensor(a, requires_grad=True) for a in arrays]
        probs = []
        with T.scoped_tape():
            out = op(*ts, probs_out=probs)
            T.sum_(out * T.Tensor(dy)).backward(params=ts)
        got = [out.data] + probs + [t.grad for t in ts]
        assert len(got) == len(want)
        for w, x in zip(want, got):
            assert x.shape == w.shape and np.array_equal(x, w)
        with T.no_grad():
            kept = []
            assert np.array_equal(op(*map(T.Tensor, arrays), probs_out=kept).data, want[0])
            assert np.array_equal(op(*map(T.Tensor, arrays), probs_out=None).data, want[0])
        assert len(kept) == len(probs) and all(np.array_equal(p, want[1]) for p in kept)

    def test_blocked_kernel_grads_match_finite_differences(self, monkeypatch):
        # 64-byte blocks: 8 gelu elements, 2 layer_norm rows, 1 attention view
        monkeypatch.setattr(T, "BLOCK_BYTES", 64)
        g = rng(99)
        x = T.Tensor(g.normal(size=(5, 3)), requires_grad=True)
        weight = T.Tensor(g.normal(size=(5, 3)))
        assert T.finite_diff_check(lambda p: T.sum_(T.gelu(p[0]) * weight), [x], eps=1e-6) < 1e-6
        ln = [T.Tensor(g.normal(size=(5, 4)), requires_grad=True),
              T.Tensor(g.normal(1.0, 0.2, 4), requires_grad=True),
              T.Tensor(g.normal(0, 0.2, 4), requires_grad=True)]
        weight = T.Tensor(g.normal(size=(5, 4)))
        assert T.finite_diff_check(lambda p: T.sum_(T.layer_norm(*p) * weight), ln, eps=1e-6) < 1e-6
        qkv = [T.Tensor(g.normal(size=(3, 3, 4)), requires_grad=True) for _ in range(3)]
        weight = T.Tensor(g.normal(size=(3, 3, 4)))
        assert T.finite_diff_check(lambda p: T.sum_(T.attention(*p, heads=2) * weight), qkv,
                                   eps=1e-6) < 1e-6

    def test_shape_errors_name_the_op(self):
        with pytest.raises(T.ShapeError, match="linear"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))
        with pytest.raises(T.ShapeError, match="attention"):
            x = T.Tensor(np.zeros((1, 2, 6)))
            T.attention(x, x, x, 4)
        with pytest.raises(T.ShapeError, match="rows 3 outside 1..2"):
            T.attention(x, x, x, 3, rows=3)


class TestFloat32:
    """A float32 input stays float32 through every op, forward and backward,
    with Python-number constants; float64 stays float64."""

    # leaves x, y (2, 3, 4), w (4, 4), b (4,); every constant a Python number
    OPS = {
        "add": lambda x, y, w, b: x + y + 1.0 + (2 + x),
        "sub": lambda x, y, w, b: (x - y) - 1.0 + (1.0 - x),
        "mul": lambda x, y, w, b: x * y * 0.5 * (2.0 * x),
        "div": lambda x, y, w, b: x / (y * y + 1.0) / 2.0 + 1.0 / (x * x + 1.0),
        "neg": lambda x, y, w, b: -x,
        "matmul": lambda x, y, w, b: x @ w,
        "linear": lambda x, y, w, b: T.linear(x, w, b),
        "attention": lambda x, y, w, b: T.attention(x, y, x, 2) + T.attention(x, y, y, 2, rows=3),
        "transpose": lambda x, y, w, b: T.transpose(x, (2, 0, 1)),
        "reshape": lambda x, y, w, b: T.reshape(x, (6, 4)),
        "broadcast_to": lambda x, y, w, b: T.broadcast_to(b, (3, 4)),
        "concatenate": lambda x, y, w, b: T.concatenate([x, y], axis=1),
        "getitem": lambda x, y, w, b: x[:, 1:] * x[[1, 1]][:, 1:],
        "sum_": lambda x, y, w, b: T.sum_(x, axis=1) * T.sum_(y),
        "mean": lambda x, y, w, b: T.mean(x, axis=0) + T.mean(y),
        "sqrt": lambda x, y, w, b: T.sqrt(x * x + 1.0),
        "relu": lambda x, y, w, b: T.relu(x),
        "gelu": lambda x, y, w, b: T.gelu(x),
        "softmax": lambda x, y, w, b: T.softmax(x),
        "log_softmax": lambda x, y, w, b: T.log_softmax(x),
        "layer_norm": lambda x, y, w, b: T.layer_norm(x, b, -b),
        "l2_normalize": lambda x, y, w, b: T.l2_normalize(x),
    }

    def test_every_recording_op_is_covered(self):
        assert recording_ops() - set(self.OPS) == set()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_dtype_is_kept(self, name, dtype):
        g = rng(sorted(self.OPS).index(name))
        arrays = [g.normal(size=s).astype(dtype) for s in ((2, 3, 4), (2, 3, 4), (4, 4), (4,))]
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        with T.scoped_tape():
            out = self.OPS[name](*leaves)
            T.sum_(out * out).backward(params=leaves)
        assert out.data.dtype == dtype
        assert [t.grad.dtype for t in leaves] == [dtype] * 4
        with T.no_grad():
            assert self.OPS[name](*map(T.Tensor, arrays)).data.dtype == dtype

    def test_only_float32_is_kept(self):
        assert T.Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
        for x in (np.zeros(2, np.float16), np.zeros(2, np.int64), [1, 2], 3.0, True):
            assert T.Tensor(x).data.dtype == np.float64
        # a numpy float64 scalar is not a Python number: it upcasts, as in numpy
        assert (T.Tensor(np.ones(2, np.float32)) * np.float64(2.0)).data.dtype == np.float64

    @pytest.mark.parametrize("other", [np.ones(3), np.float64(2.0)])
    def test_backward_refuses_a_gradient_of_another_dtype(self, other):
        # a float64 constant would turn the backward of float32 data into float64
        x = T.Tensor(np.ones(3, np.float32), requires_grad=True)
        with T.scoped_tape():
            loss = T.sum_(x * other)
            with pytest.raises(T.AutogradError, match="float32 leaf .* float64 gradient"):
                loss.backward()
        assert x.grad is None

    @pytest.mark.parametrize("kernel", ["attention", "gelu", "layer_norm"])
    def test_float32_blocks_give_the_bits_of_one_block(self, kernel, monkeypatch):
        # blocks hold BLOCK_BYTES of float32 rows: 4096-byte blocks cut these
        # inputs into several, with a ragged last one
        g = rng(100)
        x = g.normal(0, 2, (37, 9, 8)).astype(np.float32)
        gamma, beta = g.normal(1, 0.2, 8).astype(np.float32), g.normal(0, 0.2, 8).astype(np.float32)
        dy = rng(101).normal(size=x.shape).astype(np.float32)
        op = {"attention": lambda t: T.attention(t, t * 0.5, t, 2),
              "gelu": T.gelu,
              "layer_norm": lambda t: T.layer_norm(t, T.Tensor(gamma), T.Tensor(beta))}[kernel]

        def run():
            t = T.Tensor(x, requires_grad=True)
            with T.scoped_tape():
                out = op(t)
                T.sum_(out * T.Tensor(dy)).backward(params=[t])
            with T.no_grad():
                plain = op(T.Tensor(x)).data
            return out.data, t.grad, plain

        one = run()
        monkeypatch.setattr(T, "BLOCK_BYTES", 4096)
        rows, row_bytes = {"attention": (37, 4 * 2 * 9 * 9), "gelu": (x.size, 4),
                           "layer_norm": (37 * 9, 4 * 8)}[kernel]
        assert len(T._blocks(rows, row_bytes, False)[1]) > 2
        for want, got in zip(one, run()):
            assert got.dtype == np.float32 and np.array_equal(got, want)
