"""Dense float32 and float64 tensors with reverse-mode automatic
differentiation.

Fine-tuning and adaptation train in float32, forward, tape and backward, on
float32 working copies of float64 master weights (``optim.AdamW.working``);
feature extraction runs in float32 too. Pretraining and every gradient check
run in float64. A float32 array stays float32; anything else becomes
float64. A Python number takes the dtype of the tensor it meets, as in
numpy (NEP 50), so constants are Python floats: an ``np.float64`` would
upcast float32 data, and ``backward`` refuses a gradient whose dtype is not
its leaf's.

Every operation whose inputs require gradients appends one node to the
active tape (one tape per thread). Ops execute after their inputs exist, so
the recording order is a topological order of the graph and a single reverse
sweep visits every node exactly once.

The op set is only what a small transformer pipeline needs. Elementwise ops
broadcast by numpy rules and gradients are un-broadcast by summation; beyond
that no general numpy surface is attempted. Tensors are treated as immutable
once produced by an op; gradient clipping (``.grad``), the teacher's EMA
update and the finite-difference checker (``.data``) are the only places that
write a tensor's arrays in place, and each owns its tensors then.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

DTYPE = np.float64


class ShapeError(ValueError):
    """Operand shapes do not conform for an op."""


class AutogradError(RuntimeError):
    """Misuse of the tape or a non-finite value where one is forbidden."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _fail("item", "tensor is not scalar, shape %s" % (self.shape,))

    def zero_grad(self):
        self.grad = None

    def backward(self, params=None):
        backward(self, params=params)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(shape=%s%s)" % (self.shape, flag)


class Tape:
    """Ordered record of executed ops; reverse iteration is reverse-topological."""

    __slots__ = ("nodes", "_produced")

    def __init__(self):
        self.nodes = []
        self._produced = set()

    def record(self, out, parents, backward_fn):
        self.nodes.append((out, parents, backward_fn))
        self._produced.add(id(out))

    def clear(self):
        self.nodes.clear()
        self._produced.clear()

    def __len__(self):
        return len(self.nodes)


_state = threading.local()


def tape():
    """The current thread's tape, created on first use."""
    tp = getattr(_state, "tape", None)
    if tp is None:
        tp = Tape()
        _state.tape = tp
    return tp


def clear_tape():
    tape().clear()


@contextmanager
def scoped_tape():
    """Run with a fresh tape, restoring the previous one afterwards."""
    old = getattr(_state, "tape", None)
    _state.tape = Tape()
    try:
        yield _state.tape
    finally:
        _state.tape = old


def grad_enabled():
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    old = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = old


def _fail(op, msg):
    raise ShapeError("%s: %s" % (op, msg))


def asarray(x):
    """``x`` as an array: float32 stays float32, anything else is float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(DTYPE, copy=False)


def _coerce(x, like=None):
    """``x`` as a Tensor; a Python number takes the dtype of the Tensor ``like``."""
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor) and type(x) in (int, float, bool):  # not np.float64
        return Tensor(np.array(x, dtype=like.data.dtype))
    return Tensor(x)


def _tracked(*parents):
    return grad_enabled() and any(p.requires_grad for p in parents)


def _record(out, parents, backward_fn):
    if _tracked(*parents):
        out.requires_grad = True
        tape().record(out, parents, backward_fn)
    return out


# attention, gelu and layer_norm run over row blocks of about this size, so
# each block's temporaries stay in L2; every element and every last-axis
# reduction is computed as on the whole array, bit for bit
BLOCK_BYTES = 1 << 17


def _blocks(n, row_bytes, keep):
    """The buffer's row count and, per block of at most ``BLOCK_BYTES`` (at least
    one row), the row slice and its slice of the buffer: the same rows if ``keep``
    (a buffer of all rows), else the head of a one-block buffer."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return (n if keep else min(step, n)), [
        (slice(i, i + step), slice(i, i + step) if keep else slice(0, min(step, n - i)))
        for i in range(0, n, step)]


def _unbroadcast(g, shape):
    """Sum gradient over axes that were added or expanded by broadcasting."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss, params=None):
    """Populate ``.grad`` on every requires-grad leaf below ``loss``.

    Leaves that appear on the tape but are unreachable from ``loss`` receive
    an explicit zero gradient. If ``params`` is given, those tensors get a
    zero gradient even when they never appeared on the tape at all.
    """
    if loss.size != 1:
        raise AutogradError("backward: loss must be scalar, got shape %s" % (loss.shape,))
    tp = tape()
    grads = {id(loss): np.ones_like(loss.data)}
    leaves = {}
    for out, parents, backward_fn in reversed(tp.nodes):
        for p in parents:
            if p.requires_grad and id(p) not in tp._produced:
                leaves.setdefault(id(p), p)
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for p, pg in zip(parents, backward_fn(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            grads[key] = grads[key] + pg if key in grads else pg
    # the optimizer rescales and reads gradients in place: each leaf gets a
    # writeable array that shares no memory with another leaf's gradient
    owners = set()
    for key, leaf in leaves.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(leaf.data)
        elif g.dtype != leaf.data.dtype:  # a constant of a wider type met the leaf's data
            raise AutogradError("backward: a %s leaf of shape %s got a %s gradient"
                                % (leaf.data.dtype, leaf.shape, g.dtype))
        elif not g.flags.writeable or id(g if g.base is None else g.base) in owners:
            g = g.copy()
        owners.add(id(g if g.base is None else g.base))
        leaf.grad = g
    if params is not None:
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    a, b = _coerce(a, b), _coerce(b, a)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        _fail("add", "shapes %s and %s not broadcastable" % (a.shape, b.shape))
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                                           _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a, b):
    a, b = _coerce(a, b), _coerce(b, a)
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        _fail("sub", "shapes %s and %s not broadcastable" % (a.shape, b.shape))
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                                           _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a, b):
    a, b = _coerce(a, b), _coerce(b, a)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        _fail("mul", "shapes %s and %s not broadcastable" % (a.shape, b.shape))

    def bfn(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bfn)


def div(a, b):
    a, b = _coerce(a, b), _coerce(b, a)
    try:
        out = Tensor(a.data / b.data)
    except ValueError:
        _fail("div", "shapes %s and %s not broadcastable" % (a.shape, b.shape))

    def bfn(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bfn)


def neg(a):
    a = _coerce(a)
    return _record(Tensor(-a.data), (a,), lambda g: (-g,))


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        _fail("matmul", "operands must have ndim >= 2, got %s and %s" % (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2]:
        _fail("matmul", "inner dims differ: %s vs %s" % (a.shape, b.shape))
    try:
        out = Tensor(a.data @ b.data)
    except ValueError:
        _fail("matmul", "batch dims of %s and %s not broadcastable" % (a.shape, b.shape))

    def bfn(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bfn)


def linear(x, w, b):
    """``x @ w + b`` over the last axis of ``x``: one GEMM forward, one each
    for the input and weight gradients, whatever the leading dims. The bias
    is added in place."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        _fail("linear", "shapes %s @ %s + %s do not conform" % (x.shape, w.shape, b.shape))
    x2 = x.data.reshape(-1, w.shape[0])
    y = x2 @ w.data
    y += b.data
    out = Tensor(y.reshape(x.shape[:-1] + (w.shape[1],)))

    def bfn(g):
        g2 = g.reshape(-1, w.shape[1])
        return ((g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                g2.sum(axis=0) if b.requires_grad else None)

    return _record(out, (x, w, b), bfn)


def attention(q, k, v, heads, probs_out=None, rows=None):
    """Multi-head scaled dot-product attention on (B, S, C) inputs as one node.

    Each of the ``heads`` channel groups attends with softmax(q k^T / sqrt(dh));
    the head outputs are merged back to (B, R, C). Only the first R = ``rows``
    query rows are read (all S by default); every token stays a key and a
    value, and the other query rows get a zero gradient. If ``probs_out`` is a
    list, the (B, heads, R, S) attention probabilities are appended to it.

    Runs over blocks of whole views. The probabilities are kept for backward
    or ``probs_out`` only; otherwise one block's worth is reused.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % heads:
        _fail("attention", "q/k/v shapes %s, %s, %s with %d heads"
              % (q.shape, k.shape, v.shape, heads))
    B, S, C = q.shape
    R = S if rows is None else rows
    if not 1 <= R <= S:
        _fail("attention", "rows %d outside 1..%d" % (R, S))
    scale = 1.0 / math.sqrt(C // heads)
    dt = np.result_type(q.data, k.data, v.data)

    def split(a):  # (B, n, C) -> (B, heads, n, dh) view
        return a.reshape(B, a.shape[1], heads, -1).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data)[:, :, :R], split(k.data), split(v.data)
    n, blocks = _blocks(B, dt.itemsize * heads * R * S, probs_out is not None or _tracked(q, k, v))
    p, y = np.empty((n, heads, R, S), dt), np.empty((B, R, C), dt)
    for s, ps in blocks:
        pb = p[ps]  # scores, then probabilities in place
        np.matmul(qh[s], kh[s].transpose(0, 1, 3, 2), out=pb)
        pb *= scale
        pb -= pb.max(axis=-1, keepdims=True)
        np.exp(pb, out=pb)
        pb /= pb.sum(axis=-1, keepdims=True)
        np.matmul(pb, vh[s], out=split(y)[s])
    if probs_out is not None:
        probs_out.append(p)
    out = Tensor(y)

    def bfn(g):
        gh = split(g)
        grads = [np.empty((B, S, C), dt) if t.requires_grad else None for t in (q, k, v)]
        if grads[0] is not None:
            grads[0][:, R:] = 0.0  # query rows that were not read
        for s, _ in blocks:
            pb = p[s]
            dp = gh[s] @ vh[s].transpose(0, 1, 3, 2)
            ds = pb * (dp - (dp * pb).sum(axis=-1, keepdims=True)) * scale
            for d, a, b in zip(grads, (ds, ds.transpose(0, 1, 3, 2), pb.transpose(0, 1, 3, 2)),
                               (kh, qh, gh)):
                if d is not None:  # the first R rows of dq, every row of dk and dv
                    np.matmul(a, b[s], out=split(d)[s, :, :a.shape[-2]])
        return tuple(grads)

    return _record(out, (q, k, v), bfn)


# ---------------------------------------------------------------------------
# shape ops


def transpose(a, axes=None):
    a = _coerce(a)
    out = Tensor(np.transpose(a.data, axes))
    inv = None if axes is None else tuple(np.argsort(axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a, shape):
    a = _coerce(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        _fail("reshape", "cannot reshape %s to %s" % (a.shape, shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def broadcast_to(a, shape):
    a = _coerce(a)
    try:
        out = Tensor(np.broadcast_to(a.data, shape).copy())
    except ValueError:
        _fail("broadcast_to", "cannot broadcast %s to %s" % (a.shape, shape))
    return _record(out, (a,), lambda g: (_unbroadcast(g, a.shape),))


def concatenate(tensors, axis=0):
    ts = [_coerce(t) for t in tensors]
    if not ts:
        _fail("concatenate", "empty tensor list")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError:
        _fail("concatenate", "shapes %s do not align on axis %d" % ([t.shape for t in ts], axis))
    bounds = np.cumsum([0] + [t.shape[axis] for t in ts])

    def bfn(g):
        g = np.moveaxis(g, axis, 0)
        return tuple(np.moveaxis(g[bounds[i]:bounds[i + 1]], 0, axis) for i in range(len(ts)))

    return _record(out, tuple(ts), bfn)


def getitem(a, key):
    """``a[key]``. A key of ints, slices, ``None`` and ``Ellipsis`` selects each
    element once, so backward adds into the selected region; integer-array keys
    may repeat an index and accumulate with ``np.add.at``."""
    a = _coerce(a)
    out = Tensor(np.array(a.data[key]))
    basic = all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))
                for k in (key if isinstance(key, tuple) else (key,)))

    def bfn(g):
        z = np.zeros_like(a.data)
        if basic:
            z[key] += g
        else:
            np.add.at(z, key, g)
        return (z,)

    return _record(out, (a,), bfn)


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims=False):
    a = _coerce(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bfn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(out, (a,), bfn)


def mean(a, axis=None, keepdims=False):
    a = _coerce(a)
    count = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# ---------------------------------------------------------------------------
# nonlinearities


def sqrt(a):
    a = _coerce(a)
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g / (2.0 * out.data),))


def relu(a):
    a = _coerce(a)
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """Gaussian error linear unit (tanh approximation), in blocks of elements;
    the tanh is kept for backward only."""
    a = _coerce(a)
    x = a.data.reshape(-1)
    size, blocks = _blocks(x.size, x.itemsize, _tracked(a))
    y, t = np.empty_like(x), np.empty(size, x.dtype)
    for s, ts in blocks:
        xb, tb = x[s], t[ts]
        np.tanh((xb * xb * xb * 0.044715 + xb) * _GELU_C, out=tb)
        np.multiply(0.5 * xb, 1.0 + tb, out=y[s])
    out = Tensor(y.reshape(a.shape))

    def bfn(g):
        g, ga = g.reshape(-1), np.empty_like(x)
        for s, _ in blocks:
            xb, tb = x[s], t[s]
            dy = 1.0 - tb * tb
            dy *= _GELU_C * (1.0 + 0.134145 * (xb * xb))
            dy *= 0.5 * xb
            dy += 0.5 * (1.0 + tb)
            np.multiply(g[s], dy, out=ga[s])
        return (ga.reshape(a.shape),)

    return _record(out, (a,), bfn)


def softmax(a, axis=-1):
    """Numerically stable softmax; rows sum to 1 and are strictly positive."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bfn(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(out, (a,), bfn)


def log_softmax(a, axis=-1):
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def bfn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), bfn)


def layer_norm(a, gamma, beta, eps=1e-6):
    """Layer normalization over the last dimension with affine parameters,
    in blocks of rows; the normalized rows are kept for backward only."""
    a, gamma, beta = _coerce(a), _coerce(gamma), _coerce(beta)
    if gamma.shape != (a.shape[-1],) or beta.shape != (a.shape[-1],):
        _fail("layer_norm", "affine params %s/%s do not match last dim of %s" % (gamma.shape, beta.shape, a.shape))
    C = a.shape[-1]
    x = a.data.reshape(-1, C)
    dt = np.result_type(x, gamma.data, beta.data)
    rows, blocks = _blocks(len(x), dt.itemsize * C, _tracked(a, gamma, beta))
    y, xhat, inv = np.empty(x.shape, dt), np.empty((rows, C), dt), np.empty((rows, 1), dt)
    for s, ks in blocks:
        xc = x[s] - x[s].mean(axis=-1, keepdims=True)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + eps), out=inv[ks])
        np.multiply(xc, inv[ks], out=xhat[ks])
        np.multiply(xhat[ks], gamma.data, out=y[s])
        y[s] += beta.data
    out = Tensor(y.reshape(a.shape))

    def bfn(g):
        ga = np.empty(x.shape, dt) if a.requires_grad else None
        for s, _ in blocks if a.requires_grad else ():
            gg = g.reshape(-1, C)[s] * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat[s]).mean(axis=-1, keepdims=True)
            np.multiply(gg - m1 - xhat[s] * m2, inv[s], out=ga[s])
        # the affine gradients sum all rows at once, in the unblocked order
        axes = tuple(range(g.ndim - 1))
        return (ga if ga is None else ga.reshape(a.shape),
                (g * xhat.reshape(g.shape)).sum(axis=axes) if gamma.requires_grad else None,
                g.sum(axis=axes) if beta.requires_grad else None)

    return _record(out, (a, gamma, beta), bfn)


def l2_normalize(a, axis=-1, eps=1e-12):
    """Scale rows to unit Euclidean norm; zero rows stay zero."""
    a = _coerce(a)
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    y = a.data / denom
    out = Tensor(y)

    def bfn(g):
        proj = (g - y * (g * y).sum(axis=axis, keepdims=True)) / denom
        return (np.where(norm > eps, proj, g / eps),)

    return _record(out, (a,), bfn)


# ---------------------------------------------------------------------------
# verification harness


def finite_diff_check(f, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the live ``params`` list to a scalar Tensor and must be
    deterministic. Parameters are perturbed in place and restored. The error
    for each coordinate is |analytic - numeric| / max(1, |numeric|). Every
    parameter must be float64.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    params = list(params)
    for i, p in enumerate(params):
        if p.data.dtype != DTYPE:  # at eps ~ 1e-5 a float32 check measures rounding
            raise ValueError("finite_diff_check: parameter %d is %s; gradients are "
                             "checked in float64 only" % (i, p.data.dtype))
    with scoped_tape():
        for p in params:
            p.grad = None
        out = f(params)
        if out.size != 1:
            raise AutogradError("finite_diff_check: f must return a scalar")
        if not np.isfinite(out.data).all():
            raise AutogradError("finite_diff_check: non-finite function value")
        backward(out, params=params)
        analytic = [np.array(p.grad, dtype=DTYPE) for p in params]
    max_err = 0.0
    with no_grad():
        for p, an in zip(params, analytic):
            flat, an_flat = p.data.reshape(-1), an.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(f(params).data)
                flat[i] = orig - eps
                lo = float(f(params).data)
                flat[i] = orig
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    raise AutogradError("finite_diff_check: non-finite value during probing")
                numeric = (hi - lo) / (2.0 * eps)
                err = abs(an_flat[i] - numeric) / max(1.0, abs(numeric))
                if err > max_err:
                    max_err = err
    return max_err
