"""Composite op tests against independent numpy references.

Every composite (layer norm, attention, encoder block, pooling) is checked
two ways: documented small examples with pinned expected values, and a
side-by-side numpy implementation written without the autodiff engine.
Attention, the blocks and pooling take packed [N, d] rows of the real
frames with the packing of the [B, T] mask they came from; the numpy
references run on one sample's real frames at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bbekit import autodiff as ad
from bbekit.autodiff import BLOCK_PARAMS, Tensor, pack_sequences
from bbekit.errors import ConfigError, DimensionError, InputError, NumericalError
from bbekit.functional import (
    LN_EPS,
    encoder_block_forward,
    expanded_block_forward,
    layer_norm,
    linear_forward,
    masked_mean_pool,
    multi_head_attention,
    softmax_cross_entropy,
)
from bbekit.gradcheck import TOLERANCE, relative_error
from bbekit.labels import N_CLASSES
from bbekit.model import EncoderConfig, EncoderModel

from tape_ops import fd_grad, gelu, mul, tsum


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def all_valid(batch, n_frames):
    """[batch, n_frames] padding mask with every frame valid."""
    return np.ones((batch, n_frames), dtype=bool)


def ragged(*lengths):
    """[B, max(lengths)] suffix-padding mask for the given real lengths."""
    return np.arange(max(lengths)) < np.array(lengths)[:, None]


def per_sample(reference, rows, packing):
    """``reference`` applied to each sample's real rows, packed again."""
    mask = packing.mask
    ends = np.cumsum(mask.sum(axis=1))
    return np.concatenate([reference(rows[end - n:end])
                           for n, end in zip(mask.sum(axis=1), ends)])


def np_layer_norm(x, gain, shift):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)  # population variance
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + shift


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


ATTN_SUFFIXES = tuple(f"attn.{proj}.{kind}" for proj in "qkvo" for kind in ("weight", "bias"))


def attn(p):
    """The attention projections of a block's parameters, in the argument
    order of multi_head_attention."""
    return [p[suffix] for suffix in ATTN_SUFFIXES]


def np_attention(x, p, heads):
    """Attention over one sample's [T, d] real frames."""
    p = {suffix: tensor.data for suffix, tensor in p.items()}
    n_frames, d = x.shape
    dh = d // heads
    q = x @ p["attn.q.weight"] + p["attn.q.bias"]
    k = x @ p["attn.k.weight"] + p["attn.k.bias"]
    v = x @ p["attn.v.weight"] + p["attn.v.bias"]
    per_head = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = (q[:, cols] @ k[:, cols].T) / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        per_head.append(weights @ v[:, cols])
    return np.concatenate(per_head, axis=1) @ p["attn.o.weight"] + p["attn.o.bias"]


def np_block(x, p, heads):
    """Encoder block over one sample's [T, d] real frames."""
    a = {suffix: tensor.data for suffix, tensor in p.items()}
    u = x + np_attention(np_layer_norm(x, a["ln1.gain"], a["ln1.shift"]), p, heads)
    hidden = np_gelu(np_layer_norm(u, a["ln2.gain"], a["ln2.shift"]) @ a["ffn.w1.weight"]
                     + a["ffn.w1.bias"])
    return u + hidden @ a["ffn.w2.weight"] + a["ffn.w2.bias"]


def make_params(rng, d, d_ffn, zll=False, scale=0.5):
    """Suffix-keyed parameters of one block, as in EncoderModel.block_params()."""
    def w(*shape):
        return t(rng.normal(0.0, scale, shape), grad=True)

    p = {"ln1.gain": t(np.ones(d), grad=True), "ln1.shift": t(np.zeros(d), grad=True)}
    for suffix in ATTN_SUFFIXES:
        p[suffix] = w(d, d) if suffix.endswith("weight") else w(d)
    p.update({"ln2.gain": t(np.ones(d), grad=True), "ln2.shift": t(np.zeros(d), grad=True),
              "ffn.w1.weight": w(d, d_ffn), "ffn.w1.bias": w(d_ffn),
              "ffn.w2.weight": w(d_ffn, d), "ffn.w2.bias": w(d)})
    if zll:
        p.update({"zll.weight": t(np.zeros((d, d)), grad=True),
                  "zll.bias": t(np.zeros(d), grad=True)})
    return p


class TestLinear:
    def test_documented_example(self):
        # [1,2,3] @ [[1],[1],[1]] + [0.5] = [6.5], exactly
        y = linear_forward(t([1.0, 2.0, 3.0]), t([[1.0], [1.0], [1.0]]), t([0.5]))
        assert np.array_equal(y.data, [6.5])

    def test_identity_weight(self):
        x = np.arange(4.0)
        y = linear_forward(t(x), t(np.eye(4)), t(np.zeros(4)))
        assert np.array_equal(y.data, x)

    def test_zero_weight_gives_bias(self):
        y = linear_forward(t([3.0, -7.0]), t(np.zeros((2, 2))), t([1.5, -2.0]))
        assert np.array_equal(y.data, [1.5, -2.0])

    def test_batched_leading_axes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        y = linear_forward(t(x), t(w), t(b))
        np.testing.assert_allclose(y.data, x @ w + b, rtol=1e-15, atol=0)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            linear_forward(t([1.0, 2.0]), t([[1.0], [1.0], [1.0]]), t([0.0]))
        with pytest.raises(DimensionError):
            linear_forward(t([1.0, 2.0]), t(np.zeros((2, 3))), t([0.0, 0.0]))
        with pytest.raises(DimensionError):
            linear_forward(t([1.0]), t(np.zeros(2)), t([0.0]))
        with pytest.raises(DimensionError):  # two weight blocks, one bias block
            linear_forward(t([1.0, 2.0]), [t(np.zeros((2, 1)))] * 2, [t([0.0])])
        with pytest.raises(DimensionError):  # the second block's bias is too wide
            linear_forward(t([1.0, 2.0]), [t(np.zeros((2, 1)))] * 2, [t([0.0]), t([0.0, 0.0])])

    def test_column_blocks_match_separate_linears(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 4))
        ws = [rng.normal(size=(4, n)) for n in (3, 4, 2)]
        bs = [rng.normal(size=n) for n in (3, 4, 2)]
        y = linear_forward(t(x), [t(w) for w in ws], [t(b) for b in bs])
        np.testing.assert_allclose(y.data, np.concatenate([x @ w + b for w, b in zip(ws, bs)],
                                                          axis=1), rtol=1e-15, atol=1e-15)


class TestLayerNorm:
    def test_constant_row_collapses_to_shift(self):
        # variance 0 -> normalized row is 0, output is the shift
        y = layer_norm(t([5.0, 5.0, 5.0]), t(np.ones(3)), t(np.zeros(3)))
        assert np.array_equal(y.data, np.zeros(3))

    def test_documented_two_point_example(self):
        # [0,2]: mean 1, population variance 1; gain 2, shift 1 -> 1 -/+ 2/sqrt(1 + LN_EPS)
        y = layer_norm(t([0.0, 2.0]), t([2.0, 2.0]), t([1.0, 1.0]))
        step = 2.0 / np.sqrt(1.0 + LN_EPS)
        np.testing.assert_allclose(y.data, [1.0 - step, 1.0 + step], rtol=0, atol=1e-9)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 8))
        gain = rng.normal(size=8)
        shift = rng.normal(size=8)
        y = layer_norm(t(x), t(gain), t(shift))
        np.testing.assert_allclose(y.data, np_layer_norm(x, gain, shift), rtol=1e-13, atol=1e-13)

    def test_gain_shape_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(t([1.0, 2.0]), t(np.ones(3)), t(np.zeros(3)))


class TestAttention:
    def test_single_frame_reduces_to_value_path(self):
        # T=1: softmax over one key is 1, so y = (x Wv + bv) Wo + bo
        rng = np.random.default_rng(5)
        d, heads = 6, 2
        p = make_params(rng, d, 2 * d)
        x = rng.normal(size=(1, d))
        y = multi_head_attention(t(x), *attn(p), heads, pack_sequences(all_valid(1, 1)))
        expected = ((x @ p["attn.v.weight"].data + p["attn.v.bias"].data)
                    @ p["attn.o.weight"].data + p["attn.o.bias"].data)
        np.testing.assert_allclose(y.data, expected, rtol=1e-13, atol=1e-13)

    def test_zero_input_zero_biases(self):
        d = 4
        zeros = [t(np.zeros((d, d)) if suffix.endswith("weight") else np.zeros(d))
                 for suffix in ATTN_SUFFIXES]
        y = multi_head_attention(t(np.zeros((3, d))), *zeros, 2, pack_sequences(all_valid(1, 3)))
        assert np.array_equal(y.data, np.zeros((3, d)))

    def test_two_frame_hand_oracle(self):
        # d=2, one head, written out step by step with plain numpy
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.5, 0.0], [0.0, 0.5]])
        wv = np.array([[1.0, 2.0], [3.0, 4.0]])
        wo = np.array([[1.0, 0.0], [0.0, 1.0]])
        zero = np.zeros(2)

        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        expected = weights @ v @ wo

        y = multi_head_attention(t(x), t(wq), t(zero), t(wk), t(zero),
                                 t(wv), t(zero), t(wo), t(zero), 1,
                                 pack_sequences(all_valid(1, 2)))
        np.testing.assert_allclose(y.data, expected, rtol=1e-14, atol=1e-14)

    def test_matches_reference_with_mask(self):
        rng = np.random.default_rng(17)
        d, heads, n = 8, 4, 7
        p = make_params(rng, d, 2 * d)
        x = rng.normal(size=(5, d))  # the real frames of a sample padded to n
        mask = np.arange(n) < 5
        y = multi_head_attention(t(x), *attn(p), heads, packing=pack_sequences(mask[None]))
        np.testing.assert_allclose(y.data, np_attention(x, p, heads),
                                   rtol=1e-12, atol=1e-12)

    def test_masked_keys_have_no_influence(self):
        rng = np.random.default_rng(19)
        d, heads = 4, 2
        p = make_params(rng, d, d)
        packing = pack_sequences(ragged(4, 2, 2))  # the 2-frame samples share a sequence
        x = rng.normal(size=(8, d))
        base = multi_head_attention(t(x), *attn(p), heads, packing).data
        x2 = x.copy()
        x2[6:] = 1e6  # arbitrary junk in the last sample's frames
        out = multi_head_attention(t(x2), *attn(p), heads, packing).data
        # the other samples' rows are bit-identical: padded keys and the
        # frames of another sample in the same sequence get exactly zero
        # weight
        assert np.array_equal(base[:6], out[:6])
        alone = multi_head_attention(t(x[4:6]), *attn(p), heads,
                                     pack_sequences(all_valid(1, 2))).data
        np.testing.assert_allclose(base[4:6], alone, rtol=1e-13, atol=1e-13)

    def test_key_bias_values(self, monkeypatch):
        # the attention core receives one [N, 3d] row block [q | k | v] of
        # the real frames and the packing as it is, whose bias is 0 within
        # a sample and -1e30 across samples and on padding
        seen = []
        attention_core = ad.attention_core

        def spy(qkv, packing, heads):
            seen.append((qkv.data, packing))
            return attention_core(qkv, packing, heads)

        monkeypatch.setattr(ad, "attention_core", spy)
        p = make_params(np.random.default_rng(3), 4, 4)
        x = np.random.default_rng(4).normal(size=(5, 4))
        packing = pack_sequences(ragged(3, 1, 1))
        multi_head_attention(t(x), *attn(p), 2, packing)
        qkv, got = seen[0]
        want = np.concatenate([x @ p[f"attn.{proj}.weight"].data + p[f"attn.{proj}.bias"].data
                               for proj in "qkv"], axis=1)
        np.testing.assert_allclose(qkv, want, rtol=1e-14, atol=1e-14)
        assert got is packing
        neg = -1e30
        assert np.array_equal(packing.bias[:, 0], [np.zeros((3, 3)),
                                                   [[0.0, neg, neg], [neg, 0.0, neg],
                                                    [neg, neg, neg]]])
        assert ad.MASK_NEG == 1e30

    def test_head_divisibility_enforced(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(ConfigError):
            multi_head_attention(t(np.zeros((2, 4))), *attn(p), 3, pack_sequences(all_valid(1, 2)))

    def test_projection_shapes_enforced(self):
        p = make_params(np.random.default_rng(2), 4, 4)
        p["attn.k.weight"] = t(np.zeros((4, 5)))
        p["attn.k.bias"] = t(np.zeros(5))
        with pytest.raises(DimensionError):
            multi_head_attention(t(np.zeros((2, 4))), *attn(p), 2,
                                 pack_sequences(all_valid(1, 2)))

    def test_mask_length_mismatch(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(DimensionError):  # 2 rows for 3 real frames
            multi_head_attention(t(np.zeros((2, 4))), *attn(p), 2, pack_sequences(all_valid(1, 3)))


class TestBatchedAttention:
    def test_rows_match_single_sequences(self):
        rng = np.random.default_rng(53)
        d, heads, n = 8, 2, 6
        p = make_params(rng, d, 2 * d)
        packing = pack_sequences(ragged(n, 2, 4))
        x = rng.normal(size=(12, d))
        y = multi_head_attention(t(x), *attn(p), heads, packing=packing)
        assert y.shape == (12, d)
        np.testing.assert_allclose(y.data, per_sample(lambda r: np_attention(r, p, heads),
                                                      x, packing), rtol=1e-12, atol=1e-12)

    def test_mask_shape_must_match_batch(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(DimensionError):  # 6 rows for 9 real frames
            multi_head_attention(t(np.zeros((6, 4))), *attn(p), heads=2,
                                 packing=pack_sequences(np.ones((3, 3), dtype=bool)))


class TestEncoderBlock:
    def test_zero_output_projections_give_identity(self):
        # wo = 0 kills the attention branch, w2 = 0 kills the FFN branch
        rng = np.random.default_rng(23)
        p = make_params(rng, 6, 12)
        for suffix in ("attn.o.weight", "attn.o.bias", "ffn.w2.weight", "ffn.w2.bias"):
            p[suffix].data[...] = 0.0
        x = rng.normal(size=(4, 6))
        y = encoder_block_forward(t(x), p, 2, pack_sequences(all_valid(1, 4)))
        assert np.array_equal(y.data, x)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(29)
        p = make_params(rng, 8, 16)
        packing = pack_sequences(ragged(4, 5, 1))
        x = rng.normal(size=(10, 8))
        y = encoder_block_forward(t(x), p, heads=2, packing=packing)
        np.testing.assert_allclose(y.data, per_sample(lambda r: np_block(r, p, 2), x, packing),
                                   rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        p = make_params(rng, 4, 8)
        x = rng.normal(size=(3, 4))
        a = encoder_block_forward(t(x), p, 2, pack_sequences(all_valid(1, 3))).data
        b = encoder_block_forward(t(x), p, 2, pack_sequences(all_valid(1, 3))).data
        assert np.array_equal(a, b)


def chain_block(x, p, heads, packing):
    """The block as the chain of standalone nodes it fuses."""
    attended = multi_head_attention(layer_norm(x, p["ln1.gain"], p["ln1.shift"]),
                                    *attn(p), heads, packing)
    u = x + attended
    hidden = gelu(linear_forward(layer_norm(u, p["ln2.gain"], p["ln2.shift"]),
                                 p["ffn.w1.weight"], p["ffn.w1.bias"]))
    return u + linear_forward(hidden, p["ffn.w2.weight"], p["ffn.w2.bias"])


def block_case(seed, lengths):
    """Rows and parameter values of one block, keyed "x" and by suffix, an
    upstream gradient and the packing of samples of these lengths."""
    rng = np.random.default_rng(seed)
    packing = pack_sequences(ragged(*lengths))
    p = make_params(rng, 8, 12)
    for suffix in ("ln1.gain", "ln1.shift", "ln2.gain", "ln2.shift"):
        p[suffix].data[...] = rng.normal(1.0 if suffix.endswith("gain") else 0.0, 0.3, 8)
    x = rng.normal(size=(packing.n_rows, 8))
    values = {"x": x, **{k: v.data for k, v in p.items()}}
    return values, rng.normal(size=x.shape), packing


def run_block(fn, values, upstream, packing, trainable=None):
    """Output and gradients of sum(fn(x, p) * upstream) for fresh leaves;
    ``trainable`` names the leaves that need a gradient, all when None."""
    leaves = {k: t(v.copy(), grad=trainable is None or k in trainable)
              for k, v in values.items()}
    x = leaves.pop("x")
    y = fn(x, leaves, 2, packing)
    if y.requires_grad:
        tsum(mul(y, t(upstream))).backward()
    return y, {"x": x.grad, **{k: leaf.grad for k, leaf in leaves.items()}}


BLOCK_PACKINGS = [(5, 2, 4), (7,), (1, 1, 1), (6, 3, 3, 2, 1, 6), (2, 9, 4, 4)]


class TestBlockNode:
    @pytest.mark.parametrize("lengths", BLOCK_PACKINGS)
    def test_bit_identical_to_the_chain(self, lengths):
        values, upstream, packing = block_case(131, lengths)
        y, grads = run_block(encoder_block_forward, values, upstream, packing)
        y_chain, grads_chain = run_block(chain_block, values, upstream, packing)
        assert np.array_equal(y.data, y_chain.data)
        assert len(grads) == 1 + len(BLOCK_PARAMS)
        for name in grads:
            assert np.array_equal(grads[name], grads_chain[name]), name
        with ad.no_grad():
            y, _ = run_block(encoder_block_forward, values, upstream, packing)
            y_chain, _ = run_block(chain_block, values, upstream, packing)
        assert y._backward is None and not y.requires_grad
        assert np.array_equal(y.data, y_chain.data)

    @pytest.mark.parametrize("trainable", [
        None,
        set(BLOCK_PARAMS),
        {"ffn.w1.weight", "ffn.w1.bias", "ffn.w2.weight", "ffn.w2.bias", "ln2.gain"},
        {"x", "ln1.gain", "attn.k.weight", "attn.v.bias"},
    ], ids=["all", "params", "ffn", "x-and-attention"])
    def test_gradients_vs_finite_differences(self, trainable):
        values, upstream, packing = block_case(137, (5, 2, 4))
        _, grads = run_block(encoder_block_forward, values, upstream, packing, trainable)
        for name, value in values.items():
            if trainable is not None and name not in trainable:
                assert grads[name] is None, name
                continue

            def loss(a, name=name):
                args = {k: t(a if k == name else v) for k, v in values.items()}
                x = args.pop("x")
                return float((encoder_block_forward(x, args, 2, packing).data
                              * upstream).sum())

            numeric = fd_grad(loss, value.copy())
            worst = max(relative_error(a, n)
                        for a, n in zip(grads[name].ravel(), numeric.ravel()))
            assert worst < TOLERANCE, (name, worst)

    @pytest.mark.parametrize("trainable", [{"x"}, set(BLOCK_PARAMS), None],
                             ids=["x", "params", "both"])
    def test_runs_every_backward_kernel_once(self, monkeypatch, trainable):
        # the freeze policies freeze whole blocks, so a run records these
        # patterns: a frozen original after a trainable copy (x only), the
        # first trainable block (its parameters) and a later one (both).
        # Each runs the eight backward kernels once, in reverse stage order,
        # and asks a kernel for parameter gradients only if they train
        calls = []
        for kernel in ("_linear_bwd", "_gelu_bwd", "_layer_norm_bwd", "_attention_bwd"):
            def recording(*args, kernel=kernel, original=getattr(ad, kernel)):
                flags = [a for a in args if isinstance(a, bool)]  # need_x, then the parameters'
                calls.append((kernel, flags[1:]))
                return original(*args)

            monkeypatch.setattr(ad, kernel, recording)
        values, upstream, packing = block_case(139, (3, 2))
        _, grads = run_block(encoder_block_forward, values, upstream, packing, trainable)
        assert [kernel for kernel, _ in calls] == [
            "_linear_bwd", "_gelu_bwd", "_linear_bwd", "_layer_norm_bwd",
            "_linear_bwd", "_attention_bwd", "_linear_bwd", "_layer_norm_bwd"]
        params_train = trainable != {"x"}
        param_flags = [flag for _, flags in calls for flag in flags]
        assert param_flags == [params_train] * 12  # two from each linear and layer norm
        needed = set(values) if trainable is None else trainable
        assert {name for name, grad in grads.items() if grad is not None} == needed


class TestExpandedBlock:
    def test_zero_projection_is_bit_exact_identity(self):
        rng = np.random.default_rng(37)
        p = make_params(rng, 6, 12, zll=True)
        x = rng.normal(size=(5, 6)) * 10.0
        y = expanded_block_forward(t(x), p, 3, pack_sequences(ragged(2, 3)))
        assert np.array_equal(y.data, x)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 6))
    def test_zero_projection_identity_property(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        p = make_params(rng, 4, 8, zll=True)
        x = rng.normal(size=(n_frames, 4)) * rng.uniform(0.1, 100.0)
        y = expanded_block_forward(t(x), p, 2, pack_sequences(all_valid(1, n_frames)))
        assert np.array_equal(y.data, x)

    def test_identity_projection_adds_block_output(self):
        rng = np.random.default_rng(41)
        p = make_params(rng, 4, 8, zll=True)
        p["zll.weight"].data[...] = np.eye(4)
        x = rng.normal(size=(3, 4))
        y = expanded_block_forward(t(x), p, 2, pack_sequences(all_valid(1, 3)))
        inner = encoder_block_forward(t(x), p, 2, pack_sequences(all_valid(1, 3)))
        np.testing.assert_allclose(y.data, x + inner.data, rtol=1e-14, atol=1e-14)

    def test_random_projection_compositional(self):
        rng = np.random.default_rng(43)
        p = make_params(rng, 6, 12, zll=True)
        p["zll.weight"].data[...] = rng.normal(0.0, 0.3, (6, 6))
        p["zll.bias"].data[...] = rng.normal(0.0, 0.3, 6)
        packing = pack_sequences(ragged(4, 2))
        x = rng.normal(size=(6, 6))
        y = expanded_block_forward(t(x), p, 2, packing)
        expected = x + (per_sample(lambda r: np_block(r, p, 2), x, packing) @ p["zll.weight"].data
                        + p["zll.bias"].data)
        np.testing.assert_allclose(y.data, expected, rtol=1e-12, atol=1e-12)

    def test_missing_projection_rejected(self):
        rng = np.random.default_rng(47)
        p = make_params(rng, 4, 8, zll=False)
        with pytest.raises(ConfigError):
            expanded_block_forward(t(np.zeros((2, 4))), p, 2, pack_sequences(all_valid(1, 2)))


def recorded_nodes(out: Tensor) -> int:
    """Tape nodes recorded between ``out`` and the leaves, leaves excluded."""
    seen, stack = {id(out)}, [out]
    while stack:
        for parent in stack.pop()._parents:
            if parent._backward is not None and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestTapeSize:
    # the whole block, attention and FFN with both residual adds, is the
    # node of its output; its parents are x and the block's parameters
    def test_encoder_block_records_no_inner_nodes(self):
        p = make_params(np.random.default_rng(59), 8, 16)
        x = t(np.random.default_rng(60).normal(size=(11, 8)), grad=True)
        y = encoder_block_forward(x, p, 2, pack_sequences(ragged(5, 2, 4)))
        assert recorded_nodes(y) == 1
        assert [id(parent) for parent in y._parents] == [id(x)] + [id(p[k]) for k in BLOCK_PARAMS]

    def test_expanded_block_adds_gate_and_skip(self):
        # the block node, the ZLL linear and the skip add
        p = make_params(np.random.default_rng(59), 8, 16, zll=True)
        x = t(np.random.default_rng(60).normal(size=(11, 8)), grad=True)
        y = expanded_block_forward(x, p, 2, pack_sequences(ragged(5, 2, 4)))
        assert recorded_nodes(y) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    # each op names itself when its own output is the first non-finite value
    def test_linear(self):
        with pytest.raises(NumericalError, match="^linear produced"):
            linear_forward(t([[1e200, 1e200]]), t(np.full((2, 1), 1e200)), t([0.0]))

    def test_layer_norm(self):
        # the row sum behind the mean overflows
        with pytest.raises(NumericalError, match="^layer_norm produced"):
            layer_norm(t([[1e308, 1e308]]), t(np.ones(2)), t(np.zeros(2)))

    def test_attention(self):
        # finite projections whose scores overflow
        eye = t(np.eye(2))
        zero = t(np.zeros(2))
        with pytest.raises(NumericalError, match="^attention produced"):
            multi_head_attention(t(np.full((2, 2), 1e200)), eye, zero, eye, zero,
                                 eye, zero, eye, zero, 1, pack_sequences(all_valid(1, 2)))

    def test_cross_entropy(self):
        with pytest.raises(NumericalError, match="^cross_entropy produced"):
            softmax_cross_entropy(t([[np.inf, 0.0]]), [0])

    def test_pooling(self):
        # finite rows whose per-sample sum overflows
        with pytest.raises(NumericalError, match="^pooling produced"):
            masked_mean_pool(t(np.full((2, 2), 1e308)), pack_sequences(all_valid(1, 2)))

    # the same inputs straight into the autodiff node that computes the value
    DIRECT_CALLS = {
        "linear": lambda: ad.linear(t([[1e200, 1e200]]), t(np.full((2, 1), 1e200)), t([0.0])),
        "linear column blocks": lambda: ad.linear(
            t([[1e200, 1e200]]), (t(np.ones((2, 1))), t(np.full((2, 1), 1e200))),
            (t([0.0]), t([0.0]))),
        "layer_norm": lambda: ad.layer_norm(t([[1e308, 1e308]]), t(np.ones(2)),
                                            t(np.zeros(2))),
        "attention": lambda: ad.attention_core(t(np.full((2, 6), 1e200)),
                                               pack_sequences(all_valid(1, 2)), 1),
        "pooling": lambda: ad.segment_mean(t(np.full((2, 2), 1e308)),
                                           pack_sequences(all_valid(1, 2))),
        "cross_entropy": lambda: ad.cross_entropy_with_logits(t([[np.inf, 0.0]]), [0]),
    }

    @pytest.mark.parametrize("case", sorted(DIRECT_CALLS))
    def test_autodiff_op_names_itself(self, case):
        op = case.split()[0]
        with pytest.raises(NumericalError, match=f"^{op} produced"):
            self.DIRECT_CALLS[case]()


class TestPooling:
    def test_unmasked_mean(self):
        # every frame valid: the plain mean over frames
        y = masked_mean_pool(t([[1.0, 2.0], [3.0, 4.0]]), pack_sequences(all_valid(1, 2)))
        assert np.array_equal(y.data, [[2.0, 3.0]])

    def test_masked_mean_ignores_padding(self):
        # two real frames of three: the mean divides by 2
        y = masked_mean_pool(t([[1.0, 2.0], [3.0, 4.0]]),
                             pack_sequences(np.array([[True, True, False]])))
        assert np.array_equal(y.data, [[2.0, 3.0]])

    def test_batched_masks_are_per_sample(self):
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        mask = np.array([[True, True, False], [True, False, False]])
        y = masked_mean_pool(t(rows), pack_sequences(mask))
        assert np.array_equal(y.data, [[2.0, 3.0], [5.0, 6.0]])

    def test_sums_each_sample_in_frame_order(self):
        # bit for bit the mean of each sample's rows added one after another
        # (numpy's axis-0 sum of a 2-d slice), whatever the padding
        rng = np.random.default_rng(101)
        mask = ragged(40, 3, 17, 9)
        rows = rng.normal(size=(int(mask.sum()), 8)) * 10.0 ** rng.integers(-8, 8, (1, 8))
        ends = np.cumsum(mask.sum(axis=1))
        want = np.stack([rows[end - n:end].sum(axis=0) * (1.0 / n)
                         for n, end in zip(mask.sum(axis=1), ends)])
        assert np.array_equal(masked_mean_pool(t(rows), pack_sequences(mask)).data, want)
        wider = np.concatenate([mask, np.zeros((4, 9), bool)], axis=1)
        assert np.array_equal(masked_mean_pool(t(rows), pack_sequences(wider)).data, want)

    def test_gradient_spreads_over_each_sample_rows(self):
        x = t(np.ones((3, 2)), grad=True)
        y = masked_mean_pool(x, pack_sequences(ragged(2, 1)))
        tsum(mul(y, t([[1.0, 2.0], [3.0, 4.0]]))).backward()
        assert np.array_equal(x.grad, [[0.5, 1.0], [0.5, 1.0], [3.0, 4.0]])

    def test_batched_sample_without_frames_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(InputError):
            masked_mean_pool(t(np.ones((1, 3))), pack_sequences(mask))

    def test_all_masked_rejected(self):
        with pytest.raises(InputError):
            masked_mean_pool(t(np.ones((0, 3))), pack_sequences(np.array([[False, False]])))

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionError):  # 2 rows for 3 real frames
            masked_mean_pool(t(np.ones((2, 3))), pack_sequences(all_valid(1, 3)))


class TestCrossEntropyWrapper:
    def test_matches_log_softmax(self):
        logits = np.array([0.3, -1.2, 2.0])
        loss = softmax_cross_entropy(t(logits[None]), [1])
        shifted = logits - logits.max()
        expected = -(shifted[1] - np.log(np.exp(shifted).sum()))
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-14)


def _block_params():
    return make_params(np.random.default_rng(61), 4, 8, zll=True)


def _one_sequence():
    return pack_sequences(all_valid(1, 3))


# each op called with a form it does not take: padded [B, T, d] frames
# instead of packed rows, a [T] mask instead of [B, T], [L, c] frames, or
# 1-d logits with an int label
UNBATCHED_CALLS = {
    "multi_head_attention": lambda: multi_head_attention(
        t(np.ones((1, 3, 4))), *attn(_block_params()), 2, _one_sequence()),
    "encoder_block_forward": lambda: encoder_block_forward(
        t(np.ones((1, 3, 4))), _block_params(), 2, _one_sequence()),
    "expanded_block_forward": lambda: expanded_block_forward(
        t(np.ones((1, 3, 4))), _block_params(), 2, _one_sequence()),
    "masked_mean_pool": lambda: masked_mean_pool(t(np.ones((1, 3, 4))), _one_sequence()),
    "pack_sequences": lambda: pack_sequences(np.ones(3, dtype=bool)),
    "cross_entropy_with_logits": lambda: ad.cross_entropy_with_logits(t(np.zeros(6)), 2),
    "unfold1d": lambda: ad.unfold1d(np.ones((9, 2)), 3, 2),
}


class TestBatchContract:
    @pytest.mark.parametrize("op", sorted(UNBATCHED_CALLS))
    def test_unbatched_input_rejected(self, op):
        with pytest.raises(DimensionError):
            UNBATCHED_CALLS[op]()

    def test_model_takes_one_sequence(self):
        model = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=4, n_heads=2, d_ffn=8),
                                   seed=0)
        frames = np.random.default_rng(67).normal(size=(5, 4))
        logits = model.logits(frames)
        assert logits.shape == (N_CLASSES,)
        assert np.array_equal(logits, model.logits(frames[None], all_valid(1, 5))[0])
