"""Composite op tests against independent numpy references.

Every composite (layer norm, attention, encoder block, pooling) is checked
two ways: documented small examples with pinned expected values, and a
side-by-side numpy implementation written without the autodiff engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bbekit import autodiff as ad
from bbekit.autodiff import Tensor
from bbekit.errors import ConfigError, DimensionError, InputError
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
from bbekit.labels import N_CLASSES
from bbekit.model import EncoderConfig, EncoderModel


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def all_valid(batch, n_frames):
    """[batch, n_frames] padding mask with every frame valid."""
    return np.ones((batch, n_frames), dtype=bool)


def np_layer_norm(x, gain, shift, eps=LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)  # population variance
    return (x - mu) / np.sqrt(var + eps) * gain + shift


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


ATTN_SUFFIXES = tuple(f"attn.{proj}.{kind}" for proj in "qkvo" for kind in ("weight", "bias"))


def attn(p):
    """The attention projections of a block's parameters, in the argument
    order of multi_head_attention."""
    return [p[suffix] for suffix in ATTN_SUFFIXES]


def np_attention(x, p, heads, mask=None):
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
        if mask is not None:
            scores = scores + np.where(mask, 0.0, -1e30)[None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        per_head.append(weights @ v[:, cols])
    return np.concatenate(per_head, axis=1) @ p["attn.o.weight"] + p["attn.o.bias"]


def np_block(x, p, heads, mask=None):
    a = {suffix: tensor.data for suffix, tensor in p.items()}
    u = x + np_attention(np_layer_norm(x, a["ln1.gain"], a["ln1.shift"]), p, heads, mask)
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


class TestLayerNorm:
    def test_constant_row_collapses_to_shift(self):
        # variance 0 -> normalized row is 0, output is the shift
        y = layer_norm(t([5.0, 5.0, 5.0]), t(np.ones(3)), t(np.zeros(3)), eps=LN_EPS)
        assert np.array_equal(y.data, np.zeros(3))

    def test_documented_two_point_example(self):
        # [0,2]: mean 1, population std 1; gain 2, shift 1 -> [-1, 3]
        y = layer_norm(t([0.0, 2.0]), t([2.0, 2.0]), t([1.0, 1.0]), eps=1e-12)
        np.testing.assert_allclose(y.data, [-1.0, 3.0], rtol=0, atol=1e-9)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 8))
        gain = rng.normal(size=8)
        shift = rng.normal(size=8)
        y = layer_norm(t(x), t(gain), t(shift), eps=LN_EPS)
        np.testing.assert_allclose(y.data, np_layer_norm(x, gain, shift), rtol=1e-13, atol=1e-13)

    def test_nonpositive_eps_rejected(self):
        for eps in (0.0, -1e-5):
            with pytest.raises(ConfigError):
                layer_norm(t([1.0, 2.0]), t(np.ones(2)), t(np.zeros(2)), eps=eps)

    def test_gain_shape_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(t([1.0, 2.0]), t(np.ones(3)), t(np.zeros(3)), eps=LN_EPS)


class TestAttention:
    def test_single_frame_reduces_to_value_path(self):
        # T=1: softmax over one key is 1, so y = (x Wv + bv) Wo + bo
        rng = np.random.default_rng(5)
        d, heads = 6, 2
        p = make_params(rng, d, 2 * d)
        x = rng.normal(size=(1, 1, d))
        y = multi_head_attention(t(x), *attn(p), heads, all_valid(1, 1))
        expected = ((x @ p["attn.v.weight"].data + p["attn.v.bias"].data)
                    @ p["attn.o.weight"].data + p["attn.o.bias"].data)
        np.testing.assert_allclose(y.data, expected, rtol=1e-13, atol=1e-13)

    def test_zero_input_zero_biases(self):
        d = 4
        zeros = [t(np.zeros((d, d)) if suffix.endswith("weight") else np.zeros(d))
                 for suffix in ATTN_SUFFIXES]
        y = multi_head_attention(t(np.zeros((1, 3, d))), *zeros, 2, all_valid(1, 3))
        assert np.array_equal(y.data, np.zeros((1, 3, d)))

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

        y = multi_head_attention(t(x[None]), t(wq), t(zero), t(wk), t(zero),
                                 t(wv), t(zero), t(wo), t(zero), 1, all_valid(1, 2))
        np.testing.assert_allclose(y.data[0], expected, rtol=1e-14, atol=1e-14)

    def test_matches_reference_with_mask(self):
        rng = np.random.default_rng(17)
        d, heads, n = 8, 4, 7
        p = make_params(rng, d, 2 * d)
        x = rng.normal(size=(n, d))
        mask = np.array([True, True, True, True, True, False, False])
        y = multi_head_attention(t(x[None]), *attn(p), heads, pad_mask=mask[None])
        np.testing.assert_allclose(y.data[0], np_attention(x, p, heads, mask),
                                   rtol=1e-12, atol=1e-12)

    def test_masked_keys_have_no_influence(self):
        rng = np.random.default_rng(19)
        d, heads = 4, 2
        p = make_params(rng, d, d)
        x = rng.normal(size=(1, 5, d))
        mask = np.array([[True, True, True, False, False]])
        base = multi_head_attention(t(x), *attn(p), heads, pad_mask=mask).data
        x2 = x.copy()
        x2[:, 3:] = 1e6  # arbitrary junk in padded rows
        out = multi_head_attention(t(x2), *attn(p), heads, pad_mask=mask).data
        # valid rows are bit-identical: masked weights are exactly zero
        assert np.array_equal(base[:, :3], out[:, :3])

    def test_key_bias_values(self, monkeypatch):
        # the mask reaches the softmax as a [B, 1, 1, T] additive bias: 0 on
        # valid keys, -1e30 on padded ones
        seen = []
        softmax_last = ad.softmax_last

        def spy(scores, additive_mask=None):
            seen.append(additive_mask)
            return softmax_last(scores, additive_mask=additive_mask)

        monkeypatch.setattr(ad, "softmax_last", spy)
        p = make_params(np.random.default_rng(3), 4, 4)
        multi_head_attention(t(np.ones((1, 3, 4))), *attn(p), 2, np.array([[True, False, True]]))
        assert np.array_equal(seen[0], [[[[0.0, -1e30, 0.0]]]])

    def test_head_divisibility_enforced(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(ConfigError):
            multi_head_attention(t(np.zeros((1, 2, 4))), *attn(p), 3, all_valid(1, 2))

    def test_mask_length_mismatch(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(DimensionError):
            multi_head_attention(t(np.zeros((1, 2, 4))), *attn(p), 2, all_valid(1, 3))


class TestBatchedAttention:
    def test_rows_match_single_sequences(self):
        rng = np.random.default_rng(53)
        d, heads, n = 8, 2, 6
        p = make_params(rng, d, 2 * d)
        x = rng.normal(size=(3, n, d))
        mask = np.arange(n) < np.array([6, 2, 4])[:, None]
        y = multi_head_attention(t(x), *attn(p), heads, pad_mask=mask)
        assert y.shape == (3, n, d)
        for i in range(3):
            np.testing.assert_allclose(y.data[i], np_attention(x[i], p, heads, mask[i]),
                                       rtol=1e-12, atol=1e-12)

    def test_mask_shape_must_match_batch(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, 4, 4)
        with pytest.raises(DimensionError):
            multi_head_attention(t(np.zeros((2, 3, 4))), *attn(p), heads=2,
                                 pad_mask=np.ones((3, 3), dtype=bool))


class TestEncoderBlock:
    def test_zero_output_projections_give_identity(self):
        # wo = 0 kills the attention branch, w2 = 0 kills the FFN branch
        rng = np.random.default_rng(23)
        p = make_params(rng, 6, 12)
        for suffix in ("attn.o.weight", "attn.o.bias", "ffn.w2.weight", "ffn.w2.bias"):
            p[suffix].data[...] = 0.0
        x = rng.normal(size=(1, 4, 6))
        y = encoder_block_forward(t(x), p, 2, all_valid(1, 4))
        assert np.array_equal(y.data, x)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(29)
        p = make_params(rng, 8, 16)
        x = rng.normal(size=(5, 8))
        mask = np.array([True] * 4 + [False])
        y = encoder_block_forward(t(x[None]), p, heads=2, pad_mask=mask[None])
        np.testing.assert_allclose(y.data[0], np_block(x, p, 2, mask), rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        p = make_params(rng, 4, 8)
        x = rng.normal(size=(1, 3, 4))
        a = encoder_block_forward(t(x), p, 2, all_valid(1, 3)).data
        b = encoder_block_forward(t(x), p, 2, all_valid(1, 3)).data
        assert np.array_equal(a, b)


class TestExpandedBlock:
    def test_zero_projection_is_bit_exact_identity(self):
        rng = np.random.default_rng(37)
        p = make_params(rng, 6, 12, zll=True)
        x = rng.normal(size=(1, 5, 6)) * 10.0
        y = expanded_block_forward(t(x), p, 3, all_valid(1, 5))
        assert np.array_equal(y.data, x)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 6))
    def test_zero_projection_identity_property(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        p = make_params(rng, 4, 8, zll=True)
        x = rng.normal(size=(1, n_frames, 4)) * rng.uniform(0.1, 100.0)
        y = expanded_block_forward(t(x), p, 2, all_valid(1, n_frames))
        assert np.array_equal(y.data, x)

    def test_identity_projection_adds_block_output(self):
        rng = np.random.default_rng(41)
        p = make_params(rng, 4, 8, zll=True)
        p["zll.weight"].data[...] = np.eye(4)
        x = rng.normal(size=(1, 3, 4))
        y = expanded_block_forward(t(x), p, 2, all_valid(1, 3))
        inner = encoder_block_forward(t(x), p, 2, all_valid(1, 3))
        np.testing.assert_allclose(y.data, x + inner.data, rtol=1e-14, atol=1e-14)

    def test_random_projection_compositional(self):
        rng = np.random.default_rng(43)
        p = make_params(rng, 6, 12, zll=True)
        p["zll.weight"].data[...] = rng.normal(0.0, 0.3, (6, 6))
        p["zll.bias"].data[...] = rng.normal(0.0, 0.3, 6)
        x = rng.normal(size=(4, 6))
        y = expanded_block_forward(t(x[None]), p, 2, all_valid(1, 4))
        expected = x + np_block(x, p, 2) @ p["zll.weight"].data + p["zll.bias"].data
        np.testing.assert_allclose(y.data[0], expected, rtol=1e-12, atol=1e-12)

    def test_missing_projection_rejected(self):
        rng = np.random.default_rng(47)
        p = make_params(rng, 4, 8, zll=False)
        with pytest.raises(ConfigError):
            expanded_block_forward(t(np.zeros((1, 2, 4))), p, 2, all_valid(1, 2))


class TestPooling:
    def test_unmasked_mean(self):
        # every frame valid: the plain mean over frames
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        y = masked_mean_pool(t(x), all_valid(1, 2))
        assert np.array_equal(y.data, [[2.0, 3.0]])

    def test_masked_mean_ignores_padding(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]]])
        mask = np.array([[True, True, False]])
        y = masked_mean_pool(t(x), mask)
        assert np.array_equal(y.data, [[2.0, 3.0]])

    def test_batched_masks_are_per_sample(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]],
                      [[5.0, 6.0], [100.0, 100.0], [100.0, 100.0]]])
        mask = np.array([[True, True, False], [True, False, False]])
        y = masked_mean_pool(t(x), mask)
        assert np.array_equal(y.data, [[2.0, 3.0], [5.0, 6.0]])

    def test_batched_sample_without_frames_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(InputError):
            masked_mean_pool(t(np.ones((2, 2, 3))), mask)

    def test_all_masked_rejected(self):
        with pytest.raises(InputError):
            masked_mean_pool(t(np.ones((1, 2, 3))), np.array([[False, False]]))

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionError):
            masked_mean_pool(t(np.ones((1, 2, 3))), all_valid(1, 3))


class TestCrossEntropyWrapper:
    def test_matches_log_softmax(self):
        logits = np.array([0.3, -1.2, 2.0])
        loss = softmax_cross_entropy(t(logits[None]), [1])
        shifted = logits - logits.max()
        expected = -(shifted[1] - np.log(np.exp(shifted).sum()))
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-14)


def _block_params():
    return make_params(np.random.default_rng(61), 4, 8, zll=True)


# each op called with the unbatched form it no longer takes: [T, d] frames
# with a [T] mask, [L, c] frames, or 1-d logits with an int label
UNBATCHED_CALLS = {
    "multi_head_attention": lambda: multi_head_attention(
        t(np.ones((3, 4))), *attn(_block_params()), 2, np.ones(3, dtype=bool)),
    "encoder_block_forward": lambda: encoder_block_forward(
        t(np.ones((3, 4))), _block_params(), 2, np.ones(3, dtype=bool)),
    "expanded_block_forward": lambda: expanded_block_forward(
        t(np.ones((3, 4))), _block_params(), 2, np.ones(3, dtype=bool)),
    "masked_mean_pool": lambda: masked_mean_pool(t(np.ones((3, 4))), np.ones(3, dtype=bool)),
    "cross_entropy_with_logits": lambda: ad.cross_entropy_with_logits(t(np.zeros(6)), 2),
    "unfold1d": lambda: ad.unfold1d(t(np.ones((9, 2))), 3, 2),
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
