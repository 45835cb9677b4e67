import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbekit import autodiff as ad
from bbekit.autodiff import Tensor
from bbekit.errors import DimensionError, InputError, LabelError, StateError
from bbekit.gradcheck import FD_STEP, TOLERANCE, relative_error

from tape_ops import fd_grad, mul, tsum

RNG = np.random.default_rng(7)


def check_grad(make_loss, shape, tol=1e-7):
    x = RNG.normal(0.0, 1.0, shape)
    leaf = Tensor(x.copy(), requires_grad=True)
    make_loss(leaf).backward()
    numeric = fd_grad(lambda arr: make_loss(Tensor(arr)).item(), x)
    np.testing.assert_allclose(leaf.grad, numeric, rtol=tol, atol=tol)


class TestTensorBasics:
    def test_data_is_float64_contiguous(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2) and t.ndim == 2 and t.size == 4

    def test_leaf_grad_buffer(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.grad is not None and np.all(t.grad == 0.0)
        assert Tensor([1.0]).grad is None

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = mul(t, 2.0)
        with pytest.raises(StateError):
            out.backward()

    def test_backward_requires_tape(self):
        with pytest.raises(StateError):
            Tensor(3.0, requires_grad=True).backward()

    def test_no_grad_suppresses_tape(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with ad.no_grad():
            out = tsum(mul(t, t))
        assert out._backward is None and not out.requires_grad
        assert ad.is_grad_enabled()

    def test_no_grad_nests_and_restores_after_an_error(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    assert not ad.is_grad_enabled()
                assert not ad.is_grad_enabled()
                raise RuntimeError
        assert ad.is_grad_enabled()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        tsum(t).backward()
        tsum(t).backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0])

    def test_unused_leaf_gets_zero_grad(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        tsum(used).backward()
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_leaf_used_twice_gets_both_contributions(self):
        # the leaf's two consumers add their gradients to its buffer in
        # turn, and a second backward adds to what the first left
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        x, up1, up2 = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 2)), RNG.normal(size=(4, 2))
        bias = Tensor(np.zeros(2))
        parts = x.T @ up1, x.T @ up2

        def backward():
            (tsum(mul(ad.linear(x, w, bias), up1))
             + tsum(mul(ad.linear(x, w, bias), up2))).backward()

        backward()
        assert np.array_equal(w.grad, parts[0] + parts[1])
        backward()
        once = parts[0] + parts[1]
        assert (np.array_equal(w.grad, once + parts[0] + parts[1])
                or np.array_equal(w.grad, once + parts[1] + parts[0]))
        assert bias.grad is None

    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x: both paths must contribute
        t = Tensor(3.0, requires_grad=True)
        y = mul(t, t) + mul(t, t)
        y.backward()
        assert t.grad == pytest.approx(12.0, abs=1e-12)


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        b = RNG.normal(size=(4,))
        check_grad(lambda x: tsum(mul(x + Tensor(b), x + Tensor(b))), (3, 4))

    def test_mul_broadcast(self):
        w = RNG.normal(size=(1, 4))
        check_grad(lambda x: tsum(mul(x, Tensor(w))), (3, 4))

    def test_reshape(self):
        check_grad(lambda x: tsum(mul(ad.reshape(x, (6, 2)),
                                            ad.reshape(x, (6, 2)))), (3, 4))

    def test_sum_axes(self):
        check_grad(lambda x: tsum(mul(tsum(x, axis=0), tsum(x, axis=0))), (3, 4))
        check_grad(lambda x: tsum(mul(tsum(x, axis=1, keepdims=True), x)), (3, 4))

    def test_gelu_values_and_grad(self):
        # erf form: gelu(0) = 0, gelu(large) ~ x, gelu(-large) ~ 0
        y = ad.gelu(Tensor([0.0, 10.0, -10.0])).data
        assert y[0] == 0.0
        assert y[1] == pytest.approx(10.0, abs=1e-12)
        assert y[2] == pytest.approx(0.0, abs=1e-12)
        check_grad(lambda x: tsum(ad.gelu(x)), (7,))

    def test_erf_matches_scipy_within_a_few_ulp(self):
        from scipy.special import erf as scipy_erf

        # the table's seams: every node k/H and midpoint (k+1/2)/H, each +-1 ulp,
        # the clamp at 6 and the smallest subnormal
        nodes = np.arange(12 * ad._ERF_H + 1) / (2 * ad._ERF_H)
        seams = np.concatenate([nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, 7.0),
                                [np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0), 5e-324]])
        x = np.concatenate([np.linspace(-7.0, 7.0, 200_001), RNG.normal(0.0, 2.0, 20_000),
                            RNG.normal(0.0, 1e-3, 1_000),
                            [0.84375, 1.25, 1.0 / 0.35, 6.0, 1e-300, 1e300], seams, -seams])
        got, want = ad.erf(x), scipy_erf(x)
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
        assert ad.erf(np.array([[0.5, -2.0], [3.0, -9.0]])).shape == (2, 2)

    def test_erf_special_values(self):
        out = ad.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[0] == 0.0 and not np.signbit(out[0])
        assert out[1] == 0.0 and np.signbit(out[1])
        assert out[2] == 1.0 and out[3] == -1.0 and np.isnan(out[4])

    def test_import_loads_no_scipy(self):
        # scipy.special costs about 25 MB of resident memory per process.  The
        # tests and the benchmark import scipy themselves, so only a fresh
        # interpreter shows what the package pulls in.
        src = str(Path(ad.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import bbekit, bbekit.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    # the attention core's softmax weights are its output when each key's
    # value is a one-hot row: one head, k = v = identity over the N real
    # frames.  Keys of another sample sharing the sequence, and padding,
    # must get exactly zero weight, and each sample's keys must sum to one
    # on their own.
    @staticmethod
    def attention_weights(scores: np.ndarray, mask=None) -> np.ndarray:
        n = scores.shape[-1]
        mask = np.ones((1, n), dtype=bool) if mask is None else np.asarray(mask)
        eye = np.eye(n)
        qkv = np.concatenate([scores * np.sqrt(n), eye, eye], axis=1)  # undo 1/sqrt(d_head)
        return ad.attention_core(Tensor(qkv), ad.pack_sequences(mask), heads=1).data

    def test_softmax_rows_sum_to_one(self):
        y = self.attention_weights(RNG.normal(size=(5, 5)))
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert (y > 0).all()

    def test_softmax_grad(self):
        t = RNG.normal(size=(4, 4))
        packing = ad.pack_sequences(np.ones((1, 4), bool))
        check_grad(lambda x: tsum(mul(ad.attention_core(x, packing, heads=1), Tensor(t))),
                   (4, 12))

    def test_softmax_additive_mask_excludes(self):
        # lengths 3, 1, 2: the 1- and 2-frame samples share one sequence
        mask = np.arange(3) < np.array([3, 1, 2])[:, None]
        y = self.attention_weights(RNG.normal(size=(6, 6)), mask=mask)
        owner = np.repeat(np.arange(3), [3, 1, 2])
        assert y.shape == (6, 6) and (y[owner[:, None] != owner[None, :]] == 0.0).all()
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-15)

    def test_softmax_stable_at_large_magnitudes(self):
        y = self.attention_weights(np.array([[1e3, -1e3, 0.0]] * 3))
        assert np.isfinite(y).all()
        assert np.isfinite(self.attention_weights(np.full((4, 4), 1e3))).all()

    def test_segment_mean(self):
        mask = np.array([[True, True, False], [True, False, False]])
        rows = np.array([[1.0, 2.0], [3.0, 5.0], [7.0, 9.0]])
        np.testing.assert_array_equal(ad.segment_mean(Tensor(rows), mask).data,
                                      [[2.0, 3.5], [7.0, 9.0]])
        w = Tensor(RNG.normal(size=(2, 2)))
        check_grad(lambda t: tsum(mul(ad.segment_mean(t, mask), w)), (3, 2))

    def test_unfold1d_forward(self):
        x = np.arange(8.0).reshape(1, 8, 1)
        out = ad.unfold1d(x, kernel=2, stride=2)
        np.testing.assert_array_equal(out, [[[0, 1], [2, 3], [4, 5], [6, 7]]])

    def test_unfold1d_batched_matches_per_sample(self):
        x = RNG.normal(size=(3, 9, 2))
        out = ad.unfold1d(x, kernel=3, stride=2)
        assert out.shape == (3, 4, 6)
        for i in range(3):
            np.testing.assert_array_equal(out[i], ad.unfold1d(x[i:i + 1], 3, 2)[0])

    def test_unfold1d_too_short(self):
        with pytest.raises(DimensionError):
            ad.unfold1d(np.ones((1, 2, 1)), kernel=3, stride=1)


# equal-length [B, T] masks: (batch, length, trailing padding columns)
EQUAL_MASKS = [np.arange(n + pad) < np.full(b, n)[:, None]
               for b, n, pad in ((5, 7, 0), (5, 7, 2), (1, 4, 0), (1, 4, 3))]


def random_masks(n_batches=40, seed=113):
    """Seeded ragged [B, T] suffix masks, T past the longest sample, then
    ``EQUAL_MASKS``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        lengths = rng.integers(1, 30, int(rng.integers(1, 12)))
        yield np.arange(lengths.max() + int(rng.integers(0, 3))) < lengths[:, None]
    yield from EQUAL_MASKS


class TestPacking:
    @staticmethod
    def owners(packing):
        """Sample index at each [R, L] position, -1 on padding."""
        n_seqs, _, length, _ = packing.bias.shape
        owner = np.full(n_seqs * length, -1)
        owner[packing.slots] = np.repeat(np.arange(len(packing.mask)),
                                         packing.mask.sum(axis=1))
        return owner.reshape(n_seqs, length)

    def test_every_real_frame_gets_its_own_slot(self):
        for mask in random_masks():
            packing = ad.pack_sequences(mask)
            n_seqs, _, length, _ = packing.bias.shape
            assert packing.n_rows == mask.sum()
            assert len(np.unique(packing.slots)) == packing.n_rows
            assert packing.slots.min() >= 0 and packing.slots.max() < n_seqs * length

    def test_samples_stay_contiguous_and_in_order(self):
        for mask in random_masks():
            packing = ad.pack_sequences(mask)
            length = packing.bias.shape[2]
            ends = np.cumsum(mask.sum(axis=1))
            for n, end in zip(mask.sum(axis=1), ends):
                slots = packing.slots[end - n:end]
                assert np.array_equal(slots, slots[0] + np.arange(n))
                assert slots[0] // length == slots[-1] // length  # one sequence

    def test_no_sequence_longer_than_the_longest_sample(self):
        for mask in random_masks():
            n_seqs, _, length, _ = ad.pack_sequences(mask).bias.shape
            assert length == mask.sum(axis=1).max()
            assert n_seqs <= len(mask)

    def test_equal_lengths_give_one_sample_per_sequence(self):
        for mask in EQUAL_MASKS:
            batch, length = len(mask), int(mask.sum(axis=1).max())
            packing = ad.pack_sequences(mask)
            assert packing.bias.shape == (batch, 1, length, length)
            assert np.array_equal(packing.slots, np.arange(batch * length))
            assert (packing.bias == 0.0).all()

    def test_first_fit_decreasing_shares_sequences(self):
        # 12 fills a sequence; 5, 4 and 3 fill the second in that order
        packing = ad.pack_sequences(np.arange(12) < np.array([12, 5, 4, 3])[:, None])
        assert packing.bias.shape == (2, 1, 12, 12)
        assert np.array_equal(self.owners(packing), [[0] * 12, [1] * 5 + [2] * 4 + [3] * 3])
        assert PACKED.bias.shape[0] == 3  # RAGGED's five samples in three sequences

    def test_bias_keeps_each_frame_to_its_own_sample(self):
        for mask in random_masks():
            packing = ad.pack_sequences(mask)
            owner = self.owners(packing)
            same = (owner[:, :, None] == owner[:, None, :]) & (owner >= 0)[:, None, :]
            assert np.array_equal(packing.bias[:, 0], np.where(same, 0.0, -ad.MASK_NEG))

    @staticmethod
    def loop_packing(mask):
        """The first-fit placement with its bias built sample by sample, as
        ``pack_sequences`` once did: the reference its bits must match."""
        lengths = mask.sum(axis=1)
        length = int(lengths.max())
        room, first_slot = [], np.empty_like(lengths)
        for i in np.argsort(-lengths, kind="stable"):
            n = int(lengths[i])
            r = next((r for r, free in enumerate(room) if free >= n), len(room))
            if r == len(room):
                room.append(length)
            first_slot[i] = r * length + length - room[r]
            room[r] -= n
        bias = np.full((len(room) * length, length), -ad.MASK_NEG)
        for start, n in zip(first_slot.tolist(), lengths.tolist()):
            pos = start % length
            bias[start:start + n, pos:pos + n] = 0.0
        first_row = np.cumsum(lengths) - lengths
        slots = np.arange(int(lengths.sum())) + np.repeat(first_slot - first_row, lengths)
        return slots, bias.reshape(len(room), 1, length, length)

    def test_bit_identical_to_the_sample_loop(self):
        for mask in random_masks(200, seed=127):
            packing = ad.pack_sequences(mask)
            slots, bias = self.loop_packing(mask)
            assert np.array_equal(packing.slots, slots)
            assert packing.bias.dtype == bias.dtype and packing.bias.shape == bias.shape
            assert packing.bias.tobytes() == bias.tobytes()

    def test_deterministic(self):
        for mask in random_masks(10):
            a, b = ad.pack_sequences(mask), ad.pack_sequences(mask.copy())
            assert np.array_equal(a.slots, b.slots) and np.array_equal(a.bias, b.bias)

    def test_bad_masks_rejected(self):
        with pytest.raises(DimensionError):
            ad.pack_sequences(np.ones(3, dtype=bool))
        with pytest.raises(InputError):
            ad.pack_sequences(np.array([[True, False], [False, False]]))
        with pytest.raises(InputError):
            ad.pack_sequences(np.ones((0, 3), dtype=bool))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy_with_logits(Tensor(np.zeros((1, 6))), [2])
        assert loss.item() == pytest.approx(np.log(6.0), abs=1e-15)

    def test_saturated_correct(self):
        loss = ad.cross_entropy_with_logits(Tensor([[50.0, -50.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_hand_oracle(self):
        # ln(e^1 + e^2 + e^3) - 3
        expected = np.log(np.exp(1.0) + np.exp(2.0) + np.exp(3.0)) - 3.0
        loss = ad.cross_entropy_with_logits(Tensor([[1.0, 2.0, 3.0]]), [2])
        assert loss.item() == pytest.approx(expected, abs=1e-15)
        assert loss.item() == pytest.approx(0.40760596444438, abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(RNG.normal(size=(1, 5)), requires_grad=True)
        ad.cross_entropy_with_logits(logits, [3]).backward()
        z = logits.data - logits.data.max()
        soft = np.exp(z) / np.exp(z).sum()
        soft[0, 3] -= 1.0
        np.testing.assert_allclose(logits.grad, soft, atol=1e-14)

    def test_grad_vs_fd(self):
        check_grad(lambda x: ad.cross_entropy_with_logits(x, [1]), (1, 6))

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            ad.cross_entropy_with_logits(Tensor([[0.0, 1.0]]), [2])
        with pytest.raises(LabelError):
            ad.cross_entropy_with_logits(Tensor([[0.0, 1.0]]), [-1])

    @pytest.mark.parametrize("labels, first", [
        ([0, 6, -1], 6), ([-1, 9], -1), ([2, -2**63], -2**63), ([2**63 - 1], 2**63 - 1),
    ])
    def test_label_error_names_the_first_bad_label(self, labels, first):
        with pytest.raises(LabelError, match=f"^label {first} out of range for 6 classes$"):
            ad.cross_entropy_with_logits(Tensor(np.zeros((len(labels), 6))), labels)

    def test_mean_has_the_bits_of_np_mean(self):
        rng = np.random.default_rng(71)
        for n in (1, 2, 3, 7, 8, 16, 33, 200):
            logits = rng.normal(size=(n, 6)) * 5.0
            labels = rng.integers(0, 6, n)
            z = logits - logits.max(axis=1, keepdims=True)
            want = (np.log(np.exp(z).sum(axis=1)) - z[np.arange(n), labels]).mean()
            assert ad.cross_entropy_with_logits(Tensor(logits), labels).item() == want

    def test_requires_1d(self):
        with pytest.raises(DimensionError):
            ad.cross_entropy_with_logits(Tensor(np.zeros((2, 3))), 0)

    def test_batch_is_mean_of_rows(self):
        logits = RNG.normal(size=(3, 5))
        labels = [0, 4, 2]
        rows = [ad.cross_entropy_with_logits(Tensor(row[None]), [lab]).item()
                for row, lab in zip(logits, labels)]
        batch = ad.cross_entropy_with_logits(Tensor(logits), labels).item()
        assert batch == pytest.approx(np.mean(rows), abs=1e-15)

    def test_batch_grad_vs_fd(self):
        check_grad(lambda x: ad.cross_entropy_with_logits(x, [1, 0, 5, 1]), (4, 6))

    def test_batch_label_out_of_range(self):
        with pytest.raises(LabelError):
            ad.cross_entropy_with_logits(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(LabelError):
            ad.cross_entropy_with_logits(Tensor(np.zeros((2, 3))), [-1, 0])

    def test_batch_label_count_must_match(self):
        with pytest.raises(DimensionError):
            ad.cross_entropy_with_logits(Tensor(np.zeros((2, 3))), [0, 1, 2])
        with pytest.raises(DimensionError):
            ad.cross_entropy_with_logits(Tensor(np.zeros(3)), [0])


class TestOperatorSugar:
    def test_arithmetic_matches_numpy(self):
        a = RNG.normal(size=(3,))
        b = RNG.normal(size=(3,))
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_array_equal((ta + tb).data, a + b)
        np.testing.assert_array_equal((ta + b).data, a + b)
        np.testing.assert_array_equal((ta + 2.0).data, a + 2.0)


# -- fused layers ----------------------------------------------------------------
# Numpy oracles: the elementwise compositions the fused nodes replaced, in
# their float64 operation order, with their reverse-mode gradients written
# out op by op (each op's backward rule, applied in reverse).

def composite_linear(x, w, b):
    return ((x.reshape(-1, w.shape[0]) @ w) + b).reshape(x.shape[:-1] + (w.shape[1],))


def composite_linear_grads(x, w, b, g):
    g = g.reshape(-1, w.shape[1])
    return (g @ w.T).reshape(x.shape), x.reshape(-1, w.shape[0]).T @ g, g.sum(axis=0)


def _ln_parts(x):
    inv_d = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_d
    centered = x + (-mu)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    return inv_d, centered, var, (var + ad.LN_EPS) ** -0.5


def composite_layer_norm(x, gain, shift):
    _, centered, _, rstd = _ln_parts(x)
    return ((centered * rstd) * gain) + shift


def composite_layer_norm_grads(x, gain, shift, g):
    inv_d, centered, var, rstd = _ln_parts(x)
    lead = tuple(range(x.ndim - 1))
    g_scaled = g * gain                                     # (c * r) * gain
    g_c = g_scaled * rstd                                   # c * r, via c
    g_r = (g_scaled * centered).sum(axis=-1, keepdims=True)  # c * r, via r
    g_cc = g_r * -0.5 * (var + ad.LN_EPS) ** -1.5 * inv_d   # r = (mean(c*c) + eps)**-0.5
    g_c = g_c + g_cc * centered + g_cc * centered           # c * c
    g_mu = -g_c.sum(axis=-1, keepdims=True)                 # c = x + (-mu)
    return (g_c + g_mu * inv_d,                             # mu = sum(x) * (1/d)
            (g * (centered * rstd)).sum(axis=lead), g.sum(axis=lead))


def _attention_parts(q, k, v, key_bias, heads):
    batch, n_frames, d = q.shape
    dh = d // heads

    def split(t):
        return np.ascontiguousarray(t.reshape(batch, n_frames, heads, dh).transpose(0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    scale = 1.0 / np.sqrt(dh)
    z = ((qh @ kt) * scale) + key_bias
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return qh, kt, vh, scale, e / e.sum(axis=-1, keepdims=True)


def _merge(t):
    batch, heads, n_frames, dh = t.shape
    return np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(batch, n_frames, heads * dh)


def _sequences(rows, packing):
    """Packed [N, w] rows -> the packing's zero-padded [R, L, w] sequences."""
    n_seqs, _, length, _ = packing.bias.shape
    full = np.zeros((n_seqs * length, rows.shape[1]))
    full[packing.slots] = rows
    return full.reshape(n_seqs, length, rows.shape[1])


def _rows(frames, packing):
    """[R, L, w] sequences -> the real frames' [N, w] rows."""
    return frames.reshape(-1, frames.shape[-1])[packing.slots]


def composite_attention(qkv, packing, heads):
    """The composite over the packing's sequences, with its score bias,
    read back at the real frames."""
    q, k, v = np.split(_sequences(qkv, packing), 3, axis=-1)
    _, _, vh, _, weights = _attention_parts(q, k, v, packing.bias, heads)
    return _rows(_merge(weights @ vh), packing)


def composite_attention_grads(qkv, packing, heads, g):
    q, k, v = np.split(_sequences(qkv, packing), 3, axis=-1)
    qh, kt, vh, scale, weights = _attention_parts(q, k, v, packing.bias, heads)
    n_seqs, length, d = q.shape
    g_mixed = _sequences(g, packing).reshape(n_seqs, length, heads, d // heads)
    g_mixed = g_mixed.transpose(0, 2, 1, 3)
    g_w = g_mixed @ vh.transpose(0, 1, 3, 2)                 # weights @ vh
    g_vh = weights.transpose(0, 1, 3, 2) @ g_mixed
    g_z = (g_w - (g_w * weights).sum(axis=-1, keepdims=True)) * weights  # softmax
    g_raw = g_z * scale                                      # scores * scale
    g_qh = g_raw @ kt.transpose(0, 1, 3, 2)                  # qh @ kt
    g_kh = (qh.transpose(0, 1, 3, 2) @ g_raw).transpose(0, 1, 3, 2)
    return (_rows(np.concatenate([_merge(g_qh), _merge(g_kh), _merge(g_vh)], axis=-1),
                  packing),)


def composite_linear_blocks(x, w1, w2, b1, b2):
    return composite_linear(x, np.concatenate([w1, w2], axis=1), np.concatenate([b1, b2]))


def composite_linear_blocks_grads(x, w1, w2, b1, b2, g):
    cut = w1.shape[1]
    g_x, g_w, g_b = composite_linear_grads(x, np.concatenate([w1, w2], axis=1),
                                           np.concatenate([b1, b2]), g)
    return g_x, g_w[:, :cut], g_w[:, cut:], g_b[:cut], g_b[cut:]


# ragged [B, T] padding: lengths 5, 2, 4, 1 and 2 of T = 5, so N = 14
# packed rows in three shared sequences, [5], [4, 1] and [2, 2] plus one
# padded position
RAGGED = np.arange(5) < np.array([5, 2, 4, 1, 2])[:, None]
PACKED = ad.pack_sequences(RAGGED)
N_ROWS = int(RAGGED.sum())
HEADS = 2


def _fused_cases():
    """Each fused op as {name: (fn over its array arguments, numpy oracle,
    oracle gradients given the upstream gradient, argument arrays)}."""
    rng = np.random.default_rng(71)
    x = rng.normal(size=(N_ROWS, 4))
    return {
        "linear": (ad.linear, composite_linear, composite_linear_grads,
                   [x, rng.normal(size=(4, 6)), rng.normal(size=6)]),
        "linear_blocks": (lambda x, w1, w2, b1, b2: ad.linear(x, (w1, w2), (b1, b2)),
                          composite_linear_blocks, composite_linear_blocks_grads,
                          [x, rng.normal(size=(4, 6)), rng.normal(size=(4, 3)),
                           rng.normal(size=6), rng.normal(size=3)]),
        "layer_norm": (ad.layer_norm, composite_layer_norm, composite_layer_norm_grads,
                       [x * 3.0 + 1.0, rng.normal(size=4), rng.normal(size=4)]),
        "attention_core": (lambda qkv: ad.attention_core(qkv, PACKED, HEADS),
                           lambda qkv: composite_attention(qkv, PACKED, HEADS),
                           lambda qkv, g: composite_attention_grads(qkv, PACKED, HEADS, g),
                           [rng.normal(size=(N_ROWS, 12))]),
    }


FUSED = _fused_cases()


def grads_of(fn, arrays, upstream):
    """Backward of sum(fn(...) * upstream) into every argument."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    tsum(mul(fn(*leaves), Tensor(upstream))).backward()
    return [leaf.grad for leaf in leaves]


class TestFusedPrimitives:
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_forward_bit_identical_to_composite(self, name):
        fn, oracle, _, arrays = FUSED[name]
        assert np.array_equal(fn(*[Tensor(a) for a in arrays]).data, oracle(*arrays))

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_backward_matches_composite(self, name):
        fn, oracle, oracle_grads, arrays = FUSED[name]
        upstream = np.random.default_rng(73).normal(size=oracle(*arrays).shape)
        for got, want in zip(grads_of(fn, arrays, upstream), oracle_grads(*arrays, upstream)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_gradients_vs_finite_differences(self, name):
        fn, _, _, arrays = FUSED[name]
        upstream = np.random.default_rng(79).normal(size=fn(*arrays).shape)
        analytic = grads_of(fn, arrays, upstream)
        for i, arr in enumerate(arrays):
            def loss(a, i=i):
                args = [Tensor(x) for x in arrays]
                args[i] = Tensor(a)
                return float((fn(*args).data * upstream).sum())

            numeric = fd_grad(loss, arr.copy(), h=FD_STEP)
            worst = max(relative_error(a, n) for a, n in zip(analytic[i].ravel(), numeric.ravel()))
            assert worst < TOLERANCE, (name, i, worst)

    def test_masked_keys_get_no_weight_and_no_gradient(self):
        # each sample's rows and gradients are those of the sample run alone
        # in a sequence of its own: keys of the other sample in its sequence
        # and padding get no weight, and no gradient crosses between samples
        fn, _, _, arrays = FUSED["attention_core"]
        upstream = np.random.default_rng(97).normal(size=(N_ROWS, 4))
        out = fn(*[Tensor(a) for a in arrays]).data
        grads = grads_of(fn, arrays, upstream)
        start = 0
        for n in RAGGED.sum(axis=1):
            rows = slice(start, start + n)
            start += n

            def alone(qkv):
                return ad.attention_core(qkv, ad.pack_sequences(np.ones((1, n), bool)), HEADS)

            parts = [a[rows] for a in arrays]
            np.testing.assert_allclose(out[rows], alone(*parts).data, rtol=1e-13, atol=1e-13)
            for got, want in zip(grads, grads_of(alone, parts, upstream[rows])):
                np.testing.assert_allclose(got[rows], want, rtol=1e-12, atol=1e-13)

    def test_frozen_parents_get_no_gradient(self):
        # a parent without requires_grad gets no gradient, and leaving it
        # out does not change the others'
        rng = np.random.default_rng(83)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 4)), rng.normal(size=4),
                  rng.normal(size=4), rng.normal(size=4)]
        upstream = Tensor(rng.normal(size=(2, 3, 4)))

        def run(trainable):
            x, w, b, gain, shift = (Tensor(a.copy(), requires_grad=i in trainable)
                                    for i, a in enumerate(arrays))
            tsum(mul(ad.layer_norm(ad.linear(x, w, b), gain, shift), upstream)).backward()
            return x, w, b, gain, shift

        every = run(range(5))
        some = run({0, 2})
        assert all(some[i].grad is None for i in (1, 3, 4))
        assert np.array_equal(some[0].grad, every[0].grad)
        assert np.array_equal(some[2].grad, every[2].grad)

    def test_frozen_column_block_gets_no_gradient(self):
        # a column block without requires_grad gets no gradient, and the
        # other blocks' are their slices of the fused gradient
        rng = np.random.default_rng(87)
        x, w1, w2, b1, b2 = (rng.normal(size=shape) for shape in ((5, 4), (4, 3), (4, 2), 3, 2))
        upstream = Tensor(rng.normal(size=(5, 5)))
        leaves = [Tensor(a.copy(), requires_grad=i != 2)
                  for i, a in enumerate((x, w1, w2, b1, b2))]
        tsum(mul(ad.linear(leaves[0], leaves[1:3], leaves[3:]), upstream)).backward()
        want = composite_linear_blocks_grads(x, w1, w2, b1, b2, upstream.data)
        assert leaves[2].grad is None
        for i in (0, 1, 3, 4):
            assert np.abs(leaves[i].grad - want[i]).max() <= 1e-12 * np.abs(want[i]).max()

    @pytest.mark.parametrize("trainable", [{0, 1, 2}, {1, 2}, {0}, {2}])
    def test_one_weight_matches_one_column_block(self, trainable):
        # a plain weight and bias run without the column join and split; the
        # output and every gradient have the bits of the one-block form
        rng = np.random.default_rng(91)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
        upstream = Tensor(rng.normal(size=(2, 3, 5)))

        def run(blocks):
            x, w, b = (Tensor(a.copy(), requires_grad=i in trainable)
                       for i, a in enumerate(arrays))
            y = ad.linear(x, [w], [b]) if blocks else ad.linear(x, w, b)
            tsum(mul(y, upstream)).backward()
            return y.data, [t.grad for t in (x, w, b)]

        (plain, plain_grads), (block, block_grads) = run(False), run(True)
        assert np.array_equal(plain, block)
        for i, (got, want) in enumerate(zip(plain_grads, block_grads)):
            assert (got is None) == (i not in trainable)
            assert got is None or np.array_equal(got, want)

    def test_attention_layer_backward_matches_composite(self):
        # the fused q/k/v linear, the core and the output linear chained,
        # against the composite chain with separate q/k/v linears; the key
        # bias's gradient is analytically zero (it shifts every score of a
        # query row equally), so it is compared against an absolute floor
        # instead of its own rounding-level size
        rng = np.random.default_rng(89)
        x = rng.normal(size=(N_ROWS, 4))
        params = [rng.normal(0.0, 0.5, shape) for _ in "qkvo" for shape in ((4, 4), (4,))]
        upstream = rng.normal(size=x.shape)

        leaves = [Tensor(a.copy(), requires_grad=True) for a in [x] + params]
        xt, (wq, bq, wk, bk, wv, bv, wo, bo) = leaves[0], leaves[1:]
        merged = ad.attention_core(ad.linear(xt, (wq, wk, wv), (bq, bk, bv)), PACKED, HEADS)
        tsum(mul(ad.linear(merged, wo, bo), Tensor(upstream))).backward()

        qkv = np.concatenate([composite_linear(x, params[i], params[i + 1]) for i in (0, 2, 4)],
                             axis=1)
        merged_np = composite_attention(qkv, PACKED, HEADS)
        g_merged, g_wo, g_bo = composite_linear_grads(merged_np, params[6], params[7], upstream)
        (g_qkv,) = composite_attention_grads(qkv, PACKED, HEADS, g_merged)
        want = [None] * 9
        g_x = 0.0
        for j, g in enumerate(np.split(g_qkv, 3, axis=1)):
            g_in, want[1 + 2 * j], want[2 + 2 * j] = composite_linear_grads(
                x, params[2 * j], params[2 * j + 1], g)
            g_x = g_x + g_in
        want[0], want[7], want[8] = g_x, g_wo, g_bo

        scale = max(np.abs(w).max() for w in want)
        for leaf, w in zip(leaves, want):
            floor = 1e-12 * scale if w is want[4] else 0.0
            assert np.abs(leaf.grad - w).max() <= max(1e-12 * np.abs(w).max(), floor)
        assert np.abs(bk.grad).max() <= 1e-12 * scale
