import numpy as np
import pytest

from bbekit import autodiff as ad
from bbekit.autodiff import Tensor
from bbekit.errors import DimensionError, LabelError, StateError

RNG = np.random.default_rng(7)


def fd_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        plus = fn(x)
        x[i] = orig - h
        minus = fn(x)
        x[i] = orig
        g[i] = (plus - minus) / (2 * h)
    return g


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
        out = ad.mul(t, 2.0)
        with pytest.raises(StateError):
            out.backward()

    def test_backward_requires_tape(self):
        with pytest.raises(StateError):
            Tensor(3.0, requires_grad=True).backward()

    def test_no_grad_suppresses_tape(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with ad.no_grad():
            out = ad.tsum(ad.mul(t, t))
        assert out._backward is None and not out.requires_grad
        assert ad.is_grad_enabled()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        ad.tsum(t).backward()
        ad.tsum(t).backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0])

    def test_unused_leaf_gets_zero_grad(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        ad.tsum(used).backward()
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x: both paths must contribute
        t = Tensor(3.0, requires_grad=True)
        y = ad.mul(t, t) + ad.mul(t, t)
        y.backward()
        assert t.grad == pytest.approx(12.0, abs=1e-12)


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        b = RNG.normal(size=(4,))
        check_grad(lambda x: ad.tsum(ad.mul(x + Tensor(b), x + Tensor(b))), (3, 4))

    def test_mul_broadcast(self):
        w = RNG.normal(size=(1, 4))
        check_grad(lambda x: ad.tsum(ad.mul(x, Tensor(w))), (3, 4))

    def test_matmul_2d(self):
        w = RNG.normal(size=(4, 2))
        check_grad(lambda x: ad.tsum(ad.matmul(x, Tensor(w))), (3, 4))
        x = RNG.normal(size=(3, 4))
        check_grad(lambda w_: ad.tsum(ad.matmul(Tensor(x), w_)), (4, 2))

    def test_matmul_batched(self):
        b = RNG.normal(size=(2, 4, 3))
        check_grad(lambda x: ad.tsum(ad.mul(ad.matmul(x, Tensor(b)),
                                            ad.matmul(x, Tensor(b)))), (2, 3, 4))

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_reshape_transpose(self):
        check_grad(lambda x: ad.tsum(ad.mul(ad.reshape(x, (6, 2)),
                                            ad.reshape(x, (6, 2)))), (3, 4))
        check_grad(lambda x: ad.tsum(ad.mul(ad.transpose(x, (2, 0, 1)),
                                            ad.transpose(x, (2, 0, 1)))), (2, 3, 4))

    def test_sum_axes(self):
        check_grad(lambda x: ad.tsum(ad.mul(ad.tsum(x, axis=0), ad.tsum(x, axis=0))), (3, 4))
        check_grad(lambda x: ad.tsum(ad.mul(ad.tsum(x, axis=1, keepdims=True), x)), (3, 4))
        check_grad(lambda x: ad.tmean(ad.mul(x, x)), (5,))

    def test_pow_exp(self):
        check_grad(lambda x: ad.tsum(ad.pow_scalar(ad.mul(x, x) + 1.0, 0.5)), (3,))

    def test_gelu_values_and_grad(self):
        # erf form: gelu(0) = 0, gelu(large) ~ x, gelu(-large) ~ 0
        y = ad.gelu(Tensor([0.0, 10.0, -10.0])).data
        assert y[0] == 0.0
        assert y[1] == pytest.approx(10.0, abs=1e-12)
        assert y[2] == pytest.approx(0.0, abs=1e-12)
        check_grad(lambda x: ad.tsum(ad.gelu(x)), (7,))

    def test_erf_matches_scipy_within_a_few_ulp(self):
        from scipy.special import erf as scipy_erf

        x = np.concatenate([np.linspace(-7.0, 7.0, 200_001), RNG.normal(0.0, 2.0, 20_000),
                            RNG.normal(0.0, 1e-3, 1_000),
                            [0.84375, 1.25, 1.0 / 0.35, 6.0, 1e-300, 1e300]])
        got, want = ad.erf(x), scipy_erf(x)
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
        assert ad.erf(np.array([[0.5, -2.0], [3.0, -9.0]])).shape == (2, 2)

    def test_erf_special_values(self):
        out = ad.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[0] == 0.0 and not np.signbit(out[0])
        assert out[1] == 0.0 and np.signbit(out[1])
        assert out[2] == 1.0 and out[3] == -1.0 and np.isnan(out[4])

    def test_softmax_rows_sum_to_one(self):
        y = ad.softmax_last(Tensor(RNG.normal(size=(3, 5)))).data
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert (y > 0).all()

    def test_softmax_grad(self):
        t = RNG.normal(size=(4,))
        check_grad(lambda x: ad.tsum(ad.mul(ad.softmax_last(x), Tensor(t))), (4,))

    def test_softmax_additive_mask_excludes(self):
        mask = np.array([0.0, -1e30, 0.0])
        y = ad.softmax_last(Tensor([1.0, 5.0, 2.0]), additive_mask=mask).data
        assert y[1] == 0.0
        assert y.sum() == pytest.approx(1.0, abs=1e-15)

    def test_softmax_stable_at_large_magnitudes(self):
        y = ad.softmax_last(Tensor([1e3, -1e3, 0.0])).data
        assert np.isfinite(y).all()
        ln = Tensor(np.full(4, 1e3))
        assert np.isfinite(ad.softmax_last(ln).data).all()

    def test_unfold1d_forward_and_grad(self):
        x = np.arange(8.0).reshape(1, 8, 1)
        out = ad.unfold1d(Tensor(x), kernel=2, stride=2).data
        np.testing.assert_array_equal(out, [[[0, 1], [2, 3], [4, 5], [6, 7]]])
        check_grad(lambda t: ad.tsum(ad.mul(ad.unfold1d(t, 3, 2),
                                            ad.unfold1d(t, 3, 2))), (1, 9, 2))

    def test_unfold1d_batched_matches_per_sample(self):
        x = RNG.normal(size=(3, 9, 2))
        out = ad.unfold1d(Tensor(x), kernel=3, stride=2).data
        assert out.shape == (3, 4, 6)
        for i in range(3):
            np.testing.assert_array_equal(out[i], ad.unfold1d(Tensor(x[i:i + 1]), 3, 2).data[0])
        check_grad(lambda t: ad.tsum(ad.mul(ad.unfold1d(t, 3, 2),
                                            ad.unfold1d(t, 3, 2))), (2, 9, 2))

    def test_unfold1d_too_short(self):
        with pytest.raises(DimensionError):
            ad.unfold1d(Tensor(np.ones((1, 2, 1))), kernel=3, stride=1)


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
        np.testing.assert_array_equal((ta - tb).data, a - b)
        np.testing.assert_array_equal((ta * tb).data, a * b)
        np.testing.assert_array_equal((-ta).data, -a)
        np.testing.assert_array_equal((ta * 2.0).data, a * 2.0)
        np.testing.assert_array_equal((ta / 2.0).data, a / 2.0)
        np.testing.assert_allclose((ta ** 2).data, a ** 2, atol=1e-15)
        np.testing.assert_array_equal((1.0 + ta).data, 1.0 + a)
        np.testing.assert_array_equal((1.0 - ta).data, 1.0 - a)
