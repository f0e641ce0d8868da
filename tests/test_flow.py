import numpy as np
import pytest

from conftest import autodiff_grad, rel_err
from lumina_mini.errors import ShapeError, UsageError
from lumina_mini.flow import aux_loss, fm_loss, interpolate
from lumina_mini.numerics import Tensor


class TestInterpolate:
    def test_t0_is_noise(self, rng):
        x = rng.standard_normal((3, 4, 4))
        eps = rng.standard_normal((3, 4, 4))
        x_t, u = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), 0.0)
        np.testing.assert_allclose(x_t.data, eps)
        np.testing.assert_allclose(u.data, x - eps)

    def test_t1_is_data(self, rng):
        x = rng.standard_normal((3, 4, 4))
        eps = rng.standard_normal((3, 4, 4))
        x_t, _ = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), 1.0)
        np.testing.assert_allclose(x_t.data, x)

    def test_path_derivative_is_velocity(self, rng):
        # d(x_t)/dt == u via central differences at several t
        x = rng.standard_normal((2, 4, 4))
        eps = rng.standard_normal((2, 4, 4))
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            hi, _ = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), t + h)
            lo, _ = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), t - h)
            _, u = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), t)
            fd = (hi.data - lo.data) / (2 * h)
            assert np.abs(fd - u.data).max() < 1e-8

    def test_t_out_of_range(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2)))
        with pytest.raises(UsageError):
            interpolate(x, x, 1.5)

    def test_per_sample_t_broadcast(self, rng):
        x = rng.standard_normal((4, 3, 2, 2))
        eps = rng.standard_normal((4, 3, 2, 2))
        t = np.array([0.0, 0.25, 0.5, 1.0])
        x_t, u = interpolate(Tensor(x, "f64"), Tensor(eps, "f64"), t)
        np.testing.assert_allclose(x_t.data[0], eps[0])
        np.testing.assert_allclose(x_t.data[3], x[3])
        np.testing.assert_allclose(u.data, x - eps)


class TestFmLoss:
    def test_zero_when_exact(self, rng):
        u = rng.standard_normal((3, 4, 4))
        assert fm_loss(Tensor(u, "f64"), Tensor(u, "f64")).item() == 0.0

    def test_constant_offset(self, rng):
        u = rng.standard_normal((3, 4, 4))
        loss = fm_loss(Tensor(u + 1.0, "f64"), Tensor(u, "f64"))
        assert loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_formula(self, rng):
        # dL/dv == 2 (v - u) / N, checked against finite differences
        v = rng.standard_normal((2, 4, 4))
        u = rng.standard_normal((2, 4, 4))
        ad = autodiff_grad(lambda tv: fm_loss(tv, Tensor(u, "f64")), [v], 0)
        analytic = 2 * (v - u) / v.size
        assert rel_err(ad, analytic) < 1e-12


class TestAuxLoss:
    def test_zero_when_exact(self, rng):
        u = rng.standard_normal((3, 8, 8))
        assert aux_loss(Tensor(u, "f64"), Tensor(u, "f64"), 4).item() == 0.0

    def test_checkerboard_annihilated(self, rng):
        # zero-mean high-frequency perturbation inside each 4x4 block
        u = rng.standard_normal((3, 8, 8))
        checker = np.indices((8, 8)).sum(0) % 2 * 2.0 - 1.0  # +-1 alternating
        v = u + checker[None, :, :]
        assert aux_loss(Tensor(v, "f64"), Tensor(u, "f64"), 4).item() < 1e-28

    def test_factor_one_reduces_to_fm(self, rng):
        v = rng.standard_normal((3, 4, 4))
        u = rng.standard_normal((3, 4, 4))
        a = aux_loss(Tensor(v, "f64"), Tensor(u, "f64"), 1).item()
        b = fm_loss(Tensor(v, "f64"), Tensor(u, "f64")).item()
        assert a == b

    def test_blockwise_zero_mean_nullspace(self, rng):
        # any per-block zero-mean perturbation leaves the loss unchanged
        u = rng.standard_normal((3, 8, 8))
        v = rng.standard_normal((3, 8, 8))
        base = aux_loss(Tensor(v, "f64"), Tensor(u, "f64"), 4).item()
        pert = rng.standard_normal((3, 8, 8))
        blocks = pert.reshape(3, 2, 4, 2, 4)
        pert = (blocks - blocks.mean(axis=(2, 4), keepdims=True)).reshape(3, 8, 8)
        shifted = aux_loss(Tensor(v + pert, "f64"), Tensor(u, "f64"), 4).item()
        assert abs(base - shifted) < 1e-6

    def test_divisibility(self, rng):
        with pytest.raises(ShapeError):
            aux_loss(Tensor(rng.standard_normal((3, 6, 6))), Tensor(rng.standard_normal((3, 6, 6))), 4)

