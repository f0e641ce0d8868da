import numpy as np
import pytest

from lumina_mini.model import init_params
from lumina_mini.numerics import Tensor


def finite_diff_grad(f, xs, which, h=1e-6):
    """Central finite differences of scalar f(*xs) w.r.t. xs[which] (f64 arrays)."""
    base = [np.array(x, dtype=np.float64) for x in xs]
    g = np.zeros_like(base[which])
    flat = base[which].reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(*base))
        flat[i] = orig - h
        lo = float(f(*base))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


def autodiff_grad(f, xs, which):
    """Gradient of scalar f(*tensors) via backward, inputs as f64 leaves."""
    leaves = [Tensor(np.array(x, dtype=np.float64), "f64", requires_grad=True) for x in xs]
    out = f(*leaves)
    out.backward()
    return leaves[which].grad.data.copy()


def rel_err(a, b):
    scale = max(np.linalg.norm(b.reshape(-1)), 1e-12)
    return np.linalg.norm((a - b).reshape(-1)) / scale


def check_grad(tensor_f, numpy_f, xs, which=0, tol=1e-5, h=1e-6):
    """Assert autodiff and finite-difference gradients agree in f64."""
    fd = finite_diff_grad(numpy_f, xs, which, h=h)
    ad = autodiff_grad(tensor_f, xs, which)
    err = rel_err(ad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err


def live_params(cfg, seed=0):
    """init_params with the zero-initialized adaLN and output projections
    redrawn, so the predicted velocity depends on prompt, image and time."""
    store = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if name.endswith((".ada.w", "final.proj.w")):
            t.data[...] = rng.standard_normal(t.shape) * 0.5
    return store


def pytest_collection_modifyitems(items):
    """Run ``slow`` tests last, so the fast tests report first. Nothing is
    skipped or deselected; the sort is stable within each group."""
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
