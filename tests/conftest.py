from types import SimpleNamespace

import numpy as np
import pytest

from lumina_mini.model import init_params
from lumina_mini.selfcheck import autodiff_grad, finite_diff_grad, rel_err


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


def raw_store(config, entries):
    """What ``save_checkpoint`` reads of a ParamStore, holding any (name,
    Tensor) entries: writes the malformed files the arena cannot hold."""
    entries = list(entries)
    return SimpleNamespace(config=config, step=0, master_seed=0, items=lambda: entries)


def pytest_collection_modifyitems(items):
    """Run ``slow`` tests last, so the fast tests report first. Nothing is
    skipped or deselected; the sort is stable within each group."""
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
