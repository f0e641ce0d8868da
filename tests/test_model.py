import numpy as np
import pytest

from conftest import raw_store
from lumina_mini.errors import CheckpointError, ConfigError, DataError, ShapeError, UsageError
from lumina_mini.model import (
    ModelConfig,
    apply_mrope,
    assign_coords,
    count_params,
    forward_batch,
    init_params,
    load_checkpoint,
    param_shapes,
    patchify,
    reference_config,
    save_checkpoint,
    timestep_embedding,
    unpatchify,
)
from lumina_mini.model.blocks import attention_batch, block_batch
from lumina_mini.model.rope import rope_tables
from lumina_mini.numerics import Tensor


def tiny_config(**kw):
    base = dict(
        dim=32,
        heads=4,
        kv_heads=2,
        layers=2,
        text_processor_layers=1,
        image_processor_layers=1,
        patch_size=2,
        vocab_size=16,
        axes_split=(4, 2, 2),
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.heads % cfg.kv_heads == 0
        assert cfg.heads // cfg.kv_heads == 3  # mirrors the 24:8 head ratio
        assert cfg.patch_size == 2
        assert cfg.ffn_hidden == 512

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(heads=5, kv_heads=2)
        with pytest.raises(ConfigError):
            ModelConfig(axes_split=(15, 8, 9))  # odd entries
        with pytest.raises(ConfigError):
            ModelConfig(axes_split=(16, 8, 4))  # wrong sum

    def test_reference_param_count_near_2_6b(self):
        n = count_params(reference_config())
        assert abs(n - 2.6e9) / 2.6e9 < 0.10

    def test_count_matches_allocation(self):
        cfg = tiny_config()
        store = init_params(cfg, seed=0)
        assert store.data.size == count_params(cfg)
        assert store.names() == [name for name, _ in param_shapes(cfg)]


def _offset(view, base):
    """Element offset of ``view``'s first element inside the flat ``base``."""
    start = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    return start // base.itemsize


class TestParamArena:
    def test_leaves_are_views_of_the_two_buffers(self):
        store = init_params(tiny_config(), seed=19)
        for name, t in store.items():
            assert np.shares_memory(t.data, store.data), name
            assert np.shares_memory(t.grad.data, store.grad), name
            assert not np.shares_memory(t.data, store.grad), name

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_slots_tile_buffers_in_manifest_order(self, dtype):
        cfg = tiny_config()
        store = init_params(cfg, seed=20, dtype=dtype)
        assert store.data.dtype == store.grad.dtype == np.dtype(dtype.replace("f", "float"))
        offset = 0
        for (name, shape), (got, t) in zip(param_shapes(cfg), store.items()):
            assert got == name and t.shape == shape
            assert _offset(t.data, store.data) == offset
            assert _offset(t.grad.data, store.grad) == offset
            offset += t.size
        assert offset == store.data.size == store.grad.size == count_params(cfg)

    def test_backward_accumulates_into_grad_buffer(self, rng):
        store = init_params(tiny_config(), seed=21)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        forward_batch([[1, 2]], x, [0.5], store).sum().backward()
        assert np.abs(store.grad).max() > 0
        leaves = np.concatenate([t.grad.data.reshape(-1) for _, t in store.items()])
        assert (leaves == store.grad).all()

    def test_zero_grad_and_clone_act_on_whole_buffers(self):
        store = init_params(tiny_config(), seed=22)
        store.grad[...] = 1.0
        store.step = 9
        twin = store.clone()
        assert (twin.data == store.data).all() and not np.shares_memory(twin.data, store.data)
        assert not twin.grad.any() and twin.step == 9
        assert twin.names() == store.names()
        twin["tok_emb.w"].data[...] = 7.0
        assert (twin.data != store.data).any()
        assert (store["tok_emb.w"].data != 7.0).all()
        store.zero_grad()
        assert not store.grad.any()
        assert all(not t.grad.data.any() for _, t in store.items())


class TestPatchify:
    def test_token_count_and_length(self, rng):
        img = Tensor(rng.standard_normal((1, 3, 4, 4)))
        out = patchify(img, 2)
        assert out.shape == (1, 4, 12)

    def test_patch_one_is_reshape(self, rng):
        data = rng.standard_normal((1, 3, 2, 2))
        out = patchify(Tensor(data, "f64"), 1)
        np.testing.assert_array_equal(out.data[0], data[0].reshape(3, 4).T)

    def test_roundtrip_bit_exact(self, rng):
        data = rng.standard_normal((1, 3, 8, 6)).astype(np.float32)
        back = unpatchify(patchify(Tensor(data), 2), 3, 8, 6, 2)
        assert (back.data == data).all()

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            patchify(Tensor(np.zeros((1, 3, 5, 4))), 2)

    def test_row_major_order(self):
        # One channel, 4x4, patch 2: first patch must be the top-left block.
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        out = patchify(Tensor(data), 2)
        np.testing.assert_array_equal(out.data[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(out.data[0, 1], [2, 3, 6, 7])


class TestCoords:
    def test_single_token(self):
        coords = assign_coords(0, 1, 1)
        np.testing.assert_array_equal(coords, [[0, 0, 0]])

    def test_text_then_image(self):
        coords = assign_coords(3, 2, 2)
        np.testing.assert_array_equal(coords[:3], [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        img = coords[3:]
        assert (img[:, 0] == 3).all()
        assert sorted(map(tuple, img[:, 1:])) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_same_row_differs_only_in_axis2(self):
        coords = assign_coords(2, 2, 3)
        a, b = coords[2], coords[3]  # first two image tokens share a row
        assert a[0] == b[0] and a[1] == b[1] and a[2] != b[2]


class TestMRope:
    def test_zero_coord_is_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8)), "f64")
        out = apply_mrope(x, rope_tables(np.zeros((1, 3), dtype=np.int64), (4, 2, 2)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_isometry(self, rng):
        x = Tensor(rng.standard_normal((10, 3, 8)), "f64")
        coords = rng.integers(0, 32, size=(10, 3))
        out = apply_mrope(x, rope_tables(coords, (4, 2, 2)))
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=-1), np.linalg.norm(x.data, axis=-1), atol=1e-5
        )

    def test_relative_position_property(self, rng):
        # <rope(q, ca), rope(k, cb)> must depend only on ca - cb: brute force.
        split = (8, 4, 4)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        for _ in range(50):
            ca = rng.integers(0, 20, size=3)
            cb = rng.integers(0, 20, size=3)
            shift = rng.integers(0, 15, size=3)

            def inner(c1, c2):
                cos1, sin1 = rope_tables(c1[None, :], split)
                cos2, sin2 = rope_tables(c2[None, :], split)
                from lumina_mini.numerics import apply_rotary

                rq = apply_rotary(Tensor(q[None, :], "f64"), cos1, sin1).data[0]
                rk = apply_rotary(Tensor(k[None, :], "f64"), cos2, sin2).data[0]
                return float(rq @ rk)

            base = inner(ca, cb)
            shifted = inner(ca + shift, cb + shift)
            assert abs(base - shifted) < 1e-5

    def test_bad_split_rejected(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 8)))
        with pytest.raises(ConfigError):
            apply_mrope(x, rope_tables(np.zeros((2, 3), dtype=np.int64), (4, 4, 2)))

    def test_joint_tables_slice_rowwise(self):
        # forward_batch builds one pair of tables and hands the text and image
        # paths row slices of it
        coords = assign_coords(5, 3, 4)
        for dtype in (np.float32, np.float64):
            joint = rope_tables(coords, (8, 4, 4), dtype=dtype, base=128.0)
            for part in (slice(None, 5), slice(5, None)):
                own = rope_tables(coords[part], (8, 4, 4), dtype=dtype, base=128.0)
                for table, expect in zip(joint, own):
                    np.testing.assert_array_equal(table[part], expect)


def reference_mha(x, coords, store, prefix, cfg):
    """Independent full multi-head attention in plain numpy (no GQA grouping)."""
    L = x.shape[0]
    H, hd = cfg.heads, cfg.head_dim
    q = (x @ store[f"{prefix}.attn.wq"].data).reshape(L, H, hd)
    k = (x @ store[f"{prefix}.attn.wk"].data).reshape(L, cfg.kv_heads, hd)
    v = (x @ store[f"{prefix}.attn.wv"].data).reshape(L, cfg.kv_heads, hd)

    def rms(a, g):
        return a / np.sqrt((a * a).mean(-1, keepdims=True) + cfg.rmsnorm_eps) * g

    q = rms(q, store[f"{prefix}.attn.qn"].data)
    k = rms(k, store[f"{prefix}.attn.kn"].data)
    cos, sin = rope_tables(coords, cfg.axes_split, dtype=x.dtype, base=cfg.rope_base)

    def rot(a):
        ar = a.reshape(*a.shape[:-1], -1, 2)
        out = np.stack([-ar[..., 1], ar[..., 0]], axis=-1)
        return out.reshape(a.shape)

    q = q * cos[:, None, :] + rot(q) * sin[:, None, :]
    k = k * cos[:, None, :] + rot(k) * sin[:, None, :]
    # repeat kv heads up to H (consecutive grouping)
    reps = H // cfg.kv_heads
    k = np.repeat(k, reps, axis=1)
    v = np.repeat(v, reps, axis=1)
    out = np.empty((L, H, hd))
    for h in range(H):
        logits = (q[:, h] @ k[:, h].T) / np.sqrt(hd)
        w = np.exp(logits - logits.max(-1, keepdims=True))
        w /= w.sum(-1, keepdims=True)
        out[:, h] = w @ v[:, h]
    return out.reshape(L, H * hd) @ store[f"{prefix}.attn.wo"].data


def model_rope(x, coords, store):
    """The rotary tables forward_batch builds for these coordinates."""
    cfg = store.config
    return rope_tables(coords, cfg.axes_split, dtype=x.data.dtype, base=cfg.rope_base)


def attention_one(x, coords, store, prefix):
    """attention_batch over one [L, dim] sequence: a batch of one."""
    rope = model_rope(x, coords, store)
    return attention_batch(x.reshape(1, *x.shape), rope, store, prefix).reshape(x.shape)


def block_one(x, coords, store, prefix, t_emb):
    """block_batch over one [L, dim] sequence; t_emb is [dim] or None."""
    if t_emb is not None:
        t_emb = t_emb.reshape(1, *t_emb.shape)
    rope = model_rope(x, coords, store)
    return block_batch(x.reshape(1, *x.shape), rope, store, prefix, t_emb).reshape(x.shape)


class TestJointAttention:
    def test_single_token_is_v_through_o(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=1, dtype="f64")
        x = Tensor(rng.standard_normal((1, cfg.dim)), "f64")
        out = attention_one(x, assign_coords(1, 0, 0), store, "blocks.0")

        # softmax over one key is 1, so output = per-head V routed through O
        v = (x.data @ store["blocks.0.attn.wv"].data).reshape(1, cfg.kv_heads, cfg.head_dim)
        v = np.repeat(v, cfg.heads // cfg.kv_heads, axis=1).reshape(1, -1)
        expect = v @ store["blocks.0.attn.wo"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=2, dtype="f64")
        x = rng.standard_normal((2 + 4, cfg.dim))
        coords = assign_coords(2, 2, 2)
        out = attention_one(Tensor(x, "f64"), coords, store, "blocks.0").data

        # swap two image tokens together with their coords
        perm = np.arange(6)
        perm[3], perm[5] = 5, 3
        out_p = attention_one(Tensor(x[perm], "f64"), coords[perm], store, "blocks.0").data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_matches_reference_mha_when_kv_equals_heads(self, rng):
        cfg = tiny_config(kv_heads=4)
        store = init_params(cfg, seed=3, dtype="f64")
        x = rng.standard_normal((7, cfg.dim))
        coords = assign_coords(3, 2, 2)
        out = attention_one(Tensor(x, "f64"), coords, store, "blocks.0").data
        ref = reference_mha(x, coords, store, "blocks.0", cfg)
        assert np.abs(out - ref).max() < 1e-6

    def test_gqa_matches_reference_with_grouping(self, rng):
        cfg = tiny_config()  # kv_heads=2 < heads=4
        store = init_params(cfg, seed=4, dtype="f64")
        x = rng.standard_normal((5, cfg.dim))
        coords = assign_coords(1, 2, 2)
        out = attention_one(Tensor(x, "f64"), coords, store, "blocks.0").data
        ref = reference_mha(x, coords, store, "blocks.0", cfg)
        assert np.abs(out - ref).max() < 1e-6

    def test_empty_sequence_rejected(self):
        cfg = tiny_config()
        store = init_params(cfg, seed=0)
        with pytest.raises(UsageError):
            attention_one(Tensor(np.zeros((0, cfg.dim))), np.zeros((0, 3), dtype=np.int64),
                          store, "blocks.0")


class TestSingleStreamBlock:
    def test_identity_at_init_with_conditioning(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=5)
        x = Tensor(rng.standard_normal((6, cfg.dim)).astype(np.float32))
        t_emb = timestep_embedding(0.3, store)
        out = block_one(x, assign_coords(2, 2, 2), store, "blocks.1", t_emb)
        assert (out.data == x.data).all()  # exact, not approximate

    def test_shape_preserved_without_conditioning(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=6)
        x = Tensor(rng.standard_normal((3, cfg.dim)).astype(np.float32))
        out = block_one(x, assign_coords(3, 0, 0), store, "text_proc.0", None)
        assert out.shape == x.shape
        assert not (out.data == x.data).all()  # plain sandwich block does act

    def test_adaln_receives_gradient(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=7, dtype="f64")
        x = Tensor(rng.standard_normal((6, cfg.dim)), "f64")
        t_emb = timestep_embedding(0.7, store)
        out = block_one(x, assign_coords(2, 2, 2), store, "blocks.0", t_emb)
        (out * out).sum().backward()
        assert np.abs(store["blocks.0.ada.w"].grad.data).max() > 0


class TestForward:
    @pytest.mark.parametrize("hw", [16, 32])
    def test_output_shape_mirrors_input(self, rng, hw):
        cfg = tiny_config()
        store = init_params(cfg, seed=8)
        img = Tensor(rng.standard_normal((3, hw, hw)).astype(np.float32))
        out = forward_batch([[1, 2, 3]], img.reshape(1, 3, hw, hw), [0.5], store)
        assert out.shape == (1, 3, hw, hw)

    def test_deterministic(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=9)
        img = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        a = forward_batch([[1, 2]], img.reshape(1, 3, 8, 8), [0.25], store).data
        b = forward_batch([[1, 2]], img.reshape(1, 3, 8, 8), [0.25], store).data
        assert (a == b).all()

    def test_out_of_vocab_rejected(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=10)
        img = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        with pytest.raises(DataError):
            forward_batch([[cfg.vocab_size]], img.reshape(1, 3, 8, 8), [0.5], store)

    def test_bad_extents_rejected(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=11)
        img = Tensor(rng.standard_normal((3, 9, 8)).astype(np.float32))
        with pytest.raises(ShapeError):
            forward_batch([[1]], img.reshape(1, 3, 9, 8), [0.5], store)

    def test_empty_text_supported(self, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=12)
        img = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        out = forward_batch([[]], img.reshape(1, 3, 8, 8), [0.5], store)
        assert out.shape == (1, 3, 8, 8)

    def test_fresh_network_outputs_zero_velocity(self, rng):
        # Blocks are identities and the output projection is zero-initialized.
        cfg = tiny_config()
        store = init_params(cfg, seed=13)
        img = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        out = forward_batch([[1, 2, 3]], img.reshape(1, 3, 8, 8), [0.9], store)
        assert (out.data == 0).all()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        cfg = tiny_config()
        store = init_params(cfg, seed=14)
        store.step = 42
        path = tmp_path / "model.lmck"
        save_checkpoint(path, store, meta={"note": "test"})
        back, extra, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert back.step == 42 and back.master_seed == 14
        assert back.names() == store.names()
        for name in store.names():
            assert (back[name].data == store[name].data).all()
        assert extra == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lmck"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        # one joint block at width 2 keeps the file small enough to cut everywhere
        cfg = ModelConfig(dim=2, heads=1, kv_heads=1, layers=1, text_processor_layers=0,
                          image_processor_layers=0, patch_size=1, vocab_size=2,
                          axes_split=(2, 0, 0), ffn_hidden=2, channels=1, t_embed_dim=2)
        path = tmp_path / "full.lmck"
        save_checkpoint(path, init_params(cfg, seed=0),
                        extra={"opt.m.tok_emb.w": Tensor(np.ones((2, 2)))})
        blob = path.read_bytes()
        cut = tmp_path / "cut.lmck"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)
        load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["missing", "misshapen", "unknown", "duplicate",
                                        "mixed_dtype"])
    def test_parameter_manifest_enforced(self, tmp_path, damage):
        full = init_params(tiny_config(), seed=16)
        entries = list(full.items())
        bias = full["final.proj.b"]
        if damage == "missing":
            entries = [(name, t) for name, t in entries if name != "final.proj.w"]
        elif damage == "misshapen":
            entries[-1] = ("final.proj.b", Tensor(np.zeros(5)))
        elif damage == "unknown":
            entries.append(("final.proj.extra", bias))
        elif damage == "duplicate":
            entries.append(("final.proj.b", bias))
        else:
            entries[-1] = ("final.proj.b", Tensor(bias.data, "f64"))
        path = tmp_path / f"{damage}.lmck"
        save_checkpoint(path, raw_store(full.config, entries))
        with pytest.raises(CheckpointError, match="final.proj"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        import lumina_mini.model.checkpoint as ckpt

        store = init_params(tiny_config(), seed=17)
        path = tmp_path / "model.lmck"
        save_checkpoint(path, store)
        before = path.read_bytes()

        def fail(f, t):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt, "write_tensor", fail)
        with pytest.raises(OSError):
            save_checkpoint(path, store)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.lmck"]

    def test_optimizer_entries_separated(self, tmp_path):
        cfg = tiny_config()
        store = init_params(cfg, seed=15)
        extra = {"opt.m.tok_emb.w": Tensor(np.ones((cfg.vocab_size, cfg.dim)))}
        path = tmp_path / "with_opt.lmck"
        save_checkpoint(path, store, extra=extra)
        back, opt, _ = load_checkpoint(path)
        assert set(opt) == {"opt.m.tok_emb.w"}
        assert "opt.m.tok_emb.w" not in back.names()
