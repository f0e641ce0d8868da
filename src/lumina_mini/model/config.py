"""Architecture hyperparameters and the parameter-shape manifest.

``param_shapes`` is the single source of truth for what parameters exist:
initialization, counting, and checkpoint validation all derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class ModelConfig:
    dim: int = 192
    heads: int = 6
    kv_heads: int = 2
    layers: int = 6
    text_processor_layers: int = 2
    image_processor_layers: int = 2
    patch_size: int = 2
    vocab_size: int = 64
    axes_split: tuple = (16, 8, 8)
    rmsnorm_eps: float = 1e-5
    ffn_hidden: int = 0  # 0 means derive: round(8/3 * dim) to a multiple of 32
    channels: int = 3
    t_embed_dim: int = 256
    # rotary frequency base, matched to the coordinate range: toy coordinates
    # span 0..20, where the long-sequence base of 10000 leaves most frequency
    # dims unused and slows position binding badly
    rope_base: float = 128.0

    def __post_init__(self):
        self.axes_split = tuple(int(a) for a in self.axes_split)
        if self.ffn_hidden == 0:
            self.ffn_hidden = int(round(8 * self.dim / 3 / 32)) * 32
        self.validate()

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def validate(self) -> None:
        if self.heads < 1 or self.kv_heads < 1:
            raise ConfigError(f"heads and kv_heads must be >= 1, got {self.heads}, {self.kv_heads}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.heads % self.kv_heads:
            raise ConfigError(f"heads {self.heads} not divisible by kv_heads {self.kv_heads}")
        if len(self.axes_split) != 3:
            raise ConfigError(f"axes_split needs 3 entries, got {self.axes_split}")
        if sum(self.axes_split) != self.head_dim:
            raise ConfigError(
                f"axes_split {self.axes_split} must sum to head_dim {self.head_dim}"
            )
        if any(a % 2 for a in self.axes_split):
            raise ConfigError(f"axes_split entries must be even (rotary pairs): {self.axes_split}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.t_embed_dim < 2 or self.t_embed_dim % 2:
            raise ConfigError(f"t_embed_dim must be even and >= 2, got {self.t_embed_dim}")
        if self.ffn_hidden < 0:
            raise ConfigError(f"ffn_hidden must be >= 0, got {self.ffn_hidden}")
        depths = (self.layers, self.text_processor_layers, self.image_processor_layers)
        if min(depths) < 0:
            raise ConfigError(
                f"layers, text_processor_layers and image_processor_layers must be >= 0, "
                f"got {depths}"
            )
        if not self.rope_base > 0:
            raise ConfigError(f"rope_base must be > 0, got {self.rope_base}")


def reference_config() -> ModelConfig:
    """The full-scale configuration: 2304 wide, 24 heads, 8 KV heads, 26 blocks."""
    return ModelConfig(
        dim=2304,
        heads=24,
        kv_heads=8,
        layers=26,
        text_processor_layers=2,
        image_processor_layers=2,
        patch_size=2,
        vocab_size=64,
        axes_split=(48, 24, 24),
        channels=16,
        rope_base=10000.0,
    )


def _block_shapes(cfg: ModelConfig, prefix: str, adaln: bool):
    d, hd = cfg.dim, cfg.head_dim
    qdim = cfg.heads * hd
    kvdim = cfg.kv_heads * hd
    shapes = [
        (f"{prefix}.attn.wq", (d, qdim)),
        (f"{prefix}.attn.wk", (d, kvdim)),
        (f"{prefix}.attn.wv", (d, kvdim)),
        (f"{prefix}.attn.wo", (qdim, d)),
        (f"{prefix}.attn.qn", (cfg.heads, hd)),
        (f"{prefix}.attn.kn", (cfg.kv_heads, hd)),
        (f"{prefix}.norm1.g", (d,)),
        (f"{prefix}.norm1_post.g", (d,)),
        (f"{prefix}.norm2.g", (d,)),
        (f"{prefix}.norm2_post.g", (d,)),
        (f"{prefix}.ffn.wg", (d, cfg.ffn_hidden)),
        (f"{prefix}.ffn.wu", (d, cfg.ffn_hidden)),
        (f"{prefix}.ffn.wd", (cfg.ffn_hidden, d)),
    ]
    if adaln:
        shapes.append((f"{prefix}.ada.w", (d, 6 * d)))
        shapes.append((f"{prefix}.ada.b", (6 * d,)))
    return shapes


def param_shapes(cfg: ModelConfig):
    """Ordered (name, shape) pairs for every parameter of the network."""
    d = cfg.dim
    patch_in = cfg.channels * cfg.patch_size * cfg.patch_size
    shapes = [
        ("tok_emb.w", (cfg.vocab_size, d)),
        ("t_embed.fc1.w", (cfg.t_embed_dim, d)),
        ("t_embed.fc1.b", (d,)),
        ("t_embed.fc2.w", (d, d)),
        ("t_embed.fc2.b", (d,)),
        ("patch_emb.w", (patch_in, d)),
        ("patch_emb.b", (d,)),
    ]
    for i in range(cfg.text_processor_layers):
        shapes += _block_shapes(cfg, f"text_proc.{i}", adaln=False)
    for i in range(cfg.image_processor_layers):
        shapes += _block_shapes(cfg, f"img_proc.{i}", adaln=True)
    for i in range(cfg.layers):
        shapes += _block_shapes(cfg, f"blocks.{i}", adaln=True)
    shapes += [
        ("final.ada.w", (d, 2 * d)),
        ("final.ada.b", (2 * d,)),
        ("final.proj.w", (d, patch_in)),
        ("final.proj.b", (patch_in,)),
    ]
    return shapes


def count_params(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in param_shapes(cfg))
