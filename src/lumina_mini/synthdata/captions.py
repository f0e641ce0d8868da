"""Multi-granularity captions and system-prompt templating.

Granularities nest: every token of a coarser level appears in all finer
levels, and token counts strictly increase.

    tags     color shape
    short    + position (grid cell plus its row/column phrasing)
    medium   + size and luminance descriptors
    detailed + background, finish, palette

All added tokens are deterministic functions of the scene, so extra length
is extra information, never padding. Coarser captions are prefixes of finer
ones, which keeps every token at a stable position in the padded prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .scene import LUM_JITTER_MAX, SIZE_JITTER_MAX, Scene
from .vocab import (
    BG_NAMES,
    CELL_NAMES,
    COL_NAMES,
    COLOR_NAMES,
    FINISH_NAMES,
    LUM_NAMES,
    PAD,
    PALETTE_NAMES,
    PROMPT_START,
    ROW_NAMES,
    SIZE_NAMES,
    TEMPLATE_TOKENS,
    Vocabulary,
)

GRANULARITIES = ("tags", "short", "medium", "detailed")
WARM_COLORS = frozenset(("red", "yellow", "magenta"))


@dataclass
class Caption:
    granularity: str
    tokens: list  # vocabulary ids


def _size_token(scene: Scene) -> str:
    third = SIZE_JITTER_MAX / 3.0
    if scene.size_jitter < -third:
        return SIZE_NAMES[0]
    if scene.size_jitter > third:
        return SIZE_NAMES[2]
    return SIZE_NAMES[1]


def _lum_token(scene: Scene) -> str:
    third = LUM_JITTER_MAX / 3.0
    if scene.luminance_jitter < -third:
        return LUM_NAMES[0]
    if scene.luminance_jitter > third:
        return LUM_NAMES[2]
    return LUM_NAMES[1]


def caption_words(scene: Scene, granularity: str) -> list:
    """Caption as vocabulary words, coarse levels prefixing finer ones."""
    if granularity not in GRANULARITIES:
        raise ConfigError(f"unknown granularity {granularity!r}, expected {GRANULARITIES}")
    words = [scene.color, scene.shape]
    if granularity == "tags":
        return words
    row, col = divmod(scene.cell, 3)
    words += [CELL_NAMES[scene.cell], ROW_NAMES[row], COL_NAMES[col]]
    if granularity == "short":
        return words
    words += [_size_token(scene), _lum_token(scene)]
    if granularity == "medium":
        return words
    words += [
        BG_NAMES[0],
        FINISH_NAMES[0] if scene.quality >= 0.5 else FINISH_NAMES[1],
        PALETTE_NAMES[0] if scene.color in WARM_COLORS else PALETTE_NAMES[1],
    ]
    return words


def caption_scene(scene: Scene, granularity: str, vocab: Vocabulary) -> Caption:
    return Caption(granularity, vocab.encode(caption_words(scene, granularity)))


def apply_system_prompt(caption_tokens, template: str, vocab: Vocabulary) -> list:
    """Prepend the template marker and the prompt-start separator."""
    if template not in TEMPLATE_TOKENS:
        raise ConfigError(f"unknown template {template!r}, expected one of A, B, C")
    return [vocab.id(TEMPLATE_TOKENS[template]), vocab.id(PROMPT_START)] + list(caption_tokens)


def unconditional_tokens(template: str, vocab: Vocabulary) -> list:
    """The caption-free prompt: template marker plus separator only."""
    return apply_system_prompt([], template, vocab)


# template marker + separator + the longest (detailed) caption
PROMPT_LEN = 2 + 10


def pad_prompt(tokens, vocab: Vocabulary, length: int = PROMPT_LEN) -> list:
    """Right-pad a templated prompt to a fixed length with the pad token.

    Training and generation both use fixed-length prompts, which keeps batch
    geometry uniform without attention masks; the pad token is part of the
    vocabulary and carries no scene information.
    """
    tokens = list(tokens)
    if len(tokens) > length:
        raise ConfigError(f"prompt of {len(tokens)} tokens exceeds padded length {length}")
    return tokens + [vocab.id(PAD)] * (length - len(tokens))


def encode_prompt(caption_tokens, template: str, vocab: Vocabulary) -> list:
    """The model's text input: system prompt, caption, then padding to
    PROMPT_LEN. No caption tokens gives the unconditional prompt. Training,
    sampling and evaluation all encode prompts here, so they agree."""
    return pad_prompt(apply_system_prompt(caption_tokens, template, vocab), vocab)
