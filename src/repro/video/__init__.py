"""Video substrate: frames, clips, synthetic scenes and the clip library."""

from .frame import Frame, LUMA_COEFFS, MAX_CHANNEL, luminance_to_gray_rgb, rgb_to_luminance
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_CHUNK_TARGET_BYTES,
    FrameChunk,
    HeterogeneousFrameError,
    autotune_chunk_size,
    chunk_spans,
)
from .clip import ArrayClip, ClipBase, LazyClip, VideoClip, concatenate
from .synthesis import (
    DEFAULT_RESOLUTION,
    ActionScene,
    BrightScene,
    CreditsScene,
    DarkScene,
    FadeScene,
    FlashScene,
    GradientScene,
    SceneGenerator,
    SceneSpec,
    ScriptedClipFactory,
)
from .library import (
    EXTENDED_CLIP_NAMES,
    PAPER_CLIP_NAMES,
    clip_script,
    make_clip,
    paper_library,
)
from .io import clip_nbytes, load_clip, save_clip
from .codec import CodecModel, EncodedClip, GopPattern

__all__ = [
    "Frame",
    "LUMA_COEFFS",
    "MAX_CHANNEL",
    "rgb_to_luminance",
    "luminance_to_gray_rgb",
    "ClipBase",
    "VideoClip",
    "LazyClip",
    "ArrayClip",
    "concatenate",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CHUNK_TARGET_BYTES",
    "FrameChunk",
    "HeterogeneousFrameError",
    "autotune_chunk_size",
    "chunk_spans",
    "DEFAULT_RESOLUTION",
    "SceneGenerator",
    "SceneSpec",
    "ScriptedClipFactory",
    "DarkScene",
    "BrightScene",
    "GradientScene",
    "FadeScene",
    "CreditsScene",
    "ActionScene",
    "FlashScene",
    "PAPER_CLIP_NAMES",
    "EXTENDED_CLIP_NAMES",
    "clip_script",
    "make_clip",
    "paper_library",
    "save_clip",
    "load_clip",
    "clip_nbytes",
    "GopPattern",
    "CodecModel",
    "EncodedClip",
]
