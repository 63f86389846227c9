"""Codec registry — the extensibility point the middleware relies on.

Paper §3.2: "a new compression method can be introduced at any time during
a system's operation".  In our implementation that means registering a
:class:`~repro.compression.base.Codec` factory here; the method id (the
codec ``name``) is what travels in middleware quality attributes, and both
endpoints resolve it through this registry.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .arithmetic import ArithmeticCodec, ContextArithmeticCodec
from .base import Codec, CodecError
from .bwhuff import BurrowsWheelerCodec
from .huffman import HuffmanCodec
from .identity import IdentityCodec
from .lz77 import Lz77Codec
from .lzw import LzwCodec
from .native import (
    HAVE_LZ4,
    HAVE_ZSTD,
    NativeBwCodec,
    NativeLz4Codec,
    NativeLzCodec,
    NativeZstdCodec,
)
from .structured import ColumnarCodec, TemplateCodec

__all__ = [
    "register_codec",
    "unregister_codec",
    "get_codec",
    "available_codecs",
    "PAPER_METHODS",
]

#: The four methods the paper's selector chooses among, plus "none",
#: in the order used by Figures 8 and 11 (1 = none, 2 = LZ, 3 = BW,
#: 4 = Huffman for the molecular run).
PAPER_METHODS = ("none", "huffman", "lempel-ziv", "burrows-wheeler")

_FACTORIES: Dict[str, Callable[[], Codec]] = {}
_INSTANCES: Dict[str, Codec] = {}


def register_codec(name: str, factory: Callable[[], Codec]) -> None:
    """Register a codec factory under ``name`` (replacing any previous one)."""
    if not name:
        raise ValueError("codec name must be non-empty")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_codec(name: str) -> None:
    """Remove a codec from the registry; unknown names raise ``CodecError``."""
    if name not in _FACTORIES:
        raise CodecError(f"unknown codec: {name!r}")
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def get_codec(name: str) -> Codec:
    """Return the shared instance for ``name`` (codecs are stateless)."""
    try:
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _FACTORIES[name]()
            _INSTANCES[name] = instance
        return instance
    except KeyError:
        raise CodecError(f"unknown codec: {name!r}") from None


def available_codecs() -> List[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_FACTORIES)


def _register_builtins() -> None:
    register_codec("none", IdentityCodec)
    register_codec("huffman", HuffmanCodec)
    register_codec("arithmetic", ArithmeticCodec)
    register_codec("arithmetic-o1", ContextArithmeticCodec)
    register_codec("lempel-ziv", Lz77Codec)
    register_codec("lzw", LzwCodec)
    register_codec("burrows-wheeler", BurrowsWheelerCodec)
    register_codec("lempel-ziv-native", NativeLzCodec)
    register_codec("burrows-wheeler-native", NativeBwCodec)
    # Optional fast-compressor tier: registered only when a binding
    # imports, so environments without zstd/lz4 lose the operating
    # points but keep a working registry (paper §3.2's "introduced at
    # any time" — availability is a per-endpoint fact).
    if HAVE_ZSTD:
        register_codec("zstd-native", NativeZstdCodec)
    if HAVE_LZ4:
        register_codec("lz4-native", NativeLz4Codec)
    # No chunked container codec: the paper's chunked codec parallelizes
    # at identical bytes instead (burrows-wheeler maps its chunks through
    # parallel.chunk_map, the one codec pool).
    # Structure-aware family: template-mined logs and columnar records.
    # Data-dependent by design — the selector only routes here when
    # data.analysis sniffing says the block looks structured.
    register_codec("template", TemplateCodec)
    register_codec("columnar", ColumnarCodec)


_register_builtins()
