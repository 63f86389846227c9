"""Lossless compression methods (paper §2).

From-scratch implementations of every method the paper evaluates —
Huffman, arithmetic, Lempel-Ziv with Huffman-coded pointers, and the
modified chunk-synchronizable Burrows-Wheeler pipeline — behind a uniform
:class:`~repro.compression.base.Codec` interface and a runtime registry.
"""

from .arithmetic import AdaptiveByteModel, ArithmeticCodec, ContextArithmeticCodec
from .base import Codec, CodecError, CorruptStreamError
from .bitio import BitReader, BitWriter
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    JUMBO_HEADER,
    Frame,
    FrameDecoder,
    decode_frame,
    encode_block_frame,
    encode_frame,
    encode_frame_into,
    encode_frame_parts,
    encode_jumbo_frame,
    is_jumbo_frame,
    parse_frame,
    unpack_jumbo_frame,
)
from .bwhuff import BurrowsWheelerCodec
from .bwt import bwt_inverse, bwt_transform, suffix_array
from .heap import keep_heap_resident
from .huffman import HuffmanCode, HuffmanCodec, huffman_code_lengths
from .identity import IdentityCodec
from .lz77 import Lz77Codec, tokenize
from .lzw import LzwCodec
from .mtf import mtf_decode, mtf_encode
from .native import (
    HAVE_LZ4,
    HAVE_ZSTD,
    NativeBwCodec,
    NativeLz4Codec,
    NativeLzCodec,
    NativeZstdCodec,
)
from .registry import (
    PAPER_METHODS,
    available_codecs,
    get_codec,
    register_codec,
    unregister_codec,
)
from .rle import rle_decode, rle_encode
from .streaming import StreamingCompressor, StreamingDecompressor
from .structured import (
    MAX_STRUCTURED_OUTPUT,
    ColumnarCodec,
    TemplateCodec,
    bitpack,
    bitunpack,
    delta_zigzag,
    undelta_zigzag,
    zigzag_decode,
    zigzag_encode,
)

# Once per process, before any codec runs; forked pool workers inherit it.
keep_heap_resident()

__all__ = [
    "AdaptiveByteModel",
    "ArithmeticCodec",
    "BitReader",
    "BitWriter",
    "BurrowsWheelerCodec",
    "Codec",
    "CodecError",
    "ContextArithmeticCodec",
    "CorruptStreamError",
    "DEFAULT_MAX_FRAME_SIZE",
    "Frame",
    "FrameDecoder",
    "HAVE_LZ4",
    "HAVE_ZSTD",
    "HuffmanCode",
    "HuffmanCodec",
    "IdentityCodec",
    "JUMBO_HEADER",
    "Lz77Codec",
    "LzwCodec",
    "NativeBwCodec",
    "NativeLz4Codec",
    "NativeLzCodec",
    "NativeZstdCodec",
    "ColumnarCodec",
    "MAX_STRUCTURED_OUTPUT",
    "PAPER_METHODS",
    "TemplateCodec",
    "StreamingCompressor",
    "StreamingDecompressor",
    "available_codecs",
    "bitpack",
    "bitunpack",
    "bwt_inverse",
    "bwt_transform",
    "delta_zigzag",
    "decode_frame",
    "encode_block_frame",
    "encode_frame",
    "encode_frame_into",
    "encode_frame_parts",
    "encode_jumbo_frame",
    "get_codec",
    "is_jumbo_frame",
    "huffman_code_lengths",
    "mtf_decode",
    "mtf_encode",
    "parse_frame",
    "register_codec",
    "rle_decode",
    "rle_encode",
    "suffix_array",
    "tokenize",
    "undelta_zigzag",
    "unpack_jumbo_frame",
    "unregister_codec",
    "zigzag_decode",
    "zigzag_encode",
]
