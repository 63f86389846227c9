"""Adaptive arithmetic coding (paper §2.2, refs [21, 22]).

This is the classic Witten-Neal-Cleary integer implementation: the coder
keeps a ``[low, high)`` interval in 32-bit fixed point, narrows it by the
model's cumulative frequencies for each symbol, and emits bits (plus
pending underflow bits) as the interval's leading bits settle.

The model is adaptive order-0: both sides start from uniform counts and
increment the count of each symbol after coding it, so no frequency table
travels with the payload.  A dedicated end-of-stream symbol (index 256)
terminates decoding.

The paper finds arithmetic coding unattractive for its application class
(good ratios only on low-entropy data, poor speed — Figure 1's column), and
this per-symbol Python loop is faithfully the slowest codec here as well.
"""

from __future__ import annotations

from typing import List

from .base import Codec, CorruptStreamError
from .bitio import BitReader, BitWriter

__all__ = ["ArithmeticCodec", "ContextArithmeticCodec", "AdaptiveByteModel"]

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Rescale threshold; keeping totals below 2**16 preserves precision with
#: 32-bit interval arithmetic.
_MAX_TOTAL = 1 << 16

_EOF_SYMBOL = 256
_ALPHABET = 257


class AdaptiveByteModel:
    """Order-0 adaptive frequency model over bytes plus an EOF symbol.

    Cumulative totals are maintained in a Fenwick (binary indexed) tree so
    both update and cumulative lookup are O(log alphabet).
    """

    def __init__(self) -> None:
        self._tree = [0] * (_ALPHABET + 1)
        self._total = 0
        for symbol in range(_ALPHABET):
            self._add(symbol, 1)

    def _add(self, symbol: int, delta: int) -> None:
        index = symbol + 1
        while index <= _ALPHABET:
            self._tree[index] += delta
            index += index & (-index)
        self._total += delta

    def cumulative(self, symbol: int) -> int:
        """Sum of frequencies of symbols strictly below ``symbol``."""
        index = symbol
        total = 0
        tree = self._tree
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    def frequency(self, symbol: int) -> int:
        return self.cumulative(symbol + 1) - self.cumulative(symbol)

    @property
    def total(self) -> int:
        return self._total

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol``, rescaling when saturated."""
        self._add(symbol, 32)
        if self._total >= _MAX_TOTAL:
            self._rescale()

    def _rescale(self) -> None:
        frequencies = [
            max(1, self.frequency(symbol) // 2) for symbol in range(_ALPHABET)
        ]
        self._tree = [0] * (_ALPHABET + 1)
        self._total = 0
        for symbol, freq in enumerate(frequencies):
            self._add(symbol, freq)

    def find(self, cumulative_value: int) -> int:
        """Return the symbol whose interval contains ``cumulative_value``."""
        index = 0
        mask = 1
        while mask * 2 <= _ALPHABET:
            mask *= 2
        tree = self._tree
        remaining = cumulative_value
        while mask:
            probe = index + mask
            if probe <= _ALPHABET and tree[probe] <= remaining:
                index = probe
                remaining -= tree[probe]
            mask >>= 1
        return index


class ArithmeticCodec(Codec):
    """Adaptive order-0 arithmetic codec over bytes."""

    name = "arithmetic"
    family = "entropy"

    def compress(self, data: bytes) -> bytes:
        model = AdaptiveByteModel()
        writer = BitWriter()
        low = 0
        high = _TOP
        pending = 0

        def emit(bit: int) -> None:
            nonlocal pending
            writer.write_bit(bit)
            if pending:
                writer.write_bits((bit ^ 1) * ((1 << pending) - 1), pending)
                pending = 0

        for symbol in list(data) + [_EOF_SYMBOL]:
            span = high - low + 1
            total = model.total
            cum_low = model.cumulative(symbol)
            cum_high = cum_low + model.frequency(symbol)
            high = low + span * cum_high // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    emit(0)
                elif low >= _HALF:
                    emit(1)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low *= 2
                high = high * 2 + 1
            model.update(symbol)
        pending += 1
        if low < _QUARTER:
            emit(0)
        else:
            emit(1)
        return writer.getvalue()

    def decompress(self, payload: bytes) -> bytes:
        model = AdaptiveByteModel()
        reader = _padded_reader(payload)
        low = 0
        high = _TOP
        value = 0
        for _ in range(_CODE_BITS):
            value = (value << 1) | _next_bit(reader)
        out: List[int] = []
        while True:
            span = high - low + 1
            total = model.total
            scaled = ((value - low + 1) * total - 1) // span
            symbol = model.find(scaled)
            cum_low = model.cumulative(symbol)
            cum_high = cum_low + model.frequency(symbol)
            high = low + span * cum_high // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low *= 2
                high = high * 2 + 1
                value = (value << 1) | _next_bit(reader)
            model.update(symbol)
            if symbol == _EOF_SYMBOL:
                return bytes(out)
            out.append(symbol)


def _padded_reader(payload: bytes) -> BitReader:
    """Reader over ``payload`` followed by the zero padding WNC decoding allows.

    The decoder runs ``_CODE_BITS`` bits ahead of the symbols it has
    settled, so it reads past the encoder's last bit — but the encoder's
    flush writes at least two bits after its last shift, which bounds the
    overrun of an honest stream at ``_CODE_BITS - 2`` bits.  A stream that
    needs more has lost its end-of-stream symbol; without the bound the
    decoder would turn padding into symbols (hundreds per bit once the
    model saturates) for as long as it was allowed to.
    """
    return BitReader(bytes(payload) + bytes(_CODE_BITS // 8))


def _next_bit(reader: BitReader) -> int:
    """Read a bit of a :func:`_padded_reader`; past the padding is corruption."""
    try:
        return reader.read_bit()
    except EOFError:
        raise CorruptStreamError("stream ends before its end-of-stream symbol") from None


class ContextArithmeticCodec(Codec):
    """Order-1 context-modelling arithmetic codec.

    The order-0 coder ignores "an item's environment" (§2.3's critique);
    conditioning the model on the previous byte captures first-order
    structure (digraphs in text, stride patterns in binary records) while
    remaining a pure entropy coder.  One adaptive model is kept per
    context, created lazily — text typically touches a few dozen.

    Shares all interval mechanics with :class:`ArithmeticCodec`; only the
    model lookup differs.  Same wire discipline: adaptive models on both
    ends, EOF symbol terminates.
    """

    name = "arithmetic-o1"
    family = "entropy"

    def compress(self, data: bytes) -> bytes:
        models: dict = {}
        writer = BitWriter()
        low = 0
        high = _TOP
        pending = 0

        def emit(bit: int) -> None:
            nonlocal pending
            writer.write_bit(bit)
            if pending:
                writer.write_bits((bit ^ 1) * ((1 << pending) - 1), pending)
                pending = 0

        context = 0
        for symbol in list(data) + [_EOF_SYMBOL]:
            model = models.get(context)
            if model is None:
                model = AdaptiveByteModel()
                models[context] = model
            span = high - low + 1
            total = model.total
            cum_low = model.cumulative(symbol)
            cum_high = cum_low + model.frequency(symbol)
            high = low + span * cum_high // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    emit(0)
                elif low >= _HALF:
                    emit(1)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low *= 2
                high = high * 2 + 1
            model.update(symbol)
            context = symbol if symbol != _EOF_SYMBOL else 0
        pending += 1
        if low < _QUARTER:
            emit(0)
        else:
            emit(1)
        return writer.getvalue()

    def decompress(self, payload: bytes) -> bytes:
        models: dict = {}
        reader = _padded_reader(payload)
        low = 0
        high = _TOP
        value = 0
        for _ in range(_CODE_BITS):
            value = (value << 1) | _next_bit(reader)
        out: List[int] = []
        context = 0
        while True:
            model = models.get(context)
            if model is None:
                model = AdaptiveByteModel()
                models[context] = model
            span = high - low + 1
            total = model.total
            scaled = ((value - low + 1) * total - 1) // span
            symbol = model.find(scaled)
            cum_low = model.cumulative(symbol)
            cum_high = cum_low + model.frequency(symbol)
            high = low + span * cum_high // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low *= 2
                high = high * 2 + 1
                value = (value << 1) | _next_bit(reader)
            model.update(symbol)
            if symbol == _EOF_SYMBOL:
                return bytes(out)
            out.append(symbol)
            context = symbol
