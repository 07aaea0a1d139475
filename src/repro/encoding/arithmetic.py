"""Adaptive binary arithmetic coding (range coder).

An optional alternative entropy stage for the quantization codes — the
paper's variable-length encoder is Huffman, whose per-symbol cost is an
integer number of bits; arithmetic coding removes that rounding loss,
which matters exactly in the high-hit-rate regime where one code carries
almost all the probability mass (Fig. 3a).  Exposed through
``entropy_coder="arithmetic"`` on the compressor as an explicitly
out-of-paper extension.

Design: classic 32-bit binary range coder with carry propagation and
per-context adaptive probabilities.  Integers are binarized as unary
bucket index (Elias-gamma-style: bit-length, then offset bits), each
unary position owning its own adaptive context; offset bits are coded
with a fixed 1/2 model.  Encoding and decoding are scalar Python —
arithmetic decoding is inherently sequential — so this stage suits
moderate sizes; Huffman remains the default.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "encode_symbols", "decode_symbols"]

_TOP = 1 << 24
_BOT = 1 << 16
_MASK = (1 << 32) - 1
_PROB_BITS = 12
_PROB_ONE = 1 << _PROB_BITS
_ADAPT = 5  # adaptation shift: smaller = faster adaptation
#: Adaptation stops once ``p >> _ADAPT`` (or ``(_PROB_ONE - p) >> _ADAPT``)
#: is zero, so a context's probability never leaves
#: ``[_P_MIN, _PROB_ONE - _P_MIN]``.
_P_MIN = (1 << _ADAPT) - 1
#: Fewest output bits one adaptive decision can cost.  A decision keeps
#: at most ``1 - _P_MIN / _PROB_ONE`` of the range, plus integer-split
#: slack below ``_P_MIN / range`` with ``range >= _BOT``; the encoder's
#: output is at least the sum of ``-log2`` of those ratios.
_MIN_DECISION_BITS = -math.log2(1.0 - _P_MIN / _PROB_ONE + _P_MIN / _BOT)


class _Context:
    __slots__ = ("p",)

    def __init__(self) -> None:
        self.p = _PROB_ONE // 2  # probability of bit == 1

    def update(self, bit: int) -> None:
        if bit:
            self.p += (_PROB_ONE - self.p) >> _ADAPT
        else:
            self.p -= self.p >> _ADAPT


class ArithmeticEncoder:
    """Carry-less 32-bit range encoder with adaptive binary contexts."""

    def __init__(self) -> None:
        self.low = 0
        self.range = _MASK
        self.out = bytearray()

    def _normalize(self) -> None:
        while True:
            if (self.low ^ (self.low + self.range)) < _TOP:
                pass  # top byte settled: shift it out
            elif self.range < _BOT:
                self.range = (-self.low) & (_BOT - 1)  # force carry-free
            else:
                break
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK
            self.range = (self.range << 8) & _MASK

    def encode_bit(self, ctx: _Context, bit: int) -> None:
        split = (self.range >> _PROB_BITS) * ctx.p
        if bit:
            self.range = split
        else:
            self.low = (self.low + split + 1) & _MASK
            self.range -= split + 1
        ctx.update(bit)
        self._normalize()

    def encode_bit_raw(self, bit: int) -> None:
        split = self.range >> 1
        if bit:
            self.range = split
        else:
            self.low = (self.low + split + 1) & _MASK
            self.range -= split + 1
        self._normalize()

    def finish(self) -> bytes:
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK
        return bytes(self.out)


class ArithmeticDecoder:
    """Decoder mirroring :class:`ArithmeticEncoder` bit for bit."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.low = 0
        self.range = _MASK
        self.code = 0
        for _ in range(4):
            self.code = ((self.code << 8) | self._next_byte()) & _MASK

    def _next_byte(self) -> int:
        byte = self.data[self.pos] if self.pos < len(self.data) else 0
        self.pos += 1
        return byte

    def _normalize(self) -> None:
        while True:
            if (self.low ^ (self.low + self.range)) < _TOP:
                pass
            elif self.range < _BOT:
                self.range = (-self.low) & (_BOT - 1)
            else:
                break
            self.code = ((self.code << 8) | self._next_byte()) & _MASK
            self.low = (self.low << 8) & _MASK
            self.range = (self.range << 8) & _MASK

    def decode_bit(self, ctx: _Context) -> int:
        split = (self.range >> _PROB_BITS) * ctx.p
        offset = (self.code - self.low) & _MASK
        if offset <= split:
            bit = 1
            self.range = split
        else:
            bit = 0
            self.low = (self.low + split + 1) & _MASK
            self.range -= split + 1
        ctx.update(bit)
        self._normalize()
        return bit

    def decode_bit_raw(self) -> int:
        split = self.range >> 1
        offset = (self.code - self.low) & _MASK
        if offset <= split:
            bit = 1
            self.range = split
        else:
            bit = 0
            self.low = (self.low + split + 1) & _MASK
            self.range -= split + 1
        self._normalize()
        return bit


def encode_symbols(symbols: np.ndarray, max_bits: int = 32) -> bytes:
    """Encode non-negative ints: adaptive unary bit-length + raw offset."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and symbols.min() < 0:
        raise ValueError("symbols must be non-negative")
    enc = ArithmeticEncoder()
    length_ctx = [_Context() for _ in range(max_bits + 1)]
    for s in symbols.tolist():
        nbits = int(s).bit_length()
        if nbits > max_bits:
            raise ValueError(f"symbol {s} exceeds max_bits={max_bits}")
        for level in range(nbits):
            enc.encode_bit(length_ctx[level], 1)
        if nbits < max_bits:
            enc.encode_bit(length_ctx[nbits], 0)
        for b in range(nbits - 2, -1, -1):  # below the implicit MSB
            enc.encode_bit_raw((s >> b) & 1)
    return enc.finish()


def decode_symbols(
    data: bytes | memoryview, count: int, max_bits: int = 32
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`.

    Every symbol codes at least one adaptive decision, so ``count`` is
    capped by what ``len(data)`` bytes can hold; a larger ``count`` (a
    corrupt header) raises ``ValueError`` before anything is allocated.
    """
    if max_bits >= 1 and count * _MIN_DECISION_BITS > 8 * len(data):
        raise ValueError(
            f"corrupt arithmetic stream: {count} symbols cannot fit in "
            f"{len(data)} bytes"
        )
    dec = ArithmeticDecoder(data)
    length_ctx = [_Context() for _ in range(max_bits + 1)]
    out = np.zeros(count, dtype=np.int64)
    for i in range(count):
        nbits = 0
        while nbits < max_bits and dec.decode_bit(length_ctx[nbits]):
            nbits += 1
        if nbits == 0:
            out[i] = 0
            continue
        value = 1
        for _ in range(nbits - 1):
            value = (value << 1) | dec.decode_bit_raw()
        out[i] = value
    return out
