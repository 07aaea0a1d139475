"""DEFLATE-like lossless codec: LZ77 tokens + two canonical Huffman alphabets.

This is the engine behind the GZIP baseline.  The container is *our own*
(not zlib-interoperable — we implement the algorithm, not the RFC 1951 bit
layout), but the coding model is DEFLATE's: a literal/length alphabet of
286 symbols and a distance alphabet of 30 symbols, each with the standard
base+extra-bits value ranges, both entropy-coded with canonical Huffman.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitio import BitReader, BitWriter, pack_varlen
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lz77 import lz77_parse, lz77_reconstruct

__all__ = ["deflate_compress", "deflate_decompress"]

_MAGIC = 0x5244464C  # 'RDFL'


def _build_value_codes(
    bases_start: int, groups: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Build (base, extra_bits) tables from (count, extra_bits) groups."""
    bases, extras = [], []
    value = bases_start
    for count, extra in groups:
        for _ in range(count):
            bases.append(value)
            extras.append(extra)
            value += 1 << extra
    return np.array(bases, dtype=np.int64), np.array(extras, dtype=np.int64)


# DEFLATE length codes 257..284 cover lengths 3..257; code 285 is length 258.
_LEN_BASE, _LEN_EXTRA = _build_value_codes(
    3, [(8, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5)]
)
_LEN_BASE = np.append(_LEN_BASE, 258)
_LEN_EXTRA = np.append(_LEN_EXTRA, 0)

# DEFLATE distance codes 0..29 cover distances 1..32768.
_DIST_BASE, _DIST_EXTRA = _build_value_codes(
    1, [(4, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
        (2, 8), (2, 9), (2, 10), (2, 11), (2, 12), (2, 13)]
)

_NUM_LITLEN = 286
_NUM_DIST = 30


def _value_to_code(values: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Map raw lengths/distances to their code indices via the base table."""
    return np.searchsorted(bases, values, side="right") - 1


def deflate_compress(data: bytes, max_chain: int = 16, lazy: bool = True) -> bytes:
    """Losslessly compress ``data``; inverse of :func:`deflate_decompress`."""
    literals, lengths, distances = lz77_parse(data, max_chain=max_chain, lazy=lazy)
    ntok = literals.size
    is_match = lengths > 0

    litlen_syms = np.where(is_match, 0, literals)
    len_codes = np.zeros(ntok, dtype=np.int64)
    if is_match.any():
        len_codes[is_match] = _value_to_code(lengths[is_match], _LEN_BASE)
        litlen_syms = np.where(is_match, 257 + len_codes, litlen_syms)
    dist_codes = np.zeros(ntok, dtype=np.int64)
    if is_match.any():
        dist_codes[is_match] = _value_to_code(distances[is_match], _DIST_BASE)

    litlen_codec = HuffmanCodec.from_symbols(litlen_syms, _NUM_LITLEN, 15)
    dist_alphabet_syms = dist_codes[is_match]
    dist_codec = HuffmanCodec.from_symbols(
        dist_alphabet_syms if dist_alphabet_syms.size else np.zeros(0, dtype=np.int64),
        _NUM_DIST,
        15,
    )

    # Four interleaved fields per token: litlen codeword, length extra bits,
    # distance codeword, distance extra bits (zero width where absent).
    f_vals = np.zeros((ntok, 4), dtype=np.uint64)
    f_wids = np.zeros((ntok, 4), dtype=np.int64)
    f_vals[:, 0] = litlen_codec.codes[litlen_syms]
    f_wids[:, 0] = litlen_codec.lengths[litlen_syms]
    if is_match.any():
        f_vals[is_match, 1] = (lengths[is_match] - _LEN_BASE[len_codes[is_match]]).astype(np.uint64)
        f_wids[is_match, 1] = _LEN_EXTRA[len_codes[is_match]]
        f_vals[is_match, 2] = dist_codec.codes[dist_codes[is_match]]
        f_wids[is_match, 2] = dist_codec.lengths[dist_codes[is_match]]
        f_vals[is_match, 3] = (distances[is_match] - _DIST_BASE[dist_codes[is_match]]).astype(np.uint64)
        f_wids[is_match, 3] = _DIST_EXTRA[dist_codes[is_match]]
    payload, nbits = pack_varlen(f_vals.ravel(), f_wids.ravel())

    w = BitWriter()
    w.write(_MAGIC, 32)
    w.write(len(data), 48)
    w.write(ntok, 48)
    w.write(nbits, 48)
    litlen_codec.write_table(w)
    dist_codec.write_table(w)
    return w.getvalue() + payload.tobytes()


def deflate_decompress(blob: bytes) -> bytes:
    """Decompress a :func:`deflate_compress` stream.

    Corrupt or truncated input raises ``ValueError``, never ``EOFError``
    or ``IndexError``.
    """
    try:
        return _deflate_decompress(blob)
    except (EOFError, IndexError) as exc:
        raise ValueError(f"corrupt deflate stream: {exc}") from exc


def _deflate_decompress(blob: bytes) -> bytes:
    r = BitReader(blob)
    if r.read(32) != _MAGIC:
        raise ValueError("not a repro-deflate stream")
    orig_size = r.read(48)
    ntok = r.read(48)
    nbits = r.read(48)
    litlen_codec = HuffmanCodec.read_table(r)
    dist_codec = HuffmanCodec.read_table(r)
    payload_start = (r.bitpos + 7) // 8
    # Every codeword is at least one bit long (a one-symbol alphabet
    # still gets a 1-bit code), so a token count above the payload's bit
    # count is corrupt; checking it here keeps the token arrays below
    # from being sized by a flipped header field.
    if nbits > 8 * (len(blob) - payload_start):
        raise ValueError(
            f"corrupt deflate stream: {nbits} payload bits declared, "
            f"{8 * max(0, len(blob) - payload_start)} present"
        )
    if ntok > nbits:
        raise ValueError(
            f"corrupt deflate stream: {ntok} tokens in {nbits} bits"
        )
    reader = BitReader(blob[payload_start:])

    litlen_lookup = _decode_dict(litlen_codec)
    dist_lookup = _decode_dict(dist_codec)

    literals = np.zeros(ntok, dtype=np.int64)
    lengths = np.zeros(ntok, dtype=np.int64)
    distances = np.zeros(ntok, dtype=np.int64)
    for t in range(ntok):
        sym = _read_symbol(reader, litlen_lookup, litlen_codec.max_len)
        if sym < 257:
            literals[t] = sym
        else:
            code = sym - 257
            lengths[t] = _LEN_BASE[code] + reader.read(int(_LEN_EXTRA[code]))
            dcode = _read_symbol(reader, dist_lookup, dist_codec.max_len)
            distances[t] = _DIST_BASE[dcode] + reader.read(int(_DIST_EXTRA[dcode]))
    if reader.bitpos != nbits:
        raise ValueError("corrupt deflate stream: payload length mismatch")
    out = lz77_reconstruct(literals, lengths, distances)
    if len(out) != orig_size:
        raise ValueError("corrupt deflate stream: size mismatch")
    return out


def _decode_dict(codec: HuffmanCodec) -> dict[tuple[int, int], int]:
    return {
        (int(codec.lengths[s]), int(codec.codes[s])): int(s)
        for s in np.flatnonzero(codec.lengths)
    }


def _read_symbol(
    reader: BitReader, lookup: dict[tuple[int, int], int], max_len: int
) -> int:
    code, length = 0, 0
    while True:
        code = (code << 1) | reader.read(1)
        length += 1
        sym = lookup.get((length, code))
        if sym is not None:
            return sym
        if length > max_len:
            raise ValueError("corrupt deflate stream: invalid codeword")
