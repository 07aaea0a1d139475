"""Corrupted/truncated containers must fail with a clean ``ValueError``.

Covers both generations: truncation of a v1 ('SZRP') container at every
byte boundary, truncation of a tiled v2 ('SZRT') container at every
section boundary, tile CRC mismatches, and the header fields an attacker
(or a bad disk) can inflate into giant allocations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunked import (
    TiledReader,
    compress_tiled,
    decompress_region,
    decompress_tiled,
)
from repro.chunked.format import TAIL_BYTES
from repro.core import compress, decompress
from repro.core.predictor import MAX_LAYERS


def _field(shape, seed=3):
    rng = np.random.default_rng(seed)
    return (
        np.sin(np.arange(np.prod(shape)).reshape(shape) / 9.0)
        + 0.05 * rng.standard_normal(shape)
    ).astype(np.float32)


class TestV1Truncation:
    def test_every_prefix_fails_cleanly(self):
        """Cutting a v1 container at *any* byte must raise ValueError or
        still decode to the recorded shape — never IndexError, KeyError,
        struct noise, or a giant allocation."""
        data = _field((12, 12))
        blob = compress(data, mode="rel", bound=1e-3)
        for cut in range(len(blob)):
            try:
                out = decompress(blob[:cut])
            except ValueError:
                continue
            assert out.shape == data.shape, f"cut at {cut}"

    def test_corrupt_unpred_count_rejected(self):
        """Regression: an inflated unpredictable count must be rejected
        before any allocation sized by it (was a MemoryError)."""
        data = _field((10, 14))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        # unpred_count is the 48-bit field right before the Huffman
        # table; corrupt the header region until the reader objects.
        # Directly: unpred_count starts after magic(4)+ver..flags(5 bytes
        # of fields)... easier to just flip its high byte via known
        # layout: 4+1+1+1+1+1+1 = 10 bytes, then 2*6 shape, 8+8 floats.
        pos = 10 + 12 + 16  # first byte of unpred_count
        blob[pos] ^= 0xFF
        with pytest.raises(ValueError, match="unpredictable"):
            decompress(bytes(blob))

    def test_short_unpred_payload_rejected(self):
        """A payload too short for the recorded unpredictable count must
        raise ValueError, not leak a raw EOFError from the bit reader."""
        from repro.core.stream import Header, write_container
        from repro.encoding.huffman import HuffmanCodec

        codes = np.full(16, 1, dtype=np.int64)
        codec = HuffmanCodec.from_symbols(codes, 4)
        stream = codec.encode(codes)
        header = Header(np.dtype(np.float32), (4, 4), 2, 1, 1e-3, 1.0, 4)
        blob = write_container(header, codec, stream, b"")  # 0 payload bytes
        with pytest.raises(ValueError, match="corrupt"):
            decompress(blob)

    def test_flipped_constant_flag_rejected(self):
        """Regression: a constant flag flipped on, plus a flipped extent,
        made the constant-field shortcut allocate terabytes (a
        MemoryError) instead of rejecting the header."""
        from repro.core.stream import FLAG_CONSTANT

        blob = bytearray(compress(_field((10, 14)), mode="rel", bound=1e-3))
        blob[9] |= FLAG_CONSTANT  # flags byte
        blob[10] = 0x7F  # top byte of the first 48-bit extent
        with pytest.raises(ValueError, match="constant flag"):
            decompress(bytes(blob))

    def test_corrupt_dtype_code_rejected(self):
        data = _field((8, 8))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        blob[5] = 0x7F  # dtype code byte
        with pytest.raises(ValueError, match="dtype"):
            decompress(bytes(blob))

    def test_zero_extent_rejected(self):
        data = _field((8, 8))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        # zero out the first shape field (48 bits starting at byte 10)
        for i in range(10, 16):
            blob[i] = 0
        with pytest.raises(ValueError):
            decompress(bytes(blob))


class TestV2Truncation:
    @pytest.fixture()
    def container(self):
        data = _field((24, 20))
        return data, compress_tiled(data, tile_shape=(8, 8), mode="rel", bound=1e-3)

    def test_every_prefix_fails_cleanly(self, container):
        """Truncating a v2 container at any byte — header, any tile
        payload, index, or tail — must raise a clean ValueError."""
        _, blob = container
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decompress_tiled(blob[:cut])

    def test_section_boundaries(self, container):
        """Exact cuts at each section boundary (header end, each tile
        end, index start/end, tail) fail cleanly."""
        _, blob = container
        with TiledReader(blob) as reader:
            cuts = {reader.header.header_bytes}
            for entry in reader.entries:
                cuts.add(entry.offset)
                cuts.add(entry.offset + entry.length)
            cuts.add(len(blob) - TAIL_BYTES)
            cuts.add(len(blob) - 1)
        for cut in sorted(cuts):
            with pytest.raises(ValueError):
                decompress_tiled(blob[:cut])

    def test_tile_crc_mismatch(self, container):
        _, blob = container
        with TiledReader(blob) as reader:
            entry = reader.entries[2]
        corrupt = bytearray(blob)
        corrupt[entry.offset + entry.length // 2] ^= 0x40
        with pytest.raises(ValueError, match="CRC"):
            decompress_tiled(bytes(corrupt))
        # a region read not touching tile 2 still succeeds
        with TiledReader(bytes(corrupt)) as reader:
            sl, _ = reader.grid.normalize_region((slice(0, 8), slice(0, 8)))
            assert 2 not in reader.grid.tiles_intersecting(sl)
        out = decompress_region(bytes(corrupt), (slice(0, 8), slice(0, 8)))
        assert out.shape == (8, 8)

    def test_index_crc_mismatch(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[len(blob) - TAIL_BYTES - 5] ^= 0x01  # inside the index
        with pytest.raises(ValueError, match="index CRC"):
            decompress_tiled(bytes(corrupt))

    def test_bad_end_magic(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decompress_tiled(bytes(corrupt))

    def test_bad_leading_magic(self, container):
        _, blob = container
        corrupt = b"XXXX" + blob[4:]
        with pytest.raises(ValueError, match="magic"):
            decompress_tiled(corrupt)

    def test_bad_version(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[4] = 99
        with pytest.raises(ValueError, match="version"):
            decompress_tiled(bytes(corrupt))

    def test_index_offset_past_end(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        # inflate the tail's index offset
        corrupt[len(blob) - TAIL_BYTES] = 0x7F
        with pytest.raises(ValueError):
            decompress_tiled(bytes(corrupt))

    def test_truncated_file_source(self, container, tmp_path):
        _, blob = container
        path = tmp_path / "cut.szt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            decompress_tiled(str(path))

    def test_empty_and_tiny_blobs(self):
        for blob in (b"", b"SZRT", b"SZRT" + b"\x00" * 10):
            with pytest.raises(ValueError):
                decompress_tiled(blob)


class TestHeaderLimits:
    """Header fields that size the decode work are bounded up front."""

    @pytest.mark.parametrize("layers", [0, MAX_LAYERS + 1, 129])
    def test_flipped_layers_byte_rejected(self, layers):
        """Regression: the layers byte sized the prediction stencil
        unchecked; flipping 1 to 129 decoded a 2-D blob through a
        16 899-arm stencil (a 3-D one asks for (layers + 1)^3 arms)."""
        blob = bytearray(compress(_field((18, 24)), mode="pw_rel", bound=1e-3))
        assert blob[8] == 1  # layers byte
        blob[8] = layers
        with pytest.raises(ValueError, match="prediction layers"):
            decompress(bytes(blob))

    def test_segmented_version_with_ndim_2_rejected(self):
        blob = bytearray(compress(_field((10, 14)), mode="pw_rel", bound=1e-3))
        assert blob[4] == 2
        blob[4] = 3  # the segmented 1-D version on a 2-D body
        with pytest.raises(ValueError, match="version 3 with ndim 2"):
            decompress(bytes(blob))

    def test_segmented_version_on_single_segment_rejected(self):
        blob = bytearray(compress(_field((200,)), mode="pw_rel", bound=1e-3))
        assert blob[4] == 2  # 200 points: one segment, version 2
        blob[4] = 3
        with pytest.raises(ValueError, match="single-segment"):
            decompress(bytes(blob))
