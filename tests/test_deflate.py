"""Tests for the LZ77 matcher and DEFLATE-like codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding.deflate import deflate_compress, deflate_decompress
from repro.encoding.lz77 import (
    MAX_MATCH,
    MIN_MATCH,
    lz77_parse,
    lz77_reconstruct,
)


class TestLZ77:
    def test_roundtrip_text(self):
        data = b"the quick brown fox jumps over the lazy dog " * 20
        toks = lz77_parse(data)
        assert lz77_reconstruct(*toks) == data

    def test_finds_repeats(self):
        data = b"abcdefgh" * 64
        literals, lengths, distances = lz77_parse(data)
        assert (lengths > 0).any()
        # vast majority of the tokens must be matches on pure repetition
        assert lengths.sum() > len(data) * 0.9

    def test_incompressible_random(self, rng):
        data = rng.integers(0, 256, 2000, dtype=np.uint8).tobytes()
        toks = lz77_parse(data)
        assert lz77_reconstruct(*toks) == data

    def test_overlapping_match_run(self):
        # run of one byte forces distance < length copies
        data = b"\x00" * 500
        literals, lengths, distances = lz77_parse(data)
        assert lz77_reconstruct(literals, lengths, distances) == data
        match = lengths > 0
        assert match.any() and distances[match].min() < lengths[match].max()

    def test_empty_and_tiny(self):
        for data in (b"", b"a", b"ab", b"abc"):
            toks = lz77_parse(data)
            assert lz77_reconstruct(*toks) == data

    def test_max_match_cap(self):
        data = b"x" * 4000
        _, lengths, _ = lz77_parse(data)
        assert lengths.max() <= MAX_MATCH

    def test_min_match_respected(self):
        data = b"abcXabcYabcZ"  # 3-byte repeats: below MIN_MATCH
        _, lengths, _ = lz77_parse(data)
        assert not (lengths > 0).any() or lengths[lengths > 0].min() >= MIN_MATCH

    def test_greedy_vs_lazy_both_roundtrip(self):
        data = b"abcde" * 50 + b"abcdefghij" * 30
        for lazy in (False, True):
            toks = lz77_parse(data, lazy=lazy)
            assert lz77_reconstruct(*toks) == data

    def test_invalid_distance_raises(self):
        with pytest.raises(ValueError):
            lz77_reconstruct(
                np.array([0]), np.array([5]), np.array([10])
            )

    @given(st.binary(max_size=600))
    def test_roundtrip_property(self, data):
        toks = lz77_parse(data)
        assert lz77_reconstruct(*toks) == data


class TestDeflate:
    def test_roundtrip_text(self):
        data = b"scientific data compression " * 100
        blob = deflate_compress(data)
        assert deflate_decompress(blob) == data
        assert len(blob) < len(data) / 3

    def test_roundtrip_float_bytes(self, smooth2d):
        data = smooth2d.tobytes()
        blob = deflate_compress(data)
        assert deflate_decompress(blob) == data

    def test_empty(self):
        assert deflate_decompress(deflate_compress(b"")) == b""

    def test_single_byte(self):
        assert deflate_decompress(deflate_compress(b"Q")) == b"Q"

    def test_all_byte_values(self):
        data = bytes(range(256)) * 4
        assert deflate_decompress(deflate_compress(data)) == data

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            deflate_decompress(b"\x00" * 32)

    def test_highly_compressible(self):
        data = b"\x00" * 10000
        blob = deflate_compress(data)
        assert len(blob) < 200
        assert deflate_decompress(blob) == data

    @given(st.binary(max_size=400))
    def test_roundtrip_property(self, data):
        assert deflate_decompress(deflate_compress(data)) == data

    def test_every_truncation_raises_value_error(self):
        blob = deflate_compress(b"scientific data " * 20)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                deflate_decompress(blob[:cut])

    def test_inflated_counts_rejected_before_allocating(self):
        # Header: 32-bit magic, then 48-bit size, token count, bit count.
        blob = deflate_compress(b"scientific data " * 20)
        ntok_at, nbits_at = 10, 16
        for at, message in ((ntok_at, "tokens in"), (nbits_at, "bits declared")):
            bad = bytearray(blob)
            bad[at] = 0xFF
            with pytest.raises(ValueError, match=message):
                deflate_decompress(bytes(bad))
