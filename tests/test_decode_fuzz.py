"""Seeded decode fuzzer: a damaged container may only raise ``ValueError``.

Every trial truncates a valid blob or flips one to three of its bits and
decodes the result.  Decoding may succeed (the whole-array ``SZRP``
container carries no checksum, so some flips decode to other values) or
raise ``ValueError``; any other exception — ``EOFError``,
``IndexError``, ``MemoryError`` from an allocation sized by a corrupt
count — fails the test.  Half of the bit flips land in the first
``_HEADER_BYTES`` bytes: the header's counts and extents size every
allocation downstream, and they carry no CRC.

Pinned regressions: ``lossless_post``-wrapped blobs leaked ``EOFError``
from the DEFLATE unwrap; a flipped extent made the arithmetic decoder
allocate terabytes before reading a bit; and a flipped constant flag
made the constant-field shortcut allocate from a flipped extent.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.chunked import compress_tiled, decompress_region, decompress_tiled
from repro.core import compress, decompress
from repro.core.lossless_post import is_wrapped
from repro.encoding.deflate import deflate_compress

_SEED = 20240613
_TRIALS = 40
_HEADER_BYTES = 48

MODES = [("abs", 1e-3), ("rel", 1e-3), ("pw_rel", 1e-3), ("psnr", 60.0)]
VARIANTS = ["huffman", "arithmetic", "lossless_post"]


def _field(shape):
    rng = np.random.default_rng(7)
    n = int(np.prod(shape))
    walk = np.cumsum(rng.normal(0.0, 0.1, n)).reshape(shape)
    return (np.abs(walk) + 0.5).astype(np.float32)  # positive: pw_rel-safe


def _szrp_blob(mode, bound, shape, variant):
    data = _field(shape)
    coder = "arithmetic" if variant == "arithmetic" else "huffman"
    blob = compress(data, mode=mode, bound=bound, entropy_coder=coder)
    if variant == "lossless_post":
        # ``lossless_post=True`` keeps the plain container when DEFLATE
        # does not shrink it, as on fields this small; wrap regardless
        # so every trial goes through the unwrap.
        plain, blob = blob, b"SZPP" + deflate_compress(blob)
        assert is_wrapped(blob)
        np.testing.assert_array_equal(decompress(blob), decompress(plain))
    return blob


def _mutants(blob, rng):
    """Yield ``(description, damaged_blob)`` for ``_TRIALS`` trials."""
    for _ in range(_TRIALS):
        if rng.random() < 1 / 3:
            cut = int(rng.integers(0, len(blob)))
            yield f"truncate to {cut} bytes", blob[:cut]
            continue
        damaged = bytearray(blob)
        span = len(blob) * 8
        if rng.random() < 0.5:
            span = min(span, _HEADER_BYTES * 8)
        bits = rng.choice(span, size=int(rng.integers(1, 4)), replace=False)
        for bit in bits.tolist():
            damaged[bit // 8] ^= 0x80 >> (bit % 8)
        yield f"flip bits {sorted(bits.tolist())}", bytes(damaged)


def _assert_only_value_error(blob, decode, key):
    """Run the trials; ``key`` names the blob and picks its trial stream."""
    rng = np.random.default_rng([_SEED, zlib.crc32(key.encode())])
    for desc, mutant in _mutants(blob, rng):
        try:
            decode(mutant)
        except ValueError:
            pass
        except Exception as exc:  # noqa: BLE001 - the contract under test
            raise AssertionError(
                f"{key}, {desc}: {type(exc).__name__}: {exc}"
            ) from exc


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(300,), (18, 24)], ids=str)
@pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
def test_damaged_szrp_raises_only_value_error(mode, bound, shape, variant):
    blob = _szrp_blob(mode, bound, shape, variant)
    _assert_only_value_error(blob, decompress, f"{mode}-{shape}-{variant}")


@pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
def test_damaged_szrt_raises_only_value_error(mode, bound):
    blob = compress_tiled(
        _field((24, 20)), tile_shape=(8, 8), mode=mode, bound=bound
    )
    _assert_only_value_error(blob, decompress_tiled, f"tiled-{mode}")
    _assert_only_value_error(
        blob,
        lambda b: decompress_region(b, (slice(4, 12), slice(10, 20))),
        f"region-{mode}",
    )
