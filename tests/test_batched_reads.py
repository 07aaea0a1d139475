"""Batched tiled reads against per-tile decode.

``TiledReader.read_all`` / ``region`` / ``iter_slabs`` decode each
tile-row as one batch: one lockstep Huffman pass over every block of
every tile, one wavefront sweep per tile shape.  Every test here pins
the batched output bit for bit against the per-tile reference,
``decompress(reader.read_tile_bytes(i))``, across modes, dtypes,
layers, dimensionalities, ragged edge tiles and the tiles that fall
back to the whole-array path (constant, arithmetic-coded, wide codes).
"""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.encoding.huffman as hf
from repro.api import SZConfig
from repro.chunked import compress_tiled, decompress_region, decompress_tiled
from repro.chunked.format import TAIL_BYTES, build_index, build_tail
from repro.chunked.streams import TiledReader
from repro.core.compressor import (
    compress_array,
    decompress,
    decompress_batch,
    parse_container,
)
from repro.core.stream import read_container
from repro.obs import Collector

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

_UINTS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns, so NaN payloads and signed zeros compare exactly."""
    return np.ascontiguousarray(a).view(_UINTS[a.dtype])


def _assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(_bits(a), _bits(b))


def _per_tile(blob: bytes) -> np.ndarray:
    """Reference: every tile decoded on its own through ``decompress``."""
    with TiledReader(blob) as reader:
        out = np.empty(reader.shape, dtype=reader.dtype)
        for i in range(reader.n_tiles):
            out[reader.grid.tile_slices(i)] = decompress(
                reader.read_tile_bytes(i)
            )
    return out


def _regions(shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """A few boxes: whole array, interior, edge-touching, one-wide."""
    boxes = [tuple(slice(0, n) for n in shape)]
    boxes.append(tuple(slice(n // 4, max(n // 4 + 1, 3 * n // 4)) for n in shape))
    boxes.append(tuple(slice(max(0, n - 5), n) for n in shape))
    boxes.append(tuple(slice(n // 2, n // 2 + 1) for n in shape))
    return boxes


def _assert_batched_reads_match(blob: bytes) -> np.ndarray:
    ref = _per_tile(blob)
    with TiledReader(blob) as reader:
        _assert_bits_equal(reader.read_all(), ref)
        slabs = [slab for _, slab in reader.iter_slabs()]
        _assert_bits_equal(np.concatenate(slabs, axis=0), ref)
        for box in _regions(reader.shape):
            _assert_bits_equal(reader.region(box), ref[box])
    return ref


def _field(shape, dtype, seed=0, kind="smooth"):
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    if kind == "smooth":
        data = np.cumsum(rng.normal(0.0, 0.3, n)) + 40.0
        data[rng.random(n) < 0.02] += 1e3  # unpredictable spikes
    else:  # positive wide dynamic range, with zeros: pw_rel territory
        data = np.exp(rng.normal(0.0, 3.0, n))
        data[rng.random(n) < 0.05] = 0.0
    return data.reshape(shape).astype(dtype)


SHAPES = {
    1: ((1000,), (128,)),
    2: ((37, 45), (16, 16)),
    3: ((11, 13, 9), (4, 6, 5)),
}
MODES = [("abs", 1e-3), ("rel", 1e-4), ("pw_rel", 1e-3), ("psnr", 70.0)]


class TestDifferential:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    @pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
    def test_modes_dtypes_dims(self, ndim, dtype, mode, bound):
        shape, tile = SHAPES[ndim]
        kind = "wide" if mode == "pw_rel" else "smooth"
        data = _field(shape, dtype, seed=ndim, kind=kind)
        blob = compress_tiled(data, tile_shape=tile, mode=mode, bound=bound)
        _assert_batched_reads_match(blob)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_layers(self, layers, ndim):
        shape, tile = SHAPES[ndim]
        data = _field(shape, np.float32, seed=10 + layers)
        cfg = SZConfig.from_kwargs(mode="rel", bound=1e-4, layers=layers)
        blob = compress_tiled(data, tile_shape=tile, config=cfg)
        _assert_batched_reads_match(blob)

    def test_adaptive_interval_counts_split_sweeps(self):
        # Adaptive tiles may settle on different interval counts; each
        # count is its own sweep group inside one batch.
        rng = np.random.default_rng(3)
        data = np.tile(np.linspace(0.0, 1e-2, 48), (40, 1))
        data[16:] = rng.normal(0.0, 1.0, (24, 48))  # rough: more intervals
        data = data.astype(np.float32)
        cfg = SZConfig.from_kwargs(
            mode="abs", bound=1e-3, adaptive=True, theta=0.95
        )
        blob = compress_tiled(data, tile_shape=(16, 16), config=cfg)
        with TiledReader(blob) as reader:
            bits = {
                parse_container(reader.read_tile_bytes(i)).header.interval_bits
                for i in range(reader.n_tiles)
            }
        assert len(bits) > 1
        _assert_batched_reads_match(blob)

    def test_constant_tiles_fall_back(self):
        data = _field((40, 40), np.float64, seed=4)
        data[:16, :16] = 2.5  # whole constant tiles next to coded ones
        data[16:32, 16:32] = -1.0
        blob = compress_tiled(data, tile_shape=(16, 16), mode="rel", bound=1e-4)
        ref = _assert_batched_reads_match(blob)
        assert (ref[:16, :16] == 2.5).all()

    def test_arithmetic_tiles_fall_back(self):
        data = _field((24, 40), np.float32, seed=5)
        cfg = SZConfig.from_kwargs(
            mode="abs", bound=1e-3, entropy_coder="arithmetic"
        )
        blob = compress_tiled(data, tile_shape=(12, 16), config=cfg)
        _assert_batched_reads_match(blob)

    def test_lossless_post_tiles(self):
        data = _field((40, 40), np.float32, seed=6)
        data[::2] = np.round(data[::2])
        cfg = SZConfig.from_kwargs(mode="abs", bound=1e-2, lossless_post=True)
        blob = compress_tiled(data, tile_shape=(16, 16), config=cfg)
        _assert_batched_reads_match(blob)

    def test_nonfinite_values(self):
        data = _field((33, 35), np.float32, seed=7)
        data[3, 4] = np.nan
        data[20, 30] = np.inf
        data[31, 1] = -np.inf
        data[10, 10] = -0.0
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-3)
        _assert_batched_reads_match(blob)

    def test_wide_code_tiles_fall_back(self, monkeypatch):
        # With the flat-table limit below every tile's longest code,
        # each tile takes the whole-array decoder instead.
        data = _field((37, 45), np.float32, seed=8)
        blob = compress_tiled(data, tile_shape=(16, 16), mode="rel", bound=1e-4)
        ref = _per_tile(blob)
        monkeypatch.setattr(hf, "_FLAT_TABLE_BITS", 2)
        with Collector() as col:
            with TiledReader(blob) as reader:
                _assert_bits_equal(reader.read_all(), ref)
        assert "decompress_batch" not in {s.name for s in col.spans}

    @pytest.mark.parametrize(
        "knob,value",
        [("_LOCKSTEP_TABLE_BYTES", 1), ("_WINDOW_MATERIALIZE_LIMIT", 0)],
    )
    def test_split_passes_and_gathered_windows(self, monkeypatch, knob, value):
        data = _field((37, 45), np.float64, seed=9)
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-4)
        ref = _per_tile(blob)
        monkeypatch.setattr(hf, knob, value)
        with TiledReader(blob) as reader:
            _assert_bits_equal(reader.read_all(), ref)

    def test_staging_chunks(self, monkeypatch):
        # Tiles of several Huffman blocks, staged a few rounds at a time:
        # every chunk shifts out block bodies and ragged last blocks.
        data = _field((150, 130), np.float32, seed=10)
        blob = compress_tiled(data, tile_shape=(70, 70), mode="abs", bound=1e-3)
        ref = _per_tile(blob)
        monkeypatch.setattr(hf, "_STAGE_ELEMS", 64)
        with TiledReader(blob) as reader:
            _assert_bits_equal(reader.read_all(), ref)
            _assert_bits_equal(reader.read_tile(3), ref[70:140, 70:])

    def test_decompress_batch_mixed_containers(self):
        # Different shapes, dtypes, modes and coders in one batch: each
        # result matches decompress() of the same bytes.
        configs = [
            SZConfig.from_kwargs(mode="abs", bound=1e-3),
            SZConfig.from_kwargs(mode="pw_rel", bound=1e-3),
            SZConfig.from_kwargs(mode="rel", bound=1e-4, layers=2),
            SZConfig.from_kwargs(
                mode="abs", bound=1e-3, entropy_coder="arithmetic"
            ),
        ]
        inputs = [
            _field((9, 14), np.float32, seed=1),
            _field((9, 14), np.float64, seed=2, kind="wide"),
            _field((5, 6, 7), np.float32, seed=3),
            _field((9, 14), np.float32, seed=4),
            _field((9, 14), np.float32, seed=5),
        ]
        configs.append(configs[0])
        containers = [
            compress_array(x, c)[0] for x, c in zip(inputs, configs)
        ]
        got = decompress_batch([parse_container(b) for b in containers])
        for blob, out in zip(containers, got):
            _assert_bits_equal(out, decompress(blob))

    def test_decompress_region_entry_point(self):
        data = _field((37, 45), np.float32, seed=11)
        blob = compress_tiled(data, tile_shape=(16, 16), mode="rel", bound=1e-4)
        ref = _per_tile(blob)
        box = (slice(5, 30), slice(14, 40))
        _assert_bits_equal(decompress_region(blob, box), ref[box])
        _assert_bits_equal(decompress_tiled(blob), ref)


class TestGoldenTiled:
    @pytest.mark.parametrize(
        "name", ["v2_tiled_rel_1e-3", "v3_tiled_pwrel_1e-3"]
    )
    def test_golden_blobs_decode_unchanged(self, name):
        blob = (GOLDEN / f"{name}.szt").read_bytes()
        ref = _assert_batched_reads_match(blob)
        _assert_bits_equal(ref, np.load(GOLDEN / f"{name}.decoded.npy"))


class TestSegmented1D:
    """1-D tiles longer than one segment bring one lane per segment;
    tiles written before segmenting replay one scan per tile."""

    def test_segmented_tiles(self):
        data = _field((3000,), np.float32, seed=13)
        blob = compress_tiled(data, tile_shape=(1100,), mode="rel", bound=1e-4)
        with TiledReader(blob) as reader:
            assert all(
                parse_container(reader.read_tile_bytes(i)).header.segmented
                for i in range(reader.n_tiles)
            )
        _assert_batched_reads_match(blob)

    def test_legacy_tiles(self):
        name = "v2_tiled_legacy_1d_rel_f32"
        blob = (GOLDEN / f"{name}.szt").read_bytes()
        with TiledReader(blob) as reader:
            assert not any(
                parse_container(reader.read_tile_bytes(i)).header.segmented
                for i in range(reader.n_tiles)
            )
        ref = _assert_batched_reads_match(blob)
        _assert_bits_equal(ref, np.load(GOLDEN / f"{name}.decoded.npy"))

    def test_tiles_times_segments_in_one_batch(self):
        # Same-shape segmented containers share one sweep of B * S
        # lanes; a legacy container of that shape and a single-segment
        # one each keep their own sweep.
        configs = [
            SZConfig.from_kwargs(mode="abs", bound=1e-3),
            SZConfig.from_kwargs(mode="rel", bound=1e-4),
            SZConfig.from_kwargs(mode="pw_rel", bound=1e-3),
            SZConfig.from_kwargs(mode="abs", bound=1e-2, layers=2),
        ]
        containers = [
            compress_array(_field((773,), np.float32, seed=20 + i), c)[0]
            for i, c in enumerate(configs)
        ]
        containers.append(compress_array(_field((200,), np.float32), configs[0])[0])
        containers.append((GOLDEN / "v1_legacy_1d_rel_f32.sz").read_bytes())
        containers.append((GOLDEN / "v3_seg_rel_f32.sz").read_bytes())
        parsed = [parse_container(b) for b in containers]
        assert [p.header.segmented for p in parsed] == [True] * 4 + [
            False, False, True,
        ]
        got = decompress_batch(parsed)
        for blob, out in zip(containers, got):
            _assert_bits_equal(out, decompress(blob))


class TestObservability:
    def test_one_span_per_row_with_tiles_and_lanes(self):
        data = _field((37, 45), np.float32, seed=12)
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-3)
        plain = decompress_tiled(blob)
        with Collector() as col:
            traced = decompress_tiled(blob)
        _assert_bits_equal(plain, traced)
        batches = [s for s in col.spans if s.name == "decompress_batch"]
        assert len(batches) == 3  # one per tile-row
        # Rows hold 3 tiles, every tile one 4096-symbol block or less.
        assert [s.attrs["tiles"] for s in batches] == [3, 3, 3]
        assert [s.attrs["lanes"] for s in batches] == [3, 3, 3]
        passes = col.observations["huffman/streams_per_pass"]
        assert passes["count"] == 3 and passes["max"] == 3


def _rebuild(blob: bytes, index: int, tile: bytes) -> bytes:
    """Swap in a same-length tile payload and recompute every CRC."""
    with TiledReader(blob) as reader:
        entries = list(reader.entries)
        version = reader.header.version
    entry = entries[index]
    assert len(tile) == entry.length
    out = bytearray(blob)
    out[entry.offset : entry.offset + entry.length] = tile
    entries[index] = dataclasses.replace(
        entry, crc32=zlib.crc32(tile) & 0xFFFFFFFF
    )
    index_bytes = build_index(entries, version)
    index_offset = len(blob) - TAIL_BYTES - len(index_bytes)
    out[index_offset : index_offset + len(index_bytes)] = index_bytes
    out[-TAIL_BYTES:] = build_tail(
        index_offset, len(index_bytes), zlib.crc32(index_bytes) & 0xFFFFFFFF
    )
    return bytes(out)


def _sections(tile: bytes) -> dict[str, tuple[int, int]]:
    """Byte ranges of a tile's length table, block index and payload."""
    buf = bytearray(tile)
    base = np.frombuffer(buf, dtype=np.uint8).ctypes.data
    header, _, stream, *_ = read_container(memoryview(buf))
    payload_at = stream.payload.ctypes.data - base
    index_at = payload_at - 5 * stream.block_bits.size
    table_at = 32 + 6 * len(header.shape)  # fixed v1 header bytes
    return {
        "table": (table_at, index_at - 16 - 6),
        "stream_header": (index_at - 16, index_at),
        "block_index": (index_at, payload_at),
        "payload": (payload_at, payload_at + stream.payload.size),
    }


class TestCorruptionInsideBatch:
    @pytest.mark.parametrize(
        "section", ["table", "stream_header", "block_index", "payload"]
    )
    def test_value_error_or_exact_per_tile_values(self, section):
        data = _field((48, 64), np.float32, seed=13)
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-3)
        target = 5  # middle of the second tile-row
        with TiledReader(blob) as reader:
            tile = reader.read_tile_bytes(target)
        lo, hi = _sections(tile)[section]
        assert hi > lo
        rng = np.random.default_rng(len(section))
        raised = 0
        for _ in range(40):
            bad = bytearray(tile)
            for _ in range(int(rng.integers(1, 4))):
                bad[int(rng.integers(lo, hi))] ^= 1 << int(rng.integers(0, 8))
            corrupt = _rebuild(blob, target, bytes(bad))
            try:
                with TiledReader(corrupt) as reader:
                    got = reader.read_all()
            except ValueError:
                raised += 1
                continue
            # A read that succeeds must equal the per-tile decode of the
            # very same bytes: never silently different values.
            _assert_bits_equal(got, _per_tile(corrupt))
        assert raised > 0
