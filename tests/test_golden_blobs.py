"""Golden-blob regression tests: containers must stay decodable forever.

The fixtures under ``tests/fixtures/golden/`` were produced by earlier
revisions of the library (the untagged v1 / tiled-v2 blobs predate the
error-bound mode subsystem entirely) and are checked in alongside their
source arrays and expected decoded output.  They pin three contracts:

* **decode stability** — every archived container decodes to exactly the
  archived values, bit for bit, across PRs;
* **legacy byte-identity** — re-compressing the archived source with the
  legacy ``abs``/``rel`` parameters reproduces the archived container
  byte for byte (the mode subsystem must not perturb untagged output);
* **mode defaulting** — blobs without a mode tag decode (and report)
  as mode ``abs``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.chunked import (
    compress_tiled,
    container_info_any,
    decompress_tiled,
    tiled_container_info,
)
from repro.core import compress, container_info, decompress
from repro.metrics import verify_bound

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _blob(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def _decoded(name: str) -> np.ndarray:
    return np.load(GOLDEN / f"{name}.decoded.npy")


class TestV1Golden:
    def test_abs_decodes_bit_exact(self):
        out = decompress(_blob("v1_abs_1e-3.sz"))
        np.testing.assert_array_equal(out, _decoded("v1_abs_1e-3"))

    def test_rel_decodes_bit_exact(self):
        out = decompress(_blob("v1_rel_1e-4.sz"))
        np.testing.assert_array_equal(out, _decoded("v1_rel_1e-4"))

    def test_abs_recompress_byte_identical(self):
        field = np.load(GOLDEN / "field_f32.npy")
        # The deprecated legacy spelling must keep producing the exact
        # archived bytes (shim byte-identity), as must the mode spelling.
        with pytest.warns(DeprecationWarning):
            legacy = compress(field, abs_bound=1e-3)
        assert legacy == _blob("v1_abs_1e-3.sz")
        assert compress(field, mode="abs", bound=1e-3) == _blob("v1_abs_1e-3.sz")

    def test_rel_recompress_byte_identical(self):
        field = np.load(GOLDEN / "field_f32.npy")
        with pytest.warns(DeprecationWarning):
            legacy = compress(field, rel_bound=1e-4, layers=2, interval_bits=10)
        assert legacy == _blob("v1_rel_1e-4.sz")
        blob = compress(field, mode="rel", bound=1e-4, layers=2, interval_bits=10)
        assert blob == _blob("v1_rel_1e-4.sz")

    def test_untagged_blob_reports_mode_abs(self):
        info = container_info(_blob("v1_rel_1e-4.sz"))
        assert info["mode"] == "abs"
        info = container_info_any(_blob("v1_abs_1e-3.sz"))
        assert info["format"] == "v1" and info["mode"] == "abs"

    def test_bounds_still_hold(self):
        field = np.load(GOLDEN / "field_f32.npy")
        out = decompress(_blob("v1_abs_1e-3.sz"))
        assert verify_bound(field, out, "abs", 1e-3)["ok"]
        out = decompress(_blob("v1_rel_1e-4.sz"))
        assert verify_bound(field, out, "rel", 1e-4)["ok"]


class TestTiledV2Golden:
    def test_decodes_bit_exact(self):
        out = decompress_tiled(_blob("v2_tiled_rel_1e-3.szt"))
        np.testing.assert_array_equal(out, _decoded("v2_tiled_rel_1e-3"))

    def test_recompress_byte_identical(self):
        field = np.load(GOLDEN / "field_f32.npy")
        with pytest.warns(DeprecationWarning):
            legacy = compress_tiled(field, tile_shape=(8, 12), rel_bound=1e-3)
        assert legacy == _blob("v2_tiled_rel_1e-3.szt")
        blob = compress_tiled(field, tile_shape=(8, 12), mode="rel", bound=1e-3)
        assert blob == _blob("v2_tiled_rel_1e-3.szt")

    def test_legacy_v2_reports_rel_mode_from_bounds(self):
        info = tiled_container_info(_blob("v2_tiled_rel_1e-3.szt"))
        assert info["format"] == "tiled-v2"
        assert info["mode"] == "rel" and info["rel_bound"] == 1e-3


class TestModedGolden:
    """The mode-tagged headers introduced with the bounds subsystem."""

    def test_pw_rel_decodes_bit_exact(self):
        out = decompress(_blob("v2_moded_pwrel_1e-3.sz"))
        np.testing.assert_array_equal(out, _decoded("v2_moded_pwrel_1e-3"))

    def test_pw_rel_recompress_byte_identical(self):
        wide = np.load(GOLDEN / "wide_f64.npy")
        blob = compress(wide, mode="pw_rel", bound=1e-3)
        assert blob == _blob("v2_moded_pwrel_1e-3.sz")

    def test_pw_rel_guarantee_and_info(self):
        wide = np.load(GOLDEN / "wide_f64.npy")
        out = decompress(_blob("v2_moded_pwrel_1e-3.sz"))
        assert verify_bound(wide, out, "pw_rel", 1e-3)["ok"]
        info = container_info(_blob("v2_moded_pwrel_1e-3.sz"))
        assert info["mode"] == "pw_rel" and info["mode_param"] == 1e-3
        assert container_info_any(_blob("v2_moded_pwrel_1e-3.sz"))[
            "format"
        ] == "v1-moded"

    def test_psnr_decodes_bit_exact(self):
        out = decompress(_blob("v2_moded_psnr_64.sz"))
        np.testing.assert_array_equal(out, _decoded("v2_moded_psnr_64"))
        info = container_info(_blob("v2_moded_psnr_64.sz"))
        assert info["mode"] == "psnr" and info["mode_param"] == 64.0

    def test_psnr_guarantee(self):
        field = np.load(GOLDEN / "field_f32.npy")
        out = decompress(_blob("v2_moded_psnr_64.sz"))
        assert verify_bound(field, out, "psnr", 64.0)["ok"]

    def test_tiled_v3_decodes_bit_exact(self):
        out = decompress_tiled(_blob("v3_tiled_pwrel_1e-3.szt"))
        np.testing.assert_array_equal(out, _decoded("v3_tiled_pwrel_1e-3"))
        info = tiled_container_info(_blob("v3_tiled_pwrel_1e-3.szt"))
        assert info["format"] == "tiled-v3"
        assert info["mode"] == "pw_rel" and info["mode_param"] == 1e-3

    def test_tiled_v3_recompress_byte_identical(self):
        wide = np.load(GOLDEN / "wide_f64.npy")
        blob = compress_tiled(wide, tile_shape=(8, 10), mode="pw_rel", bound=1e-3)
        assert blob == _blob("v3_tiled_pwrel_1e-3.szt")


class TestGroupedDispatchEdgeGolden:
    """Shapes that stress the grouped wavefront dispatch.

    These fixtures were generated before the grouped-index-table kernel
    landed; they pin the shapes where batching is most likely to go
    wrong: prime-length axes (uneven hyperplane sizes), a shape where
    every hyperplane is a single point, a 1-D array (one segment, so
    one lane of the 1-D sweep), and a 1-wide slab (degenerate leading
    axis).
    """

    CASES = [
        ("edge_prime_f32", "edge_prime_f32.npy", {"mode": "rel", "bound": 1e-4}),
        ("edge_singleton_f32", "edge_singleton_f32.npy", {"mode": "abs", "bound": 1e-3}),
        ("edge_1d_f64", "edge_1d_f64.npy", {"mode": "abs", "bound": 1e-6}),
        ("edge_slab_f32", "edge_slab_f32.npy", {"mode": "abs", "bound": 1e-3}),
    ]

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_decodes_bit_exact(self, name, src, kw):
        out = decompress(_blob(f"{name}.sz"))
        expected = _decoded(name)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_recompress_byte_identical(self, name, src, kw):
        arr = np.load(GOLDEN / src)
        assert compress(arr, **kw) == _blob(f"{name}.sz")

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_bound_still_holds(self, name, src, kw):
        arr = np.load(GOLDEN / src)
        out = decompress(_blob(f"{name}.sz"))
        assert verify_bound(arr, out, kw["mode"], kw["bound"])["ok"]


class TestModedCorruption:
    """Mode-tagged containers keep the clean ValueError failure contract."""

    def test_truncated_moded_blob_raises(self):
        blob = _blob("v2_moded_pwrel_1e-3.sz")
        for cut in (len(blob) // 3, len(blob) - 3):
            with pytest.raises(ValueError):
                decompress(blob[:cut])

    def test_bad_mode_code_raises(self):
        blob = bytearray(_blob("v2_moded_psnr_64.sz"))
        # mode code sits right after the 48-bit unpred_count; flip it to
        # an undefined value. Header: magic(4)+ver(1)+dtype(1)+ndim(1)+
        # m(1)+layers(1)+flags(1) is 11 bytes? — locate dynamically: the
        # mode byte of this fixture is the value 3 ('psnr') at offset
        # 9 + 6*ndim + 8 + 8 + 6 with ndim == 2.
        offset = 10 + 6 * 2 + 8 + 8 + 6
        assert blob[offset] == 3  # container layout moved — update offset
        blob[offset] = 0xEE
        with pytest.raises(ValueError, match="mode"):
            decompress(bytes(blob))


class TestSegmented1DGolden:
    """Version 3: a 1-D body cut into segments swept as lanes.

    The sources hold ``3 * 256 + 5`` points, four segments of 194/193
    points, so the last three segments end in a dummy point.
    """

    CASES = [
        ("v3_seg_rel_f32", "series_f32.npy", {"mode": "rel", "bound": 1e-3}),
        ("v3_seg_pwrel_f64", "series_f64.npy", {"mode": "pw_rel", "bound": 1e-3}),
    ]

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_decodes_bit_exact(self, name, src, kw):
        out = decompress(_blob(f"{name}.sz"))
        expected = _decoded(name)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        np.testing.assert_array_equal(
            out.view(np.uint8), expected.view(np.uint8)
        )

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_recompress_byte_identical(self, name, src, kw):
        blob = compress(np.load(GOLDEN / src), **kw)
        assert blob[4] == 3  # version byte
        assert blob == _blob(f"{name}.sz")

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_bound_still_holds(self, name, src, kw):
        arr = np.load(GOLDEN / src)
        out = decompress(_blob(f"{name}.sz"))
        assert verify_bound(arr, out, kw["mode"], kw["bound"])["ok"]
        info = container_info_any(_blob(f"{name}.sz"))
        assert info["format"] == "v1-segmented" and info["segmented"]
        assert info["mode"] == kw["mode"] and info["mode_param"] == kw["bound"]


class TestLegacy1DGolden:
    """1-D containers written before segmenting: one scan per array.

    The same sources, compressed by the scalar 1-D encoder, as version
    1/2 containers and as a tiled container with 300-point tiles.  They
    replay through the sequential decoder, bit for bit.
    """

    CASES = [
        ("v1_legacy_1d_rel_f32", "series_f32.npy", {"mode": "rel", "bound": 1e-3}),
        ("v2_legacy_1d_pwrel_f64", "series_f64.npy", {"mode": "pw_rel", "bound": 1e-3}),
    ]

    @pytest.mark.parametrize("name,src,kw", CASES, ids=[c[0] for c in CASES])
    def test_decodes_bit_exact(self, name, src, kw):
        blob = _blob(f"{name}.sz")
        assert blob[4] in (1, 2)
        out = decompress(blob)
        expected = _decoded(name)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        np.testing.assert_array_equal(
            out.view(np.uint8), expected.view(np.uint8)
        )
        assert verify_bound(np.load(GOLDEN / src), out, kw["mode"], kw["bound"])["ok"]

    def test_tiled_decodes_bit_exact(self):
        out = decompress_tiled(_blob("v2_tiled_legacy_1d_rel_f32.szt"))
        np.testing.assert_array_equal(out, _decoded("v2_tiled_legacy_1d_rel_f32"))
        src = np.load(GOLDEN / "series_f32.npy")
        assert verify_bound(src, out, "rel", 1e-3)["ok"]
