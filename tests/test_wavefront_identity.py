"""Differential identity harness: every wavefront fast path vs the
scalar reference.

The wavefront engine carries several layered optimizations — grouped
gather tables, the float32 interior and wavefront-order storage.  Each
one is only admissible because it is *bit-identical* to the paper's
sequential algorithm, and this suite is the mechanical enforcement of
that contract: hypothesis drives the kernels across dtypes × dims ×
adversarial shapes (prime-length axes, 1-wide slabs, singleton
hyperplanes, NaN/Inf contamination, spike-forced unpredictables) and
asserts code-for-code and byte-for-byte equality against
:mod:`repro.core.reference`, for every fast-path configuration:

* gather tables on vs rebuilt per plane (``gather_tables = None``);
* float32 interior vs the forced float64 fallback;
* the public ``compress``/``decompress`` pipeline across modes;
* the 1-D lane path: a 1-D array longer than one segment sweeps its
  segments as lanes, and each segment must match the reference run on
  that segment alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given

import repro.core.wavefront as wf
from repro.core import compress, decompress
from repro.core.bounds import pw_postcondition, pw_precondition
from repro.core.compressor import _PLAN_CACHE, parse_container
from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.reference import reference_compress, reference_decompress
from repro.core.unpredictable import truncate_to_bound
from repro.core.stream import SEGMENTED_VERSION
from repro.core.wavefront import (
    WavefrontPlan,
    segment_layout,
    wavefront_compress,
    wavefront_decompress,
)

from strategies import (
    ADVERSARIAL_SHAPES,
    extreme_finite_values,
    wavefront_arrays,
)


def _codes_to_raster(codes_wf, plan, shape):
    out = np.zeros(int(np.prod(shape)), dtype=np.int64)
    out[plan.order] = codes_wf
    return out.reshape(shape)


def _plan_variants(shape, layers, dtype):
    """Every plan configuration a kernel run can legitimately see."""
    tableless = WavefrontPlan(shape, layers, dtype)
    tableless.gather_tables = None  # the over-budget per-plane fallback
    return [
        WavefrontPlan(shape, layers, dtype),  # native interior
        tableless,
        WavefrontPlan(shape, layers),  # float64 fallback interior
    ]


def _assert_matches_reference(data, eb, layers, interval_bits, plan):
    radius = interval_radius(interval_bits)
    ref_codes, ref_dec = reference_compress(data, eb, layers, radius)
    res = wavefront_compress(data, eb, plan, radius)
    np.testing.assert_array_equal(
        _codes_to_raster(res.codes, plan, data.shape), ref_codes
    )
    np.testing.assert_array_equal(res.decompressed, ref_dec)
    # Unpredictable originals: the reference reports raster positions;
    # the engine stores wavefront order of the same set of points.
    miss_raster = ref_codes == UNPREDICTABLE
    assert res.unpredictable.size == int(miss_raster.sum(dtype=np.int64))
    np.testing.assert_array_equal(
        np.sort(res.unpredictable), np.sort(data[miss_raster])
    )
    # Decompress replay must land on the reference reconstruction too.
    unpred_recon = truncate_to_bound(res.unpredictable, eb)
    out = wavefront_decompress(
        res.codes, unpred_recon, plan, eb, radius, data.dtype, True
    )
    np.testing.assert_array_equal(out, ref_dec)


class TestKernelIdentity:
    """Hypothesis-driven kernel equivalence across every serial fast path."""

    @given(case=wavefront_arrays())
    def test_tables_and_interior_variants_match_reference(self, case):
        data, eb, layers, interval_bits = case
        for plan in _plan_variants(data.shape, layers, data.dtype):
            _assert_matches_reference(data, eb, layers, interval_bits, plan)

    @given(case=wavefront_arrays(allow_nonfinite=False))
    def test_decompress_matches_scalar_reference(self, case):
        data, eb, layers, interval_bits = case
        radius = interval_radius(interval_bits)
        ref_codes, ref_dec = reference_compress(data, eb, layers, radius)
        unpred_raster = truncate_to_bound(
            data[ref_codes == UNPREDICTABLE], eb
        )
        ref_out = reference_decompress(
            ref_codes, unpred_raster, eb, layers, radius, data.dtype
        )
        for plan in _plan_variants(data.shape, layers, data.dtype):
            codes_wf = ref_codes.reshape(-1).take(plan.order)
            # Wavefront order of the unpredictable values.
            miss_wf = codes_wf == UNPREDICTABLE
            uidx = np.cumsum(
                (ref_codes == UNPREDICTABLE).reshape(-1), dtype=np.int64
            ) - 1
            unpred_wf = unpred_raster[uidx[plan.order][miss_wf]]
            out = wavefront_decompress(
                codes_wf, unpred_wf, plan, eb, radius, data.dtype, True
            )
            np.testing.assert_array_equal(out, ref_out)


def test_decompress_validates_unpred_count():
    data = np.linspace(0, 1, 600, dtype=np.float64).reshape(20, 30)
    eb, radius = 1e-3, interval_radius(8)
    plan = WavefrontPlan(data.shape, 1, np.float64)
    res = wavefront_compress(data, eb, plan, radius)
    bad = res.codes.copy()
    bad[::5] = UNPREDICTABLE  # misses without stored values
    with pytest.raises(ValueError, match="count mismatch"):
        wavefront_decompress(
            bad, np.zeros(0, dtype=np.float64), plan, eb, radius, np.float64,
            True,
        )


class TestPipelineIdentity:
    """Public-API blobs must not depend on which fast path executed."""

    MODES = [
        ("abs", 1e-3),
        ("rel", 1e-4),
        ("pw_rel", 1e-3),
        ("psnr", 60.0),
    ]

    @staticmethod
    def _field(dtype):
        rng = np.random.default_rng(5)
        base = np.cumsum(rng.normal(0, 0.1, 7 * 11 * 5)).reshape(7, 11, 5)
        return (np.abs(base) + 0.5).astype(dtype)  # positive: pw_rel-safe

    @pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    def test_tables_off_is_byte_identical(
        self, monkeypatch, mode, bound, dtype
    ):
        data = self._field(dtype)
        _PLAN_CACHE.clear()
        blob_fast = compress(data, mode=mode, bound=bound)
        out_fast = decompress(blob_fast)
        monkeypatch.setattr(wf, "_TABLE_BYTES_MAX", 0)
        _PLAN_CACHE.clear()
        blob_slow = compress(data, mode=mode, bound=bound)
        assert blob_fast == blob_slow
        np.testing.assert_array_equal(out_fast, decompress(blob_slow))
        _PLAN_CACHE.clear()


class TestStalePlanRegression:
    """Satellite: the plan cache must key on dtype, not just shape.

    Before the fix, a float64 run would cache a float64-interior plan
    that a subsequent float32 run on the same shape silently reused —
    correct output (the interior falls back), but the float32 fast path
    never engaged.  Now each dtype gets its own plan and the interior
    dtype always matches the data.
    """

    def test_dtype_swap_on_one_shape_gets_fresh_plan(self):
        from repro.core.compressor import _get_plan

        _PLAN_CACHE.clear()
        shape = (6, 7)
        p64 = _get_plan(shape, 1, np.float64)
        p32 = _get_plan(shape, 1, np.float32)
        assert p64 is not p32
        assert p64.interior_dtype == np.float64
        assert p32.interior_dtype == np.float32
        assert _get_plan(shape, 1, np.float32) is p32  # cached, not rebuilt
        _PLAN_CACHE.clear()

    def test_dtype_swap_outputs_stay_correct_and_fast_path_engages(self):
        rng = np.random.default_rng(3)
        data64 = np.cumsum(rng.normal(0, 0.1, 12 * 9)).reshape(12, 9)
        data32 = data64.astype(np.float32)
        _PLAN_CACHE.clear()
        blob64 = compress(data64, mode="abs", bound=1e-3)
        blob32 = compress(data32, mode="abs", bound=1e-3)
        np.testing.assert_array_equal(
            decompress(blob64), decompress(bytes(blob64))
        )
        ref_codes, ref_dec = reference_compress(
            data32, 1e-3, 1, interval_radius(8)
        )
        np.testing.assert_array_equal(decompress(blob32), ref_dec)
        _PLAN_CACHE.clear()


class TestAdversarialShapesCurated:
    """Deterministic sweep of the curated shapes (no hypothesis), so a
    failure names the exact shape in the test id."""

    @pytest.mark.parametrize("shape", ADVERSARIAL_SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    def test_shape_matches_reference(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        data = np.cumsum(
            rng.normal(0, 0.3, int(np.prod(shape)))
        ).reshape(shape).astype(dtype)
        _assert_matches_reference(
            data, 1e-3, 1, 8, WavefrontPlan(shape, 1, dtype)
        )


# -- 1-D segments as lanes ---------------------------------------------

SEGMENT_SIZES = [1, 255, 256, 257, 4095, 4097, 64 * 4096 + 1]
MODES = TestPipelineIdentity.MODES


def _segment_bounds(n):
    """Raster offsets of the segments :func:`segment_layout` cuts."""
    segments, points = segment_layout(n)
    full = n - segments * (points - 1)
    lengths = [points] * full + [points - 1] * (segments - full)
    return np.concatenate([[0], np.cumsum(lengths)]).tolist()


def _checked_segments(bounds):
    """Every segment; the longest array checks its first two, a middle
    and its last segment (the scalar reference runs ~10 us a point)."""
    segments = len(bounds) - 1
    if bounds[-1] <= 8192:
        return range(segments)
    return sorted({0, 1, segments // 2, segments - 1})


def _reference_segment(x, eb, layers, radius):
    """Reference codes, reconstruction and replay of one segment alone.

    The scalar reference runs outside the RuntimeWarning filter: its
    float64 residual overflows on extreme values where the kernels'
    errstate keeps quiet.
    """
    with np.errstate(all="ignore"):
        codes, dec = reference_compress(x, eb, layers, radius)
        unpred = truncate_to_bound(x[codes == UNPREDICTABLE], eb)
        out = reference_decompress(codes, unpred, eb, layers, radius, x.dtype)
    return codes, dec, out


def _assert_segments_match_reference(data, eb, layers, radius):
    plan = WavefrontPlan(data.shape, layers, data.dtype)
    res = wavefront_compress(data, eb, plan, radius)
    miss = res.codes == UNPREDICTABLE
    # Raster order throughout: unpredictable values in array order.
    np.testing.assert_array_equal(res.unpredictable, data[miss])
    out = wavefront_decompress(
        res.codes, truncate_to_bound(res.unpredictable, eb), plan, eb,
        radius, data.dtype, True,
    )
    np.testing.assert_array_equal(out, res.decompressed)
    bounds = _segment_bounds(data.size)
    for s in _checked_segments(bounds):
        lo, hi = bounds[s], bounds[s + 1]
        codes, dec, ref_out = _reference_segment(
            data[lo:hi], eb, layers, radius
        )
        np.testing.assert_array_equal(res.codes[lo:hi], codes)
        np.testing.assert_array_equal(res.decompressed[lo:hi], dec)
        np.testing.assert_array_equal(out[lo:hi], ref_out)


class TestSegmentedKernel:
    """Each lane of the 1-D sweep is the reference on its segment."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    @pytest.mark.parametrize("n", SEGMENT_SIZES)
    def test_segments_match_reference(self, n, dtype, layers):
        rng = np.random.default_rng(n + layers)
        data = np.cumsum(rng.normal(0.0, 0.3, n))
        spikes = rng.choice(n, size=max(1, n // 64), replace=False)
        data[spikes] += 1e4  # unpredictable points inside segments
        _assert_segments_match_reference(
            data.astype(dtype), 1e-3, layers, interval_radius(8)
        )

    def test_segment_rule(self):
        assert segment_layout(256) == (1, 256)
        assert segment_layout(257) == (2, 129)
        assert segment_layout(4095) == (16, 256)
        assert segment_layout(64 * 4096) == (64, 4096)
        assert segment_layout(64 * 4096 + 1) == (65, 4033)
        for n in SEGMENT_SIZES + [773, 1 << 20, 10**7 + 3]:
            bounds = _segment_bounds(n)
            lengths = np.diff(bounds)
            assert bounds[-1] == n and lengths.max() - lengths.min() <= 1
            assert lengths.max() <= 4096

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    @pytest.mark.parametrize("n", [257, 4097])
    def test_nonfinite_and_extreme_values(self, n, dtype, layers):
        rng = np.random.default_rng(7 * n + layers)
        data = np.cumsum(rng.normal(0.0, 0.25, n)).astype(dtype)
        specials = np.concatenate(
            [extreme_finite_values(dtype), np.array([np.nan, np.inf, -np.inf])]
        ).astype(dtype)
        # Salt segment heads and tails (the lane edges) and the interior.
        bounds = _segment_bounds(n)
        edges = sorted({b for b in bounds[:-1]} | {b - 1 for b in bounds[1:]})
        spots = np.concatenate(
            [rng.choice(edges, size=4, replace=False), rng.choice(n, size=12)]
        )
        data[spots] = rng.choice(specials, size=spots.size)
        _assert_segments_match_reference(data, 1e-3, layers, interval_radius(8))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    @pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
    def test_pipeline_segments_match_reference(self, mode, bound, dtype):
        n = 3 * 256 + 5
        rng = np.random.default_rng(11)
        data = (np.abs(np.cumsum(rng.normal(0.0, 0.1, n))) + 0.5).astype(dtype)
        blob = compress(data, mode=mode, bound=bound)
        assert blob[4] == SEGMENTED_VERSION
        header = parse_container(blob).header
        radius = interval_radius(header.interval_bits)
        inner = pw_precondition(data)[0] if mode == "pw_rel" else data
        bounds = _segment_bounds(n)
        dec = np.concatenate([
            _reference_segment(
                inner[lo:hi], header.eb_abs, header.layers, radius
            )[2]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ])
        if mode == "pw_rel":
            dec = pw_postcondition(dec, header.side_payload, header.dtype)
        out = decompress(blob)
        assert out.dtype == data.dtype
        np.testing.assert_array_equal(out, dec)

    # sha256 over the blobs of `_short_blobs(n)`, as written before 1-D
    # arrays were segmented: an array of at most one segment keeps its
    # version 1/2 bytes.
    SHORT_DIGESTS = {
        1: "982e0a9b7093576fa7b61f5397a232b14c18a68d7b63c7f962f919f7b5ec929d",
        37: "55bbeb5ed62ebce2a14ddebd1ae615324c01d5a409548ee643219ad31e39f94a",
        255: "a815cdb7aec782e7e80ce669168c3d3c892e8fa3da6c435e8717aa7fb684beee",
        256: "cfab7afe0bb5eba6b4369ccf3838c81cad8ac636da97b3226b5a33f98569b29f",
    }

    @pytest.mark.parametrize("n", sorted(SHORT_DIGESTS))
    def test_single_segment_bytes_unchanged(self, n):
        digest = hashlib.sha256()
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(n)
            data = np.abs(np.cumsum(rng.normal(0.0, 0.1, n))) + 0.5
            data[n // 2] += 50.0
            data = data.astype(dtype)
            for mode, bound in MODES:
                for layers in (1, 2):
                    blob = compress(data, mode=mode, bound=bound, layers=layers)
                    assert blob[4] != SEGMENTED_VERSION
                    digest.update(blob)
        assert digest.hexdigest() == self.SHORT_DIGESTS[n]
