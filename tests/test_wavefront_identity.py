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
* the public ``compress``/``decompress`` pipeline across modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

import repro.core.wavefront as wf
from repro.core import compress, decompress
from repro.core.compressor import _PLAN_CACHE
from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.reference import reference_compress, reference_decompress
from repro.core.unpredictable import truncate_to_bound
from repro.core.wavefront import (
    WavefrontPlan,
    wavefront_compress,
    wavefront_decompress,
)

from strategies import ADVERSARIAL_SHAPES, wavefront_arrays


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
        res.codes, unpred_recon, plan, eb, radius, data.dtype
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
                codes_wf, unpred_wf, plan, eb, radius, data.dtype
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
            bad, np.zeros(0, dtype=np.float64), plan, eb, radius, np.float64
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
