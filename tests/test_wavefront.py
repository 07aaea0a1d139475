"""Wavefront engine tests, including bit-exact equivalence with the
scalar raster-order reference implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.reference import reference_compress, reference_decompress
from repro.core.unpredictable import truncate_to_bound
from repro.core.wavefront import (
    WavefrontPlan,
    wavefront_compress,
    wavefront_decompress,
)


def wf_roundtrip(data, eb, n=1, m=8):
    radius = interval_radius(m)
    plan = WavefrontPlan(data.shape, n)
    res = wavefront_compress(data, eb, plan, radius)
    recon_unpred = truncate_to_bound(res.unpredictable, eb)
    out = wavefront_decompress(
        res.codes, recon_unpred, plan, eb, radius, data.dtype, True
    )
    return res, out


class TestPlan:
    def test_groups_cover_all_points(self):
        plan = WavefrontPlan((5, 7), 1)
        total = sum(e - s for s, e in plan.groups)
        assert total == 35
        assert np.unique(plan.order).size == 35

    def test_group_monotonicity(self):
        """Every stencil dependency lands in an earlier group."""
        plan = WavefrontPlan((6, 6), 2)
        coord_sum = np.add.outer(np.arange(6), np.arange(6)).ravel()
        seen_sum = coord_sum[plan.order]
        assert (np.diff(seen_sum) >= 0).all()

    def test_3d_plan(self):
        plan = WavefrontPlan((3, 4, 5), 1)
        total = sum(e - s for s, e in plan.groups)
        assert total == 60
        assert len(plan.groups) == 3 + 4 + 5 - 2

    def test_degenerate_shape_raises(self):
        with pytest.raises(ValueError):
            WavefrontPlan((0, 5), 1)


class TestEquivalenceWithReference:
    """The wavefront engine must match the paper's sequential algorithm
    point for point — codes, decompressed values, everything."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_2d(self, n, dtype, rng):
        data = (rng.standard_normal((12, 15)) * 5).astype(dtype)
        eb = 0.01
        radius = interval_radius(8)
        plan = WavefrontPlan(data.shape, n)
        res = wavefront_compress(data, eb, plan, radius)
        ref_codes, ref_dec = reference_compress(data, eb, n, radius)
        # Wavefront codes are stored in wavefront order; scatter to raster.
        codes_raster = np.zeros(data.size, dtype=np.int64)
        codes_raster[plan.order] = res.codes
        np.testing.assert_array_equal(
            codes_raster.reshape(data.shape), ref_codes
        )
        np.testing.assert_array_equal(res.decompressed, ref_dec)

    @pytest.mark.parametrize("n", [1, 2])
    def test_3d(self, n, rng):
        data = (rng.standard_normal((6, 7, 8)) * 3).astype(np.float32)
        eb = 0.02
        radius = interval_radius(8)
        plan = WavefrontPlan(data.shape, n)
        res = wavefront_compress(data, eb, plan, radius)
        ref_codes, ref_dec = reference_compress(data, eb, n, radius)
        codes_raster = np.zeros(data.size, dtype=np.int64)
        codes_raster[plan.order] = res.codes
        np.testing.assert_array_equal(
            codes_raster.reshape(data.shape), ref_codes
        )
        np.testing.assert_array_equal(res.decompressed, ref_dec)

    def test_1d(self, rng):
        data = (np.cumsum(rng.standard_normal(200)) * 2).astype(np.float64)
        eb = 0.05
        radius = interval_radius(8)
        plan = WavefrontPlan(data.shape, 1)
        res = wavefront_compress(data, eb, plan, radius)
        ref_codes, ref_dec = reference_compress(data, eb, 1, radius)
        np.testing.assert_array_equal(res.codes, ref_codes)
        np.testing.assert_array_equal(res.decompressed, ref_dec)

    def test_with_spikes_forcing_unpredictables(self, spiky2d):
        eb = 1e-4 * (spiky2d.max() - spiky2d.min())
        radius = interval_radius(4)  # few intervals -> many misses
        plan = WavefrontPlan(spiky2d.shape, 1)
        res = wavefront_compress(spiky2d, eb, plan, radius)
        assert res.unpredictable.size > 0
        ref_codes, ref_dec = reference_compress(spiky2d, eb, 1, radius)
        codes_raster = np.zeros(spiky2d.size, dtype=np.int64)
        codes_raster[plan.order] = res.codes
        np.testing.assert_array_equal(
            codes_raster.reshape(spiky2d.shape), ref_codes
        )
        np.testing.assert_array_equal(res.decompressed, ref_dec)

    def test_reference_decompress_agrees(self, rng):
        data = (rng.standard_normal((10, 11)) * 4).astype(np.float64)
        eb = 0.01
        radius = interval_radius(8)
        ref_codes, ref_dec = reference_compress(data, eb, 1, radius)
        miss = ref_codes == UNPREDICTABLE
        unpred_raster = truncate_to_bound(data[miss], eb)
        out = reference_decompress(
            ref_codes, unpred_raster, eb, 1, radius, data.dtype
        )
        np.testing.assert_array_equal(out, ref_dec)


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(64,), (23, 31), (7, 9, 11), (3, 4, 5, 6)])
    def test_bound_holds(self, shape, rng):
        data = (rng.standard_normal(shape) * 10).astype(np.float64)
        eb = 0.01
        res, out = wf_roundtrip(data, eb)
        assert np.abs(out - data).max() <= eb
        np.testing.assert_array_equal(out, res.decompressed)

    def test_decompress_equals_compressor_view(self, smooth2d):
        eb = 1e-3
        res, out = wf_roundtrip(smooth2d, eb)
        np.testing.assert_array_equal(out, res.decompressed)

    def test_hit_rate_reported(self, smooth2d):
        res, _ = wf_roundtrip(smooth2d, 1e-2)
        assert 0.9 < res.hit_rate <= 1.0

    def test_unpredictable_count_mismatch_detected(self, rng):
        data = rng.standard_normal((8, 8))
        radius = interval_radius(8)
        plan = WavefrontPlan(data.shape, 1)
        res = wavefront_compress(data, 1e-6, plan, radius)
        if res.unpredictable.size == 0:
            pytest.skip("no unpredictables generated")
        too_few = truncate_to_bound(res.unpredictable, 1e-6)[:-1]
        with pytest.raises(ValueError):
            wavefront_decompress(
                res.codes, too_few, plan, 1e-6, radius, data.dtype, True
            )

    @given(
        st.sampled_from([(5, 6), (16, 3), (4, 4, 4), (40,)]),
        st.integers(1, 2),
        st.sampled_from([1e-1, 1e-3, 1e-6]),
        st.integers(1, 2**31),
    )
    @settings(max_examples=15)
    def test_bound_property(self, shape, n, eb_rel, seed):
        rng = np.random.default_rng(seed)
        data = (rng.standard_normal(shape) * 100).astype(np.float32)
        eb = eb_rel * float(data.max() - data.min())
        res, out = wf_roundtrip(data, eb, n=n)
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_nan_inf_survive(self):
        data = np.ones((6, 6), dtype=np.float64)
        data[2, 3] = np.nan
        data[4, 1] = np.inf
        res, out = wf_roundtrip(data, 1e-3)
        assert np.isnan(out[2, 3])
        assert out[4, 1] == np.inf
        finite = np.isfinite(data)
        assert np.abs(out[finite] - data[finite]).max() <= 1e-3
