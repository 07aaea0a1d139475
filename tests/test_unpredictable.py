"""Tests for binary-representation analysis of unpredictable values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.unpredictable import (
    decode_unpredictable,
    encode_unpredictable,
    truncate_to_bound,
)


def roundtrip(values, eb):
    payload, recon = encode_unpredictable(values, eb)
    out = decode_unpredictable(payload, values.size, eb, values.dtype)
    return payload, recon, out


class TestTruncateToBound:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_respected(self, dtype, rng):
        values = (rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 7, 2000)).astype(dtype)
        eb = 1e-3
        out = truncate_to_bound(values, eb)
        assert np.abs(out.astype(np.float64) - values.astype(np.float64)).max() <= eb

    def test_small_values_become_zero(self):
        values = np.array([1e-8, -1e-8, 0.0], dtype=np.float64)
        out = truncate_to_bound(values, 1e-3)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_nan_inf_passthrough(self):
        values = np.array([np.nan, np.inf, -np.inf], dtype=np.float64)
        out = truncate_to_bound(values, 1e-3)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

    def test_sign_preserved(self):
        values = np.array([-123.456, 123.456], dtype=np.float64)
        out = truncate_to_bound(values, 1e-6)
        assert out[0] < 0 < out[1]

    def test_tiny_bound_keeps_full_mantissa(self):
        values = np.array([np.pi], dtype=np.float64)
        out = truncate_to_bound(values, 1e-300)
        assert out[0] == values[0]

    def test_subnormal_values(self):
        values = np.array([5e-324, 1e-310], dtype=np.float64)
        eb = 1e-320
        out = truncate_to_bound(values, eb)
        assert np.abs(out - values).max() <= eb

    def test_nonpositive_bound_raises(self):
        with pytest.raises(ValueError):
            truncate_to_bound(np.array([1.0]), 0.0)

    def test_unsupported_dtype_raises(self):
        with pytest.raises((ValueError, TypeError)):
            truncate_to_bound(np.array([1], dtype=np.int32), 0.1)


class TestEncodeDecode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_equals_inline_recon(self, dtype, rng):
        values = (rng.standard_normal(500) * 100).astype(dtype)
        payload, recon, out = roundtrip(values, 1e-2)
        np.testing.assert_array_equal(out, recon)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_after_roundtrip(self, dtype, rng):
        values = (rng.standard_normal(300) * 1e4).astype(dtype)
        eb = 0.5
        _, _, out = roundtrip(values, eb)
        assert np.abs(out.astype(np.float64) - values.astype(np.float64)).max() <= eb

    def test_mixed_flags(self):
        values = np.array([np.nan, 0.0, 1234.5, np.inf, 1e-9, -7.25], dtype=np.float64)
        eb = 1e-3
        payload, recon, out = roundtrip(values, eb)
        np.testing.assert_array_equal(
            np.isnan(out), np.isnan(values)
        )
        finite = np.isfinite(values)
        assert np.abs(out[finite] - values[finite]).max() <= eb

    def test_empty(self):
        payload, recon = encode_unpredictable(np.zeros(0, dtype=np.float32), 0.1)
        assert payload == b""
        out = decode_unpredictable(payload, 0, 0.1, np.dtype(np.float32))
        assert out.size == 0

    def test_payload_smaller_than_raw(self, rng):
        """The whole point of binary-representation analysis: fewer bits
        than full IEEE storage at loose bounds."""
        values = rng.standard_normal(4000).astype(np.float64)
        payload, _ = encode_unpredictable(values, 1e-2)
        assert len(payload) < values.nbytes * 0.6

    def test_payload_grows_with_tighter_bound(self, rng):
        values = rng.standard_normal(1000).astype(np.float64)
        loose, _ = encode_unpredictable(values, 1e-1)
        tight, _ = encode_unpredictable(values, 1e-9)
        assert len(tight) > len(loose)

    @given(st.integers(1, 2**31), st.sampled_from([1e-1, 1e-4, 1e-8]))
    def test_roundtrip_property(self, seed, eb):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-4, 5)
        values = (rng.standard_normal(50) * scale).astype(
            np.float32 if seed % 2 else np.float64
        )
        payload, recon, out = roundtrip(values, eb)
        np.testing.assert_array_equal(out, recon)
        assert (
            np.abs(out.astype(np.float64) - values.astype(np.float64)).max()
            <= eb
        )

    def test_negative_zero(self):
        values = np.array([-0.0], dtype=np.float64)
        _, _, out = roundtrip(values, 1e-6)
        assert out[0] == 0.0


def _truncate_reference(values: np.ndarray, eb: float) -> np.ndarray:
    """Field-by-field formulation the lookup-table version replaced."""
    from repro.core.unpredictable import _classify, _layout, _required_bits

    lo = _layout(values.dtype)
    _, sign, exp, mant, is_zero, _, is_raw = _classify(values, eb, lo)
    t = _required_bits(exp, eb, lo)
    keep_shift = (lo.mant_bits - t).astype(np.uint64)
    mant_trunc = (mant >> keep_shift) << keep_shift
    rebuilt = (
        (sign << np.uint64(lo.total_bits - 1))
        | (exp << np.uint64(lo.mant_bits))
        | mant_trunc
    )
    out = rebuilt.astype(lo.uint.type).view(values.dtype)
    out = np.where(is_zero, values.dtype.type(0), out)
    return np.where(is_raw, values, out)


_LAYOUT_BITS = {np.float32: (np.uint32, 8, 23), np.float64: (np.uint64, 11, 52)}
_EXTREME_EBS = {
    np.float32: [1.4e-45, 1e-40, 1.2e-38, 1e-3, 0.5, 1.0, 7.5, 3.4e38, 1e300],
    np.float64: [5e-324, 1e-310, 2.3e-308, 1e-3, 0.5, 1.0, 1e300, 1.7e308],
}


class TestTruncateLookupTable:
    """Every exponent, both signs, the specials: identical to the fields."""

    @staticmethod
    def _all_exponents(dtype) -> np.ndarray:
        uint, exp_bits, mant_bits = _LAYOUT_BITS[dtype]
        rng = np.random.default_rng(exp_bits)
        exps = np.arange(1 << exp_bits, dtype=np.uint64)
        rows = []
        for mant in (0, (1 << mant_bits) - 1, 1, None):
            m = (
                rng.integers(0, 1 << mant_bits, exps.size, dtype=np.uint64)
                if mant is None
                else np.full(exps.size, mant, dtype=np.uint64)
            )
            for sign in (0, 1):
                rows.append(
                    (np.uint64(sign) << np.uint64(exp_bits + mant_bits))
                    | (exps << np.uint64(mant_bits))
                    | m
                )
        # exp 0 covers +-0.0 and the subnormals; the all-ones exponent
        # covers +-Inf (mantissa 0) and NaN payloads (the rest).
        return np.concatenate(rows).astype(uint).view(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_field_reference(self, dtype):
        values = self._all_exponents(dtype)
        uint = _LAYOUT_BITS[dtype][0]
        for eb in _EXTREME_EBS[dtype]:
            with np.errstate(all="ignore"):
                want = _truncate_reference(values, eb)
                got = truncate_to_bound(values, eb)
            np.testing.assert_array_equal(got.view(uint), want.view(uint))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_specials(self, dtype):
        uint = _LAYOUT_BITS[dtype][0]
        nan_payload = np.array([0x7FC00123 if dtype == np.float32
                                else 0x7FF8000000000123], dtype=uint)
        values = np.concatenate(
            [np.array([0.0, -0.0, np.inf, -np.inf], dtype=dtype),
             nan_payload.view(dtype)]
        )
        out = truncate_to_bound(values, 1e-3)
        np.testing.assert_array_equal(
            out.view(uint)[:2], np.zeros(2, dtype=uint)  # both become +0.0
        )
        np.testing.assert_array_equal(out.view(uint)[2:], values.view(uint)[2:])

    def test_input_untouched(self):
        values = np.array([1.2345, -0.0, 1e-9], dtype=np.float64)
        before = values.copy()
        truncate_to_bound(values, 1e-3)
        np.testing.assert_array_equal(values, before)
