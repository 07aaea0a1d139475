"""Extreme finite inputs: no crash, no warning, the bound still holds.

Finite float32 data whose span exceeds float32's maximum (for example
``[-3e38, 3e38]``) used to raise ``OverflowError`` from the
unpredictable-value encoder under ``mode="rel"``, after
``RuntimeWarning``s from the value-range subtraction.  The range is now
taken in float64 when the float32 subtraction overflows; a float64 span
that overflows float64 fails with ``ValueError`` in the range-relative
modes.  Every test here runs with ``RuntimeWarning`` promoted to an
error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import extreme_finite_arrays

from repro.chunked import compress_tiled, decompress_tiled
from repro.core import compress, decompress
from repro.core.compressor import _value_range
from repro.metrics import verify_bound

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REGRESSION = np.array([-3e38, 3e38, 1, 2] * 16, dtype=np.float32)
MODES = [("abs", 1e-4), ("rel", 1e-4), ("pw_rel", 1e-4), ("psnr", 60.0)]


@pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
@pytest.mark.parametrize("shape", [(64,), (8, 8), (4, 4, 4)], ids=str)
def test_float32_span_past_float32_max(mode, bound, shape):
    data = REGRESSION.reshape(shape)
    out = decompress(compress(data, mode=mode, bound=bound))
    assert verify_bound(data, out, mode, bound)["ok"]
    tile = tuple(max(1, n // 2) for n in shape)
    tiled = decompress_tiled(
        compress_tiled(data, tile_shape=tile, mode=mode, bound=bound)
    )
    assert verify_bound(data, tiled, mode, bound)["ok"]


def test_value_range_keeps_in_range_rounding():
    # In-range float32 spans still subtract in float32 (bytes unchanged);
    # only the overflowing span is retaken in float64.
    data = np.array([0.1, 1e7 + 0.3], dtype=np.float32)
    assert _value_range(data) == float(data[1] - data[0])
    hi, lo = REGRESSION.max(), REGRESSION.min()
    assert _value_range(REGRESSION) == float(hi) - float(lo)


@pytest.mark.parametrize("mode", ["rel", "psnr"])
def test_float64_span_past_float64_max_is_value_error(mode):
    data = np.array([-1.7e308, 1.7e308, 1.0, 2.0] * 8)
    with pytest.raises(ValueError, match="overflows float64"):
        compress(data, mode=mode, bound=1e-4 if mode == "rel" else 60.0)


def test_float64_span_past_float64_max_abs_still_works():
    data = np.array([-1.7e308, 1.7e308, 1.0, 2.0] * 8)
    out = decompress(compress(data, mode="abs", bound=1e-3))
    assert verify_bound(data, out, "abs", 1e-3)["ok"]


@given(data=extreme_finite_arrays())
@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
def test_extreme_arrays_hold_the_bound(mode, bound, data):
    out = decompress(compress(data, mode=mode, bound=bound))
    assert out.dtype == data.dtype and out.shape == data.shape
    assert verify_bound(data, out, mode, bound)["ok"]


@pytest.mark.parametrize("mode,bound", MODES[:2], ids=[m for m, _ in MODES[:2]])
def test_decode_of_scattered_extreme_float32(mode, bound):
    # Extremes scattered at random make 2-D predictions past float32's
    # maximum (the row-periodic regression field above predicts them
    # exactly); the dequantize kernel's float32 cast must round those to
    # inf silently, with RuntimeWarning promoted to an error.
    rng = np.random.default_rng(0)
    data = rng.choice(REGRESSION[:4], size=(32, 32)).astype(np.float32)
    out = decompress(compress(data, mode=mode, bound=bound))
    assert verify_bound(data, out, mode, bound)["ok"]
