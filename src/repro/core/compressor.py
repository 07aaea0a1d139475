"""SZ-1.4 public compression API (paper Algorithm 1, Fig. 5).

Pipeline: error-bound resolution (``repro.core.bounds``) → multilayer
prediction (Section III) → error-controlled quantization (Section IV-A)
→ canonical Huffman variable-length encoding (Section IV-A) →
container.  Unpredictable values are stored via binary-representation
analysis.

Four error-bound modes are supported (see :mod:`repro.core.bounds`):
``abs`` (``|e_i| <= b``), ``rel`` (``|e_i| <= b * range``, and with the
legacy ``abs_bound``/``rel_bound`` pair the tighter bound wins),
``pw_rel`` (``|e_i| <= b * |x_i|`` via logarithmic preconditioning) and
``psnr`` (decompressed PSNR ``>= b`` dB, verified post-hoc).

>>> import numpy as np
>>> from repro.core import compress, decompress
>>> data = np.sin(np.linspace(0, 20, 10000)).reshape(100, 100).astype(np.float32)
>>> blob = compress(data, mode="rel", bound=1e-4)
>>> out = decompress(blob)
>>> bool(np.max(np.abs(out - data)) <= 1e-4 * (data.max() - data.min()))
True
>>> pw = decompress(compress(data, mode="pw_rel", bound=1e-3))
>>> nz = data != 0
>>> bool(np.max(np.abs((pw[nz] - data[nz]) / data[nz])) <= 1e-3)
True
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.adaptive import DEFAULT_THETA
from repro.core.bounds import (
    ErrorBound,
    psnr_fallback_bound,
    psnr_to_abs_bound,
    pw_apply_repairs,
    pw_encode_side,
    pw_log_bound,
    pw_postcondition,
    pw_precondition,
)
from repro.core.lossless_post import unwrap, wrap
from repro.core.quantizer import interval_radius, num_intervals
from repro.core.stream import (
    FLAG_CONSTANT,
    Header,
    read_container,
    write_container,
)
from repro.core.unpredictable import decode_unpredictable, encode_unpredictable
from repro.core.wavefront import (
    WavefrontPlan,
    WavefrontResult,
    wavefront_compress,
    wavefront_decompress,
    wavefront_decompress_batch,
)
from repro.encoding.coders import (
    DEFAULT_ENTROPY_CODER,
    EntropyPayload,
    coder_for_flags,
    get_entropy_coder,
)
from repro.encoding.huffman import EncodedStream, HuffmanCodec, decode_streams
from repro.metrics.errors import rmse
from repro.obs.tracer import Collector, active_collector, span
from repro.perf import stage

if TYPE_CHECKING:
    from repro.api.config import SZConfig

__all__ = [
    "CompressionStats",
    "SZ14Compressor",
    "compress",
    "compress_array",
    "compress_with_stats",
    "container_info",
    "decompress",
    "decompress_batch",
    "parse_container",
]

LEGACY_BOUND_MSG = (
    "the abs_bound/rel_bound keywords are deprecated; pass mode=/bound= "
    "(e.g. mode='rel', bound=1e-4) or an SZConfig via config="
)


def _reject_config_conflicts(
    abs_bound: float | None,
    rel_bound: float | None,
    layers: int,
    interval_bits: int,
    adaptive: bool,
    theta: float,
    block_size: int,
    entropy_coder: str,
    lossless_post: bool,
    mode: str | None,
    bound: float | None,
) -> None:
    """With ``config=`` given, every other keyword must stay unset.

    A knob passed alongside a config would be silently ignored — a
    sweep bug waiting to happen — so any non-default value raises.
    """
    defaults = (
        abs_bound is None and rel_bound is None
        and mode is None and bound is None
        and layers == 1 and interval_bits == 8
        and adaptive is False and theta == DEFAULT_THETA
        and block_size == 4096 and entropy_coder == DEFAULT_ENTROPY_CODER
        and lossless_post is False
    )
    if not defaults:
        raise ValueError(
            "config= is mutually exclusive with the bound/knob keywords; "
            "derive a variant with config.replace(...) instead"
        )


def _shim_config(
    abs_bound: float | None,
    rel_bound: float | None,
    layers: int,
    interval_bits: int,
    adaptive: bool,
    theta: float,
    block_size: int,
    entropy_coder: str,
    lossless_post: bool,
    mode: str | None,
    bound: float | None,
) -> "SZConfig":
    """Normalize a legacy keyword call into an ``SZConfig``.

    Emits the deprecation warning for the legacy ``abs_bound``/
    ``rel_bound`` pair at the caller's call site (stacklevel 3: helper →
    shim → user code).  Internal code constructs ``SZConfig`` directly
    and never goes through here.
    """
    if abs_bound is not None or rel_bound is not None:
        warnings.warn(LEGACY_BOUND_MSG, DeprecationWarning, stacklevel=3)
    from repro.api.config import SZConfig

    return SZConfig.from_kwargs(
        mode=mode, bound=bound, abs_bound=abs_bound, rel_bound=rel_bound,
        layers=layers, interval_bits=interval_bits, adaptive=adaptive,
        theta=theta, block_size=block_size, entropy_coder=entropy_coder,
        lossless_post=lossless_post,
    )

_MAX_INTERVAL_BITS = 16
_PLAN_CACHE: OrderedDict[
    tuple[tuple[int, ...], int, str], WavefrontPlan
] = OrderedDict()
_PLAN_CACHE_MAX = 32
#: Cap on the *gather-table* memory pinned by cached plans.  Plans for
#: large arrays carry tens of MB of precomputed index tables; the entry
#: count alone would let the cache grow to GBs.
_PLAN_CACHE_TABLE_BYTES_MAX = 256 * 1024 * 1024
"""LRU bound: a long-lived tiled job cycling through many (tile shape,
layers) pairs must not grow the cache without limit; evicting the least
recently used plan keeps the hot interior-tile shape resident."""


@dataclass
class CompressionStats:
    """Diagnostics from one compression run."""

    eb_abs: float
    value_range: float
    layers: int
    interval_bits: int
    hit_rate: float
    n_unpredictable: int
    original_bytes: int
    compressed_bytes: int
    elapsed_seconds: float
    code_histogram: np.ndarray | None = field(repr=False, default=None)
    adaptive_attempts: int = 1
    itemsize: int = 4
    mode: str = "abs"
    mode_param: float = 0.0
    mode_attempts: int = 1
    """Bound-resolution retries: >1 when the psnr noise model missed and
    the verified fallback bound was used, or when pw_rel repaired values."""

    @property
    def n_values(self) -> int:
        return self.original_bytes // self.itemsize

    @property
    def compression_factor(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)

    @property
    def bit_rate(self) -> float:
        """Amortized bits per value (paper Eq. 6)."""
        return 8.0 * self.compressed_bytes / max(1, self.n_values)


def _value_range(data: np.ndarray) -> float:
    """Finite value range ``max - min`` (0.0 when nothing is finite)."""
    # min/max are NaN- and Inf-poisoning, so finite extremes prove the
    # whole array finite and the isfinite boolean-index copy is skipped.
    hi, lo = data.max(), data.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        finite = data[np.isfinite(data)]
        if not finite.size:
            return 0.0
        hi, lo = finite.max(), finite.min()
    # The subtraction stays in the array dtype — float32 ranges must
    # round exactly as before.  Only a span past the dtype's maximum
    # (finite float32 extremes of opposite sign) is retaken in float64;
    # a span past float64's maximum stays inf, which the range-relative
    # modes reject.
    with np.errstate(over="ignore"):
        spread = float(hi - lo)
    if spread == float("inf"):
        spread = float(hi) - float(lo)
    return spread


_BIT_UINTS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _constant_ok(data: np.ndarray, mode: str) -> bool:
    """May a zero-range field take the single-value constant shortcut?

    ``pw_rel`` promises bit-exact zeros (``+0.0`` vs ``-0.0`` included),
    so it only shortcuts when every element shares one bit pattern —
    a mixed ``[0.0, -0.0]`` field must flow through the sign plane.
    The other modes compare numerically, where ``0.0 == -0.0``.
    """
    if mode != "pw_rel":
        return True
    bits = np.ascontiguousarray(data).view(_BIT_UINTS[np.dtype(data.dtype)])
    return bool((bits == bits.flat[0]).all())


def _get_plan(
    shape: tuple[int, ...],
    layers: int,
    dtype: np.dtype | type = np.float64,
) -> WavefrontPlan:
    # The dtype is part of the plan's identity: it decides the working
    # array's interior dtype (float32 vs float64), so reusing a plan
    # across dtypes would silently fall back to the float64 interior.
    key = (shape, layers, np.dtype(dtype).str)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = WavefrontPlan(shape, layers, dtype)
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
        while (
            len(_PLAN_CACHE) > 1
            and sum(p.table_bytes for p in _PLAN_CACHE.values())
            > _PLAN_CACHE_TABLE_BYTES_MAX
        ):
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def _quantize_adaptive(
    data: np.ndarray,
    eb: float,
    layers: int,
    interval_bits: int,
    adaptive: bool,
    theta: float,
) -> tuple[WavefrontResult, int, int]:
    """Wavefront quantization with the adaptive interval-count retry."""
    plan = _get_plan(data.shape, layers, data.dtype)
    attempts = 0
    m = interval_bits
    while True:
        attempts += 1
        radius = interval_radius(m)
        result = wavefront_compress(data, eb, plan, radius)
        if not adaptive or result.hit_rate >= theta or m >= _MAX_INTERVAL_BITS:
            break
        m = min(_MAX_INTERVAL_BITS, m + 2)
    return result, m, attempts


def _emit_container(
    result: WavefrontResult,
    m: int,
    eb: float,
    header_dtype: np.dtype,
    shape: tuple[int, ...],
    value_range: float,
    layers: int,
    block_size: int,
    entropy_coder: str,
    mode: str = "abs",
    mode_param: float = 0.0,
    side_payload: bytes = b"",
    code_hist: np.ndarray | None = None,
) -> bytes:
    """Entropy-code a wavefront result and wrap it in a container.

    ``header_dtype`` is the *user-facing* dtype: for ``pw_rel`` the body
    encodes the float64 log field while the header advertises the
    original dtype (the mode tag tells the decoder the inner domain).
    ``code_hist``, when provided, is the precomputed code histogram
    (``np.bincount`` over the full alphabet) — callers that also need it
    for diagnostics pass it in so the pass over the codes runs once.
    """
    with stage("unpredictable", nbytes=result.unpredictable.nbytes):
        unpred_payload, _ = encode_unpredictable(result.unpredictable, eb)
    coder = get_entropy_coder(entropy_coder)
    with stage("entropy", nbytes=result.codes.nbytes):
        payload = coder.encode(
            result.codes,
            interval_bits=m,
            block_size=block_size,
            code_hist=code_hist,
        )
    header = Header(
        header_dtype, shape, m, layers, eb, value_range,
        result.unpredictable.size, flags=payload.flags,
        mode=mode, mode_param=mode_param, side_payload=side_payload,
    )
    return write_container(
        header, payload.codec, payload.stream, unpred_payload,
        arith_payload=payload.raw,
    )


def _psnr_of(data: np.ndarray, recon: np.ndarray, value_range: float) -> float:
    """PSNR (dB) of a reconstruction over the finite pairs (Metric 2)."""
    error = rmse(data, recon)
    if error == 0.0:
        return float("inf")
    with np.errstate(divide="ignore"):
        return float(20.0 * np.log10(value_range / error))


def compress_array(
    data: np.ndarray, config: "SZConfig"
) -> tuple[bytes, CompressionStats]:
    """The compression engine: ``(data, SZConfig) -> (blob, stats)``.

    Every public entry point — :func:`compress`,
    :func:`compress_with_stats`, :class:`repro.api.Codec`, the tiled
    writers — lands here.  ``config`` is an already-validated
    :class:`repro.api.SZConfig`.  ``tile_shape`` is ignored by this
    whole-array path, and so is ``workers``: one array encodes serially
    in the calling process.

    With a :class:`repro.obs.Collector` active, the whole run records
    under a ``compress`` span and the run diagnostics feed the metrics
    registry; the emitted bytes are identical either way (telemetry only
    reads ``stats``, it never touches the encode path).
    """
    collector = active_collector()
    if collector is None:
        return _compress_array_impl(data, config)
    data = np.asarray(data)
    with collector.span(
        "compress",
        mode=config.error_bound.mode,
        dtype=str(data.dtype),
        shape=tuple(int(s) for s in data.shape),
        bytes=int(data.nbytes),
    ):
        blob, stats = _compress_array_impl(data, config)
    _record_compress_metrics(collector, stats)
    return blob, stats


def _record_compress_metrics(
    collector: Collector, stats: CompressionStats
) -> None:
    """Fold one run's :class:`CompressionStats` into the active metrics."""
    collector.add("compress/calls")
    collector.observe("compress/factor", stats.compression_factor)
    collector.add("quantize/values", float(stats.n_values))
    collector.add("quantize/outliers", float(stats.n_unpredictable))
    if stats.adaptive_attempts > 1:
        collector.add("adaptive/retries", float(stats.adaptive_attempts - 1))
    if stats.mode == "pw_rel":
        collector.add("pw_rel/repairs", float(stats.mode_attempts - 1))
    elif stats.mode == "psnr":
        collector.add("psnr/retries", float(stats.mode_attempts - 1))


def _compress_array_impl(
    data: np.ndarray, config: "SZConfig"
) -> tuple[bytes, CompressionStats]:
    layers = config.layers
    interval_bits = config.interval_bits
    adaptive = config.adaptive
    theta = config.theta
    block_size = config.block_size
    entropy_coder = config.entropy_coder
    data = np.asarray(data)
    if data.dtype not in (np.float32, np.float64):
        raise TypeError(f"only float32/float64 supported, got {data.dtype}")
    if data.ndim < 1:
        raise ValueError("scalar input not supported")
    if data.size == 0:
        raise ValueError("empty input not supported")
    spec = config.error_bound
    t0 = time.perf_counter()
    value_range = _value_range(data)

    if value_range == 0.0 and np.isfinite(data).all() and _constant_ok(
        data, spec.mode
    ):
        # Constant field: a single value describes the array exactly, so
        # every mode's guarantee holds trivially.  The recorded eb keeps
        # the legacy value (the abs bound if one was given, else 0.0) so
        # abs/rel output stays byte-identical across versions; pw_rel and
        # psnr requests keep their mode tag so info() reports them.
        eb = (
            float(spec.abs_bound)
            if spec.mode == "abs" and spec.abs_bound is not None
            else 0.0
        )
        header = Header(
            data.dtype, data.shape, interval_bits, layers, eb, 0.0, 0,
            flags=FLAG_CONSTANT, mode=spec.mode, mode_param=spec.param,
        )
        blob = write_container(header, None, None, b"", float(data.flat[0]))
        stats = CompressionStats(
            eb_abs=eb, value_range=0.0, layers=layers,
            interval_bits=interval_bits, hit_rate=1.0, n_unpredictable=0,
            original_bytes=data.nbytes, compressed_bytes=len(blob),
            elapsed_seconds=time.perf_counter() - t0,
            code_histogram=np.zeros(1, dtype=np.int64),
            mode=spec.mode, mode_param=spec.param,
        )
        stats.itemsize = data.dtype.itemsize
        return blob, stats

    code_hist = None
    if spec.mode == "pw_rel":
        assert spec.pw_bound is not None  # from_args invariant for pw_rel
        blob, result, m, attempts, repairs = _compress_pw_rel(
            data, spec.pw_bound, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, value_range,
        )
        eb, mode_attempts = pw_log_bound(spec.pw_bound, data.dtype), 1 + repairs
    elif spec.mode == "psnr":
        assert spec.psnr_target is not None  # from_args invariant for psnr
        blob, result, m, attempts, eb, mode_attempts = _compress_psnr(
            data, spec.psnr_target, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, value_range,
        )
    else:
        eb = spec.resolve(value_range)
        result, m, attempts = _quantize_adaptive(
            data, eb, layers, interval_bits, adaptive, theta
        )
        code_hist = np.bincount(result.codes, minlength=2 * interval_radius(m))
        blob = _emit_container(
            result, m, eb, data.dtype, data.shape, value_range, layers,
            block_size, entropy_coder, code_hist=code_hist,
        )
        mode_attempts = 1
    if config.lossless_post:
        with stage("lossless_post", nbytes=len(blob)):
            blob = wrap(blob)
    stats = CompressionStats(
        eb_abs=eb,
        value_range=value_range,
        layers=layers,
        interval_bits=m,
        hit_rate=result.hit_rate,
        n_unpredictable=result.unpredictable.size,
        original_bytes=data.nbytes,
        compressed_bytes=len(blob),
        elapsed_seconds=time.perf_counter() - t0,
        code_histogram=(
            code_hist
            if code_hist is not None
            else np.bincount(result.codes, minlength=2 * interval_radius(m))
        ),
        adaptive_attempts=attempts,
        mode=spec.mode,
        mode_param=spec.param,
        mode_attempts=mode_attempts,
    )
    stats.itemsize = data.dtype.itemsize
    return blob, stats


def compress_with_stats(
    data: np.ndarray,
    abs_bound: float | None = None,
    rel_bound: float | None = None,
    layers: int = 1,
    interval_bits: int = 8,
    adaptive: bool = False,
    theta: float = DEFAULT_THETA,
    block_size: int = 4096,
    entropy_coder: str = "huffman",
    lossless_post: bool = False,
    mode: str | None = None,
    bound: float | None = None,
    *,
    config: "SZConfig | None" = None,
) -> tuple[bytes, CompressionStats]:
    """Compress ``data`` and return ``(container bytes, diagnostics)``.

    Keyword shim over :func:`compress_array` /
    :class:`repro.api.SZConfig`: pass ``config=`` directly, or the
    keywords below (which are packed into an ``SZConfig`` for you).

    Parameters
    ----------
    data
        1-, 2- or 3-dimensional (any-d supported) float32/float64 array.
    config
        An :class:`repro.api.SZConfig`; mutually exclusive with every
        other keyword.
    mode, bound
        Error-bound mode (``abs``, ``rel``, ``pw_rel`` or ``psnr``) and
        its parameter: an absolute bound, a range-relative fraction, a
        pointwise-relative fraction in (0, 1), or a target PSNR in dB.
        See :mod:`repro.core.bounds` for the guarantees.
    abs_bound, rel_bound
        Deprecated legacy bound pair (absolute and/or value-range
        relative; with both, the tighter effective bound wins).
        Mutually exclusive with ``mode``/``bound``; emits a
        ``DeprecationWarning``.
    layers
        Prediction layers ``n`` (paper default 1; best layer is
        data-dependent, see Table II).
    interval_bits
        ``m``: the encoder uses ``2^m - 1`` quantization intervals.
    adaptive, theta
        Retry with more intervals while the hitting rate is below
        ``theta`` (automated form of the paper's Section IV-B advice).
    block_size
        Huffman chunk size (parallel-decode granularity).
    entropy_coder
        ``"huffman"`` (the paper's variable-length encoder, default) or
        ``"arithmetic"`` — an out-of-paper extension using the adaptive
        range coder (slower; removes Huffman's integer-bit rounding loss).
    lossless_post
        Run the finished container through the DEFLATE-like codec (SZ's
        optional gzip pipe); kept only when it actually shrinks.
    """
    if config is None:
        config = _shim_config(
            abs_bound, rel_bound, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, lossless_post, mode, bound,
        )
    else:
        _reject_config_conflicts(
            abs_bound, rel_bound, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, lossless_post, mode, bound,
        )
    return compress_array(data, config)


def _compress_pw_rel(
    data: np.ndarray,
    pw_bound: float,
    layers: int,
    interval_bits: int,
    adaptive: bool,
    theta: float,
    block_size: int,
    entropy_coder: str,
    value_range: float,
) -> tuple[bytes, WavefrontResult, int, int, int]:
    """Pointwise-relative mode: log-precondition, quantize, verify-repair."""
    eb_log = pw_log_bound(pw_bound, data.dtype)
    logs, flags, signs = pw_precondition(data)
    result, m, attempts = _quantize_adaptive(
        logs, eb_log, layers, interval_bits, adaptive, theta
    )
    # result.decompressed is the exact float64 log field a decompressor
    # materializes; any value the margin analysis failed to cover is
    # re-flagged raw here, making the pointwise guarantee unconditional.
    repairs = pw_apply_repairs(
        data, result.decompressed, flags, signs, pw_bound
    )
    side = pw_encode_side(data, flags, signs)
    blob = _emit_container(
        result, m, eb_log, data.dtype, data.shape, value_range, layers,
        block_size, entropy_coder,
        mode="pw_rel", mode_param=pw_bound, side_payload=side,
    )
    return blob, result, m, attempts, repairs


def _compress_psnr(
    data: np.ndarray,
    target_db: float,
    layers: int,
    interval_bits: int,
    adaptive: bool,
    theta: float,
    block_size: int,
    entropy_coder: str,
    value_range: float,
) -> tuple[bytes, WavefrontResult, int, int, float, int]:
    """PSNR-targeted mode: model-derived bound, verified post-hoc.

    The first candidate comes from the uniform-quantization noise model;
    if the actual reconstruction misses the target, the fallback bound
    ``R * 10^(-target/20)`` is mathematically guaranteed to reach it
    (``rmse <= max|error| <= eb``).  Further halvings are pure paranoia.
    """
    if value_range == float("inf"):
        raise ValueError(
            "psnr target cannot be resolved: the field's finite value "
            "range overflows float64"
        )
    if value_range == 0.0:
        # Only reachable when non-finite values block the constant
        # shortcut: PSNR normalizes by the value range, so a target on a
        # zero-range field is as meaningless as a relative bound on one.
        raise ValueError(
            "psnr target cannot be resolved: the field's finite value "
            "range is 0 (constant data with NaN/Inf); pass abs_bound "
            "(or mode='abs') instead"
        )
    fallback = psnr_fallback_bound(target_db, value_range)
    candidates = [
        psnr_to_abs_bound(target_db, value_range),
        fallback, fallback / 2.0, fallback / 4.0,
    ]
    for mode_attempts, eb in enumerate(candidates, start=1):
        result, m, attempts = _quantize_adaptive(
            data, eb, layers, interval_bits, adaptive, theta
        )
        if _psnr_of(data, result.decompressed, value_range) >= target_db:
            break
    else:  # pragma: no cover - fallback candidates are guaranteed above
        raise RuntimeError(
            f"could not reach the PSNR target {target_db} dB"
        )
    blob = _emit_container(
        result, m, eb, data.dtype, data.shape, value_range, layers,
        block_size, entropy_coder, mode="psnr", mode_param=target_db,
    )
    return blob, result, m, attempts, eb, mode_attempts


def compress(
    data: np.ndarray,
    abs_bound: float | None = None,
    rel_bound: float | None = None,
    layers: int = 1,
    interval_bits: int = 8,
    adaptive: bool = False,
    theta: float = DEFAULT_THETA,
    block_size: int = 4096,
    entropy_coder: str = "huffman",
    lossless_post: bool = False,
    mode: str | None = None,
    bound: float | None = None,
    *,
    config: "SZConfig | None" = None,
) -> bytes:
    """Compress ``data``; see :func:`compress_with_stats` for parameters.

    The keywords are normalized into one :class:`repro.api.SZConfig`
    here and forwarded keyword-only — the engine never sees a positional
    parameter list that could silently reorder.
    """
    if config is None:
        config = _shim_config(
            abs_bound, rel_bound, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, lossless_post, mode, bound,
        )
    else:
        _reject_config_conflicts(
            abs_bound, rel_bound, layers, interval_bits, adaptive, theta,
            block_size, entropy_coder, lossless_post, mode, bound,
        )
    blob, _ = compress_array(data, config)
    return blob


def _as_byte_view(buf: Any) -> bytes | memoryview:
    """View any buffer-protocol object as flat bytes without copying.

    ``bytes`` passes through untouched; everything else (``bytearray``,
    ``memoryview``, ``mmap``, a NumPy array) becomes a flat ``uint8``
    memoryview of the same memory — slicing a memoryview is zero-copy,
    which is what keeps the whole decode path allocation-free on the
    input side.
    """
    if isinstance(buf, bytes):
        return buf
    view = memoryview(buf)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view


def _fill_out(result: np.ndarray, out: Any) -> np.ndarray:
    """Place ``result`` into the caller's ``out`` buffer; return the view.

    ``out`` may be a writable ndarray (any shape of the right size and
    dtype) or any writable buffer-protocol object of the right byte
    length — the numcodecs ``decode(buf, out=chunk)`` reuse pattern.
    """
    if isinstance(out, np.ndarray):
        dst = out
        if dst.dtype != result.dtype:
            raise ValueError(
                f"out has dtype {dst.dtype}, container decodes to "
                f"{result.dtype}"
            )
    else:
        dst = np.frombuffer(out, dtype=result.dtype)
    if dst.size != result.size:
        raise ValueError(
            f"out holds {dst.size} values, container decodes to "
            f"{result.size}"
        )
    if dst.shape != result.shape:
        reshaped = dst.reshape(result.shape)
        if not np.shares_memory(reshaped, dst):
            # reshape of a non-contiguous buffer silently copies; filling
            # the copy would leave the caller's buffer untouched.
            raise ValueError(
                "out buffer is non-contiguous and cannot be viewed in the "
                "decoded shape; pass a contiguous buffer or one of the "
                "decoded shape"
            )
        dst = reshaped
    dst[...] = result
    return dst


def decompress(blob: Any, out: Any = None) -> np.ndarray:
    """Decompress an SZ-1.4 (repro) container back to the full array.

    Accepts plain containers, ``lossless_post``-wrapped containers, and
    both entropy-coder variants — the container is self-describing.
    ``blob`` may be any object exporting the buffer protocol (``bytes``,
    ``bytearray``, ``memoryview``, ``mmap``); non-``bytes`` buffers are
    read in place, never copied.  With ``out`` the decoded values are
    written into the caller's buffer and the filled view is returned.
    The decode runs serially in the calling process.

    With a :class:`repro.obs.Collector` active the run records under a
    ``decompress`` span; the decoded values are identical either way.
    """
    collector = active_collector()
    if collector is None:
        return _decompress_impl(blob, out)
    with collector.span("decompress", bytes=len(_as_byte_view(blob))):
        result = _decompress_impl(blob, out)
    collector.add("decompress/calls")
    return result


@dataclass
class ParsedContainer:
    """A container split into its sections, ready to decode.

    ``inner_dtype`` is the dtype the wavefront body decodes in: float64
    for ``pw_rel`` (the log field), the advertised dtype otherwise.
    """

    header: Header
    codec: HuffmanCodec | None
    stream: EncodedStream | None
    unpred_payload: bytes | memoryview
    constant: float
    arith: bytes | memoryview

    @property
    def inner_dtype(self) -> np.dtype:
        if self.header.mode == "pw_rel":
            return np.dtype(np.float64)
        return np.dtype(self.header.dtype)

    @property
    def n_values(self) -> int:
        return int(np.prod(self.header.shape, dtype=np.int64))


def parse_container(blob: Any) -> ParsedContainer:
    """Unwrap and parse one container without decoding its body."""
    blob = _as_byte_view(blob)
    with stage("lossless_unwrap", nbytes=len(blob)):
        blob = unwrap(blob)
    return ParsedContainer(*read_container(blob))


def _decompress_impl(blob: Any, out: Any = None) -> np.ndarray:
    parsed = parse_container(blob)
    result = _decode_parsed(parsed)
    return result if out is None else _fill_out(result, out)


def _decode_parsed(parsed: ParsedContainer) -> np.ndarray:
    """Decode one parsed container on its own (the whole-array path)."""
    header = parsed.header
    if header.is_constant:
        # The compressor records a constant field with value_range 0 and
        # no unpredictable values; anything else is a flipped flag bit,
        # and its (unchecked) shape must not size the np.full below.
        if header.value_range != 0.0 or header.unpred_count:
            raise ValueError(
                "corrupt container: constant flag on a header with "
                f"value_range {header.value_range} and "
                f"{header.unpred_count} unpredictable values"
            )
        return np.full(header.shape, parsed.constant, dtype=header.dtype)
    expected = parsed.n_values
    inner_dtype = parsed.inner_dtype
    try:
        # read_container returns a codec+stream pair (or an opaque
        # payload) for every non-constant container; the header flag
        # bits select the registered coder that parses it.
        coder = coder_for_flags(header.flags)
        payload = EntropyPayload(
            coder.coder_id, header.flags,
            codec=parsed.codec, stream=parsed.stream, raw=parsed.arith,
        )
        nbytes = (
            int(parsed.stream.payload.nbytes) if parsed.stream is not None
            else len(parsed.arith or b"")
        )
        with stage("entropy", nbytes=nbytes):
            codes = coder.decode(
                payload, expected=expected,
                interval_bits=header.interval_bits,
            )
        if codes.size != expected:
            raise ValueError(
                f"corrupt container: {codes.size} codes for {expected} points"
            )
        unpred_recon = _decode_unpred(parsed)
        plan = _get_plan(header.shape, header.layers, inner_dtype)
        radius = interval_radius(header.interval_bits)
        result = wavefront_decompress(
            codes, unpred_recon, plan, header.eb_abs, radius, inner_dtype
        )
        return _postcondition(parsed, result)
    except (EOFError, IndexError) as exc:
        # A corrupted (but length-preserving) payload must fail with the
        # same clean ValueError contract as a truncated container.
        raise ValueError(f"corrupt SZ-1.4 container: {exc}") from exc


def _decode_unpred(parsed: ParsedContainer) -> np.ndarray:
    header = parsed.header
    with stage("unpredictable", nbytes=len(parsed.unpred_payload)):
        return decode_unpredictable(
            parsed.unpred_payload, header.unpred_count, header.eb_abs,
            parsed.inner_dtype,
        )


def _postcondition(parsed: ParsedContainer, result: np.ndarray) -> np.ndarray:
    header = parsed.header
    if header.mode == "pw_rel":
        return pw_postcondition(result, header.side_payload, header.dtype)
    return result


def _lockstep_ok(parsed: ParsedContainer) -> bool:
    """May this container join a batched decode?

    Constant and arithmetic-coded containers have no Huffman stream, and
    codes longer than the flat-table limit would need a two-level table:
    those decode on their own.
    """
    header = parsed.header
    return (
        not header.is_constant
        and parsed.codec is not None
        and parsed.stream is not None
        and parsed.codec.flat_decodable
    )


def decompress_batch(parsed: list[ParsedContainer]) -> list[np.ndarray]:
    """Decode many independent containers together.

    The tiles of a tiled read are independent containers, each too small
    to pay back NumPy's per-call cost on its own.  Here every Huffman
    stream of the batch decodes in one lockstep pass
    (:func:`repro.encoding.huffman.decode_streams`), and containers that
    share shape, layers, dtype and interval count replay in one
    wavefront sweep (:func:`repro.core.wavefront.wavefront_decompress_batch`)
    with each container's bound as a column.  The unpredictable-value
    decode and ``pw_rel`` post-conditioning stay per container.
    Constant, arithmetic-coded and wide-code containers take the
    whole-array path; a lone batchable container is a batch of one.
    Every result is bit-identical to :func:`decompress` of the same
    bytes.
    """
    results: list[Any] = [None] * len(parsed)
    batch = {i for i, p in enumerate(parsed) if _lockstep_ok(p)}
    for i, p in enumerate(parsed):
        if i not in batch:
            results[i] = _decode_parsed(p)
    if not batch:
        return results
    # Same-sweep groups sit next to each other in the lockstep output,
    # so each group's codes are one (B, n) slice of it.
    groups: dict[tuple[Any, ...], list[int]] = {}
    for i in sorted(batch):
        h = parsed[i].header
        key = (h.shape, h.layers, parsed[i].inner_dtype.str, h.interval_bits)
        groups.setdefault(key, []).append(i)
    codecs: list[HuffmanCodec] = []
    streams: list[EncodedStream] = []
    for members in groups.values():
        for i in members:
            p = parsed[i]
            assert p.codec is not None and p.stream is not None
            if p.stream.n_symbols != p.n_values:
                raise ValueError(
                    f"corrupt container: {p.stream.n_symbols} codes for "
                    f"{p.n_values} points"
                )
            codecs.append(p.codec)
            streams.append(p.stream)
    lanes = sum(int(s.block_bits.size) for s in streams)
    with span("decompress_batch", tiles=len(streams), lanes=lanes):
        try:
            nbytes = sum(int(s.payload.nbytes) for s in streams)
            with stage("entropy", nbytes=nbytes):
                codes = decode_streams(codecs, streams)
            pos = 0
            for (shape, layers, inner, bits), members in groups.items():
                n = parsed[members[0]].n_values
                group_codes = codes[pos : pos + len(members) * n]
                pos += len(members) * n
                out = wavefront_decompress_batch(
                    group_codes.reshape(len(members), n),
                    [_decode_unpred(parsed[i]) for i in members],
                    _get_plan(shape, layers, np.dtype(inner)),
                    [parsed[i].header.eb_abs for i in members],
                    interval_radius(bits),
                    np.dtype(inner),
                )
                for b, i in enumerate(members):
                    results[i] = _postcondition(parsed[i], out[b])
        except (EOFError, IndexError) as exc:
            raise ValueError(f"corrupt SZ-1.4 container: {exc}") from exc
    return results


def container_info(blob: Any) -> dict[str, Any]:
    """Inspect a container without decompressing it.

    Returns a dict with shape, dtype, bounds, layer/interval settings,
    unpredictable count and the entropy/post-pass variants in use.
    Accepts any buffer-protocol object, like :func:`decompress`.
    """
    from repro.core.lossless_post import is_wrapped

    blob = _as_byte_view(blob)
    wrapped = is_wrapped(blob)
    header = read_container(unwrap(blob))[0]
    return {
        "shape": header.shape,
        "dtype": str(np.dtype(header.dtype)),
        "mode": header.mode,
        "mode_param": header.mode_param,
        "eb_abs": header.eb_abs,
        "value_range": header.value_range,
        "layers": header.layers,
        "interval_bits": header.interval_bits,
        "n_unpredictable": header.unpred_count,
        "constant": header.is_constant,
        "entropy_coder": coder_for_flags(header.flags).coder_id,
        "lossless_post": wrapped,
        "compressed_bytes": len(blob),
    }


class SZ14Compressor:
    """Object-style façade holding default parameters.

    A thin shim over :class:`repro.api.SZConfig` /
    :class:`repro.api.Codec`: pass ``config=`` directly, or the
    historical keywords (the ``abs_bound``/``rel_bound`` pair is
    deprecated, like everywhere else).

    >>> sz = SZ14Compressor(mode="rel", bound=1e-4, layers=1)
    >>> blob = sz.compress(np.zeros((4, 4), dtype=np.float32) + 1)
    >>> sz.decompress(blob).shape
    (4, 4)
    """

    name = "SZ-1.4"

    def __init__(
        self,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
        layers: int = 1,
        interval_bits: int = 8,
        adaptive: bool = False,
        theta: float = DEFAULT_THETA,
        entropy_coder: str = "huffman",
        lossless_post: bool = False,
        mode: str | None = None,
        bound: float | None = None,
        *,
        config: "SZConfig | None" = None,
    ) -> None:
        if abs_bound is not None or rel_bound is not None:
            warnings.warn(LEGACY_BOUND_MSG, DeprecationWarning, stacklevel=2)
        self._config = config
        if config is not None:
            _reject_config_conflicts(
                abs_bound, rel_bound, layers, interval_bits, adaptive,
                theta, 4096, entropy_coder, lossless_post, mode, bound,
            )
            spec = config.error_bound
            abs_bound, rel_bound = spec.abs_bound, spec.rel_bound
            mode, bound = spec.mode, spec.param
            layers, interval_bits = config.layers, config.interval_bits
            adaptive, theta = config.adaptive, config.theta
            entropy_coder = config.entropy_coder
            lossless_post = config.lossless_post
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound
        self.layers = layers
        self.interval_bits = interval_bits
        self.adaptive = adaptive
        self.theta = theta
        self.entropy_coder = entropy_coder
        self.lossless_post = lossless_post
        self.mode = mode
        self.bound = bound

    def _resolved_config(self, **overrides: Any) -> "SZConfig":
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides.get("abs_bound") is not None or overrides.get(
            "rel_bound"
        ) is not None:
            warnings.warn(LEGACY_BOUND_MSG, DeprecationWarning, stacklevel=3)
        if self._config is not None:
            legacy = {
                k: overrides.pop(k)
                for k in ("abs_bound", "rel_bound")
                if k in overrides
            }
            if legacy:
                overrides["error_bound"] = ErrorBound.from_args(
                    None, None, legacy.get("abs_bound"), legacy.get("rel_bound")
                )
            return (
                self._config.replace(**overrides)
                if overrides
                else self._config
            )
        kwargs = dict(
            abs_bound=self.abs_bound,
            rel_bound=self.rel_bound,
            layers=self.layers,
            interval_bits=self.interval_bits,
            adaptive=self.adaptive,
            theta=self.theta,
            entropy_coder=self.entropy_coder,
            lossless_post=self.lossless_post,
            mode=self.mode,
            bound=self.bound,
        )
        kwargs.update(overrides)
        from repro.api.config import SZConfig

        return SZConfig.from_kwargs(**kwargs)

    def compress(self, data: np.ndarray, **overrides: Any) -> bytes:
        blob, _ = compress_array(data, self._resolved_config(**overrides))
        return blob

    def compress_with_stats(
        self, data: np.ndarray, **overrides: Any
    ) -> tuple[bytes, CompressionStats]:
        return compress_array(data, self._resolved_config(**overrides))

    def decompress(self, blob: Any, out: Any = None) -> np.ndarray:
        return decompress(blob, out=out)

    @property
    def intervals(self) -> int:
        return num_intervals(self.interval_bits)
