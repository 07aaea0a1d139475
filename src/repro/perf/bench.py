"""Benchmark runner: sweep the compressor and emit ``BENCH_micro.json``.

Runs ``{dtype} x {dims} x {mode}`` compression/decompression cases at a
chosen size scale, plus one tiled case (``2d-f32-rel-tiled64``: the
2-D field in 64x64 tiles, never below the ``small`` scale, so the
batched tiled read clears the gate's noise floor), aggregates medians
over repeats, and writes a
schema-versioned JSON report with machine info, git revision, end-to-end
throughput and the per-stage breakdown collected by
:mod:`repro.perf.timer`.  The committed ``BENCH_*.json`` files form the
repo's performance trajectory; the CI gate (:mod:`repro.perf.gate`)
compares a fresh run against ``benchmarks/baselines/bench_baseline.json``.

Usage::

    python -m repro.perf.bench --scale tiny --out BENCH_micro.json
    repro-sz bench --scale small --repeats 5

The sweep is deterministic: fields are seeded synthetics, so two runs on
the same revision produce structurally identical reports (timings aside)
— pinned by ``tests/test_perf.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.perf.timer import StageTimer, _median

if TYPE_CHECKING:
    from repro.api import SZConfig

__all__ = [
    "SCHEMA",
    "SCALES",
    "bench_report",
    "calibrate",
    "main",
    "synth_field",
    "validate_report",
]

SCHEMA = "repro-bench/1"
TILED_CASE = "2d-f32-rel-tiled64"

#: per-scale shapes, indexed by dimensionality
SCALES: dict[str, dict[int, tuple[int, ...]]] = {
    "tiny": {1: (4096,), 2: (48, 64), 3: (16, 24, 32)},
    "small": {1: (65536,), 2: (384, 512), 3: (64, 96, 96)},
    "large": {1: (1 << 20,), 2: (1536, 2048), 3: (128, 192, 256)},
}

_DTYPES = {"float32": np.float32, "float64": np.float64}
_DEFAULT_MODES = ("abs", "rel")
_ALL_MODES = ("abs", "rel", "pw_rel", "psnr")
_DEFAULT_KINDS = ("sweep",)
_ALL_KINDS = ("sweep", "estimate")


def synth_field(shape: tuple[int, ...], dtype: str, seed: int = 0) -> np.ndarray:
    """Deterministic smooth-plus-noise field mimicking simulation output."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 4.0 * np.pi, s) for s in shape]
    mesh = np.meshgrid(*axes, indexing="ij") if len(shape) > 1 else [axes[0]]
    field = np.zeros(shape, dtype=np.float64)
    for k, m in enumerate(mesh):
        field += np.sin(m * (1.0 + 0.25 * k))
    field += 0.01 * rng.standard_normal(shape)
    return field.astype(_DTYPES[dtype])


def _mode_config(mode: str, workers: int = 1) -> "SZConfig":
    """The :class:`repro.api.SZConfig` realizing one sweep mode."""
    from repro.api import SZConfig

    bound = {"abs": 1e-3, "rel": 1e-4, "pw_rel": 1e-3, "psnr": 84.0}[mode]
    return SZConfig.from_kwargs(mode=mode, bound=bound, workers=workers)


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed NumPy workload — a machine-speed yardstick.

    The CI gate divides stage times by this before comparing against the
    committed baseline, so a slower/faster runner shifts both sides
    equally instead of tripping the tolerance.
    """
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(1 << 21)
    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = np.cumsum(x)
        y = np.sort(y[: 1 << 19])
        float(y[0])
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _git_rev() -> str:
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"


def _machine_info() -> dict[str, str | int]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _run_case(
    name: str,
    dtype: str,
    shape: tuple[int, ...],
    mode: str,
    repeats: int,
    workers: int = 1,
    tile_shape: tuple[int, ...] | None = None,
) -> dict[str, Any]:
    """One compress/decompress case; ``tile_shape`` makes it tiled."""
    from repro.api import Codec
    from repro.obs import Collector

    field = synth_field(shape, dtype, seed=len(shape))
    codec = Codec(_mode_config(mode, workers=workers))
    if tile_shape is None:
        encode, decode = codec.encode, codec.decode
    else:
        encode = functools.partial(codec.encode_tiled, tile_shape=tile_shape)
        decode = codec.decode_tiled
    # warm-up: plan caches, first-touch allocations.  Run it under a
    # private collector — the codec metrics (outlier counts, Huffman
    # table shape, compression factor) are deterministic for a seeded
    # field, so they ride along in the report without touching the
    # timed repeats below.
    with Collector() as obs:
        blob = encode(field)
        decode(blob)
    obs_metrics = {
        "counters": dict(sorted(obs.counters.items())),
        "observations": {
            k: dict(v) for k, v in sorted(obs.observations.items())
        },
        "histograms": {k: list(v) for k, v in sorted(obs.histograms.items())},
    }

    c_times: list[float] = []
    d_times: list[float] = []
    c_timers: list[StageTimer] = []
    d_timers: list[StageTimer] = []
    for _ in range(repeats):
        with StageTimer() as ct:
            t0 = time.perf_counter()
            blob = encode(field)
            c_times.append(time.perf_counter() - t0)
        c_timers.append(ct)
        with StageTimer() as dt_:
            t0 = time.perf_counter()
            out = decode(blob)
            d_times.append(time.perf_counter() - t0)
        d_timers.append(dt_)
    if out.shape != field.shape:
        raise RuntimeError(f"bench case {name}: round-trip shape mismatch")
    c_sec = _median(c_times)
    d_sec = _median(d_times)
    case: dict[str, Any] = {
        "name": name,
        "dtype": dtype,
        "ndim": len(shape),
        "shape": list(shape),
        "mode": mode,
        "n_bytes": int(field.nbytes),
        "compressed_bytes": len(blob),
        "compression_factor": field.nbytes / max(1, len(blob)),
        "compress": {
            "seconds": c_sec,
            "mb_per_s": field.nbytes / c_sec / 1e6 if c_sec > 0 else 0.0,
            "stages": StageTimer.median_stages(c_timers),
        },
        "decompress": {
            "seconds": d_sec,
            "mb_per_s": field.nbytes / d_sec / 1e6 if d_sec > 0 else 0.0,
            "stages": StageTimer.median_stages(d_timers),
        },
        "obs": obs_metrics,
    }
    if tile_shape is not None:
        case["tile_shape"] = list(tile_shape)
    return case


def _run_estimate_case(
    name: str,
    dtype: str,
    shape: tuple[int, ...],
    mode: str,
    repeats: int,
) -> dict[str, Any]:
    """Sampled estimation vs. full compression on one bench field.

    Records the accuracy (predicted ratio vs. the true ratio of a real
    compression) and the wall-clock speedup of :func:`repro.tuning.
    estimate` — the numbers the README's estimation section quotes and
    the CI smoke asserts on.
    """
    from repro.core.compressor import compress_array
    from repro.tuning import estimate

    field = synth_field(shape, dtype, seed=len(shape))
    config = _mode_config(mode)
    # warm-up both paths: plan caches, first-touch allocations.
    blob, _ = compress_array(field, config)
    est = estimate(field, config)
    c_times: list[float] = []
    e_times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        blob, _ = compress_array(field, config)
        c_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        est = estimate(field, config)
        e_times.append(time.perf_counter() - t0)
    actual = field.nbytes / max(1, len(blob))
    c_sec = _median(c_times)
    e_sec = _median(e_times)
    return {
        "name": name,
        "dtype": dtype,
        "ndim": len(shape),
        "shape": list(shape),
        "mode": mode,
        "n_bytes": int(field.nbytes),
        "actual_ratio": actual,
        "predicted_ratio": est.ratio,
        "predicted_ratio_low": est.ratio_low,
        "predicted_ratio_high": est.ratio_high,
        "rel_err": est.ratio / actual - 1.0,
        "sample_fraction": est.sample_fraction,
        "n_blocks": est.n_blocks,
        "compress_seconds": c_sec,
        "estimate_seconds": e_sec,
        "speedup": c_sec / max(e_sec, 1e-12),
    }


def bench_report(
    scale: str = "tiny",
    repeats: int = 3,
    modes: tuple[str, ...] = _DEFAULT_MODES,
    dtypes: tuple[str, ...] = ("float32", "float64"),
    dims: tuple[int, ...] = (1, 2, 3),
    only: tuple[str, ...] | None = None,
    workers: int = 1,
    kinds: tuple[str, ...] = _DEFAULT_KINDS,
) -> dict[str, Any]:
    """Run the sweep and return the report dict (see :data:`SCHEMA`).

    ``kinds`` selects the case families: ``"sweep"`` is the classic
    compress/decompress stage breakdown; ``"estimate"`` adds 3-D
    estimator accuracy/speedup cases under ``estimate_cases``.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    for m in modes:
        if m not in _ALL_MODES:
            raise ValueError(f"unknown mode {m!r}; choose from {_ALL_MODES}")
    for kind in kinds:
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown kind {kind!r}; choose from {_ALL_KINDS}")
    if not kinds:
        raise ValueError("kinds must name at least one case family")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cases: list[dict[str, Any]] = []
    if "sweep" in kinds:
        for dtype in dtypes:
            for ndim in dims:
                for mode in modes:
                    name = (
                        f"{ndim}d-{'f32' if dtype == 'float32' else 'f64'}"
                        f"-{mode}"
                    )
                    if only is not None and name not in only:
                        continue
                    shape = SCALES[scale][ndim]
                    cases.append(
                        _run_case(name, dtype, shape, mode, repeats, workers)
                    )
        # The tiled read: 64x64 tiles (one Huffman block each) of the
        # 2-D field, never below the small scale so that its batched
        # decode stages clear the gate's noise floor.
        name = TILED_CASE
        if (
            2 in dims and "float32" in dtypes and "rel" in modes
            and (only is None or name in only)
        ):
            shape = SCALES["small" if scale == "tiny" else scale][2]
            cases.append(
                _run_case(
                    name, "float32", shape, "rel", repeats, workers,
                    tile_shape=(64, 64),
                )
            )
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "git_rev": _git_rev(),
        "machine": _machine_info(),
        "scale": scale,
        "repeats": repeats,
        "calibration_seconds": calibrate(),
        "cases": cases,
    }
    if "estimate" in kinds:
        # The estimator's value shows on the 3-D fields (the paper's
        # target workload); f32 keeps the family small and comparable.
        report["estimate_cases"] = [
            _run_estimate_case(
                f"3d-f32-{mode}-estimate", "float32", SCALES[scale][3],
                mode, repeats,
            )
            for mode in modes
        ]
    validate_report(report)
    return report


_REQUIRED_TOP = (
    "schema",
    "created_unix",
    "git_rev",
    "machine",
    "scale",
    "repeats",
    "calibration_seconds",
    "cases",
)
_REQUIRED_CASE = (
    "name",
    "dtype",
    "ndim",
    "shape",
    "mode",
    "n_bytes",
    "compressed_bytes",
    "compression_factor",
    "compress",
    "decompress",
)
_REQUIRED_SIDE = ("seconds", "mb_per_s", "stages")
_REQUIRED_STAGE = ("calls", "seconds", "bytes", "mb_per_s")
_REQUIRED_ESTIMATE_CASE = (
    "name",
    "dtype",
    "ndim",
    "shape",
    "mode",
    "actual_ratio",
    "predicted_ratio",
    "rel_err",
    "compress_seconds",
    "estimate_seconds",
    "speedup",
)


def validate_report(report: dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``report`` is not a valid bench report."""
    if not isinstance(report, dict):
        raise ValueError("bench report must be a JSON object")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported bench schema {report.get('schema')!r}; want {SCHEMA!r}"
        )
    for key in _REQUIRED_TOP:
        if key not in report:
            raise ValueError(f"bench report missing required key {key!r}")
    if not isinstance(report["cases"], list):
        raise ValueError("bench report cases must be a list")
    # ``estimate_cases`` is an optional family (reports predating it and
    # estimate-only runs both validate); when present it must be
    # well-formed, and at least one family must be non-empty.
    est_cases = report.get("estimate_cases", [])
    if not isinstance(est_cases, list):
        raise ValueError("bench report estimate_cases must be a list")
    for case in est_cases:
        for key in _REQUIRED_ESTIMATE_CASE:
            if key not in case:
                raise ValueError(
                    f"estimate case {case.get('name', '?')!r} "
                    f"missing key {key!r}"
                )
    if not report["cases"] and not est_cases:
        raise ValueError("bench report has no cases")
    for case in report["cases"]:
        for key in _REQUIRED_CASE:
            if key not in case:
                raise ValueError(
                    f"bench case {case.get('name', '?')!r} missing key {key!r}"
                )
        for side in ("compress", "decompress"):
            for key in _REQUIRED_SIDE:
                if key not in case[side]:
                    raise ValueError(
                        f"case {case['name']!r} {side} missing key {key!r}"
                    )
            for path, rec in case[side]["stages"].items():
                for key in _REQUIRED_STAGE:
                    if key not in rec:
                        raise ValueError(
                            f"case {case['name']!r} stage {path!r} "
                            f"missing key {key!r}"
                        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="micro-benchmark the compressor and write BENCH_micro.json",
    )
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        choices=sorted(SCALES),
        help="sweep size (env REPRO_BENCH_SCALE overrides the default)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--modes",
        default=",".join(_DEFAULT_MODES),
        help=f"comma-separated subset of {_ALL_MODES}",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated case names to run (e.g. 3d-f32-rel)",
    )
    parser.add_argument(
        "--cases",
        default=",".join(_DEFAULT_KINDS),
        help=f"comma-separated case families from {_ALL_KINDS}: "
             "'sweep' is the stage-breakdown matrix, 'estimate' the "
             "sampled-estimator accuracy/speedup cases",
    )
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="wavefront pool width; >1 enables the multi-process "
             "hyperplane split on arrays above the size gate",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record the sweep under a repro.obs Collector and write the "
             "repro-obs/1 run report (adds tracing overhead to the "
             "timed sections; use for profiling, not for baselines)",
    )
    args = parser.parse_args(argv)
    collector = None
    if args.trace:
        from repro.obs import Collector

        collector = Collector()
        collector.__enter__()
    try:
        report = bench_report(
            scale=args.scale,
            repeats=args.repeats,
            modes=tuple(m for m in args.modes.split(",") if m),
            only=tuple(args.only.split(",")) if args.only else None,
            workers=args.workers,
            kinds=tuple(k for k in args.cases.split(",") if k),
        )
    finally:
        if collector is not None:
            collector.__exit__(None, None, None)
    if collector is not None:
        from repro.obs import write_run_report

        write_run_report(collector, args.trace)
        print(f"trace: {len(collector.spans)} spans -> {args.trace}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for case in report["cases"]:
        print(
            f"{case['name']:14s} compress {case['compress']['mb_per_s']:8.2f} MB/s"
            f"  decompress {case['decompress']['mb_per_s']:8.2f} MB/s"
            f"  CF {case['compression_factor']:6.2f}"
        )
    for case in report.get("estimate_cases", []):
        print(
            f"{case['name']:20s} actual CF {case['actual_ratio']:7.2f}"
            f"  predicted {case['predicted_ratio']:7.2f}"
            f"  err {case['rel_err']:+7.2%}"
            f"  speedup {case['speedup']:6.1f}x"
        )
    n_cases = len(report["cases"]) + len(report.get("estimate_cases", []))
    print(f"wrote {args.out} ({n_cases} cases, scale {args.scale})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
