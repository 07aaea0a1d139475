"""Repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Two closed-loop workloads (one process, one client) drive the public
API (``repro.Codec`` / ``repro.SZConfig``) on seeded inputs.  With
``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from spans the benchmark records around calls into each layer (see
``perfbench/layers.py``).  Every operation is checked; a failed check
is counted, never fatal.  The last line of standard output is the JSON
result.  See ``perfbench/README.md`` for the workloads, metrics and
the layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from layers import SIDES, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

REGION_BOX = (180, 360)
REGION_FRESH_PER_FIELD = 10
SETUP_SAMPLES = 9
# Median seconds of ``host_probe`` on the 2-CPU VM this benchmark was
# built on, in its slower state.  Timings are reported at this speed.
HOST_PROBE_REF_S = 0.045
_PROBE_ARRAY = np.random.default_rng(0).standard_normal(1 << 19).astype(np.float32)
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    fields: Callable[[int], dict]
    config: dict
    tiled: bool
    # Leading corner of each input used by the memory pass (``None``:
    # the whole input), and how many inputs it reads.  tracemalloc slows
    # the 1-D scalar loop 15x and the per-tile decode about 50x, so those
    # passes run on an eighth of a series and on seven tiles.
    mem_shape: tuple[int, ...] | None = None
    mem_reads: int = 1
    # Cold write/read pairs per run: a fixed count, so the median rests
    # on the same number of samples however fast the host runs.
    cold_pairs: int = 1


WORKLOADS = {
    "atm-2d-tiled": Workload(
        inputs.atm_fields,
        {"mode": "rel", "bound": 1e-4, "tile_shape": (256, 256), "workers": 2},
        tiled=True,
        mem_shape=(256, 1792),
        cold_pairs=2,
    ),
    "series-1d": Workload(
        inputs.series_fields,
        {"mode": "pw_rel", "bound": 1e-3},
        tiled=False,
        mem_shape=(1 << 15,),
        mem_reads=3,
        cold_pairs=4,
    ),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p75(values: list[float]) -> float:
    """75th percentile, interpolated between samples.

    The tiled workload's 40 region reads leave ten samples beyond it.
    The inclusive method never extrapolates past the largest sample, so
    the whole-array workload's p75 (8 to 16 full reads) does not swing
    with a single slow read.
    """
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def host_probe() -> float:
    """Seconds of fixed work that touches no library code: a pure-Python
    loop and a few NumPy passes over a 2 MB array, the two kinds of work
    the workloads do.

    The shared host changes speed by up to 1.7x for minutes at a time,
    moving every timing of the program with it.  Runs probe the host
    between operations and report timings scaled to ``HOST_PROBE_REF_S``.
    """
    t = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += (i * 0.5) % 7.0
    for _ in range(4):
        np.round(np.cumsum(_PROBE_ARRAY) * 0.5).astype(np.int32).sum()
        np.sort(_PROBE_ARRAY[::3])
    return time.perf_counter() - t


def _bits(a: Any) -> Any:
    return a.view(f"u{a.dtype.itemsize}")


class Bench:
    """One run of one workload: inputs, codec, checks and samples."""

    def __init__(self, name: str, wl: Workload, seed: int) -> None:
        import repro  # from ``src/``, put on the path by ``main``

        self.repro = repro
        self.name, self.wl, self.seed = name, wl, seed
        self.inputs = wl.fields(seed)
        self.config = repro.SZConfig.from_kwargs(**wl.config)
        self.codec = repro.Codec(self.config)
        self.serial_codec = repro.Codec(self.config.replace(workers=1))
        self.attempted = 0
        self.failed: list[str] = []
        self.blobs: dict[str, bytes] = {}
        self.decoded: dict[str, Any] = {}
        self.psnr: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.probes: list[float] = []

    # -- checked operations -------------------------------------------------

    def _op(
        self, what: str, fn: Callable[[], Any], verify: Callable[[Any], str]
    ) -> tuple[Any, float | None]:
        """Run and time one operation, then check it: one attempted op.

        ``verify`` returns an empty string or the problem it found.  An
        exception from the operation or its check is a failure, never fatal.
        """
        t = time.perf_counter()
        try:
            result = fn()
            seconds = time.perf_counter() - t
            problem = verify(result)
        except Exception as exc:  # counted as a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if problem:
            self.failed.append(f"{what}: {problem}")
            return None, None
        return result, seconds

    def write(self, key: str, codec: Any = None) -> float | None:
        codec = codec or self.codec
        data = self.inputs[key]
        op = codec.encode_tiled if self.wl.tiled else codec.encode

        def verify(blob: bytes) -> str:
            same = blob == self.blobs.setdefault(key, blob)
            return "" if same else "bytes differ from the first write"

        return self._op(f"write {key}", lambda: op(data), verify)[1]

    def read(self, key: str) -> float | None:
        data = self.inputs[key]
        blob = self.blobs[key]
        op = self.codec.decode_tiled if self.wl.tiled else self.codec.decode

        def verify(out: Any) -> str:
            if out.shape != data.shape or out.dtype != data.dtype:
                return f"decoded {out.shape} {out.dtype}"
            bound = self.config.error_bound
            check = self.repro.verify_bound(data, out, bound.mode, bound.param)
            if not check["ok"]:
                return f"{check['n_violations']} points break the error bound"
            first = self.decoded.setdefault(key, out)
            if not np.array_equal(_bits(out), _bits(first)):
                return "output differs from the first read"
            return ""

        out, seconds = self._op(f"read {key}", lambda: op(blob), verify)
        if out is not None and key not in self.psnr:
            from repro.metrics import psnr

            self.psnr[key] = psnr(data, out)
        return seconds

    def region_boxes(self, key: str) -> list[tuple[slice, slice]]:
        """The region reads of one field, the same on every pass.

        A fresh box starts in a uniformly drawn tile.  Its offset within
        the tile is stratified over the fresh boxes on each axis, and the
        two axes' strata are paired by a fixed permutation, so the mix of
        boxes touching 2, 3, 4 or 6 tiles is the same for every seed.
        Every fresh box is read again two reads later, when the decode
        tables of its tiles are still cached: half of the reads are
        table-cache hits, with the same mix of box sizes as the misses.
        """
        rng = np.random.default_rng([self.seed, 7, list(self.inputs).index(key)])
        n = REGION_FRESH_PER_FIELD
        strata = np.arange(n)
        # y stratum i pairs with x stratum 3i mod n (n coprime to 3): of
        # ten boxes, 2, 1, 4 and 3 touch 2, 3, 4 and 6 tiles, the expected
        # mix for uniform offsets.
        paired = (strata, strata * 3 % n)
        order = rng.permutation(n)
        origins = []
        for extent, size, tile, stratum in zip(
            self.inputs[key].shape, REGION_BOX, self.config.tile_shape, paired
        ):
            offset = ((stratum[order] + rng.random(n)) / n * tile).astype(int)
            last_tile = (extent - size - offset) // tile
            origins.append(rng.integers(last_tile + 1) * tile + offset)
        fresh = [
            (slice(int(y), int(y) + REGION_BOX[0]), slice(int(x), int(x) + REGION_BOX[1]))
            for y, x in zip(*origins)
        ]
        boxes = fresh[:1]
        for i in range(1, n):
            boxes += [fresh[i], fresh[i - 1]]
        return boxes + fresh[-1:]

    def region(self, key: str, box: tuple[slice, slice]) -> float | None:
        """Decode one box; it must equal the same slice of the full decode."""
        blob = self.blobs[key]

        def verify(out: Any) -> str:
            full = self.decoded.get(key)
            if full is None:
                return "no verified full decode to compare with"
            same = out.shape == full[box].shape and np.array_equal(
                _bits(out), _bits(full[box])
            )
            return "" if same else "differs from the full decode"

        return self._op(
            f"region {key}", lambda: self.codec.decode_region(blob, box), verify
        )[1]

    def cycle(self, record: bool, keys: list[str] | None = None) -> None:
        """Write and read every input (or ``keys``) once, plus region reads when tiled."""
        for key in keys or self.inputs:
            for kind, op in (("write", self.write), ("read", self.read)):
                if record:
                    self.probes.append(host_probe())
                seconds = op(key)
                if record and seconds is not None:
                    self.samples.setdefault(f"{kind}:{key}", []).append(seconds)
            if self.wl.tiled:
                for box in self.region_boxes(key):
                    if record:
                        self.probes.append(host_probe())
                    seconds = self.region(key, box)
                    if record and seconds is not None:
                        self.samples.setdefault("region", []).append(seconds)

    # -- end-to-end measurements --------------------------------------------

    def throughput(self, kind: str) -> float:
        """Input MB over the per-input median warm operation time."""
        mb = seconds = 0.0
        for key, data in self.inputs.items():
            times = self.samples.get(f"{kind}:{key}")
            if times:
                mb += data.nbytes / 1e6
                seconds += _median(times)
        return mb / seconds if seconds else 0.0

    def cold(self) -> dict[str, list[float]]:
        """Fresh child processes, one at a time.

        ``cold_pairs`` pairs of a cold write and a cold read, pair ``i`` on
        input ``i`` (cycling), so the median spans the inputs rather than
        resting on one input's decode-table width.  Then children that
        only set up, until ``SETUP_SAMPLES`` set-ups have been timed.
        """
        keys = list(self.blobs)
        ops = [
            (op, keys[i % len(keys)])
            for i in range(self.wl.cold_pairs)
            for op in ("write", "read")
        ]
        ops += [("setup", keys[0])] * (SETUP_SAMPLES - len(ops))
        WORK.mkdir(exist_ok=True)
        work = WORK / f"run-{os.getpid()}"
        work.mkdir()
        out: dict[str, list[float]] = {"setup": [], "write": [], "read": []}
        try:
            for key in dict.fromkeys(key for _, key in ops):
                np.save(work / f"{key}.npy", self.inputs[key])
                (work / f"{key}.blob").write_bytes(self.blobs[key])
            for op, key in ops:
                digest = hashlib.sha256(self.blobs[key]).hexdigest()
                checks = {
                    "write": lambda r: "" if r["sha256"] == digest else "bytes differ",
                    "read": lambda r: "" if r["ok"] else "shape, dtype or error bound",
                }
                spec = {
                    "root": str(ROOT),
                    "op": op,
                    "config": self.config.to_dict(),
                    "tiled": self.wl.tiled,
                    "input": str(work / f"{key}.npy"),
                    "blob": str(work / f"{key}.blob"),
                }
                self.probes.append(host_probe())
                result, _ = self._op(
                    f"cold {op} {key}",
                    lambda: self._child(spec),
                    checks.get(op, lambda _: ""),
                )
                if result is not None:
                    out["setup"].append(result["setup_s"])
                    if op in checks:
                        out[op].append(result["op_s"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return out

    @staticmethod
    def _child(spec: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-400:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _peak(self, what: str, op: Callable[[], Any], nbytes: int) -> tuple[Any, float]:
        """Run ``op`` under tracemalloc: its result and peak over ``nbytes``."""
        tracemalloc.start()
        try:
            result, _ = self._op(what, op, lambda _: "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak / nbytes

    def peak_memory(self) -> tuple[float, float]:
        """tracemalloc peaks of serial writes and reads, over input bytes.

        The write peak is that of the first input.  The read peak is the
        median over the first ``mem_reads`` inputs: the decode table's
        width follows the longest Huffman code, which varies by input,
        and one wide table doubles a small input's peak.
        """
        codec = self.serial_codec
        encode = codec.encode_tiled if self.wl.tiled else codec.encode
        decode = codec.decode_tiled if self.wl.tiled else codec.decode
        corner = tuple(slice(n) for n in self.wl.mem_shape or ())
        prefixes = [
            np.ascontiguousarray(data[corner])
            for data in list(self.inputs.values())[: self.wl.mem_reads]
        ]
        blob, write_peak = self._peak(
            "memory write", lambda: encode(prefixes[0]), prefixes[0].nbytes
        )
        read_peaks = []
        for data in prefixes:
            if data is not prefixes[0]:
                blob, _ = self._op("memory write", lambda: encode(data), lambda _: "")
            if blob is not None:
                read_peaks.append(
                    self._peak("memory read", lambda: decode(blob), data.nbytes)[1]
                )
        return write_peak, _median(read_peaks)

    def stored(self) -> dict[str, int]:
        return {key: len(blob) for key, blob in self.blobs.items()}

    def ratio(self) -> float:
        return sum(a.nbytes for a in self.inputs.values()) / sum(self.stored().values())


def run_untraced(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    # Warm-up: the first input's write fills the plan cache, so the timed
    # loop measures warm calls.  (Decode tables cost little here except
    # on the tiled workload, where its 120 tiles per field cycle through
    # the 64-slot table cache on every full read anyway.)
    bench.write(next(iter(bench.inputs)))
    start = time.perf_counter()
    while True:
        bench.cycle(record=True)
        if time.perf_counter() - start >= seconds:
            break
    phases = {"loop": time.perf_counter() - start}
    t = time.perf_counter()
    cold = bench.cold()
    phases["cold"] = time.perf_counter() - t
    t = time.perf_counter()
    mem_compress, mem_decompress = bench.peak_memory()
    phases["memory"] = time.perf_counter() - t
    print(" ".join(f"phase_{k}_s {v:.2f}" for k, v in phases.items()))
    # A whole-array container has no tile index: reading any region of
    # it decodes the whole array, so its region samples are the full reads.
    region = (
        bench.samples.get("region", []) if bench.wl.tiled
        else [v for k, vs in bench.samples.items() if k.startswith("read:") for v in vs]
    )

    def count(prefix: str) -> int:
        return sum(len(v) for k, v in bench.samples.items() if k.startswith(prefix))

    measured = {
        "compress_mb_s": bench.throughput("write"),
        "decompress_mb_s": bench.throughput("read"),
        "cold_compress_s": _median(cold["write"]),
        "cold_decompress_s": _median(cold["read"]),
        "region_read_ms_p50": 1e3 * _median(region),
        "region_read_ms_p75": 1e3 * _p75(region),
        "setup_s": _median(cold["setup"]),
    }
    # Above 1 when this run's host is faster than the reference.
    speed = HOST_PROBE_REF_S / _median(bench.probes)
    print(f"host_speed {speed:.4f} n={len(bench.probes)}")
    print(" ".join(f"wall_{k} {v:.6g}" for k, v in measured.items()))
    values = {
        k: v / speed if k.endswith("_mb_s") else v * speed for k, v in measured.items()
    }
    values.update({
        "ratio": bench.ratio(),
        "psnr_db": statistics.fmean(bench.psnr.values()) if bench.psnr else 0.0,
        "compress_peak_mem_x": mem_compress,
        "decompress_peak_mem_x": mem_decompress,
    })
    samples = {
        "compress_mb_s": count("write:"),
        "decompress_mb_s": count("read:"),
        "cold_compress_s": len(cold["write"]),
        "cold_decompress_s": len(cold["read"]),
        "region_read_ms_p50": len(region),
        "region_read_ms_p75": len(region),
        "setup_s": len(cold["setup"]),
    }
    return values, samples


def run_traced(bench: Bench) -> tuple[dict[str, float], list[str]]:
    pooled = bench.codec
    bench.codec = bench.serial_codec  # layer calls stay in this process
    # Cold pass first, while the plan and decode-table caches are empty:
    # the per-layer metrics come from it.  The overhead passes then
    # replay the first input's operations, untraced and traced.
    with LayerTracer() as cold:
        bench.cycle(record=False)
    first = [next(iter(bench.inputs))]
    bench.cycle(record=True, keys=first)
    untraced = dict.fromkeys(SIDES, 0.0)
    for kind, times in bench.samples.items():
        untraced["compress" if kind.startswith("write:") else "decompress"] += sum(times)
    with LayerTracer() as warm:
        bench.cycle(record=False, keys=first)
    metrics = cold.layer_metrics()
    traced = warm.side_seconds()
    for side in SIDES:
        metrics[f"trace.overhead_frac.{side}"] = (
            traced[side] / untraced[side] - 1.0 if untraced[side] else 0.0
        )
    metrics["chunked.overhead_frac"] = 0.0
    if bench.wl.tiled:
        payload = 0
        for blob in bench.blobs.values():
            with bench.codec.open_reader(blob) as reader:
                payload += sum(e.length for e in reader.entries)
        stored = sum(bench.stored().values())
        metrics["chunked.overhead_frac"] = (stored - payload) / stored
    metrics["parallel.efficiency"] = 0.0
    workers = bench.config.workers
    if workers > 1:
        serial_s = bench.write(first[0])
        with LayerTracer(only=("parallel",)) as pool:
            pooled_s = bench.write(first[0], pooled)
        metrics["parallel.pool_s"] = pool.layer_metrics()["parallel.pool_s"]
        if serial_s and pooled_s:
            metrics["parallel.efficiency"] = serial_s / (workers * pooled_s)
    return metrics, cold.missing


def _source_digest() -> str:
    """Digest of the library and of this benchmark (which makes the inputs)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_drift(bench: Bench, values: dict[str, float]) -> None:
    """Flag run-to-run drift of the exact outputs for this seed and source.

    Stored bytes, ratio and PSNR are pure functions of the seed and the
    code; a ledger in ``perfbench/_work`` remembers them per
    ``(workload, seed, source digest)`` and any change is counted as a
    failed (nondeterministic) operation.
    """
    WORK.mkdir(exist_ok=True)
    ledger_path = WORK / "ledger.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = f"{bench.name}:{bench.seed}:{_source_digest()}"
    exact = {
        "stored_bytes": bench.stored(),
        "ratio": values["ratio"],
        "psnr_db": values["psnr_db"],
    }
    previous = ledger.setdefault(key, exact)
    bench._op(
        "run-to-run check",
        lambda: previous,
        lambda p: "" if p == exact else f"nondeterministic output: {p} != {exact}",
    )
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    sys.path.insert(0, str(ROOT / "src"))

    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed)
    missing: list[str] = []
    if args.trace:
        wanted = spec["per_layer"]
        values, missing = run_traced(bench)
        samples: dict[str, int] = {}
    else:
        wanted = spec["end_to_end"]
        values, samples = run_untraced(bench, args.seconds)
        check_drift(bench, values)
        values["ok_ops_frac"] = 1.0 - len(bench.failed) / max(1, bench.attempted)

    for what in bench.failed:
        print(f"FAILED {what}")
    for target in missing:
        print(f"MISSING hook {target}: its metrics are not reported")
    if not args.trace:
        for key, size in bench.stored().items():
            print(f"stored_bytes {key} {size}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"MISSING metric {m['name']}")
            continue
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = samples.get(m["name"])
        print(
            f"{m['name']:<40} {value:>14.6g} {m['unit']:<9} {m['better']:<7}"
            + (f" n={n}" if n is not None else "")
        )
    print(json.dumps({
        "correct": not bench.failed,
        "attempted": max(1, bench.attempted),
        "failed": len(bench.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
