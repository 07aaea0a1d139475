"""Per-layer spans recorded from the benchmark's own files.

A :class:`LayerTracer` replaces module and class attributes that the
program's callers look up at call time with thin timing wrappers, runs
the traced pass, and restores every original on exit.  Nothing under
``src/`` changes, so the compressed bytes cannot depend on tracing (the
traced run asserts this).

``HOOKS`` lists every wrapped call with the metrics it feeds.  Several
have no public entry point, so a refactor may rename or remove them; a
hook that no longer resolves is reported as *missing* and its metrics
are left out of the result instead of reading as a silent zero.
"""

from __future__ import annotations

import importlib
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

# (layer, kind, "module:Owner.attr", metrics the hook feeds).  ``Owner``
# is omitted for a module-level function.  Every target is looked up by
# its caller at call time, so replacing the attribute intercepts the
# call.  A hook that no longer resolves drops exactly its metrics.
HOOKS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("api", "compress", "repro.api.codec:Codec.encode", ()),
    ("api", "compress", "repro.api.codec:Codec.encode_tiled", ()),
    ("api", "decompress", "repro.api.codec:Codec.decode", ()),
    ("api", "decompress", "repro.api.codec:Codec.decode_tiled", ()),
    ("api", "region", "repro.api.codec:Codec.decode_region", ()),
    # Per-tile engine calls: their glue (value range, histograms) stays
    # with the api layer instead of inflating the pool's self time.
    ("api", "engine", "repro.chunked.streams:compress_array", ()),
    ("api", "engine", "repro.chunked.streams:decompress", ()),
    ("core.wavefront", "plan", "repro.core.compressor:_get_plan",
     ("core.wavefront.plan_build_s", "core.wavefront.plan_builds")),
    ("core.wavefront", "quantize", "repro.core.compressor:wavefront_compress",
     ("core.wavefront.quantize_s", "core.wavefront.quantize_calls",
      "core.wavefront.hit_rate", "core.wavefront.mpoints_per_s")),
    ("core.wavefront", "dequantize", "repro.core.compressor:wavefront_decompress",
     ("core.wavefront.dequantize_s",)),
    ("core.bounds", "pw", "repro.core.compressor:pw_precondition", ("core.bounds.pw_s",)),
    ("core.bounds", "repair", "repro.core.compressor:pw_apply_repairs",
     ("core.bounds.pw_s", "core.bounds.pw_repairs")),
    ("core.bounds", "pw", "repro.core.compressor:pw_encode_side", ("core.bounds.pw_s",)),
    ("core.bounds", "pw", "repro.core.compressor:pw_postcondition", ("core.bounds.pw_s",)),
    ("core.unpredictable", "encode", "repro.core.compressor:encode_unpredictable",
     ("core.unpredictable.encode_s", "core.unpredictable.frac")),
    ("core.unpredictable", "decode", "repro.core.compressor:decode_unpredictable",
     ("core.unpredictable.decode_s",)),
    ("encoding.huffman", "encode", "repro.encoding.coders:HuffmanEntropyCoder.encode",
     ("encoding.huffman.encode_s", "encoding.huffman.bits_per_value")),
    ("encoding.huffman", "decode", "repro.encoding.coders:HuffmanEntropyCoder.decode",
     ("encoding.huffman.decode_s",)),
    ("encoding.huffman", "table", "repro.encoding.huffman:_decode_tables_for",
     ("encoding.huffman.table_build_s", "encoding.huffman.table_cache_hit_rate",
      "encoding.huffman.decode_s")),
    ("encoding.huffman", "build", "repro.encoding.huffman:_build_multi_tables",
     ("encoding.huffman.table_builds", "encoding.huffman.table_cache_hit_rate")),
    ("encoding.huffman", "build", "repro.encoding.huffman:_build_two_level_tables",
     ("encoding.huffman.table_builds", "encoding.huffman.table_cache_hit_rate")),
    ("core.stream", "write", "repro.core.compressor:write_container", ("core.stream.write_s",)),
    ("core.stream", "read", "repro.core.compressor:read_container", ("core.stream.read_s",)),
    ("chunked", "write", "repro.chunked.streams:TiledWriter.write_tiles", ()),
    ("chunked", "write", "repro.chunked.streams:TiledWriter.close", ()),
    ("chunked", "open", "repro.chunked.streams:TiledReader.__init__", ()),
    ("chunked", "assemble", "repro.chunked.streams:TiledReader.read_all", ()),
    ("chunked", "assemble", "repro.chunked.streams:TiledReader.region",
     ("chunked.tiles_per_region", "chunked.region_amplification")),
    ("chunked", "tile_read", "repro.chunked.streams:TiledReader.read_tile_bytes",
     ("chunked.tile_read_s", "chunked.tiles_per_region", "chunked.region_amplification")),
    ("parallel", "pool", "repro.chunked.streams:pool_map", ("parallel.pool_s",)),
)

SIDES = ("compress", "decompress")


@dataclass
class Span:
    layer: str
    kind: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_s: float = 0.0
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} not found")
    return owner, attr


def _size_of(value: Any) -> float:
    return float(getattr(value, "size", 0))


class LayerTracer:
    """Install the timing wrappers for the duration of a ``with`` block.

    ``only`` restricts the hooks to the listed layers (used to time the
    process pool alone around an otherwise untraced pooled write).
    """

    def __init__(self, only: tuple[str, ...] | None = None) -> None:
        self.only = only
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._plans: weakref.WeakSet[Any] = weakref.WeakSet()

    def __enter__(self) -> "LayerTracer":
        for layer, kind, target, _ in HOOKS:
            if self.only is not None and layer not in self.only:
                continue
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, kind))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable[..., Any], layer: str, kind: str) -> Callable[..., Any]:
        observe = getattr(self, f"_observe_{layer.replace('.', '_')}_{kind}", None)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, kind, 0.0, parent=parent)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
                self.spans.append(span)
            if observe is not None:
                observe(span, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- per-hook observations (read arguments/results, never mutate) ------

    def _observe_api_compress(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["points"] = _size_of(args[1])

    def _observe_api_region(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["points"] = _size_of(result)

    def _observe_core_wavefront_plan(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["built"] = float(result not in self._plans)
        self._plans.add(result)

    def _observe_core_wavefront_quantize(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["points"] = _size_of(args[0])
        span.attrs["hit_rate"] = float(result.hit_rate)

    def _observe_core_bounds_repair(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["repairs"] = float(result)

    def _observe_core_unpredictable_encode(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["values"] = _size_of(args[0])

    def _observe_encoding_huffman_encode(self, span: Span, args: tuple, result: Any) -> None:
        span.attrs["codes"] = _size_of(args[1])
        span.attrs["bits"] = float(result.stream.total_bits)

    def _observe_chunked_tile_read(self, span: Span, args: tuple, result: Any) -> None:
        reader, index = args[0], args[1]
        points = 1
        for n in reader.grid.tile_data_shape(index):
            points *= n
        span.attrs["points"] = float(points)

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of every recorded span, minus missing hooks."""
        spans = self.spans

        def select(layer: str, kind: str | None = None) -> list[Span]:
            return [
                s for s in spans
                if s.layer == layer and (kind is None or s.kind == kind)
            ]

        def self_s(layer: str, kind: str | None = None) -> float:
            return sum(s.self_s for s in select(layer, kind))

        def total(items: list[Span], key: str) -> float:
            return sum(s.attrs.get(key, 0.0) for s in items)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        plans = [s for s in select("core.wavefront", "plan") if s.attrs.get("built")]
        quant = select("core.wavefront", "quantize")
        quant_points = total(quant, "points")
        quant_s = self_s("core.wavefront", "quantize")
        written = total(select("api", "compress"), "points")
        huff_enc = select("encoding.huffman", "encode")
        lookups = len(select("encoding.huffman", "table"))
        builds = len(select("encoding.huffman", "build"))
        regions = select("api", "region")
        region_tiles = [
            s for s in select("chunked", "tile_read")
            if s.root.kind == "region"
        ]
        metrics = {
            "core.wavefront.plan_build_s": sum(s.seconds for s in plans),
            "core.wavefront.plan_builds": float(len(plans)),
            "core.wavefront.quantize_s": quant_s,
            "core.wavefront.quantize_calls": float(len(quant)),
            "core.wavefront.dequantize_s": self_s("core.wavefront", "dequantize"),
            "core.wavefront.hit_rate": ratio(
                sum(s.attrs["hit_rate"] * s.attrs["points"] for s in quant),
                quant_points,
            ),
            "core.wavefront.mpoints_per_s": ratio(quant_points / 1e6, quant_s),
            "core.bounds.pw_s": self_s("core.bounds"),
            "core.bounds.pw_repairs": total(select("core.bounds", "repair"), "repairs"),
            "core.unpredictable.encode_s": self_s("core.unpredictable", "encode"),
            "core.unpredictable.decode_s": self_s("core.unpredictable", "decode"),
            "core.unpredictable.frac": ratio(
                total(select("core.unpredictable", "encode"), "values"), written
            ),
            "encoding.huffman.encode_s": self_s("encoding.huffman", "encode"),
            "encoding.huffman.decode_s": self_s("encoding.huffman", "decode"),
            "encoding.huffman.table_build_s": sum(
                s.seconds for s in select("encoding.huffman", "table")
            ),
            "encoding.huffman.table_builds": float(builds),
            "encoding.huffman.table_cache_hit_rate": ratio(lookups - builds, lookups),
            "encoding.huffman.bits_per_value": ratio(
                total(huff_enc, "bits"), total(huff_enc, "codes")
            ),
            "core.stream.write_s": self_s("core.stream", "write"),
            "core.stream.read_s": self_s("core.stream", "read"),
            "chunked.tile_read_s": self_s("chunked", "tile_read"),
            "chunked.tiles_per_region": ratio(len(region_tiles), len(regions)),
            "chunked.region_amplification": ratio(
                total(region_tiles, "points"), total(regions, "points")
            ),
            "parallel.pool_s": self_s("parallel"),
        }
        for side in SIDES:
            roots = [
                s for s in spans
                if s.parent is None and s.layer == "api" and _side(s.kind) == side
            ]
            wall = sum(s.seconds for s in roots)
            api_self = sum(
                s.self_s for s in select("api") if _side(s.root.kind) == side
            )
            metrics[f"api.unattributed_frac.{side}"] = ratio(api_self, wall)
        for _, _, target, names in HOOKS:
            if target in self.missing:
                for name in names:
                    metrics.pop(name, None)
        return metrics

    def side_seconds(self) -> dict[str, float]:
        """Wall time of the outermost api calls, per side."""
        out = dict.fromkeys(SIDES, 0.0)
        for s in self.spans:
            if s.parent is None and s.layer == "api":
                out[_side(s.kind)] += s.seconds
        return out


def _side(kind: str) -> str:
    return "compress" if kind == "compress" else "decompress"
