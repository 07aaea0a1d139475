"""Tests for repro.obs: span tracing, metrics, exports, cross-process merge.

The invariants pinned here are the ones the subsystem promises:

* spans nest correctly and carry attributes;
* the disabled path allocates nothing (shared null singletons);
* compressed bytes are identical with and without a collector;
* worker telemetry crosses the process pool and merges with per-worker
  lane attribution, deterministically (two runs, same tree shape);
* the run report validates against its schema and converts to a
  well-formed Chrome trace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    SCHEMA,
    Collector,
    chrome_trace,
    metric_add,
    metric_hist,
    metric_observe,
    run_report,
    span,
    summarize_run_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.tracer import _NULL_SPAN, active_collector, annotate
from repro.perf.timer import _NULL_STAGE, StageTimer, stage


class FakeClock:
    """Deterministic injected clock: advances a fixed step per read."""

    def __init__(self, start: float = 100.0, step: float = 0.5) -> None:
        self.t = start
        self.step = step

    def __call__(self) -> float:
        t = self.t
        self.t += self.step
        return t


def _field(shape=(24, 20, 20), seed=0):
    rng = np.random.default_rng(seed)
    smooth = np.sin(np.linspace(0, 20, int(np.prod(shape)))).reshape(shape)
    return (smooth + 0.01 * rng.standard_normal(shape)).astype(np.float32)


class TestSpans:
    def test_nesting_parents_and_attrs(self):
        with Collector() as col:
            with span("outer", kind="demo"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        assert [s.name for s in col.spans] == ["outer", "inner", "inner2"]
        assert [s.parent for s in col.spans] == [-1, 0, 0]
        assert col.spans[0].attrs == {"kind": "demo"}
        assert all(s.end >= s.start for s in col.spans)

    def test_annotate_attaches_to_innermost_open_span(self):
        with Collector() as col:
            with span("outer"):
                with span("inner"):
                    annotate(hit_rate=0.75)
            annotate(lost=True)  # no open span: dropped
        assert col.spans[1].attrs == {"hit_rate": 0.75}
        assert "lost" not in col.spans[0].attrs

    def test_injected_clock_times_spans(self):
        clock = FakeClock(start=10.0, step=1.0)
        col = Collector(clock=clock, wall_clock=lambda: 1234.5)
        assert col.anchor == 1234.5
        with col:
            with col.span("a"):
                pass
        # epoch read at construction (10.0); span start 11.0, end 12.0.
        assert col.spans[0].start == pytest.approx(1.0)
        assert col.spans[0].end == pytest.approx(2.0)

    def test_reentrant_activation_accumulates(self):
        col = Collector()
        with col:
            with span("first"):
                pass
        with col:
            with span("second"):
                pass
        assert [s.name for s in col.spans] == ["first", "second"]
        assert active_collector() is None

    def test_null_singleton_when_inactive(self):
        assert active_collector() is None
        assert span("anything") is _NULL_SPAN
        assert stage("anything") is _NULL_STAGE
        # module-level metric hooks are no-ops, not errors
        metric_add("x")
        metric_observe("x", 1.0)
        metric_hist("x", [1, 2])

    def test_mispaired_end_span_recovers(self):
        col = Collector()
        a = col.start_span("a")
        col.start_span("b")
        col.end_span(a)  # closes a with b still open: stack is repaired
        assert col._stack == []
        c = col.start_span("c")
        assert col.spans[c].parent == -1


class TestMetrics:
    def test_counters_observations_histograms(self):
        col = Collector()
        col.add("n")
        col.add("n", 2.5)
        col.observe("v", 3.0)
        col.observe("v", 1.0)
        col.hist("h", [1, 2])
        col.hist("h", [0, 1, 4])  # longer histogram zero-pads the old
        assert col.counters["n"] == 3.5
        assert col.observations["v"] == {
            "count": 2.0, "sum": 4.0, "min": 1.0, "max": 3.0,
        }
        assert col.histograms["h"] == [1, 3, 4]

    def test_module_helpers_route_to_active_collector(self):
        with Collector() as col:
            metric_add("c", 2)
            metric_observe("o", 7.0)
            metric_hist("h", [5])
        assert col.counters["c"] == 2
        assert col.observations["o"]["max"] == 7.0
        assert col.histograms["h"] == [5]


class TestCodecTelemetry:
    def test_compress_metrics_match_stats(self):
        from repro.core import compress_with_stats

        data = _field((40, 50))
        with Collector() as col:
            _, stats = compress_with_stats(data, mode="abs", bound=1e-3)
        assert col.counters["quantize/outliers"] == stats.n_unpredictable
        assert col.counters["quantize/values"] == stats.n_values
        assert col.counters["compress/calls"] == 1
        assert col.observations["compress/factor"]["max"] == pytest.approx(
            stats.compression_factor
        )
        names = [s.name for s in col.spans]
        assert names[0] == "compress"
        assert "quantize" in names and "entropy" in names
        assert col.spans[0].attrs["mode"] == "abs"
        assert col.spans[0].attrs["shape"] == (40, 50)

    def test_huffman_table_metrics(self):
        from repro.core import compress

        with Collector() as col:
            compress(_field((40, 50)), mode="abs", bound=1e-3)
        hist = col.histograms["huffman/code_lengths"]
        depth = col.observations["huffman/table_depth"]["max"]
        assert sum(hist) > 0
        # the deepest populated bin is the table depth
        assert len(hist) - 1 == int(depth)
        assert col.observations["huffman/table_symbols"]["max"] == sum(hist)

    def test_pw_rel_repair_and_decompress_counters(self):
        from repro.core import compress, decompress

        data = _field((30, 30))
        with Collector() as col:
            blob = compress(data, mode="pw_rel", bound=1e-3)
            decompress(blob)
        assert "pw_rel/repairs" in col.counters  # present even when 0
        assert col.counters["decompress/calls"] == 1
        assert "decompress" in [s.name for s in col.spans]

    def test_bytes_identical_with_and_without_collector(self):
        from repro.chunked.tiled import compress_tiled
        from repro.core import compress

        data = _field()
        for kwargs in (
            {"mode": "abs", "bound": 1e-3},
            {"mode": "pw_rel", "bound": 1e-3},
        ):
            plain = compress(data, **kwargs)
            with Collector():
                traced = compress(data, **kwargs)
            assert traced == plain
        plain = compress_tiled(data, tile_shape=(8, 10, 10), mode="abs",
                               bound=1e-3, workers=2)
        with Collector():
            traced = compress_tiled(data, tile_shape=(8, 10, 10), mode="abs",
                                    bound=1e-3, workers=2)
        assert traced == plain

    def test_codec_accepts_collector(self):
        from repro.api import Codec

        col = Collector()
        codec = Codec(config=None, collector=col, mode="abs", bound=1e-3)
        data = _field((20, 20))
        blob = codec.encode(data)
        codec.decode(blob)
        assert col.counters["compress/calls"] == 1
        assert col.counters["decompress/calls"] == 1
        # runtime state: excluded from identity and config round-trip
        assert codec == Codec(mode="abs", bound=1e-3)
        assert "collector" not in codec.get_config()

    def test_crc_verify_metrics(self):
        from repro.chunked.tiled import compress_tiled, decompress_tiled

        blob = compress_tiled(_field(), tile_shape=(8, 10, 10),
                              mode="abs", bound=1e-3)
        with Collector() as col:
            decompress_tiled(blob)
        assert col.counters["crc/verified"] == 12
        assert "crc/mismatch" not in col.counters


class TestRunReport:
    def _collected(self):
        with Collector() as col:
            with span("outer", kind="t"):
                with span("inner"):
                    metric_add("things", 2)
                    metric_observe("size", 5.0)
                    metric_hist("lens", [0, 3, 1])
        return col

    def test_schema_and_validation(self, tmp_path):
        col = self._collected()
        report = write_run_report(col, tmp_path / "run.json")
        assert report["schema"] == SCHEMA
        on_disk = json.loads((tmp_path / "run.json").read_text())
        validate_run_report(on_disk)
        assert on_disk == json.loads(json.dumps(report))
        assert [s["name"] for s in on_disk["spans"]] == ["outer", "inner"]

    def test_tampered_reports_rejected(self):
        good = run_report(self._collected())

        def broken(**patch):
            bad = json.loads(json.dumps(good))
            bad.update(patch)
            return bad

        with pytest.raises(ValueError, match="schema"):
            validate_run_report(broken(schema="other/9"))
        bad = broken()
        del bad["lanes"]
        with pytest.raises(ValueError, match="lanes"):
            validate_run_report(bad)
        bad = broken()
        bad["spans"][1]["parent"] = 99
        with pytest.raises(ValueError, match="parent"):
            validate_run_report(bad)
        bad = broken()
        bad["spans"][0]["parent"] = 0
        with pytest.raises(ValueError, match="own parent"):
            validate_run_report(bad)
        bad = broken()
        bad["spans"][0]["end"] = bad["spans"][0]["start"] - 1.0
        with pytest.raises(ValueError, match="ends before"):
            validate_run_report(bad)
        bad = broken()
        bad["counters"]["things"] = "two"
        with pytest.raises(ValueError, match="not numeric"):
            validate_run_report(bad)
        bad = broken()
        bad["histograms"]["lens"] = [1, "x"]
        with pytest.raises(ValueError, match="list of ints"):
            validate_run_report(bad)

    def test_chrome_trace_structure(self):
        col = self._collected()
        trace = chrome_trace(col)
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        assert [e["name"] for e in complete] == ["outer", "inner"]
        for e in complete:
            assert e["dur"] >= 0.0
            assert e["tid"] == 0
        # microsecond timestamps: inner starts at or after outer
        outer, inner = complete
        assert inner["ts"] >= outer["ts"]
        # loadable: the whole document is JSON-serializable
        json.dumps(trace)

    def test_summary_lists_spans_and_metrics(self):
        text = summarize_run_report(run_report(self._collected()))
        assert "outer" in text and "inner" in text
        assert "things" in text and "size" in text and "lens" in text


class TestCrossProcess:
    TILE_KW = dict(tile_shape=(8, 10, 10), mode="abs", bound=1e-3, workers=2)

    def _traced_run(self):
        from repro.chunked.tiled import compress_tiled

        with Collector() as col:
            compress_tiled(_field(), **self.TILE_KW)
        return col

    def test_tile_spans_attributed_to_workers(self):
        col = self._traced_run()
        tiles = [s for s in col.spans if s.name == "tile"]
        assert len(tiles) == 12  # 3 x 2 x 2 grid
        assert sorted(s.attrs["tile"] for s in tiles) == list(range(12))
        assert len(col.lane_pids) >= 2  # lane 0 (parent) + worker lane(s)
        for s in tiles:
            assert s.lane >= 1
            assert s.attrs["worker_pid"] == col.lane_pids[s.lane]
            assert "item" in s.attrs
        # every worker span is parented inside the merged tree
        children = [s for s in col.spans if s.name == "compress" and s.lane >= 1]
        assert len(children) == 12
        for s in children:
            assert col.spans[s.parent].name == "tile"

    def test_worker_metrics_reach_parent(self):
        col = self._traced_run()
        assert col.counters["tile/count"] == 12
        assert col.counters["quantize/values"] == 9600
        assert col.counters["quantize/outliers"] > 0
        assert col.observations["tile/compression_factor"]["count"] == 12
        assert sum(col.histograms["huffman/code_lengths"]) > 0

    def test_merge_determinism(self):
        def shape(col):
            return [
                (s.name, s.parent, s.attrs.get("tile"), s.attrs.get("item"))
                for s in col.spans
            ]

        a, b = self._traced_run(), self._traced_run()
        assert shape(a) == shape(b)  # lane/pid/timing aside, same tree

    def test_merge_payload_aligns_anchors_and_lanes(self):
        parent = Collector(clock=FakeClock(0.0, 0.0), wall_clock=lambda: 100.0)
        worker = Collector(clock=FakeClock(0.0, 0.0), wall_clock=lambda: 101.5)
        idx = worker.start_span("w")
        worker.spans[idx].start, worker.spans[idx].end = 1.0, 2.0
        worker._stack.clear()
        worker.add("c", 3)
        payload = worker.to_payload()
        with parent.span("root"):
            parent.merge_payload(payload, attrs={"item": 7})
        merged = parent.spans[1]
        assert merged.name == "w"
        assert merged.start == pytest.approx(2.5)  # 1.0 + (101.5 - 100.0)
        assert merged.end == pytest.approx(3.5)
        assert merged.lane == 1
        assert merged.attrs["item"] == 7
        assert parent.spans[merged.parent].name == "root"
        assert parent.counters["c"] == 3
        # same pid merges to the same lane
        parent.merge_payload(payload)
        assert parent.spans[-1].lane == 1

    def test_pool_map_merges_worker_stage_records(self):
        from repro.chunked.tiled import compress_tiled

        with StageTimer() as t:
            compress_tiled(_field(), **self.TILE_KW)
        # before the telemetry job wrapper, workers>1 lost these records
        assert "quantize" in t.records
        assert t.records["quantize"].calls == 12
        assert t.records["quantize"].nbytes > 0

    def test_single_worker_path_unchanged(self):
        from repro.chunked.tiled import compress_tiled

        kw = dict(self.TILE_KW, workers=1)
        with Collector() as col, StageTimer() as t:
            compress_tiled(_field(), **kw)
        assert "quantize" in t.records
        tiles = [s for s in col.spans if s.name == "tile"]
        assert len(tiles) == 12
        assert all(s.lane == 0 for s in tiles)  # in-process: parent lane


class TestDisabledOverhead:
    def test_disabled_hooks_allocate_nothing(self):
        assert span("x") is span("y") is _NULL_SPAN
        assert stage("x") is stage("y", nbytes=5) is _NULL_STAGE

    def test_disabled_hook_is_cheap(self):
        # Generous absolute guard: 200k disabled stage() calls are two
        # context-variable reads each and must stay far under a second
        # even on a loaded CI runner.
        import time as _time

        t0 = _time.perf_counter()
        for _ in range(200_000):
            with stage("hot"):
                pass
        assert _time.perf_counter() - t0 < 2.0


class TestFooterSummary:
    def test_summary_from_entries_without_decompression(self):
        from repro.chunked.streams import TiledReader
        from repro.chunked.tiled import compress_tiled

        blob = compress_tiled(_field(), tile_shape=(8, 10, 10),
                              mode="abs", bound=1e-3)
        with TiledReader(blob) as reader:
            info = reader.info()
        summary = info["tile_summary"]
        assert summary["n_tiles"] == 12
        assert summary["n_values"] == 9600
        assert sum(summary["hit_rate_hist"]) == 12
        assert sum(summary["mode_share_hist"]) == 12
        assert 0.0 <= summary["hit_rate"]["min"] <= summary["hit_rate"]["max"] <= 1.0
        assert summary["n_unpredictable"] == info["n_unpredictable"]

    def test_empty_entries(self):
        from repro.chunked.format import footer_summary

        assert footer_summary([]) == {"n_tiles": 0}


class TestCLI:
    def test_compress_trace_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "a.npy"
        np.save(src, _field())
        out = tmp_path / "a.sz"
        trace = tmp_path / "run.json"
        rc = main([
            "compress", str(src), str(out), "--mode", "abs", "--bound",
            "1e-3", "--tile", "8,10,10", "--workers", "2",
            "--trace", str(trace),
        ])
        assert rc == 0
        report = json.loads(trace.read_text())
        validate_run_report(report)
        assert any(s["name"] == "tile" for s in report["spans"])
        assert report["counters"]["tile/count"] == 12
        assert len(report["lanes"]) >= 2

        chrome_out = tmp_path / "chrome.json"
        rc = main(["trace", str(trace), "--chrome", str(chrome_out)])
        assert rc == 0
        chrome = json.loads(chrome_out.read_text())
        assert {e["ph"] for e in chrome["traceEvents"]} == {"M", "X"}
        text = capsys.readouterr().out
        assert "tile" in text

        # trace on the container itself: footer summary, no decompression
        rc = main(["trace", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "hit-rate hist" in text

    def test_trace_rejects_garbage(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/9"}')
        with pytest.raises(SystemExit, match="not a run report"):
            main(["trace", str(bad)])

    def test_decompress_trace(self, tmp_path):
        from repro.cli import main

        src = tmp_path / "a.npy"
        np.save(src, _field((20, 20)))
        out = tmp_path / "a.sz"
        back = tmp_path / "b.npy"
        trace = tmp_path / "run.json"
        assert main(["compress", str(src), str(out), "--mode", "abs",
                     "--bound", "1e-3"]) == 0
        assert main(["decompress", str(out), str(back),
                     "--trace", str(trace)]) == 0
        report = json.loads(trace.read_text())
        validate_run_report(report)
        assert report["counters"]["decompress/calls"] == 1
