"""Unit tests for request-scoped tracing (``repro.obs``).

The tracing contract the rest of the suite leans on: spans are free on
untraced paths, propagate across threads and processes through explicit
contexts, survive into JSONL sinks, and merge back into orphan-free trees.
"""

import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _fresh_recorder():
    """Each test gets its own recorder; none leaks a sink or listeners."""
    obs.configure(service="test", log_path=None)
    yield
    obs.configure(service="", log_path=None)


class TestSpanRecording:
    def test_span_without_context_is_a_noop(self):
        with obs.span("quiet") as handle:
            assert handle.context is None
            assert obs.current() is None
        assert obs.recorder().spans() == []

    def test_new_trace_records_a_root_span(self):
        with obs.span("root", new_trace=True, method="POST") as handle:
            assert handle.context is not None
            assert obs.current() is handle.context
        records = obs.recorder().spans()
        assert len(records) == 1
        (record,) = records
        assert record["name"] == "root"
        assert record["parent_id"] is None
        assert record["status"] == "ok"
        assert record["service"] == "test"
        assert record["attrs"]["method"] == "POST"
        assert record["duration"] >= 0.0

    def test_nested_spans_parent_on_the_ambient_context(self):
        with obs.span("outer", new_trace=True) as outer:
            with obs.span("inner"):
                pass
        inner, outer_rec = sorted(
            obs.recorder().spans(), key=lambda r: r["name"]
        )
        assert inner["trace_id"] == outer_rec["trace_id"]
        assert inner["parent_id"] == outer.context.span_id

    def test_exception_marks_status_error_and_restores_context(self):
        with pytest.raises(ValueError):
            with obs.span("boom", new_trace=True):
                raise ValueError("x")
        (record,) = obs.recorder().spans()
        assert record["status"] == "error"
        assert obs.current() is None

    def test_record_start_emits_an_immediate_start_event(self):
        with obs.span("slow", new_trace=True, record_start=True):
            mid = obs.recorder().spans()
            assert len(mid) == 1 and mid[0]["event"] == "start"
        start, done = obs.recorder().spans()
        assert start["span_id"] == done["span_id"]
        assert "duration" not in start and "duration" in done

    def test_record_span_joins_the_given_parent(self):
        parent = obs.SpanContext(trace_id=obs.new_trace_id(), span_id="p1")
        child = obs.record_span("later", parent=parent, started_at=1.0, duration=0.5)
        (record,) = obs.recorder().spans()
        assert record["parent_id"] == "p1"
        assert record["trace_id"] == parent.trace_id
        assert child.trace_id == parent.trace_id

    def test_ring_filter_by_trace_id(self):
        with obs.span("a", new_trace=True) as a:
            pass
        with obs.span("b", new_trace=True):
            pass
        only_a = obs.recorder().spans(a.context.trace_id)
        assert [r["name"] for r in only_a] == ["a"]


class TestPropagation:
    def test_headers_round_trip(self):
        context = obs.SpanContext(trace_id="t" * 32, span_id="s" * 16)
        extracted = obs.extract_context(context.headers())
        assert extracted == context

    def test_extract_requires_a_trace_id(self):
        assert obs.extract_context({}) is None
        assert obs.extract_context({obs.SPAN_ID_HEADER: "x"}) is None

    def test_ambient_installs_and_restores(self):
        context = obs.SpanContext(trace_id="t", span_id="s")
        with obs.ambient(context):
            assert obs.current() is context
            with obs.span("child") as handle:
                assert handle.context.trace_id == "t"
        assert obs.current() is None


class TestSink:
    def test_spans_land_in_the_jsonl_sink(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        obs.configure(service="sinky", log_path=str(sink))
        with obs.span("persisted", new_trace=True):
            pass
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["name"] == "persisted"
        assert lines[0]["service"] == "sinky"

    def test_sink_failure_is_silent_and_final(self, tmp_path):
        # A directory path cannot be opened for append: the sink latches
        # failed, spans keep flowing to the ring, nothing raises.
        obs.configure(service="x", log_path=str(tmp_path))
        with obs.span("still-works", new_trace=True):
            pass
        assert [r["name"] for r in obs.recorder().spans()] == ["still-works"]

    def test_listeners_see_records_and_cannot_break_requests(self):
        seen = []
        obs.recorder().add_listener(seen.append)
        obs.recorder().add_listener(lambda r: 1 / 0)  # must be swallowed
        with obs.span("observed", new_trace=True):
            pass
        assert [r["name"] for r in seen] == ["observed"]
        obs.recorder().remove_listener(seen.append)


class TestJsonlSink:
    def test_appends_one_line_per_record_across_reopens(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sink = obs.JsonlSink(str(path))
        sink.write({"n": 1})
        sink.sync()
        sink.close()
        reopened = obs.JsonlSink(str(path))
        reopened.write({"n": 2})
        try:
            # Flushed as written: readable before the sink is closed.
            assert [json.loads(line) for line in path.read_text().splitlines()] == [
                {"n": 1},
                {"n": 2},
            ]
        finally:
            reopened.close()

    def test_first_os_error_silences_it_for_good(self, tmp_path):
        sink = obs.JsonlSink(str(tmp_path))  # a directory: open() fails
        sink.write({"n": 1})
        sink.sync()
        (tmp_path / "late.jsonl").write_text("")
        sink.path = str(tmp_path / "late.jsonl")  # now writable, still silent
        sink.write({"n": 2})
        assert (tmp_path / "late.jsonl").read_text() == ""


class TestMergeAndVerify:
    def _record(self, trace_id, span_id, parent_id=None, **extra):
        record = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": extra.pop("name", span_id),
            "start": extra.pop("start", 0.0),
            "duration": extra.pop("duration", 0.001),
        }
        record.update(extra)
        return record

    def test_merge_groups_by_trace_and_dedups_span_ids(self):
        start_event = self._record("t1", "a", name="root", start=1.0)
        del start_event["duration"]  # a bare start event
        completed = self._record("t1", "a", name="root", start=1.0)
        other = self._record("t2", "b", name="other")
        traces = obs.merge_spans([start_event, completed, other])
        assert set(traces) == {"t1", "t2"}
        assert len(traces["t1"]) == 1
        assert "duration" in traces["t1"][0]  # the completed record won

    def test_build_tree_separates_roots_and_orphans(self):
        records = [
            self._record("t", "root", start=1.0),
            self._record("t", "child", parent_id="root", start=2.0),
            self._record("t", "lost", parent_id="missing", start=3.0),
        ]
        roots, orphans = obs.build_tree(records)
        assert [r["span_id"] for r in roots] == ["root"]
        assert [c["span_id"] for c in roots[0]["children"]] == ["child"]
        assert [o["span_id"] for o in orphans] == ["lost"]

    def test_verify_flags_orphans(self):
        traces = {"t": [self._record("t", "lost", parent_id="gone")]}
        problems = obs.verify(traces)
        assert len(problems) == 1
        assert "missing parent gone" in problems[0]

    def test_verify_require_needs_one_trace_with_all_spans(self):
        traces = {
            "t1": [self._record("t1", "a", name="http.request")],
            "t2": [
                self._record("t2", "b", name="http.request"),
                self._record("t2", "c", parent_id="b", name="journal.append"),
            ],
        }
        assert obs.verify(traces, require=["http.request", "journal.append"]) == []
        problems = obs.verify(traces, require=["http.request", "replica.apply"])
        assert problems and "replica.apply" in problems[0]

    def test_load_spans_skips_junk_and_missing_files(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        good = self._record("t", "a")
        sink.write_text(json.dumps(good) + "\nnot json\n{}\n")
        spans = obs.load_spans([str(sink), str(tmp_path / "absent.jsonl")])
        assert len(spans) == 1  # junk line and span-id-less record dropped

    def test_format_trace_marks_incomplete_and_orphaned_spans(self):
        start_only = self._record("t", "a", name="root", start=1.0)
        del start_only["duration"]
        records = [
            start_only,
            self._record("t", "b", parent_id="a", name="child", start=2.0),
            self._record("t", "c", parent_id="zzz", name="stray", start=3.0),
        ]
        text = obs.format_trace("t", records)
        assert "(incomplete)" in text
        assert "? orphan stray" in text
        assert text.splitlines()[0].startswith("trace t")
