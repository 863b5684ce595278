"""Tests for repro.jsonl: the shared JSON-lines writer.

The differential test keeps the streaming ``json.dump`` path every
writer used before as the reference, and requires the one-shot encoder
to produce the same bytes on records shaped like ours.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.jsonl import JsonlWriter, encode_line

SCHEMA = 1

#: Floats the encoders are most likely to disagree on.
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
    0.1, 1 / 3, 1e16, 123456789.125, math.nan, math.inf, -math.inf])

_LEAVES = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-2 ** 200,
                                         max_value=2 ** 200)
           | st.floats(allow_nan=True, allow_infinity=True) | _EDGE_FLOATS
           | st.text(max_size=12)
           | st.text(alphabet="añ€𝄞é中\"\\\n\t\x00/", max_size=8))

_KEYS = st.text(max_size=6) | st.sampled_from(
    ["type", "span_id", "trace_id", "start", "end", "attrs", "détail"])

_VALUES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=24)

#: One JSONL record: maybe a string ``type``, then nested fields.
_RECORDS = st.builds(
    lambda kind, body: ({"type": kind, **body} if kind else body),
    st.sampled_from([None, "span", "link", "journal", "telemetry"]),
    st.dictionaries(_KEYS.filter(lambda key: key != "type"), _VALUES,
                    max_size=6))


def _reference_bytes(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            record = dict(record)
            record["schema"] = SCHEMA
            json.dump(record, handle, separators=(",", ":"))
            handle.write("\n")
    with open(path, "rb") as handle:
        return handle.read()


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RECORDS, max_size=5))
    def test_bytes_match_streaming_json_dump(self, records):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "out.jsonl")
            with JsonlWriter(path, SCHEMA) as writer:
                for record in records:
                    writer.write_record(dict(record))
            with open(path, "rb") as handle:
                written = handle.read()
            reference = _reference_bytes(
                os.path.join(scratch, "ref.jsonl"), records)
        assert written == reference

    @given(_VALUES)
    def test_encode_line_matches_dumps(self, value):
        assert encode_line(value) == json.dumps(value, separators=(",", ":"))


class TestLifecycle:
    def test_counts_by_type_and_schema_stamp(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlWriter(str(path), 7) as writer:
            writer.write_record({"type": "span", "x": 1})
            writer.write_record({"type": "span", "x": 2})
            writer.write_record({"x": 3})
        assert writer.counts == {"span": 2, None: 1}
        assert path.read_text().splitlines() == [
            '{"type":"span","x":1,"schema":7}',
            '{"type":"span","x":2,"schema":7}',
            '{"x":3,"schema":7}']

    def test_footer_keeps_its_schema_position_and_is_last(self, tmp_path):
        path = tmp_path / "out.jsonl"
        writer = JsonlWriter(str(path), 1)
        writer.write_record({"type": "span"})
        writer.close(footer={"type": "manifest", "schema": 1, "lines": 2})
        assert path.read_text().splitlines()[-1] == \
            '{"type":"manifest","schema":1,"lines":2}'

    def test_writes_after_close_are_dropped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        writer = JsonlWriter(str(path), 1)
        writer.write_record({"type": "a"})
        writer.close()
        writer.write_record({"type": "b"})
        writer.flush()  # no-op after close
        assert path.read_text() == '{"type":"a","schema":1}\n'
        assert writer.counts == {"a": 1}

    def test_close_twice_is_safe_and_writes_one_footer(self, tmp_path):
        path = tmp_path / "out.jsonl"
        writer = JsonlWriter(str(path), 1)
        writer.close(footer={"type": "end"})
        writer.close(footer={"type": "end"})
        writer.close()
        assert path.read_text() == '{"type":"end","schema":1}\n'

    def test_borrowed_handle_is_flushed_not_closed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            with JsonlWriter(handle, 1) as writer:
                writer.write_record({"type": "a"})
            assert not handle.closed
            # Visible through a second handle: close() flushed it.
            assert path.read_text() == '{"type":"a","schema":1}\n'
            handle.write("tail\n")
        assert path.read_text().endswith("tail\n")
