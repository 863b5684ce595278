"""Validate trace artifacts: Chrome traces and run capsules (stdlib only).

For Chrome Trace Event Format JSON files, checks the subset of the spec
our exporter emits: JSON object form with a ``traceEvents`` array, known
phase codes, required keys per phase, numeric non-negative
timestamps/durations, paired flow (``s``/``f``) and async (``b``/``e``)
events, instant (``i``) events with a known scope, and metadata events
carrying the args the spec requires.

For run capsules (``repro xray record`` JSONL files, detected by their
``{"type": "capsule", ...}`` header line), checks the envelope every
reader relies on: a known ``schema`` version on every line, known line
types, a header carrying engine/seed/config, and a trailing manifest
whose per-type counts match the body exactly.

Used by the CI trace-smoke job; also handy on any artifact before
loading it into Perfetto or ``repro xray``.

Usage:  python scripts/validate_trace.py ARTIFACT [ARTIFACT2 ...]
Exit status 0 when every file validates, 1 otherwise.
"""

import json
import numbers
import sys

#: Capsule schema versions this validator understands.  Equal to
#: ``repro.xray.capsule.KNOWN_SCHEMAS`` (a test checks both copies; the
#: script stays stdlib-only so it can run anywhere).
KNOWN_CAPSULE_SCHEMAS = (1,)

#: Line types a capsule may contain (repro.xray.capsule.LINE_TYPES).
CAPSULE_LINE_TYPES = ("capsule", "span", "link", "journal", "serve",
                      "job", "telemetry", "clarity", "summary",
                      "manifest")

#: Phases our exporter emits; anything else is an error.
KNOWN_PHASES = {"X", "M", "s", "f", "b", "e", "i"}

#: Instant-event scopes: global, process, thread.
INSTANT_SCOPES = {"g", "p", "t"}

#: Keys every event must carry, beyond phase-specific ones.
COMMON_KEYS = {"name", "ph", "pid"}

METADATA_ARGS = {
    "process_name": "name",
    "thread_name": "name",
    "thread_sort_index": "sort_index",
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def validate_events(events):
    """Yield error strings for one traceEvents array."""
    if not isinstance(events, list):
        yield "traceEvents is not an array"
        return
    if not events:
        yield "traceEvents is empty"
    flow = {"s": {}, "f": {}}
    nestable = {"b": [], "e": []}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            yield f"{where}: not an object"
            continue
        missing = COMMON_KEYS - set(event)
        if missing:
            yield f"{where}: missing keys {sorted(missing)}"
            continue
        ph = event["ph"]
        if ph not in KNOWN_PHASES:
            yield f"{where}: unknown phase {ph!r}"
            continue
        if ph != "M":
            ts = event.get("ts")
            if not _is_number(ts) or ts < 0:
                yield f"{where}: bad ts {ts!r}"
        if ph == "X":
            dur = event.get("dur")
            if not _is_number(dur) or dur < 0:
                yield f"{where}: bad dur {dur!r}"
        elif ph == "M":
            name = event["name"]
            wanted = METADATA_ARGS.get(name)
            if wanted is None:
                yield f"{where}: unknown metadata record {name!r}"
            elif wanted not in event.get("args", {}):
                yield f"{where}: metadata {name!r} lacks args.{wanted}"
        elif ph in ("s", "f"):
            if "id" not in event:
                yield f"{where}: flow event without id"
            else:
                flow[ph].setdefault(event["id"], []).append(index)
            if ph == "f" and event.get("bp") not in (None, "e"):
                yield f"{where}: bad binding point {event['bp']!r}"
        elif ph in ("b", "e"):
            if "id" not in event:
                yield f"{where}: async event without id"
            else:
                nestable[ph].append((event.get("cat"), event["id"]))
        elif ph == "i" and event.get("s") not in INSTANT_SCOPES:
            yield f"{where}: bad instant scope {event.get('s')!r}"
    for fid in flow["s"]:
        if fid not in flow["f"]:
            yield f"flow id {fid!r} starts but never finishes"
    for fid in flow["f"]:
        if fid not in flow["s"]:
            yield f"flow id {fid!r} finishes but never starts"
    begins, ends = sorted(nestable["b"]), sorted(nestable["e"])
    if begins != ends:
        yield (f"async begin/end mismatch: {len(begins)} begins vs "
               f"{len(ends)} ends")


def validate_capsule_lines(lines):
    """Yield error strings for one capsule's JSONL lines."""
    parsed = []
    for index, raw in enumerate(lines):
        where = f"line {index + 1}"
        try:
            record = json.loads(raw)
        except ValueError as error:
            yield f"{where}: not JSON ({error})"
            return
        if not isinstance(record, dict):
            yield f"{where}: not an object"
            return
        kind = record.get("type")
        if kind not in CAPSULE_LINE_TYPES:
            yield f"{where}: unknown line type {kind!r}"
        schema = record.get("schema")
        if schema is None:
            yield f"{where}: missing schema version"
        elif schema not in KNOWN_CAPSULE_SCHEMAS:
            yield (f"{where}: unknown schema version {schema!r} "
                   f"(known: {list(KNOWN_CAPSULE_SCHEMAS)})")
        parsed.append(record)
    if not parsed:
        yield "empty capsule"
        return
    header, manifest = parsed[0], parsed[-1]
    if header.get("type") != "capsule":
        yield f"first line is {header.get('type')!r}, not the header"
        return
    for key in ("engine", "seed", "config"):
        if key not in header:
            yield f"header lacks {key!r}"
    if manifest.get("type") != "manifest":
        yield f"last line is {manifest.get('type')!r}, not the manifest"
        return
    counts = {}
    for record in parsed[1:-1]:
        kind = record.get("type")
        if kind in ("capsule", "manifest"):
            yield f"body contains a stray {kind!r} line"
            continue
        counts[kind] = counts.get(kind, 0) + 1
    declared = manifest.get("counts")
    if not isinstance(declared, dict):
        yield "manifest lacks a counts object"
    elif {k: int(v) for k, v in declared.items() if v} != counts:
        yield (f"manifest counts {declared} disagree with the body "
               f"{counts}")
    lines_field = manifest.get("lines")
    if lines_field is not None and lines_field != len(parsed):
        yield (f"manifest says {lines_field} lines, file has "
               f"{len(parsed)}")


def validate_file(path):
    """Validate one artifact.

    Returns ``(kind, count, errors)``: ``kind`` is ``"capsule"`` (count
    of lines) or ``"trace"`` (count of trace events), and ``errors`` a
    list of error strings, empty when the file validates.
    """
    try:
        with open(path) as handle:
            first = handle.readline()
    except OSError as error:
        return "trace", 0, [f"cannot load {path}: {error}"]
    try:
        sniff = json.loads(first) if first.strip() else None
    except ValueError:
        sniff = None
    if isinstance(sniff, dict) and sniff.get("type") == "capsule":
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        return "capsule", len(lines), list(validate_capsule_lines(lines))
    try:
        with open(path) as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as error:
        return "trace", 0, [f"cannot load {path}: {error}"]
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return "trace", 0, [
            "not the JSON-object trace form (no traceEvents key)"]
    events = trace["traceEvents"]
    count = len(events) if isinstance(events, list) else 0
    return "trace", count, list(validate_events(events))


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    failed = False
    for path in argv:
        kind, count, errors = validate_file(path)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for error in errors:
                print(f"  {error}")
        elif kind == "capsule":
            print(f"ok   {path} (capsule, {count} lines)")
        else:
            print(f"ok   {path} ({count} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
