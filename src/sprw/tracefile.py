"""JSON-lines trace format and output records.

Trace lines are either messages ``{"ts": <int ms>, "type": ":tag",
"attrs": [...]}`` or clock directives ``{"advance": <int ms>}``.  Timestamps
must be non-decreasing across the whole file.

Value encoding is bijective by convention: JSON strings beginning with a
colon denote symbols, all other strings are plain strings (a plain string
that itself starts with a colon is not representable), and ints, finite
floats and booleans map to their native JSON types.

Output records are one JSON object per line with a fixed key order
(at, pattern, reaction, messageIds, bindings, intermediates) and sorted
binding keys, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable, Iterator
from math import isfinite
from typing import NamedTuple

from .errors import TraceError
from .matching import MatchResult
from .values import Symbol, Value


class MessageEvent(NamedTuple):
    ts: int
    type_tag: Symbol
    attrs: tuple[Value, ...]
    line: int = 0


class AdvanceEvent(NamedTuple):
    to: int
    line: int = 0


TraceEvent = MessageEvent | AdvanceEvent


# Lines are stripped, so a line is valid JSON exactly when raw_decode takes it
# whole; it skips the argument checks and whitespace scans of json.loads
_DECODER = json.JSONDecoder()
_NO_ATTRS: list = []  # a message without "attrs" has none
# echoes a rejected value cut to 6 levels, 6 items and 30 characters of a
# string: a line may nest a value hundreds of levels deep
_BRIEF = reprlib.Repr()


def load_trace(text: str) -> list[TraceEvent]:
    return list(decode_lines(text.splitlines()))


def file_lines(fh) -> Iterator[str]:
    """An open text file's lines, split as ``str.splitlines`` splits its whole
    text, which also breaks lines at form feeds, U+2028 and the like."""
    for physical in fh:
        yield from physical.splitlines()


def decode_lines(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Decode trace lines one at a time, numbering them from 1; raises
    :class:`TraceError` at the first line that does not decode."""
    tags: dict[str, Symbol] = {}  # one Symbol per distinct message type
    current = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw or raw[0] == "#":
            continue
        try:
            obj, end = _DECODER.raw_decode(raw)
        except json.JSONDecodeError:
            end = -1
        except ValueError:  # an integer past Python's int-string conversion limit
            raise TraceError("invalid JSON: integer has too many digits", lineno) from None
        except RecursionError:
            raise TraceError("invalid JSON: nested too deeply", lineno) from None
        if end != len(raw):  # not one JSON document: json.loads names the fault
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as err:
                raise TraceError(f"invalid JSON: {err.msg}", lineno) from None
        if type(obj) is not dict:
            raise TraceError("trace line must be a JSON object", lineno)
        if "advance" in obj:
            to = obj["advance"]
            if type(to) is not int:
                raise TraceError("advance target must be an integer", lineno)
            if current is not None and to < current:
                raise TraceError(f"timestamp regression at line {lineno}", lineno)
            current = to
            yield AdvanceEvent(to, lineno)
            continue
        if "ts" not in obj or "type" not in obj:
            raise TraceError("message needs 'ts' and 'type'", lineno)
        ts = obj["ts"]
        if type(ts) is not int or ts < 0:
            raise TraceError("'ts' must be a non-negative integer (ms)", lineno)
        if current is not None and ts < current:
            raise TraceError(f"timestamp regression at line {lineno}", lineno)
        current = ts
        tag = obj["type"]
        type_tag = tags.get(tag) if type(tag) is str else None
        if type_tag is None:  # a new type: check it once
            if type(tag) is not str or tag[:1] != ":":
                raise TraceError("'type' must be a symbol string like \":motion\"", lineno)
            type_tag = tags[tag] = Symbol(tag[1:])
        raw_attrs = obj.get("attrs", _NO_ATTRS)
        if type(raw_attrs) is not list:
            raise TraceError("'attrs' must be a list", lineno)
        attrs = []
        for value in raw_attrs:
            kind = type(value)  # JSON decodes to exact builtin types, so bools are not ints here
            if kind is str:
                value = Symbol(value[1:]) if value[:1] == ":" else value
            elif kind is not int and kind is not bool and (kind is not float or not isfinite(value)):
                raise TraceError(f"unsupported attribute value {_BRIEF.repr(value)}", lineno)
            attrs.append(value)
        yield MessageEvent(ts, type_tag, tuple(attrs), lineno)


def output_record(match: MatchResult, reaction: str | None) -> dict:
    """One fired reaction's record, a symbol written ``":name"``; loops, as
    a comprehension costs a call."""
    values = match.bindings
    bindings = {}
    for k in sorted(values):
        v = values[k]
        bindings[k] = f":{v.name}" if isinstance(v, Symbol) else v
    intermediates = {}
    for k, v in match.intermediates.items():
        intermediates[k] = f":{v.name}" if isinstance(v, Symbol) else v
    return {
        "at": match.at,
        "pattern": match.pattern,
        "reaction": reaction,
        "messageIds": [m.id for m in match.messages],
        "bindings": bindings,
        "intermediates": intermediates,
    }


# records are acyclic trees built by output_record: no cycle check needed
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True, check_circular=False)


def record_line(record: dict) -> str:
    return _RECORD_ENCODER.encode(record)


def records_for(matches, reactions_of) -> list[dict]:
    """Flatten matches into output records: one record per fired reaction,
    one with a null reaction when a pattern has no bindings."""
    out = []
    for match in matches:
        labels = reactions_of(match.pattern)
        if labels:
            for label in labels:
                out.append(output_record(match, label))
        else:
            out.append(output_record(match, None))
    return out
