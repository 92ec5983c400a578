from __future__ import annotations

import pytest

from sprw.errors import TraceError
from sprw.tracefile import AdvanceEvent, MessageEvent, decode_lines, file_lines, load_trace
from sprw.values import Symbol

# trace text, line, message
TRACE_ERRORS = [
    ("not json", 1, "invalid JSON: Expecting value"),
    ('{"ts": 1, "type": ":a", "attrs": [1,}', 1, "invalid JSON: Expecting value"),
    ('{"ts": 1, "type": ":a"} x', 1, "invalid JSON: Extra data"),
    ('\ufeff{"ts": 1, "type": ":a"}', 1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("[1, 2]", 1, "trace line must be a JSON object"),
    ('"str"', 1, "trace line must be a JSON object"),
    ('{"advance": "5"}', 1, "advance target must be an integer"),
    ('{"advance": 1.5}', 1, "advance target must be an integer"),
    ('{"advance": true}', 1, "advance target must be an integer"),
    ('{"ts": 10, "type": ":a"}\n{"advance": 5}', 2, "timestamp regression at line 2"),
    ('{"advance": 10}\n{"ts": 5, "type": ":a"}', 2, "timestamp regression at line 2"),
    ('{"ts": 10, "type": ":a"}\n{"ts": 9, "type": ":a"}', 2, "timestamp regression at line 2"),
    ('{"type": ":a"}', 1, "message needs 'ts' and 'type'"),
    ('{"ts": 3}', 1, "message needs 'ts' and 'type'"),
    ('{"ts": -1, "type": ":a"}', 1, "'ts' must be a non-negative integer (ms)"),
    ('{"ts": true, "type": ":a"}', 1, "'ts' must be a non-negative integer (ms)"),
    ('{"ts": 1.0, "type": ":a"}', 1, "'ts' must be a non-negative integer (ms)"),
    ('{"ts": 1, "type": "a"}', 1, "'type' must be a symbol string like \":motion\""),
    ('{"ts": 1, "type": [":a"]}', 1, "'type' must be a symbol string like \":motion\""),
    ('{"ts": 1, "type": 5}', 1, "'type' must be a symbol string like \":motion\""),
    ('{"ts": 1, "type": ":a", "attrs": [null]}', 1, "unsupported attribute value None"),
    ('{"ts": 1, "type": ":a", "attrs": [1, [1]]}', 1, "unsupported attribute value [1]"),
    ('{"ts": 1, "type": ":a", "attrs": [{"k": 1}]}', 1, "unsupported attribute value {'k': 1}"),
    ('{"ts": 1, "type": ":a", "attrs": [NaN]}', 1, "unsupported attribute value nan"),
    ('{"ts": 1, "type": ":a", "attrs": [Infinity]}', 1, "unsupported attribute value inf"),
    ('{"ts": 1, "type": ":a", "attrs": [-Infinity]}', 1, "unsupported attribute value -inf"),
    ('{"ts": 1, "type": ":a", "attrs": [1e400]}', 1, "unsupported attribute value inf"),
    ('{"ts": 1, "type": ":a", "attrs": 5}', 1, "'attrs' must be a list"),
    ('{"ts": 1, "type": ":a", "attrs": null}', 1, "'attrs' must be a list"),
    ('{"ts": 1, "type": ":a", "attrs": "ab"}', 1, "'attrs' must be a list"),
    ('{"ts": 1, "type": ":a", "attrs": {"x": 1}}', 1, "'attrs' must be a list"),
    # integers past Python's int-string conversion limit (4,300 digits)
    ('{"ts": 1, "type": ":a", "attrs": [1, ' + "9" * 5000 + "]}", 1,
     "invalid JSON: integer has too many digits"),
    ('{"ts": 1, "type": ":a"}\n{"ts": ' + "9" * 5000 + ', "type": ":a"}', 2,
     "invalid JSON: integer has too many digits"),
    ('{"advance": -' + "9" * 5000 + "}", 1, "invalid JSON: integer has too many digits"),
    # past the interpreter's recursion limit, and a deep value echoed in part
    ('{"ts": 1, "type": ":a", "attrs": [' + "[" * 1000 + "]" * 1000 + "]}", 1,
     "invalid JSON: nested too deeply"),
    ('{"ts": 1, "type": ":a", "attrs": [' + "[" * 900 + "]" * 900 + "]}", 1,
     "unsupported attribute value [[[[[[[...]]]]]]]"),
    ('{"ts": 1, "type": ":a", "attrs": [' + ", ".join(["1"] * 50) + ", [" + ", ".join(
        ["2"] * 50) + "]]}", 1, "unsupported attribute value [2, 2, 2, 2, 2, 2, ...]"),
    # blank and comment lines are skipped but still counted
    ('\n# c\n   \n{"ts": 1, "type": ":a"}\n# x\n\n{"ts": "x", "type": ":a"}', 7,
     "'ts' must be a non-negative integer (ms)"),
]


@pytest.mark.parametrize("text,line,message", TRACE_ERRORS)
def test_trace_error(text, line, message):
    with pytest.raises(TraceError) as err:
        load_trace(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_skipped_lines_keep_later_line_numbers():
    text = (
        '# header\n\n{"ts": 5, "type": ":a", "attrs": [":on", "s", 2, 1.5, true]}\n'
        '   \n  # indented comment\n{"advance": 9}\n{"ts": 9, "type": ":b"}\n'
    )
    assert load_trace(text) == [
        MessageEvent(5, Symbol("a"), (Symbol("on"), "s", 2, 1.5, True), 3),
        AdvanceEvent(9, 6),
        MessageEvent(9, Symbol("b"), (), 7),
    ]



# str.splitlines also breaks lines at form feeds, \x1c-\x1e and U+2028;
# iterating a file breaks them at newlines only
ODD_BREAKS = (
    '# head\r\n\r\n{"ts": 1, "type": ":a", "attrs": ["s"]}\r\n\x0c\r\n'
    '{"ts": 2, "type": ":b"}\u2028{"advance": 5}\r\n  # c\r\n\x1c{"ts": 6, "type": ":a"}\n'
)


@pytest.mark.parametrize("text, expected", [
    (ODD_BREAKS, [
        MessageEvent(1, Symbol("a"), ("s",), 3),
        MessageEvent(2, Symbol("b"), (), 6),
        AdvanceEvent(5, 7),
        MessageEvent(6, Symbol("a"), (), 10),
    ]),
    (ODD_BREAKS + '{"ts": 7, "type": ":a", "attrs": ["x\u2028y"]}\r\n',
     ("line 11: invalid JSON: Unterminated string starting at", 11)),
    (ODD_BREAKS + '{"ts": 7, "type": ":a"}\x0c{"ts": 6, "type": ":a"}\n',
     ("line 12: timestamp regression at line 12", 12)),
], ids=["valid", "u2028_in_string", "regression_after_form_feed"])
def test_streamed_file_decodes_as_the_whole_text(tmp_path, text, expected):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))

    def outcome(decode):
        try:
            return decode()
        except TraceError as err:
            return str(err), err.line

    assert outcome(lambda: load_trace(text)) == expected
    with open(path, encoding="utf-8") as fh:
        assert outcome(lambda: list(decode_lines(file_lines(fh)))) == expected
