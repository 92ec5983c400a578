"""The lexer against a reference: the named-group lexer it replaced.

``tokenize`` must give the reference's kinds and texts, or raise the
reference's ``ParseError`` (message, line, column), and ``_token_offset``
must give each token's source offset as the reference recorded it.
"""

from __future__ import annotations

import random
import re

import pytest

from sprw.errors import ParseError
from sprw.fuzzgen import generate_case
from sprw.parser import _token_offset, tokenize

from conftest import CORPUS_FILES, SCENARIOS, fixture_path

_REFERENCE_RE = re.compile(
    r"""
      (?P<comment>\#[^\n]*)
    | (?P<FLOAT>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<SYMBOL>:[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"(?:\\.|[^"\\\n])*")
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\|>|~>|->|==|!=|<=|>=|[{}()\[\],:=<>+\-*/@!])
    | (?P<bad>[^ \t\r\n])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "pattern", "as", "and", "or", "not", "when", "options",
    "true", "false", "fold", "bind", "fn", "end", "react_to", "with", "emit",
}


def reference_tokenize(text: str):
    """(kinds, texts, starts), each ended by two EOF entries."""
    kinds, texts, starts = [], [], []
    for m in _REFERENCE_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "op" or kind == "IDENT" and lexeme in _KEYWORDS:
            kind = lexeme
        elif kind == "comment":
            continue
        elif kind == "bad":
            offset = m.start()
            line = text.count("\n", 0, offset) + 1
            raise ParseError(f"unexpected character {lexeme!r}", line,
                             offset - text.rfind("\n", 0, offset))
        kinds.append(kind)
        texts.append(lexeme)
        starts.append(m.start())
    return kinds + ["EOF"] * 2, texts + [""] * 2, starts + [len(text)] * 2


def check_same_tokens(text: str) -> None:
    try:
        kinds, texts, starts = reference_tokenize(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            str(expected), expected.line, expected.column), repr(text)
        return
    assert tokenize(text) == (kinds, texts), repr(text)
    assert [_token_offset(text, i) for i in range(len(starts))] == starts, repr(text)


def test_corpus_and_fixtures_lex_as_the_reference():
    texts = [path.read_text(encoding="utf-8") for path in CORPUS_FILES]
    texts += [fixture_path(f"scenario{i}.sprw").read_text(encoding="utf-8") for i in SCENARIOS]
    assert len(texts) == len(CORPUS_FILES) + 7
    for text in texts:
        check_same_tokens(text)


def test_fuzzgen_programs_lex_as_the_reference():
    for seed in range(200):
        check_same_tokens(generate_case(seed, n_events=1).program_text)


# single characters, including a non-ASCII decimal digit (which ``\d`` takes),
# a superscript digit and a letter that ``\d`` and the identifier class do not
_CHARS = list("abz_AZ09:.,;#\"\\'|>~-=!<{}()[]+*/@ \t\r\n") + ["٣", "²", "é", "\x0c", "\u2028"]
_PIECES = [
    "pattern", "p", " as ", "{:a, x}", ":sym", "1.5", "12", "٣", "٣.٣", '"s"', '"a\\"b"',
    '"\\\\"', '"open', "# note\n", "#", "|>", "->", "~>", "==", "!=", "<=", ">=", "not",
    "when", "\r\n",
]


@pytest.mark.parametrize("seed", range(4))
def test_random_strings_lex_as_the_reference(seed):
    rng = random.Random(f"lexer:{seed}")
    for _ in range(5_000):
        pieces = [rng.choice(_PIECES) if rng.random() < 0.4 else rng.choice(_CHARS)
                  for _ in range(rng.randint(0, 24))]
        check_same_tokens("".join(pieces))
