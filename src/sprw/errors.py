"""Exception types shared across the package.

Parse/expand/compile problems carry a short machine-readable ``code`` so the
CLI and tests can assert on the failure class without string matching.
"""

from __future__ import annotations


class SprwError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SprwError):
    """Syntax error with source position and the token set that was expected."""

    def __init__(self, message: str, line: int, column: int, expected=(), code: str = "SyntaxError"):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        self.code = code
        super().__init__(f"{line}:{column}: {message}")


class CodedError(SprwError):
    """An error whose message starts with its ``code``."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class ExpandError(CodedError):
    """Named-pattern expansion failure (unknown ref, alias collision, ...)."""


class CompileError(CodedError):
    """Program cannot be turned into a discrimination network."""


class TimeRegression(SprwError):
    """A timestamp moved backwards (engine clock or trace order)."""

    def __init__(self, ts: int, clock: int):
        self.ts = ts
        self.clock = clock
        super().__init__(f"time regression: {ts} < {clock}")


class EvalError(CodedError):
    """Guard/transformer evaluation failure.

    Never escapes the engine: evaluation errors become diagnostics and the
    enclosing pattern evaluation fails without consuming messages.
    """


class ActorError(CodedError):
    """Reaction-binding misuse (unknown pattern / unknown reaction label)."""


class TraceError(SprwError):
    """Malformed trace file."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")
