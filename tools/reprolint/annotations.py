"""Parsing of ``# reprolint:`` source annotations.

Annotations are ordinary comments, extracted with :mod:`tokenize` (so a
``# reprolint:`` inside a string literal is never misread).  A comment
that shares its line with code applies to that line; a comment-only line
applies to the next line that contains code — which is how multi-line
statements and long creation calls are annotated without blowing the line
length:

    # reprolint: owned-by(SqliteResultBackend)
    self._conn = sqlite3.connect(
        str(path), check_same_thread=False,
    )

Grammar (directives ``;``-separated within one comment)::

    guarded-by(<lock_attr>)
    holds(<lock_attr>[, <lock_attr>...])
    owned-by(<owner>)
    disable=<RULE>[,<RULE>...] [-- <reason>]

Unparseable directive text is recorded in :attr:`Annotations.malformed`
and surfaced as RL101 by the engine — a typo'd annotation silently doing
nothing is exactly the failure mode this suite exists to prevent.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .rules import is_rule

__all__ = ["Directives", "Annotations", "parse_annotations"]

_MARKER_RE = re.compile(r"#\s*reprolint:\s*(?P<body>.*)$")
_GUARDED_RE = re.compile(r"^guarded-by\(\s*([A-Za-z_]\w*)\s*\)$")
_HOLDS_RE = re.compile(r"^holds\(\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\)$")
_OWNED_RE = re.compile(r"^owned-by\(\s*([^()]+?)\s*\)$")
_DISABLE_RE = re.compile(
    r"^disable=\s*(?P<rules>[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)


@dataclass
class Directives:
    """Every directive that applies to one code line."""

    line: int
    guarded_by: str | None = None
    holds: tuple[str, ...] = ()
    owned_by: str | None = None
    #: rule id -> reason string ("" when the reason is missing)
    disables: dict[str, str] = field(default_factory=dict)
    #: directive kinds a checker acknowledged (unconsumed ones are RL101)
    consumed: set[str] = field(default_factory=set)

    def merge(self, other: "Directives") -> None:
        if other.guarded_by is not None:
            self.guarded_by = other.guarded_by
        if other.holds:
            self.holds = tuple(dict.fromkeys(self.holds + other.holds))
        if other.owned_by is not None:
            self.owned_by = other.owned_by
        self.disables.update(other.disables)


@dataclass
class Annotations:
    """All annotations of one file, keyed by the code line they apply to."""

    by_line: dict[int, Directives] = field(default_factory=dict)
    #: (line, message) pairs for directive text that failed to parse
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def get(self, *linenos: int | None) -> Directives | None:
        """The directives of the first annotated line among ``linenos``."""
        for lineno in linenos:
            if lineno is not None and lineno in self.by_line:
                return self.by_line[lineno]
        return None

    def consume(self, directives: Directives | None, kind: str) -> None:
        if directives is not None:
            directives.consumed.add(kind)


def _parse_body(body: str, lineno: int, out: Directives, ann: Annotations) -> None:
    for raw in body.split(";"):
        part = raw.strip()
        if not part:
            continue
        if (m := _GUARDED_RE.match(part)) is not None:
            out.guarded_by = m.group(1)
        elif (m := _HOLDS_RE.match(part)) is not None:
            out.holds = out.holds + tuple(
                name.strip() for name in m.group(1).split(",")
            )
        elif (m := _OWNED_RE.match(part)) is not None:
            out.owned_by = m.group(1)
        elif (m := _DISABLE_RE.match(part)) is not None:
            reason = (m.group("reason") or "").strip()
            for rule_id in (r.strip() for r in m.group("rules").split(",")):
                if not is_rule(rule_id):
                    ann.malformed.append(
                        (lineno, f"disable names unknown rule {rule_id!r}")
                    )
                    continue
                out.disables[rule_id] = reason
        else:
            ann.malformed.append(
                (lineno, f"unparseable reprolint directive {part!r}")
            )


def parse_annotations(source: str) -> Annotations:
    """Extract every ``# reprolint:`` directive of ``source``.

    Tokenization errors (the file will fail ``ast.parse`` too) yield an
    empty annotation set — the engine reports the parse failure itself.
    """
    ann = Annotations()
    comments: list[tuple[int, str, bool]] = []  # (line, text, standalone)
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return ann
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            standalone = tok.line.lstrip().startswith("#")
            comments.append((tok.start[0], tok.string, standalone))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            for line in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(line)

    max_code_line = max(code_lines, default=0)
    for comment_line, text, standalone in comments:
        match = _MARKER_RE.search(text)
        if match is None:
            continue
        target = comment_line
        if standalone:
            target = next(
                (
                    line
                    for line in range(comment_line + 1, max_code_line + 1)
                    if line in code_lines
                ),
                comment_line,
            )
        directives = Directives(line=target)
        _parse_body(match.group("body"), comment_line, directives, ann)
        existing = ann.by_line.get(target)
        if existing is not None:
            existing.merge(directives)
        else:
            ann.by_line[target] = directives
    return ann
