"""Minimal C++ lexical layer for simcheck's lexical frontend.

This is NOT a parser.  It provides exactly what the lexical frontend
needs and nothing more:

  * `strip_code()`   — comments and string/char literals blanked out,
    line structure preserved.  Unlike a naive stripper it understands
    raw string literals (``R"delim(...)delim"``, whose bodies may
    contain unbalanced quotes) and digit separators (``1'000'000``),
    both of which flip naive quote-state machines into classifying
    string text as code and reporting phantom findings in it.
  * `Tok` / `tokenize()` — identifiers, numbers and punctuators with
    line numbers, for the handful of token-context checks the rules
    need (what operator neighbours a `.count()` call, where a balanced
    paren group ends, ...).
  * small navigation helpers over the token stream.

Both frontends take their candidate sites and token-rule hits from
the lexical scan built on this module; libclang only refines the type
tables, so fidelity here bounds what either frontend can see.
"""

import re

# A digit separator quote: a quote directly between digit/alpha
# characters (1'000, 0xFF'FF).  Checked before the char-literal rule.
_DIGIT_SEP_BEFORE = re.compile(r"[0-9a-fA-F]$")

_RAW_OPEN = re.compile(r'(?:u8|[uUL])?R$')


def strip_code(text):
    """Blank comments and literal bodies; return a list of lines.

    Line numbers survive: output line i corresponds to input line i.
    String/char literal *bodies* are dropped (a lone ``"`` placeholder
    keeps literals visible as atoms); comment text is dropped wholly.
    """
    out = []
    line = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    raw_terminator = None  # inside a raw string: the `)delim"` to find
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line))
            line = []
            if state == "line-comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if c == '"':
                # Raw string?  The prefix (R, uR, u8R, LR) directly
                # precedes the quote.
                prefix = "".join(line)
                if _RAW_OPEN.search(prefix):
                    # R"delim( ... )delim"  — find the delimiter.
                    j = i + 1
                    delim = []
                    while j < n and text[j] not in "(\n":
                        delim.append(text[j])
                        j += 1
                    if j < n and text[j] == "(":
                        raw_terminator = ")" + "".join(delim) + '"'
                        state = "raw-string"
                        line.append('"')
                        i = j + 1
                        continue
                state = "string"
                line.append('"')
                i += 1
                continue
            if c == "'":
                # Digit separator (1'000'000): not a literal at all.
                if line and _DIGIT_SEP_BEFORE.search(line[-1]) and \
                        i + 1 < n and re.match(r"[0-9a-fA-F]", nxt):
                    i += 1
                    continue
                state = "char"
                line.append(" ")
                i += 1
                continue
            line.append(c)
            i += 1
            continue
        if state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "raw-string":
            if c == ")" and text.startswith(raw_terminator, i):
                line.append('"')
                i += len(raw_terminator)
                state = "code"
                raw_terminator = None
                continue
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or \
                    (state == "char" and c == "'"):
                if state == "string":
                    line.append('"')
                state = "code"
            i += 1
            continue
        # line-comment: skip to newline
        i += 1
    if line or (text and not text.endswith("\n")):
        out.append("".join(line))
    return out


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'ident' | 'num' | 'punct' | 'str'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Tok({self.kind},{self.text!r},{self.line})"


# Longest-match punctuators the rules care to see as single tokens.
_PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
]
_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\d[\w.]*"
    r"|" + "|".join(re.escape(p) for p in _PUNCTS) +
    r"|\""
    r"|[^\sA-Za-z_0-9]"
)


def tokenize(code_lines):
    """Token stream over stripped code lines."""
    toks = []
    for lineno, text in enumerate(code_lines, start=1):
        for m in _TOKEN_RE.finditer(text):
            t = m.group(0)
            if t[0].isalpha() or t[0] == "_":
                kind = "ident"
            elif t[0].isdigit():
                kind = "num"
            elif t == '"':
                kind = "str"
            else:
                kind = "punct"
            toks.append(Tok(kind, t, lineno))
    return toks


def match_forward(toks, i, open_tok, close_tok):
    """Index just past the group opened at toks[i] (which must be
    open_tok); len(toks) if unbalanced."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_template_args(toks, i):
    """With toks[i] == '<', return index just past the matching '>'.
    Heuristic: treats '>>' as two closers, stops at ';' or '{'."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{"):
            return i
        i += 1
    return n


def split_top_commas(toks, lo, hi):
    """Split toks[lo:hi] on commas at paren/brace/bracket depth 0.
    Returns a list of (start, end) index ranges."""
    ranges = []
    depth = 0
    start = lo
    i = lo
    while i < hi:
        t = toks[i].text
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        elif t == "," and depth == 0:
            ranges.append((start, i))
            start = i + 1
        i += 1
    if start < hi:
        ranges.append((start, hi))
    return ranges
