"""Lexical fallback frontend for simcheck.

Used when the Python libclang bindings are unavailable (the minimal
dev container has no clang at all).  It reduces each project file to
the same fact stream the libclang frontend produces, from a token
scan with lightweight structure tracking:

  * brace regions classified as namespace / class / function bodies,
  * per-function local and value-parameter tables,
  * cross-file declaration tables (coroutine signatures, functions
    returning strong types, variables of strong / unordered type,
    type aliases), merged by the driver before facts are finalized.

Fidelity limits (the libclang frontend has none of these):
  * name-based, unqualified symbol resolution — two coroutines with
    the same name and different signatures are merged conservatively
    (a parameter counts as by-reference only if every visible
    declaration agrees);
  * template-dependent and decltype types are invisible;
  * a handful of grammar corners (most-vexing-parse locals, operator
    overload declarations) are skipped rather than guessed.

Anything this frontend *does* report is designed to also be reported
by the libclang frontend; CI runs the fixture suite under both and
asserts identical counts.
"""

import re

from . import cxxlex
from .facts import (
    FACT_CORO_FN,
    FACT_INCLUDE,
    FACT_MUTABLE_STATIC,
    FACT_SPAWN,
    FACT_UNORDERED_ITER,
    fact,
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

STRONG_TYPES = {"Tick", "Bytes", "BytesPerSec", "Rate"}
UNORDERED_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")
# Known deterministic-iteration std:: containers; a local declaration
# with one of these shadows a same-named unordered declaration from
# another file (name-based tables are global, storage is not).
_ORDERED_HEADS = {
    "map", "set", "multimap", "multiset", "vector", "list", "deque",
    "array", "string", "basic_string",
}
SANCTIONED_STATIC_RE = re.compile(
    r"\bstats\s*::\s*(?:Counter|Accumulator)\b")

_TYPE_HEAD_SKIP = {
    "const", "constexpr", "constinit", "inline", "static", "extern",
    "mutable", "volatile", "unsigned", "signed", "long", "short",
    "thread_local", "typename", "friend",
}
_STMT_KEYWORDS = {
    "return", "co_return", "co_await", "co_yield", "if", "else",
    "for", "while", "do", "switch", "case", "default", "break",
    "continue", "goto", "throw", "delete", "new", "try", "catch",
    "using", "typedef", "namespace", "template", "public", "private",
    "protected", "operator", "static_assert", "sizeof", "this",
    "requires", "concept", "enum", "struct", "class", "union",
}
_QUALIFIER_TAIL = {
    "const", "noexcept", "override", "final", "mutable", "&", "&&",
    "->", ">", "::",
}
_ARITH_OPS = {
    "+", "-", "*", "/", "%", "&", "|", "^",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}
_SUSPEND = {"co_await", "co_yield", "co_return"}


class _Region:
    __slots__ = ("open", "close", "label", "head_lo")

    def __init__(self, open_idx, label, head_lo):
        self.open = open_idx
        self.close = None
        self.label = label
        self.head_lo = head_lo


def _build_regions(toks):
    """Classify every brace region as namespace/class/function/other.

    Braces inside parentheses (`ctx = {}` default arguments, brace-init
    call arguments, lambda bodies in argument position) are NOT scope
    regions — treating them as such detaches a function body from its
    header and hides everything in it from the scan.
    """
    regions = []
    stack = []
    head_start = 0
    paren_depth = 0
    brace_init_depth = 0
    for i, t in enumerate(toks):
        if t.text == "(":
            paren_depth += 1
        elif t.text == ")":
            if paren_depth > 0:
                paren_depth -= 1
        elif t.text == "{":
            if paren_depth > 0 or brace_init_depth > 0:
                brace_init_depth += 1
                continue
            label = _classify_head(toks, head_start, i, stack)
            r = _Region(i, label, head_start)
            regions.append(r)
            stack.append(r)
            head_start = i + 1
        elif t.text == "}":
            if brace_init_depth > 0:
                brace_init_depth -= 1
                continue
            if stack:
                stack.pop().close = i
            head_start = i + 1
        elif t.text == ";":
            if paren_depth == 0 and brace_init_depth == 0:
                head_start = i + 1
    for r in regions:
        if r.close is None:
            r.close = len(toks)
    return regions


def _classify_head(toks, lo, hi, stack):
    """Label for the region opened at toks[hi] given head toks[lo:hi]."""
    if hi == 0:
        return "other"
    # Inside a function body, nested braces are control blocks,
    # initializers or lambdas — none introduce a new decl scope we
    # track separately (lambda locals are treated as the enclosing
    # function's; good enough for these rules).
    if any(r.label == "function" for r in stack):
        return "other"
    head = [t.text for t in toks[lo:hi]]
    if not head:
        return "other"
    if "namespace" in head:
        return "namespace"
    last = head[-1]
    has_parens = "(" in head
    if has_parens and (last in _QUALIFIER_TAIL or last == ")"):
        # `name(args) {`, `name(args) const noexcept {`,
        # `... ) -> Coro<void> {`
        if "=" not in head[: head.index("(")]:
            return "function"
    for kw in ("class", "struct", "union", "enum"):
        if kw in head:
            return "class"
    return "other"


def _enclosing_scope(regions, idx):
    """'function' | 'class' | 'namespace' for a token index."""
    label = "namespace"
    for r in regions:
        if r.open < idx < r.close:
            if r.label == "function":
                return "function"
            if r.label == "class":
                label = "class"
    return label


def _function_regions(regions):
    """Outermost function-body regions."""
    out = []
    for r in regions:
        if r.label != "function":
            continue
        if any(o.label == "function" and o.open < r.open and
               o.close > r.close for o in regions):
            continue
        out.append(r)
    return out


def _parse_params(toks, lo, hi):
    """Parse a parameter list token range into [{name, kind}]."""
    params = []
    for plo, phi in cxxlex.split_top_commas(toks, lo, hi):
        texts = [t.text for t in toks[plo:phi]]
        if not texts or texts == ["void"]:
            continue
        # Drop a default argument.
        if "=" in texts:
            texts = texts[: texts.index("=")]
        kind = "value"
        if "&" in texts or "&&" in texts:
            kind = "ref"
        elif "*" in texts:
            kind = "ptr"
        name = ""
        for t in reversed(texts):
            if re.match(r"[A-Za-z_]\w*$", t) and t not in _TYPE_HEAD_SKIP:
                name = t
                break
        params.append({"name": name, "kind": kind})
    return params


def _function_header(toks, region):
    """(name, params, param_range) for a function region, or None.

    The header is the token stretch between the previous ;/}/{ and the
    opening brace.  The parameter list is the last balanced paren
    group followed only by qualifier/trailing-return tokens.
    """
    lo, hi = region.head_lo, region.open
    close = None
    depth = 0
    i = hi - 1
    while i >= lo:
        t = toks[i].text
        if t == ")":
            if depth == 0 and close is None:
                # Reject e.g. `noexcept(...)`: the group must be
                # preceded by an identifier that is not `noexcept`.
                close = i
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0 and close is not None:
                name_idx = i - 1
                if name_idx >= lo and toks[name_idx].kind == "ident" \
                        and toks[name_idx].text != "noexcept":
                    return (toks[name_idx].text, i + 1, close)
                close = None
        i -= 1
    return None


def _return_type_text(toks, region, name_open_idx):
    lo = region.head_lo
    # name token sits just before the param '('.
    return " ".join(t.text for t in toks[lo: name_open_idx - 1])


def _collect_locals(toks, lo, hi):
    """Names of automatic-storage objects declared in toks[lo:hi]
    (value and pointer locals; reference locals excluded — they alias
    storage we cannot see)."""
    locals_ = set()
    i = lo
    stmt_start = True
    while i < hi:
        t = toks[i]
        if t.text in (";", "{", "}"):
            stmt_start = True
            i += 1
            continue
        if stmt_start and t.kind == "ident" and \
                t.text not in _STMT_KEYWORDS:
            j = _scan_decl(toks, i, hi)
            if j is not None:
                name_idx, is_ref = j
                if not is_ref:
                    locals_.add(toks[name_idx].text)
                i = name_idx + 1
                stmt_start = False
                continue
        stmt_start = t.text in ("(",) and stmt_start
        if t.text not in ("const", "auto") or not stmt_start:
            stmt_start = False
        i += 1
    return locals_


def _scan_decl(toks, i, hi):
    """If a declaration `Type name ...` starts at toks[i], return
    (name_token_index, is_reference); else None."""
    saw_type = False
    is_ref = False
    while i < hi:
        t = toks[i]
        if t.kind == "ident":
            if t.text in _STMT_KEYWORDS:
                return None
            if t.text == "auto":
                saw_type = True
                i += 1
                continue
            if t.text in _TYPE_HEAD_SKIP:
                i += 1
                continue
            # Type component or the declared name?
            nxt = toks[i + 1].text if i + 1 < hi else ""
            if nxt == "<":
                i = cxxlex.skip_template_args(toks, i + 1)
                saw_type = True
                continue
            if nxt == "::":
                i += 2
                continue
            if nxt in ("&", "&&", "*"):
                saw_type = True
                i += 1
                continue
            if saw_type and nxt in ("=", ";", ",", ")", "{"):
                return (i, is_ref)
            if not saw_type:
                saw_type = True
                i += 1
                continue
            return None
        if t.text in ("&", "&&"):
            is_ref = True
            i += 1
            continue
        if t.text == "*":
            i += 1
            continue
        if t.text == "::":
            i += 1
            continue
        return None
    return None


_CTOR_TEMP_RE = re.compile(r"^[A-Z]\w*$")


def _classify_arg(toks, lo, hi, locals_):
    """Classification for one spawn-call argument."""
    texts = [t.text for t in toks[lo:hi]]
    if not texts:
        return {"cls": "other", "text": ""}
    text = " ".join(texts)
    # std::move(x) / std::forward<T>(x) do not change storage.
    if texts[:2] == ["std", "::"] and len(texts) > 3 and \
            texts[2] in ("move", "forward"):
        inner_lo = lo + 3
        while inner_lo < hi and toks[inner_lo].text != "(":
            inner_lo += 1
        if inner_lo < hi:
            return _classify_arg(toks, inner_lo + 1, hi - 1, locals_)
    if len(texts) == 1 and toks[lo].kind == "ident":
        if texts[0] in locals_:
            return {"cls": "local", "text": text}
        return {"cls": "other", "text": text}
    if texts[0] == "&" and len(texts) == 2 and texts[1] in locals_:
        return {"cls": "addr-local", "text": text}
    # `Type(...)` / `Type{...}` / `ns::Type{...}`: a materialized
    # temporary (heuristic: type-case head identifier).
    head = texts[0]
    k = 0
    while k + 2 < len(texts) and texts[k + 1] == "::":
        head = texts[k + 2]
        k += 2
    if k + 1 < len(texts) and texts[k + 1] in ("(", "{") and \
            _CTOR_TEMP_RE.match(head):
        return {"cls": "temp", "text": text}
    return {"cls": "other", "text": text}


def scan_file(rel, text):
    """Reduce one file to facts + cross-file declaration tables.

    Returns a JSON-serializable dict:
      facts            : finalized facts (includes, mutable statics)
      coro_fns         : FACT_CORO_FN facts (also merged into tables)
      spawns           : FACT_SPAWN facts with unresolved callee names
      count_calls      : candidate .count() arithmetic sites
      iter_sites       : candidate unordered-iteration sites
      strong_vars      : {name: type} for Tick/Bytes/BytesPerSec decls
      strong_ret_fns   : {name: type}
      unordered_names  : directly-spelled unordered vars/members
      ordered_names    : vars/members of known std:: ordered types
      aliases          : {alias: 1} aliases of unordered types
      alias_vars       : {var: alias} vars typed by a bare identifier
      raw_includes     : [(line, path, quoted)]
    """
    raw_lines = text.splitlines()
    code_lines = cxxlex.strip_code(text)
    toks = cxxlex.tokenize(code_lines)
    regions = _build_regions(toks)
    fn_regions = _function_regions(regions)

    out = {
        "facts": [],
        "coro_fns": [],
        "spawns": [],
        "count_calls": [],
        "iter_sites": [],
        "strong_vars": {},
        "strong_ret_fns": {},
        "unordered_names": {},
        "ordered_names": {},
        "aliases": {},
        "alias_vars": {},
        "raw_includes": [],
    }

    for lineno, line in enumerate(raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            out["raw_includes"].append(
                (lineno, m.group(2), m.group(1) == '"'))

    _scan_aliases(toks, out)
    _scan_typed_decls(toks, regions, out)
    _scan_statics(toks, regions, fn_regions, rel, out)
    _scan_coro_fns(toks, fn_regions, regions, rel, out)
    _scan_spawns(toks, fn_regions, rel, out)
    _scan_count_calls(toks, rel, out)
    _scan_iter_sites(toks, rel, out)
    return out


def _scan_aliases(toks, out):
    """using X = ...unordered...;  /  typedef ...unordered... X;"""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text == "using" and i + 2 < n and \
                toks[i + 1].kind == "ident" and toks[i + 2].text == "=":
            j = i + 3
            rhs = []
            while j < n and toks[j].text != ";":
                rhs.append(toks[j].text)
                j += 1
            rhs_text = " ".join(rhs)
            if UNORDERED_RE.search(rhs_text):
                out["aliases"][toks[i + 1].text] = 1
            elif len(rhs) >= 1 and re.match(r"[A-Za-z_]\w*$", rhs[-1]):
                # using Y = X;  — possible alias-of-alias chain.
                out["alias_vars"].setdefault(
                    "using:" + toks[i + 1].text, rhs[-1])
        elif t.text == "typedef":
            j = i + 1
            rhs = []
            while j < n and toks[j].text != ";":
                rhs.append(toks[j].text)
                j += 1
            if len(rhs) >= 2 and UNORDERED_RE.search(" ".join(rhs[:-1])):
                out["aliases"][rhs[-1]] = 1


def _scan_typed_decls(toks, regions, out):
    """Variables and functions typed Tick/Bytes/BytesPerSec, plus
    variables of (aliased) unordered types, anywhere in the file."""
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind != "ident":
            i += 1
            continue
        if t.text in STRONG_TYPES:
            prev = toks[i - 1].text if i > 0 else ""
            if prev in ("enum", "class", "struct", "using", "."):
                i += 1
                continue
            j = i + 1
            # skip template args / qualifiers
            while j < n and toks[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "ident" and \
                    toks[j].text not in _STMT_KEYWORDS:
                name = toks[j].text
                after = toks[j + 1].text if j + 1 < n else ""
                if after == "(" and \
                        _enclosing_scope(regions, j) != "function":
                    if name != "operator":
                        out["strong_ret_fns"][name] = t.text
                elif after in ("=", ";", ",", ")", "{", ":"):
                    out["strong_vars"][name] = t.text
            i = j + 1
            continue
        if t.text.startswith("unordered_") and UNORDERED_RE.match(t.text):
            j = cxxlex.skip_template_args(toks, i + 1) \
                if i + 1 < n and toks[i + 1].text == "<" else i + 1
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "ident" and \
                    toks[j].text not in _STMT_KEYWORDS:
                out["unordered_names"][toks[j].text] = 1
            i = j
            continue
        if t.text in _ORDERED_HEADS and i >= 2 and \
                toks[i - 1].text == "::" and toks[i - 2].text == "std":
            j = cxxlex.skip_template_args(toks, i + 1) \
                if i + 1 < n and toks[i + 1].text == "<" else i + 1
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "ident" and \
                    toks[j].text not in _STMT_KEYWORDS:
                out["ordered_names"][toks[j].text] = 1
            i = j
            continue
        # `AliasName var;` / `const AliasName &var` — a bare-identifier
        # type; resolved against the merged alias table later.
        if re.match(r"[A-Z]\w*$", t.text) and i > 0 and \
                toks[i - 1].text in (";", "{", "}", "(", ",", "const"):
            j = i + 1
            while j < n and toks[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "ident" and \
                    toks[j].text not in _STMT_KEYWORDS:
                after = toks[j + 1].text if j + 1 < n else ""
                if after in ("=", ";", ",", ")", "{"):
                    out["alias_vars"].setdefault(toks[j].text, t.text)
        i += 1


def _scan_statics(toks, regions, fn_regions, rel, out):
    """Mutable static-storage declarations (shard-safety rule 3)."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text != "static":
            continue
        scope = _enclosing_scope(regions, i)
        # Gather the declaration head up to = { ; (
        j = i + 1
        head = []
        while j < n and toks[j].text not in ("=", ";", "(", "{"):
            head.append(toks[j].text)
            j += 1
        if j >= n or not head:
            continue
        terminator = toks[j].text
        head_text = " ".join(head)
        if terminator == "(":
            continue  # static member/free function
        if any(k in head for k in
               ("constexpr", "const", "constinit", "assert")):
            continue
        if SANCTIONED_STATIC_RE.search(head_text):
            continue
        name = ""
        for h in reversed(head):
            if re.match(r"[A-Za-z_]\w*$", h):
                name = h
                break
        if not name:
            continue
        out["facts"].append(fact(
            FACT_MUTABLE_STATIC, rel, t.line, name=name,
            type=head_text,
            scope="function-static" if scope == "function"
            else "namespace"))


def _scan_coro_fns(toks, fn_regions, regions, rel, out):
    """Coro<...>-returning definitions and declarations."""
    n = len(toks)
    # Definitions: function regions whose return type spells Coro<.
    for r in fn_regions:
        hdr = _function_header(toks, r)
        if hdr is None:
            continue
        name, plo, phi = hdr
        ret = _return_type_text(toks, r, plo)
        if not re.search(r"\bCoro\s*<", ret):
            continue
        params = _parse_params(toks, plo, phi)
        out["coro_fns"].append(fact(
            FACT_CORO_FN, rel, toks[r.open].line, name=name,
            params=params, is_def=True))
    # Declarations: `Coro < ... > name ( ... ) [const] ;`
    i = 0
    while i < n:
        if toks[i].text == "Coro" and i + 1 < n and \
                toks[i + 1].text == "<":
            j = cxxlex.skip_template_args(toks, i + 1)
            if j < n and toks[j].kind == "ident" and j + 1 < n and \
                    toks[j + 1].text == "(":
                close = cxxlex.match_forward(toks, j + 1, "(", ")")
                k = close
                while k < n and toks[k].text in ("const", "noexcept",
                                                 "override"):
                    k += 1
                if k < n and toks[k].text == ";":
                    out["coro_fns"].append(fact(
                        FACT_CORO_FN, rel, toks[j].line,
                        name=toks[j].text,
                        params=_parse_params(toks, j + 2, close - 1),
                        is_def=False))
            i = j
            continue
        i += 1


def _suspend_outside_lambdas(toks, lo, hi):
    """True if toks[lo:hi] contains co_await/co_return/co_yield that
    does NOT sit inside a nested lambda body — a suspend point in a
    lambda makes the *lambda* a coroutine, not the enclosing
    function."""
    i = lo
    while i < hi:
        t = toks[i]
        if t.text == "[":
            prev = toks[i - 1] if i > lo else None
            is_subscript = prev is not None and (
                prev.kind in ("ident", "num") or
                prev.text in (")", "]"))
            if not is_subscript:
                j = cxxlex.match_forward(toks, i, "[", "]")
                if j < hi and toks[j].text == "(":
                    j = cxxlex.match_forward(toks, j, "(", ")")
                while j < hi and toks[j].text not in ("{", ";", ")",
                                                      ",", "}"):
                    j += 1
                if j < hi and toks[j].text == "{":
                    i = cxxlex.match_forward(toks, j, "{", "}")
                    continue
            i += 1
            continue
        if t.text in _SUSPEND:
            return True
        i += 1
    return False


def _scan_spawns(toks, fn_regions, rel, out):
    """spawn()/spawnLane() call sites inside function bodies."""
    for r in fn_regions:
        lo, hi = r.open + 1, r.close
        locals_ = _collect_locals(toks, lo, hi)
        hdr = _function_header(toks, r)
        if hdr is not None:
            _, plo, phi = hdr
            for p in _parse_params(toks, plo, phi):
                if p["kind"] == "value" and p["name"]:
                    locals_.add(p["name"])
        in_coroutine = _suspend_outside_lambdas(toks, lo, hi)
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "ident" and t.text in ("spawn", "spawnLane") \
                    and i + 1 < hi and toks[i + 1].text == "(":
                close = cxxlex.match_forward(toks, i + 1, "(", ")")
                args = cxxlex.split_top_commas(toks, i + 2, close - 1)
                if t.text == "spawnLane" and len(args) > 1:
                    args = args[1:]
                if args:
                    alo, ahi = args[0]
                    _emit_spawn_fact(toks, alo, ahi, locals_,
                                     in_coroutine, rel, t.line, out)
                i = close
                continue
            i += 1


def _emit_spawn_fact(toks, lo, hi, locals_, in_coroutine, rel, line,
                     out):
    """Reduce the coroutine expression inside spawn(...) to a fact."""
    if lo >= hi:
        return
    if toks[lo].text == "[":
        _emit_lambda_spawn(toks, lo, hi, locals_, in_coroutine, rel,
                           line, out)
        return
    # Named call: ident ( :: ident | . ident | -> ident )* ( args )
    i = lo
    callee = None
    while i < hi:
        if toks[i].kind == "ident" and i + 1 < hi and \
                toks[i + 1].text == "(":
            callee = toks[i].text
            break
        i += 1
    if callee is None:
        return
    close = cxxlex.match_forward(toks, i + 1, "(", ")")
    arg_ranges = cxxlex.split_top_commas(toks, i + 2, close - 1)
    args = [_classify_arg(toks, alo, ahi, locals_)
            for alo, ahi in arg_ranges]
    out["spawns"].append(fact(
        FACT_SPAWN, rel, line, callee=callee, args=args,
        in_coroutine=in_coroutine, lambda_ref_capture=False))


def _emit_lambda_spawn(toks, lo, hi, locals_, in_coroutine, rel, line,
                       out):
    cap_close = cxxlex.match_forward(toks, lo, "[", "]")
    captures = [t.text for t in toks[lo + 1: cap_close - 1]]
    ref_capture = any(t == "&" for t in captures)
    i = cap_close
    params = []
    pl = pr = None
    if i < hi and toks[i].text == "(":
        pr = cxxlex.match_forward(toks, i, "(", ")")
        pl = (i + 1, pr - 1)
        i = pr
    # skip trailing-return etc. to the body
    while i < hi and toks[i].text != "{":
        i += 1
    if i >= hi:
        return
    body_close = cxxlex.match_forward(toks, i, "{", "}")
    is_coroutine_lambda = any(
        t.text in _SUSPEND for t in toks[i + 1: body_close - 1])
    if not is_coroutine_lambda:
        return
    # Immediately-invoked: `...}(args)` — classify args against the
    # lambda's own parameter list.
    args = []
    param_kinds = []
    if body_close < hi and toks[body_close].text == "(":
        call_close = cxxlex.match_forward(toks, body_close, "(", ")")
        arg_ranges = cxxlex.split_top_commas(
            toks, body_close + 1, call_close - 1)
        args = [_classify_arg(toks, alo, ahi, locals_)
                for alo, ahi in arg_ranges]
        if pl is not None:
            param_kinds = _parse_params(toks, pl[0], pl[1])
    for k, a in enumerate(args):
        a["param_kind"] = (param_kinds[k]["kind"]
                           if k < len(param_kinds) else "value")
    out["spawns"].append(fact(
        FACT_SPAWN, rel, line, callee="", args=args,
        in_coroutine=in_coroutine, lambda_ref_capture=ref_capture))


def _scan_count_calls(toks, rel, out):
    """Candidate `.count()` raw-representation arithmetic sites."""
    n = len(toks)
    for i in range(n - 3):
        if not (toks[i].text == "." and toks[i + 1].text == "count"
                and toks[i + 2].text == "(" and
                toks[i + 3].text == ")"):
            continue
        # Receiver: identifier chain or a call.
        recv_kind, recv_name, recv_start = _receiver_of(toks, i)
        if recv_kind is None:
            continue
        after = toks[i + 4].text if i + 4 < n else ""
        before = toks[recv_start - 1].text if recv_start > 0 else ""
        op = None
        if after in _ARITH_OPS:
            op = after
        elif before in _ARITH_OPS:
            op = before
        if op is None:
            continue
        out["count_calls"].append({
            "file": rel, "line": toks[i].line, "recv_kind": recv_kind,
            "recv_name": recv_name, "op": op,
        })


def _receiver_of(toks, dot_idx):
    """(kind, name, start_idx) of the expression before `.count()`.
    kind: 'var' (identifier chain ending in name), 'call' (f(...).)
    or None when unrecognizable."""
    i = dot_idx - 1
    if i < 0:
        return (None, None, None)
    if toks[i].kind == "ident":
        name = toks[i].text
        start = i
        while start >= 2 and toks[start - 1].text in (".", "->", "::") \
                and toks[start - 2].kind == "ident":
            start -= 2
        return ("var", name, start)
    if toks[i].text == ")":
        depth = 0
        j = i
        while j >= 0:
            if toks[j].text == ")":
                depth += 1
            elif toks[j].text == "(":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j > 0 and toks[j - 1].kind == "ident":
            name = toks[j - 1].text
            start = j - 1
            while start >= 2 and toks[start - 1].text in \
                    (".", "->", "::") and toks[start - 2].kind == "ident":
                start -= 2
            return ("call", name, start)
        # Parenthesized expression: typed if any inner identifier is.
        inner = [t.text for t in toks[j + 1: i] if t.kind == "ident"]
        return ("expr", ",".join(inner), j)
    return (None, None, None)


def _scan_iter_sites(toks, rel, out):
    """Range-for and begin()/cbegin() iteration sites by *name*; the
    driver decides whether the name's type resolves to unordered."""
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "for" and i + 1 < n and toks[i + 1].text == "(":
            close = cxxlex.match_forward(toks, i + 1, "(", ")")
            colon = None
            depth = 0
            for j in range(i + 2, close - 1):
                txt = toks[j].text
                if txt in "([{":
                    depth += 1
                elif txt in ")]}":
                    depth -= 1
                elif txt == ":" and depth == 0 and \
                        toks[j - 1].text != ":" and \
                        (j + 1 >= n or toks[j + 1].text != ":"):
                    colon = j
                    break
            if colon is not None:
                tail = [x for x in toks[colon + 1: close - 1]
                        if x.kind == "ident"]
                if tail:
                    out["iter_sites"].append({
                        "file": rel, "line": t.line,
                        "name": tail[-1].text, "via": "range-for"})
            i = close
            continue
        if t.text in ("begin", "cbegin") and i >= 2 and \
                toks[i - 1].text in (".", "->") and \
                toks[i - 2].kind == "ident" and i + 1 < n and \
                toks[i + 1].text == "(":
            out["iter_sites"].append({
                "file": rel, "line": t.line,
                "name": toks[i - 2].text, "via": "begin"})
        i += 1
