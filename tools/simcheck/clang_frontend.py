"""libclang frontend for simcheck.

When the Python bindings (`clang.cindex`, installed in CI via the
`libclang` pip wheel) are importable, simcheck parses every TU from
`compile_commands.json` with a real compiler frontend.  This module
then contributes what the lexical fallback cannot: *canonical-type*
declaration tables — variables and functions whose type resolves to
Tick/Bytes/BytesPerSec or std::unordered_* through any chain of
using/typedef/auto, and Coro<> signatures with exact parameter kinds.
Compile errors are the build's business, not this module's.

The candidate *sites* (spawn calls, `.count()` arithmetic, range-for
iteration, includes, mutable statics, token-rule hits) come from the
shared lexical scan in both modes — one detection codepath, two
sources of type truth.  The clang tables are merged *over* the
lexical ones, so clang mode sees strictly more resolution power
while the fixture suite (which sticks to alias chains both frontends
resolve) produces identical counts under either — CI asserts that
parity.

Everything here is defensive: any per-TU failure degrades to the
lexical tables for that TU and is reported as a note, never a crash.
"""

import os
import re

try:
    from clang import cindex as _cx
    _HAVE = True
except Exception:  # pragma: no cover - exercised only without clang
    _cx = None
    _HAVE = False

_STRONG_CANON = re.compile(r"::(Tick|Bytes|BytesPerSec)\b")
_UNORDERED_CANON = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)<")
_CORO_CANON = re.compile(r"::Coro<")


def available():
    if not _HAVE:
        return False
    try:
        _cx.Index.create()
        return True
    except Exception:
        return False


def _rel(path, root):
    try:
        rp = os.path.realpath(path)
    except Exception:
        return None
    if rp.startswith(root + os.sep):
        return os.path.relpath(rp, root)
    return None


def _param_kind(ptype):
    k = ptype.kind
    if k in (_cx.TypeKind.LVALUEREFERENCE, _cx.TypeKind.RVALUEREFERENCE):
        return "ref"
    if k == _cx.TypeKind.POINTER:
        return "ptr"
    return "value"


def _strip_refs(ctype):
    k = ctype.kind
    if k in (_cx.TypeKind.LVALUEREFERENCE, _cx.TypeKind.RVALUEREFERENCE):
        return ctype.get_pointee()
    return ctype


def _strong_name(ctype):
    spelling = _strip_refs(ctype).get_canonical().spelling
    m = _STRONG_CANON.search(spelling)
    return m.group(1) if m else None


def analyze_tu(tu_path, args, repo_root):
    """Parse one TU; return clang-derived declaration tables.

    Returns a dict:
      strong_vars     : {name: Tick|Bytes|BytesPerSec}
      strong_ret_fns  : {name: type}
      unordered_names : {name: 1} vars whose canonical type is unordered
      coro_sigs       : {name: [param kinds]}
      note            : '' or a degradation note (parse failure)
    """
    out = {"strong_vars": {}, "strong_ret_fns": {},
           "unordered_names": {}, "coro_sigs": {}, "note": ""}
    try:
        index = _cx.Index.create()
        tu = index.parse(tu_path, args=args)
    except Exception as e:  # pragma: no cover
        out["note"] = f"libclang failed to parse {tu_path}: {e}"
        return out

    root = os.path.realpath(repo_root)
    ck = _cx.CursorKind
    try:
        for cur in tu.cursor.walk_preorder():
            loc = cur.location
            if loc.file is None or _rel(loc.file.name, root) is None:
                continue
            kind = cur.kind
            if kind in (ck.VAR_DECL, ck.FIELD_DECL, ck.PARM_DECL):
                name = cur.spelling
                if not name:
                    continue
                st = _strong_name(cur.type)
                if st:
                    out["strong_vars"][name] = st
                canon = _strip_refs(
                    cur.type).get_canonical().spelling
                if _UNORDERED_CANON.search(canon):
                    out["unordered_names"][name] = 1
            elif kind in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                          ck.FUNCTION_TEMPLATE):
                name = cur.spelling
                if not name:
                    continue
                rt = cur.result_type
                rcanon = rt.get_canonical().spelling
                if _CORO_CANON.search(rcanon):
                    kinds = [_param_kind(c.type)
                             for c in cur.get_children()
                             if c.kind == ck.PARM_DECL]
                    # Conservative-AND merge with other decls of the
                    # same name, like the driver does for lex tables.
                    prev = out["coro_sigs"].get(name)
                    if prev is not None:
                        kinds = [a if a == b else "value"
                                 for a, b in zip(prev, kinds)]
                    out["coro_sigs"][name] = kinds
                else:
                    st = _strong_name(rt)
                    if st:
                        out["strong_ret_fns"][name] = st
    except Exception as e:  # pragma: no cover
        out["note"] = f"libclang walk aborted in {tu_path}: {e}"
    return out
