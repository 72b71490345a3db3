"""Frontend-neutral fact model for simcheck.

A frontend (libclang or the lexical fallback) reduces each project
file / translation unit to a flat list of *facts*; the rules in
`rules.py` are written purely against facts, so both frontends enforce
identical semantics and share one fixture suite.  The libclang
frontend simply produces more *accurate* facts (real types through
typedefs, `auto` and templates); the fallback documents its fidelity
limits in `lex_frontend.py`.

All facts are plain dicts.  Every fact carries:

    kind : one of the FACT_* constants, or a token rule's name
    file : repo-relative path of the file the fact was observed in
    line : 1-based line number

Kind-specific payload fields are documented next to each constant.
"""

# #include edge.  Payload: `target` — repo-relative resolved path of
# the included *project* file (system headers are never recorded).
FACT_INCLUDE = "include"

# Definition or declaration of a coroutine-task-returning function
# (return type spells sim::Coro<...>).  Payload:
#   name         : unqualified function name
#   params       : list of {name, kind} with kind value|ref|ptr
#   is_def       : bool (definition with a body)
FACT_CORO_FN = "coro-fn"

# A detached start of a coroutine: `spawn(callee(args))` or
# `spawnLane(lane, callee(args))`.  Payload:
#   callee         : unqualified callee name ('' for a lambda)
#   args           : list of {cls, text} where cls is one of
#                    local     — names an automatic-storage object of
#                                the enclosing function (incl. by-value
#                                params)
#                    addr-local— &local
#                    temp      — a materialized temporary (T(...)/T{...})
#                    other     — anything else (members, derefs, calls)
#   in_coroutine   : bool — the *spawning* function is itself a
#                    coroutine (its frame dies independently of the
#                    run loop, so refs into it cannot be trusted)
#   lambda_ref_capture : bool — callee is a lambda with a by-reference
#                    capture list entry
FACT_SPAWN = "spawn"

# Mutable static-storage state: a namespace-scope variable (with or
# without `static`), a static data member or a function-local
# `static` that is neither const/constexpr nor one of the sanctioned
# stats wrappers.  Payload: `name`, `type` (text), `scope`
# ('namespace'|'function-static').
FACT_MUTABLE_STATIC = "mutable-static"

# Token-rule hit: a line of stripped code (comments and literal
# bodies blanked) that matches one of lex_frontend.TOKEN_PATTERNS.
# The fact's kind is the rule's own name (wall-clock, raw-random,
# raw-new, float-tick, raw-stdout, raw-thread); no payload.


def fact(kind, file, line, **payload):
    d = {"kind": kind, "file": file, "line": int(line)}
    d.update(payload)
    return d
