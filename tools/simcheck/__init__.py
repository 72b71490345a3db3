"""simcheck — AST-grounded determinism analyzer for the I/OAT simulator.

Semantic sibling of tools/simlint.py: where simlint pattern-matches
tokens, simcheck works from `compile_commands.json`, type-checks every
translation unit, and enforces rules that need symbol tables and an
include graph (coroutine lifetime, strong-type escapes, mutable
statics, layering).  See rules.py for the catalog and DESIGN.md §10
for the narrative.

Two frontends share one rule engine and one fixture suite:

  * libclang (clang.cindex) — full-fidelity type tables and per-TU
    diagnostics.  Used when the bindings are importable (CI installs
    `libclang` from pip).
  * lexical fallback — self-contained token scan (lex_frontend.py)
    with g++ -fsyntax-only supplying the TU type-check.  Used in
    minimal containers with no clang at all, so the gate never goes
    dark; its fidelity limits are documented in the module.

Run as `python3 tools/simcheck` (see __main__.py for the CLI).
"""

__version__ = "1.0"

SCHEMA_VERSION = 6  # bump to invalidate cached per-file scans
