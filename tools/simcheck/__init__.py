"""simcheck — determinism analyzer for the I/OAT simulator.

The simulator's contract is bit-identical replay: the same seed and
config must produce the same event order, the same stats and the same
golden digests on every host.  simcheck reads the TUs listed in
`compile_commands.json` and every project header they reach, and
enforces the rules that keep that contract: token rules (wall-clock,
raw-random, raw-new, float-tick, raw-stdout, raw-thread) and rules
that need symbol tables and an include graph (coroutine lifetime,
strong-type escapes, shard safety, layering).  See rules.py for the
catalog and DESIGN.md §10 for the narrative.

Two frontends share one rule engine and one fixture suite:

  * libclang (clang.cindex) — canonical-type declaration tables.  Used
    when the bindings are importable (CI installs `libclang` from
    pip).
  * lexical fallback — self-contained token scan (lex_frontend.py).
    Always runs: it supplies every candidate site and token-rule hit
    in both modes, so minimal containers with no clang at all still
    get the whole gate; its fidelity limits are documented in the
    module.

Run as `python3 tools/simcheck` (see __main__.py for the CLI).
"""
