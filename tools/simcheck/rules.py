"""Rule evaluation for simcheck.

Rules consume the merged, frontend-neutral fact stream (facts.py) and
produce findings.  Path classification (which layer a file belongs
to) lives here so both frontends share one definition of the
architecture.

Rule catalog (DESIGN.md §10 is the narrative version):

  coro-lifetime   A detached coroutine (spawn/spawnLane) must not hold
                  references into a frame that can die before it runs:
                  * inside a *coroutine*, binding a local or by-value
                    parameter to a reference parameter of the spawned
                    task, or passing &local to a pointer parameter
                    (the PR 4 use-after-free class: the spawning
                    frame dies at its own co_return, the task keeps
                    the dangling ref);
                  * binding a materialized temporary to a reference
                    parameter of a spawned task, anywhere;
                  * spawning a coroutine *lambda* that captures by
                    reference (the sanctioned idiom is a capture-less
                    lambda taking explicit parameters).
                  Plain-function drivers (benches, tests, main) that
                  bind their own locals are trusted: by convention
                  they own the Simulation and run it to completion
                  before those locals die.

  strong-type     No integer arithmetic on the raw representation of
                  Tick/Bytes/BytesPerSec outside src/simcore/:
                  `.count()` may flow to formatting, casts and call
                  arguments, but the moment it meets + - * / % & | ^
                  (or a compound assignment) the unit discipline is
                  gone.  The audited doors live in
                  src/simcore/types.hh (divCeil, fractionOf,
                  ticksFromDouble, transferTime, toSeconds, ...);
                  src/simcore/ itself is inside the trust boundary
                  (the event queue's bit-level tick indexing is the
                  documented exemption).

  shard-safety    Model code is single-threaded and Simulations in one
                  process share no state: perfbench and the goldens
                  re-run whole sweeps in one process and require
                  identical digests.  Mutable static-storage state
                  outside src/simcore/ (namespace-scope variables,
                  static data members, function-local statics) would
                  leak from one Simulation into the next unless it is
                  one of the sanctioned stats types
                  (sim::stats::Counter/Accumulator).
                  Also: iteration over a container whose *type*
                  resolves to std::unordered_* through aliases or
                  auto — the spelled-out case is simlint's, the typed
                  case is ours.

  layering        Include-graph architecture rules:
                  * bench/ and examples/ must not include
                    tcp/stack.hh — the sock:: facade is the API;
                  * src/simcore/ must not include any upper layer;
                  * src/mem, src/nic, src/dma must not include
                    datacenter/ headers;
                  * src/sock/ may reach the kernel-bypass transport
                    only through its interface header xpt/bypass.hh —
                    never xpt/ internals, so the facade stays
                    swappable;
                  * model layers (src/mem, src/nic, src/dma, src/tcp,
                    src/xpt) must not include simcore/profile.hh —
                    models report costs through the ProfileSink hook
                    in reqtrace.hh; only the bench/test harness
                    attaches the concrete profiler.

  typecheck       Every TU must type-check (libclang diagnostics, or
                  g++ -fsyntax-only in fallback mode).
"""

from .facts import (
    FACT_INCLUDE,
    FACT_MUTABLE_STATIC,
    FACT_SPAWN,
    FACT_TYPE_ERROR,
)

RULES = ("coro-lifetime", "strong-type", "shard-safety", "layering",
         "typecheck")

STRONG_TYPE_TRUSTED_PREFIX = "src/simcore/"


class Finding:
    __slots__ = ("rule", "file", "line", "message")

    def __init__(self, rule, file, line, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message

    def key(self):
        return (self.file, self.line, self.rule, self.message)

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def layer_of(path):
    """Coarse architectural layer of a repo-relative path."""
    if path.startswith("bench/"):
        return "bench"
    if path.startswith("examples/"):
        return "examples"
    if path.startswith("tests/"):
        return "tests"
    if path.startswith("src/"):
        parts = path.split("/")
        if len(parts) > 2:
            return "src/" + parts[1]
    return "other"


def check_layering(includes):
    """includes: iterable of FACT_INCLUDE facts (resolved, deduped)."""
    findings = []
    for f in includes:
        src_layer = layer_of(f["file"])
        tgt = f["target"]
        tgt_layer = layer_of(tgt)
        if src_layer in ("bench", "examples") and \
                tgt.endswith("tcp/stack.hh"):
            findings.append(Finding(
                "layering", f["file"], f["line"],
                "direct include of tcp/stack.hh; bench/ and examples/ "
                "must use the sock:: facade (src/sock/socket.hh)"))
        elif src_layer == "src/simcore" and \
                tgt_layer.startswith("src/") and \
                tgt_layer != "src/simcore":
            findings.append(Finding(
                "layering", f["file"], f["line"],
                f"src/simcore/ must not include upper layer "
                f"{tgt_layer}/ ({tgt}); the simulation kernel is the "
                f"bottom of the stack"))
        elif src_layer in ("src/mem", "src/nic", "src/dma") and \
                tgt_layer == "src/datacenter":
            findings.append(Finding(
                "layering", f["file"], f["line"],
                f"{src_layer}/ must not include datacenter/ ({tgt}); "
                f"device models sit below application tiers"))
        elif src_layer in ("src/mem", "src/nic", "src/dma", "src/tcp",
                           "src/xpt") and \
                tgt.endswith("simcore/profile.hh"):
            findings.append(Finding(
                "layering", f["file"], f["line"],
                f"{src_layer}/ must not include simcore/profile.hh; "
                f"model code reports costs through the ProfileSink "
                f"hook in reqtrace.hh, and only the bench/test "
                f"harness attaches the concrete profiler"))
        elif src_layer == "src/sock" and tgt_layer == "src/xpt" and \
                not tgt.endswith("xpt/bypass.hh"):
            findings.append(Finding(
                "layering", f["file"], f["line"],
                f"src/sock/ must reach the bypass transport only "
                f"through its interface header xpt/bypass.hh ({tgt} "
                f"is an xpt/ internal); the facade must not depend on "
                f"transport implementation details"))
    return findings


def check_coro_lifetime(spawns, coro_sigs):
    """spawns: FACT_SPAWN facts.  coro_sigs: {name: [param kinds]}
    merged conservatively across declarations (see driver)."""
    findings = []
    for s in spawns:
        if s["lambda_ref_capture"]:
            findings.append(Finding(
                "coro-lifetime", s["file"], s["line"],
                "spawned coroutine lambda captures by reference; the "
                "capture dies with the spawning frame while the task "
                "lives on — use a capture-less lambda with explicit "
                "parameters (see sock/socket.hh timeout watchers)"))
            continue
        args = s.get("args", [])
        kinds = None
        if s["callee"]:
            kinds = coro_sigs.get(s["callee"])
            if kinds is None:
                continue  # not a known coroutine signature
        for idx, a in enumerate(args):
            pk = a.get("param_kind")
            if pk is None:
                pk = kinds[idx] if kinds and idx < len(kinds) else "value"
            if pk == "ref":
                if a["cls"] == "temp":
                    findings.append(Finding(
                        "coro-lifetime", s["file"], s["line"],
                        f"temporary '{a['text']}' bound to a reference "
                        f"parameter of a spawned coroutine; it dies at "
                        f"the end of this statement while the task "
                        f"lives on — pass by value"))
                elif a["cls"] == "local" and s["in_coroutine"]:
                    findings.append(Finding(
                        "coro-lifetime", s["file"], s["line"],
                        f"local '{a['text']}' of a coroutine bound by "
                        f"reference into a spawned task; this frame "
                        f"dies at its own co_return independent of "
                        f"the task (the PR 4 use-after-free class) — "
                        f"pass by value or a shared_ptr"))
            elif pk == "ptr" and a["cls"] == "addr-local" and \
                    s["in_coroutine"]:
                findings.append(Finding(
                    "coro-lifetime", s["file"], s["line"],
                    f"address of coroutine-frame local '{a['text']}' "
                    f"passed to a spawned task; the frame dies at its "
                    f"own co_return independent of the task — pass by "
                    f"value or a shared_ptr"))
    return findings


def check_strong_type(count_calls, strong_vars, strong_ret_fns):
    """count_calls: candidate raw-rep arithmetic sites (lex frontend)
    or pre-typed facts (libclang frontend sets recv_kind='typed')."""
    findings = []
    for c in count_calls:
        if c["file"].startswith(STRONG_TYPE_TRUSTED_PREFIX):
            continue
        typ = None
        if c["recv_kind"] == "typed":
            typ = c.get("type", "strong")
        elif c["recv_kind"] == "var":
            typ = strong_vars.get(c["recv_name"])
        elif c["recv_kind"] == "call":
            typ = strong_ret_fns.get(c["recv_name"])
        elif c["recv_kind"] == "expr":
            for name in c["recv_name"].split(","):
                typ = strong_vars.get(name) or strong_ret_fns.get(name)
                if typ:
                    break
        if not typ:
            continue
        findings.append(Finding(
            "strong-type", c["file"], c["line"],
            f"integer arithmetic ('{c['op']}') on the raw "
            f"representation of {typ}; unit-erasing math belongs "
            f"behind an audited door in src/simcore/types.hh "
            f"(divCeil, fractionOf, transferTime, ticksFromDouble)"))
    return findings


def check_shard_safety(statics, iter_sites, unordered_names):
    findings = []
    for f in statics:
        if f["file"].startswith("src/simcore/"):
            continue
        where = ("function-local static"
                 if f["scope"] == "function-static"
                 else "static-storage variable")
        findings.append(Finding(
            "shard-safety", f["file"], f["line"],
            f"mutable {where} '{f['name']}' ({f['type']}) outside "
            f"src/simcore/; Simulations in one process must share "
            f"no state, so keep it per component or use a sanctioned "
            f"stats type (sim::stats::Counter/Accumulator)"))
    for s in iter_sites:
        if s.get("unordered", s["name"] in unordered_names):
            findings.append(Finding(
                "shard-safety", s["file"], s["line"],
                f"iteration over '{s['name']}' whose type resolves to "
                f"std::unordered_*; hash order is host-dependent — "
                f"use std::map/vector or sort first (typed analog of "
                f"simlint unordered-iter)"))
    return findings


def check_typecheck(type_errors):
    return [Finding("typecheck", f["file"], f["line"], f["message"])
            for f in type_errors]
