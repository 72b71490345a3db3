#!/usr/bin/env python3
"""Determinism lint for the I/OAT simulator sources.

The simulator's contract is bit-identical replay: the same seed and
config must produce the same event order, the same stats and the same
golden digests on every host.  A handful of C++ constructs silently
break that contract (wall-clock reads, ambient RNGs, hash-ordered
iteration, untracked heap traffic, float->Tick truncation), and none
of them are compile errors.  This lint makes them CI errors instead.

Rules
-----
  wall-clock      no time()/gettimeofday()/clock_gettime()/
                  std::chrono::*_clock: simulated time comes from the
                  event queue, never from the host.
  raw-random      no rand()/srand()/std::random_device/std::mt19937
                  outside src/simcore/random.hh: all randomness flows
                  from the seeded simulator Rng.
  unordered-iter  no iteration over std::unordered_map/set: hash
                  order is libstdc++- and address-dependent, so any
                  loop over one can reorder events or stats output.
                  Lookups (find/at/operator[]) are fine.
  raw-new         no raw new/delete outside src/simcore/pool.hh: heap
                  traffic goes through the arenas so allocation cost
                  and recycling stay modeled and leak-checkable.
                  Placement new (::new (ptr)) is allowed.
  float-tick      no ad-hoc float->Tick conversion: casts like
                  static_cast<Tick>(double) truncate differently
                  depending on intermediate precision.  The one
                  audited door is sim::ticksFromDouble() (and
                  BytesPerSec::transferTime, which uses it).
  raw-stdout      no std::cout/cerr/clog or printf-family writes in
                  src/: model output flows through the telemetry
                  registry / RunReport / sim::Table so every run
                  artifact is machine-readable and diffable.  The
                  sanctioned sink is src/simcore/assert.hh (panics).
                  String *formatting* (strprintf/vsnprintf) is fine.
  raw-thread      no std::thread/mutex/condition_variable/atomic,
                  thread_local, locks or futures outside src/simcore/:
                  model code is single-threaded, and Simulations in
                  one process share no state, so a run's results
                  cannot depend on thread timing.  Whatever threading
                  the engine needs (the coroutine arena's thread-local
                  free lists) lives in src/simcore/.

Suppressions
------------
A finding can be waived with a trailing comment on the same line or a
comment on the line directly above:

    foo = new Node[n]; // simlint: allow(raw-new) arena chunk

Each allow() is counted against a *per-rule* budget (default 5 per
rule, override with `--suppression-budget [rule=]N`) so waivers stay
rare and reviewed; the clean summary reports the remaining budget.

Usage
-----
    tools/simlint.py [paths...]       lint (default: src/)
    tools/simlint.py --self-test      run the fixture suite
"""

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
# Shared with tools/simcheck: a C++ stripper that understands raw
# string literals and digit separators.  The naive stripper this
# replaced lost quote-state inside R"(...)" bodies with embedded
# quotes, leaking string text into "code" and producing phantom
# unordered-iter findings.
from simcheck.cxxlex import strip_code  # noqa: E402

RULES = (
    "wall-clock",
    "raw-random",
    "unordered-iter",
    "raw-new",
    "float-tick",
    "raw-stdout",
    "raw-thread",
)

# Files that ARE the sanctioned implementation of a rule's subject.
EXEMPT = {
    "raw-random": ("src/simcore/random.hh",),
    "raw-new": ("src/simcore/pool.hh",),
    "float-tick": ("src/simcore/types.hh",),
    "raw-stdout": ("src/simcore/assert.hh",),
}

# Directories whose whole subtree is the sanctioned implementation.
EXEMPT_DIRS = {
    # simcore owns the engine: the coroutine arena's thread-local free
    # lists are exactly the code the rule funnels others to.
    "raw-thread": ("src/simcore/",),
}

SOURCE_SUFFIXES = {".hh", ".cc", ".cpp", ".hpp", ".cxx"}

ALLOW_RE = re.compile(r"//\s*simlint:\s*allow\(([a-z-]+)\)")

WALL_CLOCK_RE = re.compile(
    r"(?:\bstd::chrono::(?:system|steady|high_resolution)_clock\b"
    r"|(?<![\w:])(?:std::)?(?:time|clock|gettimeofday|clock_gettime"
    r"|localtime|gmtime|mktime)\s*\()"
)
RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|rand_r|drand48)\s*\("
    r"|\bstd::(?:random_device|mt19937(?:_64)?|minstd_rand0?"
    r"|default_random_engine|ranlux\w+|knuth_b)\b"
)
# An allocating `new`: keyword followed by a type, excluding
# placement new (`::new (...)` / `new (ptr) T`), `= delete`, and
# `operator new` declarations.
RAW_NEW_RE = re.compile(r"(?<![\w:])new\s+[A-Za-z_:][\w:<>, ]*[\[({;]?")
RAW_DELETE_RE = re.compile(r"(?<![\w:])delete(?:\s*\[\s*\])?\s+[A-Za-z_:*(]")
PLACEMENT_NEW_RE = re.compile(r"::\s*new\s*\(|new\s*\(\s*[a-z_]\w*\s*\)")
FLOAT_TICK_RE = re.compile(
    r"static_cast<\s*(?:ioat::)?(?:sim::)?Tick\s*>"
    r"|\bTick\s*\{\s*static_cast<"
    r"|\bTick\s*\(\s*static_cast<"
)
# Console I/O: stream objects or a printf-family *call*.  The
# lookbehind keeps formatting helpers (strprintf, vsnprintf) and
# member calls (sink.printf / sink->printf) from matching.
RAW_STDOUT_RE = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b"
    r"|(?<![\w:.>])(?:std::)?(?:printf|fprintf|vprintf|vfprintf"
    r"|puts|fputs|putchar|fputc|putc)\s*\("
)
# Real concurrency primitives.  thread_local is keyword-matched;
# everything else is the std:: vocabulary (std::thread::id and
# member uses still contain the flagged token, which is the point).
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:jthread|thread|timed_mutex|recursive_mutex"
    r"|shared_mutex|mutex|condition_variable_any|condition_variable"
    r"|atomic_flag|atomic_ref|atomic|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock|counting_semaphore|binary_semaphore"
    r"|stop_token|barrier|latch|future|shared_future|promise|async)\b"
    r"|\bthread_local\b"
)
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*):([^)]*)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:begin|cbegin)\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def collect_allows(raw_lines):
    """Map line number (1-based) -> set of rules waived on that line."""
    allows = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            stripped = line.strip()
            # A standalone comment waives the following line; a
            # trailing comment waives its own line.
            target = idx + 1 if stripped.startswith("//") else idx
            allows.setdefault(target, set()).add(rule)
    return allows


def unordered_names(code_lines):
    """Identifiers declared in this file with an unordered container
    type (members, locals, aliases).  Heuristic: scan past the
    matching '>' of the template argument list and take the next
    identifier."""
    names = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        depth = 1
        j = m.end()
        while j < len(text) and depth > 0:
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
            j += 1
        ident = re.match(r"\s*&?\s*([A-Za-z_]\w*)", text[j:])
        if ident:
            names.add(ident.group(1))
    return names


def lint_file(path, rel):
    raw = pathlib.Path(path).read_text()
    raw_lines = raw.splitlines()
    code_lines = strip_code(raw)
    allows = collect_allows(raw_lines)
    findings = []
    used_allows = []

    def exempt(rule):
        norm = rel.replace("\\", "/")
        return any(norm.endswith(e) for e in EXEMPT.get(rule, ())) or \
            any(d in norm for d in EXEMPT_DIRS.get(rule, ()))

    def report(lineno, rule, message):
        if rule in allows.get(lineno, ()):
            used_allows.append((lineno, rule))
            return
        findings.append(Finding(rel, lineno, rule, message))

    names = unordered_names(code_lines)

    for lineno, line in enumerate(code_lines, start=1):
        if WALL_CLOCK_RE.search(line):
            report(
                lineno, "wall-clock",
                "host clock access; simulated time must come from "
                "Simulation::now()",
            )
        if not exempt("raw-random") and RAW_RANDOM_RE.search(line):
            report(
                lineno, "raw-random",
                "ambient RNG; use the seeded sim::Rng from "
                "src/simcore/random.hh",
            )
        if not exempt("raw-new"):
            no_placement = PLACEMENT_NEW_RE.sub(" ", line)
            no_placement = re.sub(r"=\s*delete\b", " ", no_placement)
            no_placement = re.sub(r"\boperator\s+(?:new|delete)\b",
                                  " ", no_placement)
            if RAW_NEW_RE.search(no_placement) or RAW_DELETE_RE.search(
                    no_placement):
                report(
                    lineno, "raw-new",
                    "raw heap traffic; allocate through the arenas in "
                    "src/simcore/pool.hh (or std::make_unique for "
                    "owner-managed objects)",
                )
        if not exempt("raw-stdout") and RAW_STDOUT_RE.search(line):
            report(
                lineno, "raw-stdout",
                "raw console I/O; emit run artifacts through the "
                "telemetry registry / RunReport / sim::Table",
            )
        if not exempt("raw-thread") and RAW_THREAD_RE.search(line):
            report(
                lineno, "raw-thread",
                "raw threading primitive; model code is "
                "single-threaded and Simulations share no state — "
                "engine-level threading lives only in src/simcore/",
            )
        if not exempt("float-tick") and FLOAT_TICK_RE.search(line):
            report(
                lineno, "float-tick",
                "ad-hoc float->Tick conversion; the audited door is "
                "sim::ticksFromDouble()",
            )
        # unordered-iter: range-for over a known unordered name or a
        # begin()/cbegin() call on one.
        for m in RANGE_FOR_RE.finditer(line):
            target = m.group(2)
            tail = re.findall(r"[A-Za-z_]\w*", target)
            if (tail and tail[-1] in names) or "unordered_" in target:
                report(
                    lineno, "unordered-iter",
                    f"iteration over unordered container "
                    f"'{tail[-1] if tail else target.strip()}'; hash "
                    "order is not deterministic — use std::map/vector "
                    "or sort first",
                )
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in names:
                report(
                    lineno, "unordered-iter",
                    f"begin() on unordered container '{m.group(1)}'; "
                    "hash order is not deterministic",
                )

    return findings, used_allows


def iter_sources(paths):
    for p in paths:
        path = pathlib.Path(p)
        if path.is_file():
            if path.suffix in SOURCE_SUFFIXES:
                yield path
        else:
            for f in sorted(path.rglob("*")):
                if f.suffix in SOURCE_SUFFIXES and f.is_file():
                    yield f


def run_lint(paths, root=None):
    root = pathlib.Path(root or ".").resolve()
    all_findings = []
    all_allows = []
    for f in iter_sources(paths):
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        findings, used = lint_file(f, rel)
        all_findings.extend(findings)
        all_allows.extend((rel, ln, rule) for ln, rule in used)
    return all_findings, all_allows


def self_test(script_dir):
    """Run the lint against its fixture files: every bad_<rule> file
    must trip exactly its rule; every good_<rule> file must be clean;
    the suppressed fixture must be clean but consume allows."""
    fixtures = script_dir / "simlint_fixtures"
    failures = []
    checked = 0
    for f in sorted(fixtures.glob("*.cc")):
        findings, used = lint_file(f, f.name)
        rules_hit = {x.rule for x in findings}
        name = f.stem
        if name.startswith("bad_"):
            want = name[len("bad_"):].replace("_", "-")
            if want not in rules_hit:
                failures.append(f"{f.name}: expected a {want} finding, "
                                f"got {sorted(rules_hit) or 'none'}")
            if rules_hit - {want}:
                failures.append(f"{f.name}: unexpected extra findings "
                                f"{sorted(rules_hit - {want})}")
        elif name.startswith("good_"):
            if findings:
                failures.append(f"{f.name}: expected clean, got "
                                + "; ".join(str(x) for x in findings))
        elif name.startswith("suppressed_"):
            if findings:
                failures.append(f"{f.name}: suppression failed: "
                                + "; ".join(str(x) for x in findings))
            if not used:
                failures.append(f"{f.name}: expected allow() to be "
                                "consumed")
        checked += 1
    if checked == 0:
        failures.append(f"no fixtures found under {fixtures}")
    for msg in failures:
        print(f"simlint self-test FAIL: {msg}", file=sys.stderr)
    print(f"simlint self-test: {checked} fixtures, "
          f"{len(failures)} failures")
    return 1 if failures else 0


DEFAULT_BUDGET = 5


def parse_budgets(specs):
    """`--suppression-budget [rule=]N`, repeatable.  A bare N sets
    every rule's budget; `rule=N` sets one rule's."""
    budgets = {rule: DEFAULT_BUDGET for rule in RULES}
    for spec in specs or ():
        if "=" in spec:
            rule, _, n = spec.partition("=")
            if rule not in RULES:
                raise SystemExit(f"simlint: unknown rule in "
                                 f"--suppression-budget: {rule}")
            budgets[rule] = int(n)
        else:
            for rule in RULES:
                budgets[rule] = int(spec)
    return budgets


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--suppression-budget", action="append",
                    metavar="[RULE=]N",
                    help=f"per-rule simlint:allow() budget (default "
                         f"{DEFAULT_BUDGET} per rule); a bare N sets "
                         f"all rules, RULE=N one rule; repeatable")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite instead of linting")
    args = ap.parse_args(argv)

    script_dir = pathlib.Path(__file__).resolve().parent
    if args.self_test:
        return self_test(script_dir)

    budgets = parse_budgets(args.suppression_budget)
    repo = script_dir.parent
    paths = args.paths or [repo / "src"]
    findings, allows = run_lint(paths, root=repo)

    for x in findings:
        print(x)
    status = 0
    if findings:
        print(f"simlint: {len(findings)} finding(s)", file=sys.stderr)
        status = 1
    used = {}
    for _, _, rule in allows:
        used[rule] = used.get(rule, 0) + 1
    for rule in sorted(used):
        if used[rule] > budgets[rule]:
            print(f"simlint: {used[rule]} allow({rule}) waivers exceed "
                  f"the rule's budget of {budgets[rule]}:",
                  file=sys.stderr)
            for rel, ln, r in allows:
                if r == rule:
                    print(f"  {rel}:{ln}: allow({rule})",
                          file=sys.stderr)
            status = 1
    if status == 0:
        n = len(allows)
        remaining = ", ".join(f"{rule}={budgets[rule] - used.get(rule, 0)}"
                              for rule in RULES)
        print(f"simlint: clean ({n} waiver(s); remaining budget: "
              f"{remaining})")
    return status


if __name__ == "__main__":
    sys.exit(main())
